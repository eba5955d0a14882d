"""The benchmark runs end to end on the current code.

A short run of every workload must exit 0 and end with its JSON result
line, correct and with no failed operation; a run whose last line is not
a result is refused by the benchmark's driver, so it fails here first.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_short_run_is_correct():
    run = subprocess.run(
        [sys.executable, "rtbench/run.py", "--workload", "all", "--seed", "1",
         "--seconds", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


# Per-layer metrics each workload must read above 0.  A wrapped name that
# still exists but that the program no longer calls reads 0 and prints no
# `missing hook:` line.
WORKED = {
    "belief": ("mdp.rvi_calls", "mdp.sweeps", "scenarios.compile_s"),
    "region": ("mdp.rvi_calls", "mdp.sweeps", "scenarios.compile_s"),
    "simulate": ("simulate.steps", "scenarios.compile_s"),
    "vending": ("vending.compile_s", "vending.pairs", "mdp.dual_evals",
                "vending.loop_s"),
}


@pytest.mark.parametrize("workload", sorted(WORKED))
def test_traced_run_reports_every_per_layer_metric(workload):
    """A traced run measures every layer.  A function that the benchmark
    wraps by name and that the program no longer has drops its metrics
    from the result and prints a `missing hook:` line."""
    run = subprocess.run(
        [sys.executable, "rtbench/run.py", "--workload", workload, "--seed",
         "1", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    lines = run.stdout.strip().splitlines()
    assert [line for line in lines if line.startswith("missing hook:")] == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = json.loads(lines[-1])["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    assert {name: metrics[name]["value"] for name in WORKED[workload]
            if not metrics[name]["value"] > 0} == {}
