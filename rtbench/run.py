"""Benchmark for rtcode: five workloads, one per solver layer.

    python3 rtbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of region, certify, simulate, vending, belief, or all, which
runs each of them in its own process and sums the counts.

Run from the root of a checkout.  The program is imported from the
checkout's src/ and driven in one process through its command-line
entry point, rtcode.cli.main, one command line at a time.  A run sets up
(fresh import and one small warm-up command, repeated; the median is
setup_s), then repeats whole rounds of its workload's command lines for
about S seconds, then checks every answer against oracle.py.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 rounds alternate between untraced and
traced (rtcode's layer functions wrapped from outside, see hooks.py) and
the JSON object holds the per-layer metrics.  A record of the run, with
the machine facts and the src/ line count, is written to rtbench/out/.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

import hooks
from workloads import WORKLOADS, Op, Result

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# Seconds the calibration kernel takes on the reference machine (the
# 2-core sandbox of README.md at its usual speed).  Fixed, so that
# reference seconds mean the same on every commit.
CAL_REF_S = 0.015

_CAL_RNG = np.random.default_rng(0)
_CAL_NEXT = _CAL_RNG.integers(0, 16, size=(16, 8, 4))
_CAL_PROB = np.full((16, 8, 4), 0.25)
_CAL_REWARD = _CAL_RNG.random((16, 8))


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter work and small-array
    numpy work that does not touch rtcode: the machine's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    h = np.zeros(16)
    for _ in range(500):
        q = _CAL_REWARD + 0.5 * (_CAL_PROB * h[_CAL_NEXT]).sum(axis=2)
        top = q.max(axis=1)
        h = top - top[0]
    return time.perf_counter() - t0


def to_reference(seconds: float, cal_before: float, cal_after: float) -> float:
    """Wall seconds converted to reference seconds with the calibration
    runs on either side."""
    return seconds * CAL_REF_S / (0.5 * (cal_before + cal_after))


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_rtcode():
    """Import rtcode from this checkout, dropping any copy already loaded,
    so that each call pays the package's import-time work again."""
    for name in [n for n in sys.modules
                 if n == "rtcode" or n.startswith("rtcode.")]:
        del sys.modules[name]
    cli = importlib.import_module("rtcode.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"rtcode was imported from {cli.__file__}, "
                          f"not from {SRC}")
    return cli


def run_op(op, taps=()):
    """Run one command line in-process; stdout is captured, not shown."""
    cli = sys.modules["rtcode.cli"]
    buf = io.StringIO()
    with hooks.Tap(taps) as tap, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(op.argv))
        except Exception:  # noqa: BLE001 - a crash is a failed operation
            rc = -1
            buf.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
    return Result(op, rc, buf.getvalue(), seconds, len(caught), tap.seen)


def set_up(workload, seed):
    """Fresh import, the seeded plan, and one warm-up command."""
    load_rtcode()
    rng = random.Random(seed)
    plan = workload.plan(rng)
    warm = run_op(Op(workload.warmup))
    if warm.rc != 0:
        raise RuntimeError(f"warm-up command failed:\n{warm.out}")
    return plan, rng


def machine_facts() -> dict:
    import scipy

    lines = sum(len(p.read_text().splitlines())
                for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "src_lines": lines,
    }


def measure(workload, plan, rng, seconds, trace):
    """Whole rounds until about `seconds` have passed.  With trace, a first
    round warms the process up untimed (its answers are still checked),
    then untraced and traced rounds alternate and come in pairs."""
    rounds, times, layer_rows = [], [], []
    if trace:
        rounds.append([run_op(op, workload.taps)
                       for op in workload.round_ops(plan, rng)])
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(rounds) % 2 == 0
        ops = workload.round_ops(plan, rng)
        taps = workload.taps if not rounds else ()
        tracer = hooks.Tracer() if traced else contextlib.nullcontext()
        results, ref = [], 0.0
        cal = calibrate()
        for op in ops:
            with tracer:
                results.append(run_op(op, taps))
            after = calibrate()
            ref += to_reference(results[-1].seconds, cal, after)
            cal = after
        wall = sum(r.seconds for r in results)
        rounds.append(results)
        times.append({"traced": traced, "seconds": wall, "ref_seconds": ref,
                      "work": sum(r.op.work for r in results)})
        if traced:
            layer_rows.append(hooks.layer_metrics(tracer.tally, wall))
        elapsed = time.perf_counter() - start
        if traced or not trace:
            # stop where the run ends closest to the target length
            if elapsed + 0.5 * elapsed / len(times) > seconds:
                break
    return rounds, times, layer_rows


def run_all(args) -> int:
    """Every workload, each in its own process, one after the other; the
    last line sums the counts and prefixes each metric with its workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "rtcode" / "cli.py").is_file():
        sys.stderr.write(f"error: no rtcode sources under {SRC}; run from "
                         f"the root of an rtcode checkout\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)} or all\n")
        return 2

    setups = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        t0 = time.perf_counter()
        plan, rng = set_up(workload, args.seed)
        wall = time.perf_counter() - t0
        setups.append(to_reference(wall, before, calibrate()))
    missing = hooks.missing_names() if args.trace else []

    rounds, times, layer_rows = measure(workload, plan, rng, args.seconds,
                                        args.trace)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        verdict = workload.verify(rounds)
        problems = verdict.unexpected(rounds)
        failed = verdict.failed(rounds)
        known = sorted({p for rnd in rounds for r in rnd if r.op.known_fault
                        for p in verdict.op_problems.get(id(r), [])})
        notes = verdict.notes
    except Exception:  # noqa: BLE001 - a crashed check is a wrong answer
        problems = ["checks crashed:\n" + traceback.format_exc()]
        failed = sum(r.op.count for rnd in rounds for r in rnd)
        known = notes = []
    attempted = sum(r.op.count for rnd in rounds for r in rnd)

    if args.trace:
        skip = hooks.unmeasured_metrics(missing)
        metrics = {name: statistics.fmean(row[name] for row in layer_rows)
                   for name in layer_rows[0] if name not in skip}
        metrics["trace.overhead_s"] = (
            statistics.median(t["ref_seconds"] for t in times if t["traced"])
            - statistics.median(t["ref_seconds"] for t in times
                                if not t["traced"]))
        units = hooks.UNITS
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "peak_rss_mb": peak_mb,
                   "work_per_ref_s": statistics.median(
                       t["work"] / t["ref_seconds"] for t in times)}
        units = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_ref_s": "1/s"}
    wall_rate = statistics.median(t["work"] / t["seconds"] for t in times
                                  if not t["traced"])

    facts = machine_facts()
    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": facts, "setup_runs_ref_s": setups,
        "work_per_wall_s": wall_rate, "rounds": times,
        "ops": [{"argv": list(r.op.argv), "rc": r.rc, "seconds": r.seconds,
                 "warnings": r.warnings} for rnd in rounds for r in rnd],
        "missing_hooks": missing, "known_fault": known, "notes": notes,
        "problems": problems,
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(rounds)} rounds of {len(rounds[0])} commands")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in facts.items()))
    if not args.trace:
        print(f"{workload.work_name} = {metrics['work_per_ref_s']:.6g} "
              f"{workload.work_unit} per reference second (reported as "
              f"work_per_ref_s); {wall_rate:.6g} per wall second")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name in missing:
        print(f"missing hook: {name}")
    for text in known:
        print(f"known fault (counted as failed): {text}")
    for text in notes:
        print(f"note: {text}")
    for text in problems:
        print(f"PROBLEM: {text}")
    print(f"attempted {attempted}, failed {failed}, correct {not problems}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
