"""Measure the reference figures quoted in rtbench/README.md.

    python3 rtbench/reference.py [--skip-slow]

Runs each reference command once, in this process, through rtcode's
command-line entry point, and prints one line per figure with the
machine facts.  The full region scan and the d = 1 vending budget take
minutes each; --skip-slow leaves them out.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import run

INPUTS = Path(__file__).resolve().parent / "inputs"


def timed(argv):
    """(wall seconds, stdout) of one command; a failed command stops."""
    res = run.run_op(run.Op(tuple(argv)))
    if res.rc != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with {res.rc}:\n"
                           f"{res.out}")
    return res.seconds, res.out


def flags(p, delta):
    return ["--source", f"bernoulli:{p:g}", "--channel", f"bsc:{delta:g}",
            "--distortion", "hamming"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--skip-slow", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    run.load_rtcode()
    print("machine: " + ", ".join(f"{k} {v}"
                                  for k, v in run.machine_facts().items()))

    if not args.skip_slow:
        s, out = timed(["region", "--d", "1", "--m", "2", "--workers", "1",
                        "--p", "0:0.5:0.025", "--delta", "0:0.5:0.025"])
        summary = json.loads(out[out.index("{"):])
        print(f"region, full 21x21 grid, one process: {s:.1f} s; "
              f"{summary['count']} points flagged, "
              f"{summary['errors']} errors")

    times = []
    for p, delta in ((0.3, 0.3), (0.2, 0.1), (0.1, 0.2), (0.3, 0.0),
                     (0.2, 0.5)):
        times.append(timed(["check-s2s", *flags(p, delta), "--d", "1",
                            "--grid", "10"])[0])
    print(f"one check-s2s at grid 10: {min(times):.2f}-{max(times):.2f} s "
          f"over {len(times)} points")

    s, _ = timed(["simulate", *flags(0.3, 0.3), "--d", "1", "--memory",
                  "last:2", "--horizon", "1000000", "--replications", "10",
                  "--seed", "3"])
    print(f"simulation of 1e6 steps x 10 replications: {s:.1f} s "
          f"({1e7 / s / 1e6:.2f} M steps/s)")

    values = []
    t0 = time.perf_counter()
    for budget in (0.0, 0.5, 1.0):
        _, out = timed(["solve", "--spec", str(INPUTS / "binary.json"),
                        "--vending", str(INPUTS / "binary_vending.json"),
                        "--budget", f"{budget:g}", "--d", "0",
                        "--memory-y", "last:1"])
        values.append(json.loads(out)["distortion"])
    s = (time.perf_counter() - t0) / 3
    print(f"vending, binary two-input toy with memory_y last:1: {s:.1f} s "
          f"per budget for 1,024 pairs; values {values} at budgets "
          f"0, 0.5, 1")

    for d, budgets in ((0, (0.0, 0.25, 0.5, 0.6, 0.75, 1.0)),
                       (1, () if args.skip_slow else (0.5,))):
        times = [timed(["solve", "--spec", str(INPUTS / "ternary.json"),
                        "--vending", str(INPUTS / "ternary_vending.json"),
                        "--budget", f"{b:g}", "--d", str(d)])[0]
                 for b in budgets]
        if times:
            print(f"vending, ternary source over two inputs, d = {d}: "
                  f"324 pairs at {min(times):.1f}-{max(times):.1f} s per "
                  f"budget over {len(times)} budgets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
