"""Command-line front end: solves, sweeps, region scans, checks, simulation.

Output is machine-readable only: JSON reports on standard output, CSV
streams with the fixed header ``p,delta,d,m,quantity,value,flags``.  All
floats are printed with 12 significant digits, and rows appear in
lexicographic parameter order regardless of the worker-pool size, so
repeated runs are byte-identical.

Exit codes: 0 success, 1 numerical non-convergence (flagged rows),
2 usage or validation problems.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .baselines import (_map_tasks, d0_distortion, shannon_limit,
                        suboptimality_region, symbol_by_symbol_check,
                        uncoded_condition_check)
from .errors import CapacityError, NonConvergenceError, SpecValidationError
from .models import (ProblemSpec, _check_capacity, bernoulli_source,
                     binary_problem, bsc, hamming, load_spec, spec_from_dict,
                     with_budget)
from .scenarios import (memory_last_m, solve_feedback_complete,
                        solve_feedback_finite, solve_nofeedback, spec_params)
from .simplex import simplex_grid
from .simulate import PolicyBundle, simulate
from .vending import solve_vending_feedback, solve_vending_nofeedback

CSV_HEADER = "p,delta,d,m,quantity,value,flags"
SWEEP_QUANTITIES = ("D0", "Dinf", "Ddm", "Dvend")


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _round_floats(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(_round_floats(obj), indent=2) + "\n")


def _usage(msg: str):
    raise SpecValidationError([msg])


def _parse_source(token: str):
    kind, _, arg = token.partition(":")
    if kind == "bernoulli" and arg:
        return bernoulli_source(float(arg))
    _usage(f"unknown source {token!r}; expected bernoulli:<p>")


def _parse_channel(token: str):
    kind, _, arg = token.partition(":")
    if kind == "bsc" and arg:
        return bsc(float(arg))
    _usage(f"unknown channel {token!r}; expected bsc:<delta>")


def _parse_distortion(token: str):
    if token == "hamming":
        return hamming(2)
    _usage(f"unknown distortion {token!r}; expected hamming")


def _parse_memory(token):
    """Returns ('last', m) or ('complete', None); an absent flag (None)
    is last:0."""
    if token is None:
        return "last", 0
    if token == "complete":
        return "complete", None
    kind, _, arg = token.partition(":")
    if kind == "last" and arg:
        m = int(arg)
        if m < 0:
            _usage(f"memory length {m} must be nonnegative")
        return "last", m
    _usage(f"unknown memory {token!r}; expected last:<m> or complete")


def _parse_last_memory(token: str, what: str) -> int:
    kind, m = _parse_memory(token)
    if kind != "last":
        _usage(f"{what} supports only last:<m> memories")
    return m


def _refuse(rules) -> None:
    """Exit 2 on the first rule (flag, unread, why) whose flag is unread."""
    for flag, unread, why in rules:
        if unread:
            _usage(f"{flag} does not apply here: {why}")


def _read_vending(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _attach_vending(spec: ProblemSpec, block: dict, budget=None):
    """spec with the vending block and, when one is given, the budget."""
    spec = spec_from_dict({**spec_params(spec), "vending": block})
    return spec if budget is None else with_budget(spec, budget)


def _build_spec(args) -> ProblemSpec:
    flags = {f"--{name}": getattr(args, name)
             for name in ("source", "channel", "distortion")}
    if args.spec:
        _refuse((flag, value is not None, "the problem comes from --spec")
                for flag, value in flags.items())
        spec = load_spec(args.spec)
    else:
        missing = [flag for flag, value in flags.items() if value is None]
        if missing:
            _usage("missing " + ", ".join(missing) + " (or use --spec)")
        spec = ProblemSpec(
            _parse_source(args.source),
            _parse_channel(args.channel),
            _parse_distortion(args.distortion),
        )
    if getattr(args, "vending", None):
        spec = _attach_vending(spec, _read_vending(args.vending))
    if getattr(args, "budget", None) is not None:
        spec = with_budget(spec, args.budget)
    problems = spec.check()
    if problems:
        raise SpecValidationError(problems)
    return spec


def _need_grid(args) -> int:
    if args.grid is None:
        _usage("this scenario needs --grid <resolution>")
    if args.grid < 1:
        _usage(f"grid resolution {args.grid} must be at least 1")
    return args.grid


def _solve_finite(spec: ProblemSpec, d: int, nofeedback: bool, grid, tol,
                  m: int = 0, mem_x: int = 0, mem_y: int = 0):
    """Solve one finite-memory scenario: the (decoder, actuator) pairs when
    spec has vending data, the decoder tables otherwise."""
    if spec.vending is not None:
        mx = memory_last_m(mem_x, spec.num_channel_inputs)
        my = memory_last_m(mem_y, spec.num_channel_outputs)
        if nofeedback:
            return solve_vending_nofeedback(spec, d, mx, my, grid, tol=tol)
        return solve_vending_feedback(spec, d, mx, my, tol=tol)
    memory = memory_last_m(m, spec.num_channel_outputs)
    if nofeedback:
        return solve_nofeedback(spec, d, memory, grid, tol=tol)
    return solve_feedback_finite(spec, d, memory, tol=tol)


def _solve_report(args, simulated=False):
    """Shared solve dispatch; returns (report, spec).  simulated refuses,
    before the solve, a scenario that the simulator cannot run."""
    spec = _build_spec(args)
    d = args.d
    if d < 0:
        _usage(f"lookahead {d} must be nonnegative")
    vending = spec.vending is not None
    complete = not vending and args.memory == "complete"
    _refuse((
        ("--memory", vending and args.memory is not None,
         "a vending solve takes --memory-x and --memory-y"),
        ("--memory-x", not vending and args.memory_x is not None,
         "only a vending solve (--vending) reads it"),
        ("--memory-y", not vending and args.memory_y is not None,
         "only a vending solve (--vending) reads it"),
        ("--no-feedback", complete and args.no_feedback,
         "--memory complete is a feedback scenario; "
         "drop --no-feedback or use --memory last:<m>"),
        ("--grid", not (complete or args.no_feedback)
         and args.grid is not None,
         "a feedback last:<m> solve has no belief grid"),
        ("--memory", simulated and complete,
         "there is no simulator for --memory complete"),
    ))
    if complete:
        report = solve_feedback_complete(spec, d, _need_grid(args),
                                         tol=args.tol)
        return report, spec
    m = mem_x = mem_y = 0
    if vending:
        mem_x = _parse_last_memory(args.memory_x, "--memory-x")
        mem_y = _parse_last_memory(args.memory_y, "--memory-y")
    else:
        _, m = _parse_memory(args.memory)
    grid = _need_grid(args) if args.no_feedback else None
    return _solve_finite(spec, d, args.no_feedback, grid, args.tol, m,
                         mem_x, mem_y), spec


def cmd_solve(args) -> int:
    report, _ = _solve_report(args)
    _emit_json(report.to_dict())
    return 0


def _parse_range(token: str) -> list[float]:
    """A single value or start:stop:step, all finite, with no more points
    than the capacity guard allows."""
    parts = token.split(":")
    if len(parts) not in (1, 3):
        _usage(f"bad range {token!r}; expected start:stop:step")
    values = [float(v) for v in parts]
    if not all(math.isfinite(v) for v in values):
        _usage(f"range values must be finite in {token!r}")
    if len(values) == 1:
        return values
    a, b, s = values
    if s <= 0:
        _usage(f"range step must be positive in {token!r}")
    # (b - a) / s overflows to inf past the float range: clip before floor
    n = math.floor(min(max((b - a) / s + 1e-9, -1.0), 2.0**62)) + 1
    _check_capacity("parameter range", n, "use a coarser step")
    return [a + k * s for k in range(n)]


def _parse_assign(token: str, what: str) -> tuple[str, str]:
    name, sep, value = token.partition("=")
    if not sep or name not in ("p", "delta"):
        _usage(f"bad {what} {token!r}; expected p=... or delta=...")
    return name, value


def _sweep_task(task: dict):
    """One sweep cell; returns (value, flags tuple).  Must stay a plain
    module function so worker processes can import it."""
    spec = binary_problem(task["p"], task["delta"])
    try:
        quantity = task["quantity"]
        if quantity == "D0":
            value, _ = d0_distortion(spec)
            return value, ()
        if quantity == "Dinf":
            return shannon_limit(spec), ()
        if quantity == "Dvend":
            spec = _attach_vending(spec, task["vending"], task["budget"])
        report = _solve_finite(spec, task["d"], task["nofeedback"],
                               task["grid"], task["tol"], task["m"],
                               task["mem_x"], task["mem_y"])
        return report.distortion, report.flags
    except NonConvergenceError:
        return float("nan"), ("NONCONVERGED",)


def cmd_sweep(args) -> int:
    quantities = list(dict.fromkeys(args.quantities.split(",")))
    for q in quantities:
        if q not in SWEEP_QUANTITIES:
            _usage(f"unknown quantity {q!r}; choose from "
                   + ",".join(SWEEP_QUANTITIES))
    fix_name, fix_value = _parse_assign(args.fix, "--fix")
    vary_name, vary_range = _parse_assign(args.vary, "--vary")
    if fix_name == vary_name:
        _usage("--fix and --vary must name different parameters")
    fixed = float(fix_value)
    varied = _parse_range(vary_range)
    vend, ddm = "Dvend" in quantities, "Ddm" in quantities
    _refuse((flag, given and not read, f"only {readers} reads it")
            for flag, given, read, readers in (
        ("--vending", args.vending is not None, vend, "Dvend"),
        ("--budget", args.budget is not None, vend, "Dvend"),
        ("--memory-x", args.memory_x is not None, vend, "Dvend"),
        ("--memory-y", args.memory_y is not None, vend, "Dvend"),
        ("--m", args.m is not None, ddm, "Ddm"),
        ("--d", args.d is not None, ddm or vend, "Ddm or Dvend"),
        ("--tol", args.tol is not None, ddm or vend, "Ddm or Dvend"),
        ("--no-feedback", args.no_feedback, ddm or vend, "Ddm or Dvend"),
        ("--grid", args.grid is not None, args.no_feedback, "--no-feedback"),
    ))
    d, tol = args.d or 0, args.tol or 1e-9
    m_list = {int(v) for v in (args.m or "0").split(",")}
    if min(d, *m_list) < 0:
        _usage(f"lookahead {d} and memory lengths {sorted(m_list)} "
               "must be nonnegative")
    mem_x = _parse_last_memory(args.memory_x, "--memory-x")
    mem_y = _parse_last_memory(args.memory_y, "--memory-y")
    block = None
    if vend:
        if not args.vending:
            _usage("quantity Dvend needs --vending <file>")
        block = _read_vending(args.vending)
        # the check reads the alphabets and the budget, not p or delta
        _attach_vending(binary_problem(0.5, 0.5), block, args.budget)
    if args.no_feedback and args.grid is None:
        _usage("--no-feedback needs --grid <resolution>")

    cells = []
    for q in quantities:
        if q == "D0" or q == "Dinf":
            cells.append((q, None, None))
        elif q == "Ddm":
            cells.extend((q, d, m) for m in m_list)
        else:
            cells.append((q, d, None))

    rows = []
    for value in varied:
        p = value if vary_name == "p" else fixed
        delta = value if vary_name == "delta" else fixed
        for q, d, m in cells:
            rows.append({
                "quantity": q, "p": p, "delta": delta, "d": d, "m": m,
                "tol": tol, "grid": args.grid,
                "nofeedback": args.no_feedback,
                "vending": block, "budget": args.budget,
                "mem_x": mem_x, "mem_y": mem_y,
            })
    rows.sort(key=lambda r: (
        r["p"], r["delta"],
        (0, 0) if r["d"] is None else (1, r["d"]),
        (0, 0) if r["m"] is None else (1, r["m"]),
        r["quantity"],
    ))

    results = _map_tasks(_sweep_task, rows, args.workers)
    sys.stdout.write(CSV_HEADER + "\n")
    nonconverged = False
    for row, (value, flags) in zip(rows, results):
        nonconverged = nonconverged or "NONCONVERGED" in flags
        sys.stdout.write(",".join([
            _fmt(row["p"]), _fmt(row["delta"]),
            "" if row["d"] is None else str(row["d"]),
            "" if row["m"] is None else str(row["m"]),
            row["quantity"], _fmt(value), ";".join(flags),
        ]) + "\n")
    return 1 if nonconverged else 0


def cmd_region(args) -> int:
    ps = _parse_range(args.p)
    deltas = _parse_range(args.delta)
    if args.csv:
        # a path that cannot be written fails before the scan; append mode
        # leaves an existing file whole if the command later exits 2
        open(args.csv, "a", encoding="utf-8").close()
    report = suboptimality_region(args.d, args.m, ps, deltas,
                                  margin=args.margin, tol=args.tol,
                                  workers=args.workers)
    errored = {(i, j) for i, j, _ in report.errors}
    lines = [CSV_HEADER]
    for i, p in enumerate(report.p_grid):
        for j, delta in enumerate(report.delta_grid):
            bad = (i, j) in errored
            value = float("nan") if bad else float(bool(report.flags[i, j]))
            lines.append(",".join([
                _fmt(p), _fmt(delta), str(args.d), str(args.m),
                "region_flag", _fmt(value),
                "NONCONVERGED" if bad else "",
            ]))
    text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    flagged = [
        (p, delta)
        for i, p in enumerate(report.p_grid)
        for j, delta in enumerate(report.delta_grid)
        if (i, j) not in errored and report.flags[i, j]
    ]
    summary = {
        "region_nonempty": bool(flagged),
        "count": len(flagged),
        "bounding_box": None if not flagged else {
            "p_min": min(p for p, _ in flagged),
            "p_max": max(p for p, _ in flagged),
            "delta_min": min(x for _, x in flagged),
            "delta_max": max(x for _, x in flagged),
        },
        "errors": len(report.errors),
    }
    _emit_json(summary)
    return 1 if report.errors else 0


def cmd_check_s2s(args) -> int:
    spec = _build_spec(args)
    if args.d < 1:
        _usage(f"lookahead {args.d} must be at least 1 for the grid check")
    n_states = spec.num_source_symbols ** (args.d + 1)
    grid = simplex_grid(n_states, _need_grid(args))
    checker = uncoded_condition_check if args.uncoded else symbol_by_symbol_check
    report = checker(spec, args.d, grid)
    violation = None
    if report.first_violation is not None:
        tup, belief, gap = report.first_violation
        violation = {"tuple": list(tup), "belief": list(belief), "gap": gap}
    _emit_json({
        "quantity": "s2s_check",
        "holds_on_grid": report.holds_on_grid,
        "first_violation": violation,
        "max_gap": report.max_gap,
        "max_identity_gap": report.max_identity_gap,
        "policy": list(report.policy.table),
        "points_checked": report.points_checked,
        "grid_resolution": args.grid,
    })
    return 0


def cmd_shannon(args) -> int:
    spec = _build_spec(args)
    _emit_json({
        "quantity": "Dinf",
        "value": shannon_limit(spec),
        "flags": [],
    })
    return 0


def cmd_simulate(args) -> int:
    report, spec = _solve_report(args, simulated=True)
    bundle = PolicyBundle.from_report(report)
    sim = simulate(bundle, spec, args.d, args.horizon, args.replications,
                   args.seed)
    _emit_json({"solve": report.to_dict(), "simulation": sim.to_dict()})
    return 0


# The smallest --tol.  Below it a span can stall at float resolution
# (4.4e-16 at p = delta = 0.3), so a solve sweeps to its limit: a
# last:2 solve at --tol 1e-17 ran for 205 s.
MIN_TOL = 1e-14


def _tolerance(token: str) -> float:
    """--tol: a finite number of at least MIN_TOL.  The solvers stop when
    a span falls below it, which a nonpositive or NaN tolerance never
    lets happen."""
    tol = float(token)
    if not 0.0 < tol < math.inf:
        raise argparse.ArgumentTypeError(
            f"tolerance {token} must be a positive finite number")
    if tol < MIN_TOL:
        raise argparse.ArgumentTypeError(
            f"tolerance {token} is below the smallest the solvers reach, "
            f"{MIN_TOL:g}")
    return tol


def _at_least(low: int):
    """An argparse type: an integer no smaller than low."""
    def parse(token: str) -> int:
        value = int(token)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"{token} must be at least {low}")
        return value
    parse.__name__ = "int"      # argparse names the type in its errors
    return parse


def _add_problem_flags(sp) -> None:
    sp.add_argument("--source", help="bernoulli:<p>")
    sp.add_argument("--channel", help="bsc:<delta>")
    sp.add_argument("--distortion", help="hamming")
    sp.add_argument("--spec", help="problem description JSON file")


def _add_vending_flags(sp) -> None:
    sp.add_argument("--vending",
                    help="vending block JSON file (kernel, costs, budget)")
    sp.add_argument("--budget", type=float,
                    help="override the vending budget")


def _add_scenario_flags(sp) -> None:
    """The flags of a finite-memory solve.  An absent memory flag is
    last:0."""
    sp.add_argument("--d", type=int, default=0, help="encoder lookahead")
    sp.add_argument("--memory-x", dest="memory_x",
                    help="vending decoder memory over sent symbols")
    sp.add_argument("--memory-y", dest="memory_y",
                    help="vending decoder memory over side observations")
    sp.add_argument("--no-feedback", action="store_true", dest="no_feedback",
                    help="encoder never sees the channel output")
    sp.add_argument("--grid", type=int,
                    help="belief grid resolution for discretized scenarios")
    sp.add_argument("--tol", type=_tolerance, default=1e-9,
                    help="solver tolerance on the span of T h - h; "
                         "decoder tables this close to the best tie")


def _add_solve_parser(sub, name: str, description: str):
    """A subcommand that solves one scenario of a problem: every problem,
    vending and scenario flag, and the coding decoder's --memory."""
    sp = sub.add_parser(name, help=description)
    _add_problem_flags(sp)
    _add_vending_flags(sp)
    _add_scenario_flags(sp)
    sp.add_argument("--memory",
                    help="coding decoder memory: last:<m> or complete")
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtcode",
        description="minimum expected distortion for real-time coding "
                    "with lookahead",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = _add_solve_parser(sub, "solve", "solve one scenario, print JSON")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("sweep", help="CSV sweep of the binary problem "
                                      "over p or delta")
    _add_vending_flags(sp)
    _add_scenario_flags(sp)
    sp.add_argument("--fix", required=True, help="e.g. delta=0.3")
    sp.add_argument("--vary", required=True, help="e.g. p=0:0.5:0.025")
    sp.add_argument("--quantities", required=True,
                    help="comma list from D0,Dinf,Ddm,Dvend")
    sp.add_argument("--m", help="comma list of memory sizes")
    sp.add_argument("--workers", type=_at_least(1),
                    default=os.cpu_count() or 1)
    # None tells a given flag from an absent one
    sp.set_defaults(func=cmd_sweep, d=None, tol=None)

    sp = sub.add_parser("region",
                        help="scan where memoryful coding beats symbol maps")
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--p", required=True, help="range start:stop:step")
    sp.add_argument("--delta", required=True, help="range start:stop:step")
    sp.add_argument("--margin", type=float, default=1e-6)
    sp.add_argument("--tol", type=_tolerance, default=1e-9)
    sp.add_argument("--csv", help="write CSV here instead of stdout")
    sp.add_argument("--workers", type=_at_least(1),
                    default=os.cpu_count() or 1)
    sp.set_defaults(func=cmd_region)

    sp = sub.add_parser("check-s2s",
                        help="symbol-by-symbol optimality check on a grid")
    _add_problem_flags(sp)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--grid", type=int, help="belief grid resolution")
    sp.add_argument("--uncoded", action="store_true",
                    help="pin the identity symbol map")
    sp.set_defaults(func=cmd_check_s2s)

    sp = sub.add_parser("shannon", help="unlimited-lookahead distortion")
    _add_problem_flags(sp)
    sp.set_defaults(func=cmd_shannon)

    sp = _add_solve_parser(sub, "simulate",
                           "solve, then simulate the policy")
    sp.add_argument("--horizon", type=_at_least(1), default=100000)
    sp.add_argument("--replications", type=_at_least(1), default=10)
    sp.add_argument("--seed", type=_at_least(0), required=True)
    sp.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (CapacityError, OSError, ValueError) as err:
        # OSError: a path that cannot be read or written; ValueError: also
        # spec, unreachable-observation and JSON errors
        sys.stderr.write(f"error: {err}\n")
        return 2
    except NonConvergenceError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


def entry() -> None:
    sys.exit(main())
