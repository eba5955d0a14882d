"""Command-line interface: schemas, determinism, exit codes."""
import importlib.util
import json
import os
import shlex
import time
import warnings
from pathlib import Path

import pytest

from rtcode.baselines import binary_shannon_closed_form, suboptimality_region
import rtcode.baselines as baselines_module
import rtcode.cli as cli_module
from rtcode.cli import (CSV_HEADER, _build_spec, _parse_assign, _parse_range,
                        build_parser, main)
from rtcode.models import state_limit

SOLVE_ARGS = [
    "--source", "bernoulli:0.3", "--channel", "bsc:0.3",
    "--distortion", "hamming",
]


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out


def test_solve_reports_known_value(capsys):
    rc, out = _run(capsys, ["solve", *SOLVE_ARGS, "--d", "1",
                            "--memory", "last:1"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["scenario"] == "feedback-finite"
    assert doc["distortion"] == pytest.approx(0.2528637770898022, abs=1e-9)
    assert doc["params"]["d"] == 1
    assert doc["flags"] == []
    assert doc["diagnostics"]["final_span"] <= 1e-9


def test_solve_output_is_reproducible(capsys):
    argv = ["solve", *SOLVE_ARGS, "--d", "1", "--memory", "last:1"]
    rc1, out1 = _run(capsys, argv)
    rc2, out2 = _run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_solve_complete_memory_needs_grid(capsys):
    rc, _ = _run(capsys, ["solve", *SOLVE_ARGS, "--memory", "complete"])
    assert rc == 2
    rc, out = _run(capsys, ["solve", *SOLVE_ARGS, "--memory", "complete",
                            "--grid", "10"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["scenario"] == "feedback-complete"
    assert doc["distortion"] == pytest.approx(0.3, abs=1e-9)
    rc, _ = _run(capsys, ["solve", *SOLVE_ARGS, "--memory", "complete",
                          "--grid", "5", "--no-feedback"])
    assert rc == 2


def test_sweep_schema_sort_and_values(capsys):
    argv = [
        "sweep", "--fix", "delta=0.3", "--vary", "p=0.1:0.3:0.1",
        "--quantities", "D0,Dinf,Ddm", "--d", "1", "--m", "0,1",
        "--workers", "1",
    ]
    rc, out = _run(capsys, argv)
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3 * 4
    # per p block: D0, Dinf, then Ddm ordered by m
    kinds = [(r[4], r[3]) for r in rows[:4]]
    assert kinds == [("D0", ""), ("Dinf", ""), ("Ddm", "0"), ("Ddm", "1")]
    ps = [float(r[0]) for r in rows]
    assert ps == sorted(ps)
    by_key = {(r[0], r[4], r[3]): r for r in rows}
    assert float(by_key[("0.1", "D0", "")][5]) == pytest.approx(0.1)
    assert float(by_key[("0.3", "Ddm", "1")][5]) == pytest.approx(
        0.2528637770898022, abs=1e-9)
    closed = binary_shannon_closed_form(0.2, 0.3)
    assert float(by_key[("0.2", "Dinf", "")][5]) == pytest.approx(
        closed, abs=1e-6)
    assert all(r[6] == "" for r in rows)


def test_sweep_worker_count_does_not_change_bytes(capsys):
    base = [
        "sweep", "--fix", "p=0.3", "--vary", "delta=0.1:0.3:0.1",
        "--quantities", "D0,Ddm", "--d", "1", "--m", "1",
    ]
    rc1, out1 = _run(capsys, [*base, "--workers", "1"])
    rc2, out2 = _run(capsys, [*base, "--workers", "3"])
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_sweep_empty_range_emits_header_only(capsys):
    rc, out = _run(capsys, [
        "sweep", "--fix", "delta=0.3", "--vary", "p=0.4:0.3:0.1",
        "--quantities", "D0", "--workers", "1",
    ])
    assert rc == 0
    assert out == CSV_HEADER + "\n"


def test_sweep_usage_errors(capsys):
    rc, _ = _run(capsys, [
        "sweep", "--fix", "p=0.3", "--vary", "p=0.1:0.2:0.1",
        "--quantities", "D0", "--workers", "1",
    ])
    assert rc == 2
    rc, _ = _run(capsys, [
        "sweep", "--fix", "delta=0.3", "--vary", "p=0.1:0.2:0.1",
        "--quantities", "D9", "--workers", "1",
    ])
    assert rc == 2
    rc, _ = _run(capsys, [
        "sweep", "--fix", "delta=0.3", "--vary", "p=0.1:0.2:0.1",
        "--quantities", "Dvend", "--workers", "1",
    ])
    assert rc == 2
    # the memories are checked even when the range has no point
    rc, _ = _run(capsys, [
        "sweep", "--fix", "delta=0.3", "--vary", "p=1:0:0.1",
        "--quantities", "D0", "--memory-x", "bogus", "--workers", "1",
    ])
    assert rc == 2


def test_region_csv_file_and_summary(capsys, tmp_path):
    target = tmp_path / "region.csv"
    rc, out = _run(capsys, [
        "region", "--d", "1", "--m", "1", "--p", "0.25:0.35:0.05",
        "--delta", "0.25:0.35:0.05", "--workers", "1",
        "--csv", str(target),
    ])
    assert rc == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 9
    assert all(r[4] == "region_flag" and r[5] in ("0", "1") for r in rows)
    flag_at = {(r[0], r[1]): r[5] for r in rows}
    assert flag_at[("0.3", "0.3")] == "1"
    summary = json.loads(out)
    assert summary["region_nonempty"] is True
    assert summary["count"] >= 1
    assert summary["errors"] == 0
    box = summary["bounding_box"]
    assert 0.25 <= box["p_min"] <= box["p_max"] <= 0.35


def test_region_stdout_mode(capsys):
    rc, out = _run(capsys, [
        "region", "--d", "1", "--m", "0", "--p", "0.3", "--delta", "0.3",
        "--workers", "1",
    ])
    assert rc == 0
    assert out.startswith(CSV_HEADER + "\n")
    assert "region_flag" in out


def test_check_s2s_flags_and_holds(capsys):
    rc, out = _run(capsys, ["check-s2s", *SOLVE_ARGS, "--d", "1",
                            "--grid", "10"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["quantity"] == "s2s_check"
    assert doc["holds_on_grid"] is False
    assert doc["first_violation"]["gap"] > 1e-9
    assert len(doc["first_violation"]["belief"]) == 4
    assert doc["max_identity_gap"] < 1e-9

    rc, out = _run(capsys, [
        "check-s2s", "--source", "bernoulli:0.3", "--channel", "bsc:0.5",
        "--distortion", "hamming", "--d", "1", "--grid", "4",
    ])
    assert rc == 0
    doc = json.loads(out)
    assert doc["holds_on_grid"] is True
    assert doc["first_violation"] is None


def test_check_s2s_uncoded_pin(capsys):
    rc, out = _run(capsys, [
        "check-s2s", "--source", "bernoulli:0.3", "--channel", "bsc:0.1",
        "--distortion", "hamming", "--d", "1", "--grid", "4", "--uncoded",
    ])
    assert rc == 0
    assert json.loads(out)["policy"] == [0, 1]


def test_shannon_matches_closed_form(capsys):
    rc, out = _run(capsys, ["shannon", *SOLVE_ARGS])
    assert rc == 0
    doc = json.loads(out)
    assert doc["quantity"] == "Dinf"
    assert doc["value"] == pytest.approx(
        binary_shannon_closed_form(0.3, 0.3), abs=1e-6)


def test_simulate_requires_seed(capsys):
    rc, _ = _run(capsys, ["simulate", *SOLVE_ARGS, "--d", "0",
                          "--horizon", "1000", "--replications", "2"])
    assert rc == 2


def test_simulate_solves_then_runs(capsys):
    argv = [
        "simulate", *SOLVE_ARGS, "--d", "1", "--memory", "last:1",
        "--horizon", "5000", "--replications", "3", "--seed", "4",
    ]
    rc, out = _run(capsys, argv)
    assert rc == 0
    doc = json.loads(out)
    sim = doc["simulation"]
    assert sim["seed"] == 4
    assert sim["horizon"] == 5000 and sim["replications"] == 3
    assert abs(sim["mean_distortion"] - doc["solve"]["distortion"]) < 0.05
    rc2, out2 = _run(capsys, argv)
    assert out2 == out


def test_spec_file_with_vending_merge(capsys, tmp_path):
    spec_file = tmp_path / "problem.json"
    spec_file.write_text(json.dumps({
        "source": [0.7, 0.3],
        "channel": [[0.5, 0.5]],
        "distortion": [[0.0, 1.0], [1.0, 0.0]],
    }))
    vend_file = tmp_path / "vending.json"
    vend_file.write_text(json.dumps({
        "kernel": [[0.5, 0.5], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0]],
        "costs": [0.0, 1.0],
        "budget": 0.5,
    }))
    # the paid action costs exactly the budget: no bracket-edge warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out = _run(capsys, [
            "solve", "--spec", str(spec_file), "--vending", str(vend_file),
            "--budget", "1.0", "--d", "0",
        ])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert rc == 0
    doc = json.loads(out)
    assert doc["scenario"] == "vending-feedback"
    assert doc["params"]["vending"]["budget"] == 1.0
    assert doc["distortion"] == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("tiny", [1e-30, 1e-100])
def test_vending_tiny_cost_does_not_break_the_budget(capsys, tmp_path, tiny):
    """A priced action of cost 1e-100 puts the dual bracket at about
    1e100.  The search must still narrow to its tolerance and print the
    answer of cost 1e-30, the same problem to any practical precision,
    not stop short at lam = 0 and print a pair four times over budget."""
    spec_file = tmp_path / "problem.json"
    spec_file.write_text(json.dumps({
        "source": [0.5, 0.3, 0.2],
        "channel": [[0.9, 0.1], [0.1, 0.9]],
        "distortion": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
    }))
    vend_file = tmp_path / "vending.json"
    vend_file.write_text(json.dumps({
        "kernel": [[0.5, 0.5], [0.8, 0.2], [0.99, 0.01], [0.5, 0.5],
                   [0.2, 0.8], [0.01, 0.99], [0.5, 0.5], [0.5, 0.5],
                   [0.5, 0.5]],
        "costs": [0.0, tiny, 1.0],
        "budget": 0.2,
    }))
    rc, out = _run(capsys, ["solve", "--spec", str(spec_file), "--vending",
                            str(vend_file), "--d", "0"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["distortion"] == pytest.approx(0.16, abs=1e-9)
    assert doc["vending_action_map"] == [0, 1]
    assert not doc["diagnostics"]["bracket_edge"]
    assert doc["diagnostics"]["avg_constraint_cost"] <= 0.2


def test_bad_inputs_exit_2(capsys):
    assert _run(capsys, ["solve"])[0] == 2
    assert _run(capsys, ["solve", "--source", "uniform:3", "--channel",
                         "bsc:0.1", "--distortion", "hamming"])[0] == 2
    assert _run(capsys, ["solve", "--source", "bernoulli:0.3", "--channel",
                         "bsc:0.1", "--distortion", "hamming:2"])[0] == 2
    assert _run(capsys, ["solve", *SOLVE_ARGS, "--memory", "window:3"])[0] == 2
    assert _run(capsys, ["solve", "--spec", "/does/not/exist.json"])[0] == 2
    assert _run(capsys, ["frobnicate"])[0] == 2


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_invalid_tolerance_exits_2_at_once(capsys, tol):
    # no span falls below such a tolerance, so a solve would sweep on
    for argv in (["solve", *SOLVE_ARGS, "--d", "1", "--memory", "last:2"],
                 ["sweep", "--fix", "delta=0.3", "--vary", "p=0.3:0.3:0.1",
                  "--quantities", "Ddm", "--d", "1", "--m", "2",
                  "--workers", "1"],
                 ["region", "--p", "0.3:0.3:0.1", "--delta", "0.3:0.3:0.1",
                  "--workers", "1"],
                 ["simulate", *SOLVE_ARGS, "--d", "1", "--memory", "last:2",
                  "--horizon", "10", "--replications", "1", "--seed", "1"]):
        t0 = time.perf_counter()
        assert main([*argv, f"--tol={tol}"]) == 2
        assert time.perf_counter() - t0 < 2.0
        assert "must be a positive finite number" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--d", "-1"], ["--m", "-1"],
                                   ["--margin", "nan"], ["--margin", "inf"],
                                   ["--margin", "-1"]])
def test_region_rejects_a_negative_window_before_the_scan(capsys, flags):
    rc, out = _run(capsys, ["region", "--p", "0.1:0.2:0.1", "--delta",
                            "0.3:0.3:0.1", "--workers", "1", *flags])
    assert rc == 2
    assert out == ""


RANGE_COMMANDS = {
    "region": lambda r: ["region", "--p", r, "--delta", "0.3"],
    "sweep": lambda r: ["sweep", "--fix", "delta=0.3", "--vary", f"p={r}",
                        "--quantities", "D0"],
}


@pytest.mark.parametrize("command", sorted(RANGE_COMMANDS))
@pytest.mark.parametrize("token, error", [
    ("0:inf:0.1", "range values must be finite"),
    ("nan:0.5:0.1", "range values must be finite"),
    ("0:0.5:nan", "range values must be finite"),
    ("inf", "range values must be finite"),
    ("0:1:0.01", "parameter range needs 101 entries, over the limit of 10"),
])
def test_range_that_cannot_be_enumerated_exits_2_at_once(
        capsys, monkeypatch, command, token, error):
    monkeypatch.setenv("RTC_MAX_STATES", "10")
    t0 = time.perf_counter()
    rc = main([*RANGE_COMMANDS[command](token), "--workers", "1"])
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert error in captured.err


RECIPES = Path(__file__).parent.parent / "scripts"


@pytest.mark.parametrize("name", ["region_scan", "sweep_channel_noise",
                                  "sweep_source_prob"])
def test_recipe_arguments_pass_the_cli_checks(name):
    # the recipe is imported, not run: its ARGS are parsed and checked
    spec = importlib.util.spec_from_file_location(name,
                                                  RECIPES / f"{name}.py")
    recipe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recipe)
    args = build_parser().parse_args(recipe.ARGS)
    if args.command == "region":
        ranges = [args.p, args.delta]
        # empty grids check the window and the margin and scan nothing
        suboptimality_region(args.d, args.m, [], [], margin=args.margin,
                             tol=args.tol)
    else:
        ranges = [_parse_assign(args.vary, "--vary")[1]]
    for token in ranges:
        assert len(_parse_range(token)) > 1


@pytest.mark.parametrize("flags, guard", [
    (["--d", "100000"], "tuple state space"),
    (["--d", "1", "--memory", "last:100000"], "decoder memory"),
])
def test_capacity_error_with_an_unprintable_count_exits_2(capsys, flags,
                                                          guard):
    # both counts have over 30,000 digits, past what str() of an int takes
    rc = main(["solve", *SOLVE_ARGS, *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"error: {guard} needs at least 2**" in err
    assert f"over the limit of {state_limit()}" in err


def test_solve_reports_solver_counters(capsys):
    rc, out = _run(capsys, ["solve", *SOLVE_ARGS, "--d", "1",
                            "--memory", "last:2"])
    assert rc == 0
    diag = json.loads(out)["diagnostics"]
    assert diag["fallbacks"] == 0
    assert diag["iterations"] == diag["rounds_max"] + 1
    assert diag["rounds_min"] <= diag["rounds_median"] <= diag["rounds_max"]
    assert diag["final_span"] <= 1e-9
    assert diag["optimality_residual"] <= 1e-9


def test_finite_memory_solves_past_the_whole_map_guard(capsys):
    # the finite-memory chains act per successor symbol, so their action
    # set does not grow with the lookahead
    rc, out = _run(capsys, ["solve", *SOLVE_ARGS, "--d", "3",
                            "--memory", "last:1"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["diagnostics"]["fallbacks"] == 0
    assert doc["distortion"] == pytest.approx(0.252863777090, abs=1e-9)
    rc, out = _run(capsys, ["solve", *SOLVE_ARGS, "--d", "4",
                            "--memory", "last:2"])
    assert rc == 0
    # whole-map indices of 2**32 maps, as JSON integers
    policy = json.loads(out)["encoder_policy"]
    assert len(policy) == 32 * 4 and max(policy) < 2**32


@pytest.mark.parametrize("argv", [
    ["solve", *SOLVE_ARGS, "--memory", "complete", "--grid", "2"],
    ["check-s2s", *SOLVE_ARGS, "--grid", "2"],
])
def test_whole_map_chains_keep_the_encoder_guard(capsys, argv):
    # the complete-memory chain and the certificate update the posterior
    # with the whole encoder map: 2**32 of them at d = 4
    rc = main([*argv, "--d", "4"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error: encoder action set needs 4294967296 entries" in err
    assert "(reduce the lookahead depth)" in err


@pytest.mark.parametrize("flag", [
    ["--source", "bernoulli:0.1"], ["--channel", "bsc:0.1"],
    ["--distortion", "hamming"], ["--spec", "problem.json"],
    ["--memory", "last:2"],
])
def test_sweep_refuses_the_flags_it_never_read(capsys, flag):
    # sweep solves the binary (p, delta) problem with the --m memories
    rc, out = _run(capsys, ["sweep", "--fix", "delta=0.3", "--vary", "p=0.2",
                            "--quantities", "D0,Ddm", "--d", "1",
                            "--workers", "1", *flag])
    assert rc == 2
    assert out == ""


SOLVERS = ("solve_feedback_finite", "solve_feedback_complete",
           "solve_nofeedback", "solve_vending_feedback",
           "solve_vending_nofeedback", "simulate", "d0_distortion",
           "shannon_limit", "symbol_by_symbol_check",
           "uncoded_condition_check")
INPUTS = Path(__file__).parent.parent / "rtbench" / "inputs"


@pytest.fixture
def no_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a refused command reached a solver")
    for name in SOLVERS:
        monkeypatch.setattr(cli_module, name, refuse)


@pytest.fixture
def vending_args(tmp_path):
    spec_file = tmp_path / "problem.json"
    spec_file.write_text(json.dumps({
        "source": [0.7, 0.3],
        "channel": [[0.5, 0.5]],
        "distortion": [[0.0, 1.0], [1.0, 0.0]],
    }))
    vend_file = tmp_path / "vending.json"
    vend_file.write_text(json.dumps({
        "kernel": [[0.5, 0.5], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0]],
        "costs": [0.0, 1.0],
        "budget": 0.5,
    }))
    return ["--spec", str(spec_file), "--vending", str(vend_file)]


@pytest.mark.parametrize("command", [
    ["solve"],
    ["simulate", "--horizon", "10", "--replications", "1", "--seed", "1"],
])
@pytest.mark.parametrize("vending, flags, named", [
    (True, ["--memory", "last:2"], "--memory"),
    (True, ["--memory", "complete", "--grid", "3"], "--memory"),
    (False, ["--memory-y", "last:2", "--grid", "7"], "--memory-y"),
    (False, ["--memory-x", "last:1"], "--memory-x"),
    (False, ["--memory", "last:1", "--grid", "3"], "--grid"),
    (True, ["--grid", "3"], "--grid"),
    (False, ["--memory", "complete", "--grid", "3", "--no-feedback"],
     "--no-feedback"),
])
def test_solve_refuses_scenario_flags_it_does_not_read(
        capsys, no_solver, vending_args, command, vending, flags, named):
    problem = vending_args if vending else SOLVE_ARGS
    t0 = time.perf_counter()
    rc = main([*command, *problem, "--d", "1", *flags])
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"error: {named} does not apply here" in captured.err


def test_simulate_refuses_complete_memory_before_solving(capsys, no_solver):
    # the simulator has no complete-memory scenario
    rc = main(["simulate", *SOLVE_ARGS, "--d", "1", "--memory", "complete",
               "--grid", "30", "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "error: --memory does not apply here" in captured.err


@pytest.mark.parametrize("d", [-3, -1, 0])
def test_check_s2s_needs_a_lookahead_before_its_grid(capsys, no_solver, d):
    rc = main(["check-s2s", *SOLVE_ARGS, "--d", str(d), "--grid", "3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert (f"error: lookahead {d} must be at least 1 for the grid check"
            in captured.err)


SWEEP = ["sweep", "--fix", "delta=0.3", "--vary", "p=0:0.5:0.05",
         "--workers", "1"]


@pytest.mark.parametrize("quantities, flags, named", [
    ("D0,Ddm", ["--vending", "/nonexistent.json"], "--vending"),
    ("D0,Ddm", ["--budget", "0.3"], "--budget"),
    ("Ddm", ["--memory-x", "last:1"], "--memory-x"),
    ("Ddm", ["--memory-y", "last:1"], "--memory-y"),
    ("D0,Dinf", ["--m", "1"], "--m"),
    ("D0,Dinf", ["--d", "0"], "--d"),
    ("D0", ["--tol", "1e-8"], "--tol"),
    ("D0,Dinf", ["--no-feedback", "--grid", "3"], "--no-feedback"),
    ("D0,Ddm", ["--grid", "5"], "--grid"),
])
def test_sweep_refuses_flags_its_quantities_do_not_read(
        capsys, no_solver, quantities, flags, named):
    rc = main([*SWEEP, "--quantities", quantities, *flags])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"error: {named} does not apply here" in captured.err


@pytest.mark.parametrize("flags", [
    ["--quantities", "D0,Ddm", "--d", "1", "--m", "2,-1"],
    ["--quantities", "Ddm", "--d", "-1"],
    # a vending block for three source symbols on the binary problem
    ["--quantities", "Dvend", "--vending",
     str(INPUTS / "ternary_vending.json")],
])
def test_sweep_checks_its_cells_before_any_solve(capsys, no_solver, flags):
    rc = main([*SWEEP, *flags])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_sweep_solves_a_repeated_memory_length_once(capsys, monkeypatch):
    solve, calls = cli_module.solve_feedback_finite, []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)
    monkeypatch.setattr(cli_module, "solve_feedback_finite", counted)
    rc, out = _run(capsys, ["sweep", "--fix", "delta=0.3",
                            "--vary", "p=0.1:0.3:0.1", "--quantities", "Ddm",
                            "--m", "1,1", "--workers", "1"])
    assert rc == 0
    rows = out.splitlines()[1:]
    assert [row.split(",")[:5] for row in rows] == [
        [p, "0.3", "0", "1", "Ddm"] for p in ("0.1", "0.2", "0.3")]
    assert len(calls) == 3


@pytest.mark.parametrize("command", [
    ["solve"],
    ["simulate", "--seed", "1"],
    ["check-s2s", "--grid", "3"],
    ["shannon"],
])
@pytest.mark.parametrize("flag", [
    ["--source", "bernoulli:0.1"], ["--channel", "bsc:0.1"],
    ["--distortion", "hamming"],
])
def test_spec_refuses_the_problem_flags(capsys, no_solver, command, flag):
    rc = main([*command, "--spec", str(INPUTS / "binary.json"), *flag])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"error: {flag[0]} does not apply here" in captured.err


@pytest.mark.parametrize("flags, named", [
    (["--horizon", "0"], "--horizon"),
    (["--replications", "0"], "--replications"),
    (["--seed", "-1"], "--seed"),
])
def test_simulate_checks_its_run_flags_before_solving(capsys, no_solver,
                                                      flags, named):
    rc = main(["simulate", *SOLVE_ARGS, "--d", "1", "--seed", "1", *flags])
    assert rc == 2
    assert f"argument {named}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["sweep", "--fix", "delta=0.3", "--vary", "p=0.2", "--quantities", "D0"],
    ["region", "--p", "0.3", "--delta", "0.3"],
])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_exit_2(capsys, command, workers):
    rc, out = _run(capsys, [*command, "--workers", workers])
    assert rc == 2
    assert out == ""


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("command", [
    ["sweep", "--fix", "delta=0.3", "--quantities", "D0", "--vary"],
    ["region", "--d", "0", "--m", "0", "--delta", "0.3", "--p"],
])
@pytest.mark.parametrize("values, workers, pool", [
    ("0.1", "5000", []),              # one task: no pool at all
    ("0.1:0.4:0.1", "5000", [3]),     # no more workers than CPUs
    ("0.1:0.4:0.1", "2", [2]),
    ("0.1:0.2:0.1", "5000", [2]),     # no more workers than tasks
    ("0.1:0.4:0.1", "1", []),
])
def test_pool_starts_no_more_workers_than_can_be_busy(
        capsys, monkeypatch, command, values, workers, pool):
    # the pool forks all its workers on the first task
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(baselines_module, "ProcessPoolExecutor",
                        _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    if command[0] == "sweep":
        values = "p=" + values
    rc, _ = _run(capsys, [*command, values, "--workers", workers])
    assert rc == 0
    assert _RecordingPool.sizes == pool


README = Path(__file__).parent.parent / "README.md"


def _readme_commands() -> list[list[str]]:
    """The rtcode commands of the README's command-line block, with
    backslash continuations joined."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("rtcode ")]


def test_readme_commands_pass_the_cli_checks():
    commands = _readme_commands()
    assert len(commands) == 6
    for argv in commands:
        args = build_parser().parse_args(argv)
        if args.command in ("solve", "simulate", "check-s2s", "shannon"):
            _build_spec(args)
        if args.command == "region":
            ranges = [args.p, args.delta]
        elif args.command == "sweep":
            ranges = [_parse_assign(args.vary, "--vary")[1]]
        else:
            ranges = []
        for token in ranges:
            assert len(_parse_range(token)) > 1
