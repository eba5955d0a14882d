"""End-to-end acceptance gates with stated tolerances and time budgets.

Each numbered gate checks one deliverable of the package against an
independent reference: closed forms, exhaustive enumeration, Monte Carlo,
or a dense multiplier grid.  Heavy artifacts are produced twice with
different worker counts by session fixtures; gate 9 asserts every pair
matches byte for byte.  A visible PASS line is printed per gate so a
verbose run doubles as the acceptance report.
"""
import contextlib
import io
import json
import time

import numpy as np
import pytest

from rtcode import (
    binary_problem,
    d0_distortion,
    memory_last_m,
    shannon_limit,
    simplex_grid,
    simulate,
    solve_feedback_finite,
    solve_vending_feedback,
    spec_from_dict,
    symbol_by_symbol_check,
    with_budget,
)
from rtcode.baselines import binary_shannon_closed_form
from rtcode.cli import CSV_HEADER, main
from rtcode.mdp import (evaluate_policy, exhaustive_policy_search,
                        relative_value_iteration)
from rtcode.simulate import PolicyBundle
from rtcode.vending import _vending_feedback_core
from conftest import all_maps, pair_lagrangian, random_unichain_mdp

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

GRID21 = [round(0.025 * i, 5) for i in range(21)]
GRID11 = [round(0.05 * i, 5) for i in range(11)]
SIM_SEED = 3

TOY = {
    "source": [0.7, 0.3],
    "channel": [[0.5, 0.5]],
    "distortion": [[0.0, 1.0], [1.0, 0.0]],
    "vending": {
        "kernel": [[0.5, 0.5], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0]],
        "costs": [0.0, 1.0],
        "budget": 1.0,
    },
}

TOY_FREE = {
    "source": [0.7, 0.3],
    "channel": [[0.5, 0.5]],
    "distortion": [[0.0, 1.0], [1.0, 0.0]],
    "vending": {
        "kernel": [[0.5, 0.5], [0.5, 0.5]],
        "costs": [0.0],
        "budget": 0.0,
    },
}


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def _pass(capsys, num, text):
    with capsys.disabled():
        print(f"\n[acceptance {num}] PASS  {text}")


def _rows(text):
    out = []
    for line in text.strip().splitlines():
        if line and line != CSV_HEADER:
            out.append(line.split(","))
    return out


# ---------------------------------------------------------------- fixtures

def _sweep_once(workers):
    chunks = []
    for dlt in GRID11:
        rc, out = _cli(["sweep", "--fix", f"delta={dlt}",
                        "--vary", "p=0:0.5:0.05",
                        "--quantities", "D0,Dinf,Ddm", "--d", "1",
                        "--m", "0,1,2", "--tol", "1e-9",
                        "--workers", str(workers)])
        assert rc == 0
        chunks.append(out)
    return "".join(chunks)


@pytest.fixture(scope="session")
def sweep_runs():
    t0 = time.perf_counter()
    a = _sweep_once(2)
    seconds = time.perf_counter() - t0
    b = _sweep_once(3)
    return {"a": a, "b": b, "seconds": seconds}


@pytest.fixture(scope="session")
def region_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("region")
    texts = []
    seconds = None
    for run, workers in enumerate((4, 3)):
        path = base / f"run{run}.csv"
        t0 = time.perf_counter()
        rc, out = _cli(["region", "--d", "1", "--m", "2",
                        "--p", "0:0.5:0.025", "--delta", "0:0.5:0.025",
                        "--margin", "1e-6", "--tol", "1e-9",
                        "--workers", str(workers), "--csv", str(path)])
        if seconds is None:
            seconds = time.perf_counter() - t0
        assert rc == 0
        texts.append((path.read_text(), out))
    flagged = [(r[0], r[1]) for r in _rows(texts[0][0]) if r[5] == "1"]
    return {"a": texts[0], "b": texts[1], "seconds": seconds,
            "flagged": flagged}


def _soundness_once():
    rng = np.random.default_rng(194)
    rows = []
    for _ in range(100):
        mdp = random_unichain_mdp(rng)
        res = relative_value_iteration(mdp, tol=1e-10)
        _, best = exhaustive_policy_search(mdp)
        ev = evaluate_policy(mdp, res.policy)
        rows.append([res.gain, best, ev.gain])
    return rows


@pytest.fixture(scope="session")
def soundness_runs():
    t0 = time.perf_counter()
    a = _soundness_once()
    seconds = time.perf_counter() - t0
    b = _soundness_once()
    return {"a": a, "b": b, "seconds": seconds,
            "text_a": json.dumps(a), "text_b": json.dumps(b)}


@pytest.fixture(scope="session")
def sim_runs():
    spec = binary_problem(0.3, 0.3)
    report = solve_feedback_finite(spec, 1, memory_last_m(1, 2))
    bundle = PolicyBundle.from_report(report)
    t0 = time.perf_counter()
    a = simulate(bundle, spec, 1, 10**6, 10, seed=SIM_SEED)
    seconds = time.perf_counter() - t0
    b = simulate(bundle, spec, 1, 10**6, 10, seed=SIM_SEED)
    return {"report": report, "a": a, "b": b, "seconds": seconds,
            "text_a": json.dumps(a.to_dict(), sort_keys=True),
            "text_b": json.dumps(b.to_dict(), sort_keys=True)}


def _dual_once():
    """Toy budget trajectory plus a dense multiplier grid per point.

    The grid rebuilds the winning pair's Lagrangian over 1000 multiplier
    values spanning the same default bracket the golden-section search
    uses, so its minimum is an independent check on the dual value.
    """
    mem_x = memory_last_m(0, 1)
    mem_y = memory_last_m(0, 2)
    spec0 = spec_from_dict(TOY)
    out = {}
    for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
        spec = with_budget(spec0, gamma)
        rep = solve_vending_feedback(spec, 0, mem_x, mem_y)
        core = _vending_feedback_core(spec, 0, mem_x, mem_y,
                                      rep.vending_action_map)
        build = lambda lam: pair_lagrangian(spec, core, rep.decoder, lam)
        m0 = build(0.0)
        cost = core["cost"]
        span = float(m0.rewards.max() - m0.rewards.min())
        pos = cost[cost > 1e-12]  # the paid actions
        lam_max = (span if span > 0 else 1.0) / (float(pos.min())
                                                 if pos.size else 1.0)
        grid_min = min(
            relative_value_iteration(build(float(lam)), tol=1e-10).gain
            for lam in np.linspace(0.0, lam_max, 1000))
        out[f"{gamma}"] = {
            "distortion": rep.distortion,
            "lambda_star": rep.diagnostics["lambda_star"],
            "dual_value": rep.diagnostics["dual_value"],
            "grid_min": grid_min,
        }
    return out


@pytest.fixture(scope="session")
def dual_runs():
    t0 = time.perf_counter()
    a = _dual_once()
    seconds = time.perf_counter() - t0
    b = _dual_once()
    return {"a": a, "b": b, "seconds": seconds,
            "text_a": json.dumps(a, sort_keys=True),
            "text_b": json.dumps(b, sort_keys=True)}


@pytest.fixture(scope="session")
def s2s_runs(region_runs):
    grid = simplex_grid(4, 10)

    def once():
        flagged = []
        for p_s, d_s in region_runs["flagged"]:
            rep = symbol_by_symbol_check(
                binary_problem(float(p_s), float(d_s)), 1, grid)
            flagged.append([p_s, d_s, rep.holds_on_grid, repr(rep.max_gap)])
        lines = []
        for p in GRID21:
            for dlt in (0.0, 0.5):
                rep = symbol_by_symbol_check(binary_problem(p, dlt), 1, grid)
                lines.append([p, dlt, rep.holds_on_grid,
                              repr(rep.max_identity_gap)])
        return {"flagged": flagged, "lines": lines}

    t0 = time.perf_counter()
    a = once()
    seconds = time.perf_counter() - t0
    b = once()
    return {"a": a, "b": b, "seconds": seconds,
            "text_a": json.dumps(a, sort_keys=True),
            "text_b": json.dumps(b, sort_keys=True)}


# ------------------------------------------------------------------- gates

def test_acceptance_1_symbol_endpoint(capsys):
    """No-coding distortion equals min(p, delta) on a 21x21 grid."""
    t0 = time.perf_counter()
    worst = 0.0
    for p in GRID21:
        for dlt in GRID21:
            value, _ = d0_distortion(binary_problem(p, dlt))
            worst = max(worst, abs(value - min(p, dlt)))
    seconds = time.perf_counter() - t0
    assert worst <= 1e-12
    assert seconds < 1.0
    _pass(capsys, 1, f"21x21 closed form, worst dev {worst:.1e}, "
                     f"{seconds:.2f}s")


def test_acceptance_2_shannon_endpoint(capsys):
    """Unlimited-lookahead limit matches the closed form on the grid."""
    t0 = time.perf_counter()
    worst = 0.0
    for p in GRID21:
        for dlt in GRID21:
            got = shannon_limit(binary_problem(p, dlt))
            ref = binary_shannon_closed_form(p, dlt)
            worst = max(worst, abs(got - ref))
    seconds = time.perf_counter() - t0
    assert worst <= 1e-6
    assert seconds < 30.0
    _pass(capsys, 2, f"21x21 closed form, worst dev {worst:.1e}, "
                     f"{seconds:.1f}s")


def test_acceptance_3_sandwich_sweep(capsys, sweep_runs):
    """CLI sweep on 11x11: limits bracket the finite-memory values and
    the value never increases with memory or lookahead."""
    vals = {}
    for p, dlt, _, m, quantity, value, flags in _rows(sweep_runs["a"]):
        assert flags == ""
        vals[(p, dlt, quantity, m)] = float(value)
    pairs = sorted({(k[0], k[1]) for k in vals if k[2] == "D0"})
    assert len(pairs) == 121
    slack = 1e-9
    for p, dlt in pairs:
        d0v = vals[(p, dlt, "D0", "")]
        dinf = vals[(p, dlt, "Dinf", "")]
        d10 = vals[(p, dlt, "Ddm", "0")]
        d11 = vals[(p, dlt, "Ddm", "1")]
        d12 = vals[(p, dlt, "Ddm", "2")]
        assert dinf <= d12 + slack
        assert d12 <= d11 + slack
        assert d11 <= d10 + slack
        assert d10 <= d0v + slack
    assert sweep_runs["seconds"] < 600.0
    _pass(capsys, 3, f"121 points sandwiched, run A "
                     f"{sweep_runs['seconds']:.1f}s")


def test_acceptance_4_region_scan(capsys, region_runs):
    """Strict-improvement region for d=1, m=2 is nonempty and avoids the
    degenerate p=0 and delta=0 lines."""
    csv_text, summary_text = region_runs["a"]
    rows = _rows(csv_text)
    assert len(rows) == 441
    assert all(r[6] == "" for r in rows)
    for r in rows:
        if r[0] == "0" or r[1] == "0":
            assert r[5] == "0"
    summary = json.loads(summary_text)
    assert summary["region_nonempty"] is True
    assert summary["errors"] == 0
    assert summary["count"] == len(region_runs["flagged"])
    assert len(region_runs["flagged"]) > 0
    assert region_runs["seconds"] < 900.0
    _pass(capsys, 4, f"{summary['count']} of 441 points flagged, boundary "
                     f"lines clear, run A {region_runs['seconds']:.1f}s")


def test_acceptance_5_solver_crosscheck(capsys, soundness_runs):
    """Value iteration agrees with exhaustive policy search and with
    direct policy evaluation on 100 random small instances."""
    worst_opt = 0.0
    worst_eval = 0.0
    for gain, best, ev in soundness_runs["a"]:
        worst_opt = max(worst_opt, abs(gain - best))
        worst_eval = max(worst_eval, abs(ev - gain))
    assert worst_opt <= 1e-8
    assert worst_eval <= 1e-8
    assert soundness_runs["seconds"] < 60.0
    _pass(capsys, 5, f"100 instances, optimality dev {worst_opt:.1e}, "
                     f"evaluation dev {worst_eval:.1e}, "
                     f"{soundness_runs['seconds']:.1f}s")


def test_acceptance_6_simulation_agreement(capsys, sim_runs):
    """Monte Carlo distortion of the solved d=1, m=1 policy at p=delta=0.3
    lands within three standard errors of the solver value."""
    sim = sim_runs["a"]
    target = sim_runs["report"].distortion
    gap = abs(sim.mean_distortion - target)
    assert sim.std_error > 0.0
    assert gap <= 3.0 * sim.std_error
    assert sim_runs["seconds"] < 120.0
    _pass(capsys, 6, f"gap {gap:.2e} = {gap / sim.std_error:.2f} SE over "
                     f"1e6 steps x 10 reps, run A {sim_runs['seconds']:.1f}s")


def test_acceptance_7_vending_duals(capsys, dual_runs):
    """Toy budget trajectory: endpoints match direct references, the value
    is monotone in the budget, and each dual matches a dense grid."""
    data = dual_runs["a"]
    gammas = (0.0, 0.25, 0.5, 0.75, 1.0)
    values = [data[f"{g}"]["distortion"] for g in gammas]

    mem_x = memory_last_m(0, 1)
    mem_y = memory_last_m(0, 2)
    spec1 = with_budget(spec_from_dict(TOY), 1.0)
    best = -np.inf
    for av in all_maps(1, 2):
        core = _vending_feedback_core(spec1, 0, mem_x, mem_y, av)
        for dec in all_maps(2, 2).reshape(-1, 1, 2, 1, 1):
            mdp = pair_lagrangian(spec1, core, dec, 0.0)
            best = max(best, relative_value_iteration(mdp, tol=1e-10).gain)
    assert abs(values[-1] - (-best)) <= 1e-8

    restricted = solve_vending_feedback(spec_from_dict(TOY_FREE), 0,
                                        mem_x, memory_last_m(0, 2)
                                        ).distortion
    assert abs(values[0] - restricted) <= 1e-8

    for hi, lo in zip(values, values[1:]):
        assert lo <= hi + 1e-9
    worst = max(abs(data[f"{g}"]["grid_min"] - data[f"{g}"]["dual_value"])
                for g in gammas)
    assert worst <= 1e-6
    assert dual_runs["seconds"] < 300.0
    _pass(capsys, 7, f"trajectory {values}, grid dev {worst:.1e}, "
                     f"run A {dual_runs['seconds']:.1f}s")


def test_acceptance_8_symbol_check_on_region(capsys, region_runs, s2s_runs):
    """The per-symbol optimality certificate fails at every flagged region
    point and holds on the delta=0 and delta=0.5 lines."""
    data = s2s_runs["a"]
    assert len(data["flagged"]) == len(region_runs["flagged"])
    still_holds = [(r[0], r[1]) for r in data["flagged"] if r[2]]
    assert still_holds == []
    broken_lines = [(r[0], r[1]) for r in data["lines"] if not r[2]]
    assert broken_lines == []
    assert s2s_runs["seconds"] < 600.0
    _pass(capsys, 8, f"{len(data['flagged'])} flagged points violated, "
                     f"{len(data['lines'])} line points hold, run A "
                     f"{s2s_runs['seconds']:.1f}s")


def test_acceptance_9_reproducibility(capsys, sweep_runs, region_runs,
                                      soundness_runs, sim_runs, dual_runs,
                                      s2s_runs):
    """Every artifact from gates 3-8 is byte-identical across two runs
    with different worker counts and the same seeds."""
    assert sweep_runs["a"] == sweep_runs["b"]
    assert region_runs["a"][0] == region_runs["b"][0]
    assert region_runs["a"][1] == region_runs["b"][1]
    assert soundness_runs["text_a"] == soundness_runs["text_b"]
    assert sim_runs["text_a"] == sim_runs["text_b"]
    assert dual_runs["text_a"] == dual_runs["text_b"]
    assert s2s_runs["text_a"] == s2s_runs["text_b"]
    _pass(capsys, 9, "six artifact pairs byte-identical")
