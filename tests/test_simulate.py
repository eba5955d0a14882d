"""Monte Carlo cross-checks of solved policies on the true system."""
import importlib
import tracemalloc
import warnings

import numpy as np
import pytest

from rtcode import (
    PolicyBundle,
    SpecValidationError,
    binary_problem,
    memory_last_m,
    simulate,
    solve_feedback_complete,
    solve_feedback_finite,
    solve_nofeedback,
    solve_vending_feedback,
    solve_vending_nofeedback,
    simplex_grid,
    spec_from_dict,
    with_budget,
)
from rtcode.scenarios import _coding_chain, _whole_map_policy
from rtcode.simulate import BURN_IN, SimReport, _pick, _step_table
from rtcode.vending import _vending_feedback_core

# the package exports the function simulate under the module's name
simulate_module = importlib.import_module("rtcode.simulate")

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


@pytest.fixture(scope="module")
def solved_d11():
    spec = binary_problem(0.3, 0.3)
    report = solve_feedback_finite(spec, 1, memory_last_m(1, 2))
    return spec, report, PolicyBundle.from_report(report)


def test_sim_is_deterministic_in_the_seed(solved_d11):
    spec, _, bundle = solved_d11
    a = simulate(bundle, spec, 1, 2000, 2, seed=101)
    b = simulate(bundle, spec, 1, 2000, 2, seed=101)
    assert a == b
    c = simulate(bundle, spec, 1, 2000, 2, seed=102)
    assert c.mean_distortion != a.mean_distortion


def test_sim_noiseless_channel_is_lossless():
    spec = binary_problem(0.3, 0.0)
    report = solve_feedback_finite(spec, 0, memory_last_m(0, 2))
    bundle = PolicyBundle.from_report(report)
    out = simulate(bundle, spec, 0, 2000, 1, seed=1)
    assert out.mean_distortion == 0.0
    assert out.std_error == 0.0
    assert out.mean_action_cost is None


def test_sim_matches_planner_for_useless_channel():
    spec = binary_problem(0.3, 0.5)
    report = solve_feedback_finite(spec, 0, memory_last_m(0, 2))
    assert report.distortion == pytest.approx(0.3, abs=1e-9)
    bundle = PolicyBundle.from_report(report)
    out = simulate(bundle, spec, 0, 20000, 4, seed=5)
    gap = abs(out.mean_distortion - report.distortion)
    assert gap <= 4.0 * out.std_error


def test_sim_matches_planner_with_feedback_memory(solved_d11):
    spec, report, bundle = solved_d11
    out = simulate(bundle, spec, 1, 20000, 4, seed=11)
    gap = abs(out.mean_distortion - report.distortion)
    assert gap <= 4.0 * out.std_error
    assert out.horizon == 20000 and out.replications == 4
    assert out.seed == 11


def test_sim_standard_error_shrinks_with_more_data(solved_d11):
    spec, _, bundle = solved_d11
    small = simulate(bundle, spec, 1, 2000, 5, seed=21)
    large = simulate(bundle, spec, 1, 8000, 20, seed=22)
    # four times the reps and four times the horizon: expect about 4x
    ratio = small.std_error / large.std_error
    assert 2.0 <= ratio <= 8.0


def test_sim_gap_shrinks_with_horizon(solved_d11):
    spec, report, bundle = solved_d11
    gaps = [
        abs(simulate(bundle, spec, 1, h, 1, seed=3).mean_distortion
            - report.distortion)
        for h in (10**3, 10**4, 10**5, 10**6)
    ]
    drops = sum(b <= a for a, b in zip(gaps, gaps[1:]))
    assert drops >= 2
    assert gaps[-1] < gaps[0]


def test_sim_vending_full_budget_is_lossless_and_billed():
    spec = with_budget(spec_from_dict(TOY), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = solve_vending_feedback(spec, 0, memory_last_m(0, 1),
                                        memory_last_m(0, 2))
    bundle = PolicyBundle.from_report(report)
    out = simulate(bundle, spec, 0, 2000, 2, seed=7)
    assert out.mean_distortion == 0.0
    assert out.mean_action_cost == pytest.approx(1.0, abs=1e-12)


def test_sim_vending_zero_budget_spends_nothing():
    spec = with_budget(spec_from_dict(TOY), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = solve_vending_feedback(spec, 0, memory_last_m(0, 1),
                                        memory_last_m(0, 2))
    bundle = PolicyBundle.from_report(report)
    out = simulate(bundle, spec, 0, 20000, 4, seed=9)
    assert out.mean_action_cost == pytest.approx(0.0, abs=1e-12)
    gap = abs(out.mean_distortion - report.distortion)
    assert gap <= 4.0 * out.std_error


def _within_band(out, value):
    """The simulate benchmark's band: 5 standard errors of the mean."""
    return out.std_error > 0.0 and \
        abs(out.mean_distortion - value) <= 5.0 * out.std_error


def test_sim_matches_planner_without_feedback():
    # at delta = 0.3 the beliefs over a last:1 memory are points of the
    # resolution-10 grid, so the open-loop grid chain is exact
    spec = binary_problem(0.3, 0.3)
    report = solve_nofeedback(spec, 1, memory_last_m(1, 2), 10)
    bundle = PolicyBundle.from_report(report)
    assert bundle.scenario == "nofeedback"
    out = simulate(bundle, spec, 1, 20000, 10, seed=13)
    assert _within_band(out, report.distortion)
    assert out.mean_action_cost is None


def test_sim_vending_nofeedback_matches_base_gain():
    # with last:0 memories both belief grids are single points, so the
    # open-loop chain is exact; the simulator runs the policy solved at
    # the dual minimizer, whose loss is the base gain there
    spec = with_budget(spec_from_dict(TOY), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = solve_vending_nofeedback(spec, 0, memory_last_m(0, 1),
                                          memory_last_m(0, 2), 2)
    bundle = PolicyBundle.from_report(report)
    assert bundle.scenario == "vending-nofeedback"
    out = simulate(bundle, spec, 0, 20000, 10, seed=19)
    assert _within_band(out, -report.diagnostics["gain_at_lambda_star"])
    assert out.mean_action_cost == pytest.approx(
        report.diagnostics["avg_constraint_cost"], abs=1e-12)


def test_sim_bundle_round_trips_through_report(solved_d11):
    spec, report, bundle = solved_d11
    assert bundle.scenario == "feedback-finite"
    assert len(bundle.encoder) == 4 * 2
    assert bundle.memory.num_states == 2
    rebuilt = PolicyBundle.from_report(report)
    assert rebuilt.encoder == bundle.encoder
    assert rebuilt.decoder == bundle.decoder
    np.testing.assert_array_equal(rebuilt.memory.table, bundle.memory.table)


def test_sim_rejects_belief_state_reports():
    spec = binary_problem(0.3, 0.3)
    report = solve_feedback_complete(spec, 0, 3)
    with pytest.raises(SpecValidationError):
        PolicyBundle.from_report(report)


def test_sim_validates_configuration_before_running(solved_d11):
    spec, _, bundle = solved_d11
    with pytest.raises(SpecValidationError):
        simulate(bundle, spec, 1, 0, 1, seed=1)
    with pytest.raises(SpecValidationError):
        simulate(bundle, spec, 1, 100, 0, seed=1)
    bad_encoder = PolicyBundle(
        scenario="feedback-finite",
        encoder=bundle.encoder[:-1],
        decoder=bundle.decoder,
        memory=bundle.memory,
    )
    with pytest.raises(SpecValidationError):
        simulate(bad_encoder, spec, 1, 100, 1, seed=1)
    no_memory = PolicyBundle(
        scenario="feedback-finite",
        encoder=bundle.encoder,
        decoder=bundle.decoder,
    )
    with pytest.raises(SpecValidationError):
        simulate(no_memory, spec, 1, 100, 1, seed=1)
    wrong_tag = PolicyBundle(
        scenario="mystery",
        encoder=bundle.encoder,
        decoder=bundle.decoder,
        memory=bundle.memory,
    )
    with pytest.raises(SpecValidationError):
        simulate(wrong_tag, spec, 1, 100, 1, seed=1)
    wrong_decoder_shape = PolicyBundle(
        scenario="feedback-finite",
        encoder=bundle.encoder,
        decoder=((0, 0, 0), (0, 0, 0)),
        memory=bundle.memory,
    )
    with pytest.raises(SpecValidationError, match="decoder has shape"):
        simulate(wrong_decoder_shape, spec, 1, 100, 1, seed=1)


def test_sim_runs_whole_map_indices_past_the_map_table():
    # at d = 4 the 2**32 whole encoder maps cannot be tabulated; each
    # step reads its input off the printed index
    spec = binary_problem(0.3, 0.3)
    report = solve_feedback_finite(spec, 4, memory_last_m(2, 2))
    bundle = PolicyBundle.from_report(report)
    assert max(bundle.encoder) >= 2**31
    out = simulate(bundle, spec, 4, 20000, 10, seed=23)
    assert _within_band(out, report.distortion)


def test_sim_checks_whole_map_indices_without_overflow(solved_d11):
    # 2**64 overflows a fixed-width integer array
    spec, _, bundle = solved_d11
    for index in (16, 2**64):
        too_big = PolicyBundle(
            scenario="feedback-finite",
            encoder=(index,) + bundle.encoder[1:],
            decoder=bundle.decoder,
            memory=bundle.memory,
        )
        with pytest.raises(SpecValidationError, match=r"outside 0\.\.15"):
            simulate(too_big, spec, 1, 100, 1, seed=1)


RICH = {
    "source": [0.6, 0.4],
    "channel": [[0.8, 0.2], [0.2, 0.8]],
    "distortion": [[0.0, 1.0], [1.0, 0.0]],
    "vending": {
        "kernel": [[0.9, 0.1], [1.0, 0.0], [0.3, 0.7], [0.0, 1.0]],
        "costs": [0.0, 1.0],
        "budget": 0.5,
    },
}
WIDE = {"source": [0.6, 0.4],
        "channel": [[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]],
        "distortion": [[0.0, 1.0], [1.0, 0.0]]}


def _hand_bundle(kind, rng):
    """(spec, d, compiled chain, random per-successor policy, bundle) of
    one scenario kind, with random encoder and decoder tables and no
    solve.  Both vending kinds keep the x-memory last:1."""
    d, resolution = 1, 3
    if kind.startswith("vending"):
        spec = spec_from_dict(RICH)
        mem_x, mem_y = memory_last_m(1, 2), memory_last_m(1, 2)
        grid = (None if kind == "vending-feedback" else
                simplex_grid(mem_y.num_states, resolution))
        av = (1, 0)
        core = _vending_feedback_core(spec, d, mem_x, mem_y, av, grid)
        dec = rng.integers(0, 2, size=(2, 2, 2, 2))
        memories = {"memory_x": mem_x, "memory_y": mem_y,
                    "vending_action_map": av}
    else:
        spec = spec_from_dict(WIDE)
        memory = memory_last_m(1, 3)
        grid = (None if kind == "feedback-finite" else
                simplex_grid(memory.num_states, resolution))
        core = _coding_chain(spec, d, memory, grid)
        dec = rng.integers(0, 2, size=(3, 3))
        memories = {"memory": memory}
    n_s, n_a = core["next_states"].shape[:2]
    policy = rng.integers(0, n_a, size=n_s)
    bundle = PolicyBundle(
        scenario=kind,
        encoder=_whole_map_policy(policy, core["shift"],
                                  spec.num_channel_inputs),
        decoder=dec.tolist(),
        grid_resolution=None if grid is None else resolution,
        **memories,
    )
    return spec, d, core, policy, bundle


@pytest.mark.parametrize("kind", ["feedback-finite", "nofeedback",
                                  "vending-feedback", "vending-nofeedback"])
def test_step_table_moves_as_the_compiled_chain(kind):
    """Every step of the simulator's table lands, with the chain's
    probability, on the chain state that the compiler moves to under the
    same action.  The simulator tracks the decoder memories (m, n) and,
    without feedback, the encoder's grid point g; the encoder sees m and
    n, or m and g."""
    rng = np.random.default_rng(61)
    spec, d, core, policy, bundle = _hand_bundle(kind, rng)
    table, _ = _step_table(bundle, spec, d)
    n_v, n_m, n_seen = core["shape"][:3]
    n_s = core["next_states"].shape[0]
    feedback = "nofeedback" not in kind
    n_n = core["points_n"].shape[1]
    n_g = 1 if feedback else n_seen
    p_u = np.asarray(spec.source.p)

    def chain_state(v, c):
        m, rest = divmod(c, n_g * n_n)
        g, n = divmod(rest, n_n)
        return (v * n_m + m) * n_seen + (n if feedback else g)

    for v in range(n_v):
        assert len(table[v]) == n_m * n_g * n_n
        for c, row in enumerate(table[v]):
            s = chain_state(v, c)
            a = policy[s]
            expected = np.zeros(n_s)
            np.add.at(expected, core["next_states"][s, a],
                      core["next_probs"][s, a])
            got = np.zeros(n_s)
            spent = 0.0
            for u, (vt, cdf, outs, cost) in enumerate(row):
                p_y = np.diff(np.concatenate([[0.0], cdf]))
                for y, (_, c_next) in enumerate(outs):
                    got[chain_state(vt, c_next)] += p_u[u] * p_y[y]
                spent += p_u[u] * cost
            np.testing.assert_allclose(got, expected, atol=1e-12)
            assert spent == pytest.approx(
                core["cost"][s, a] if "cost" in core else 0.0, abs=1e-12)


def _whole_stream_report(bundle, spec, d, horizon, replications, seed):
    """The simulator's report with each replication's two streams drawn
    whole: the first and the second horizon + burn-in draws of the
    generator seeded (seed, rep)."""
    table, start = _step_table(bundle, spec, d)
    cdf_u = np.cumsum(spec.source.p).tolist()
    loss_means, cost_means = [], []
    for rep in range(replications):
        rng = np.random.default_rng([seed, rep])
        ru = rng.random(horizon + BURN_IN).tolist()
        ry = rng.random(horizon + BURN_IN).tolist()
        v, c = 0, start
        tot = cost_tot = 0.0
        for t in range(horizon + BURN_IN):
            v, cdf, outs, cost = table[v][c][_pick(cdf_u, ru[t])]
            loss, c = outs[_pick(cdf, ry[t])]
            if t >= BURN_IN:
                tot += loss
                cost_tot += cost
        loss_means.append(tot / horizon)
        cost_means.append(cost_tot / horizon)
    return SimReport(
        horizon=horizon, replications=replications,
        mean_distortion=float(np.mean(loss_means)),
        std_error=float(np.std(loss_means, ddof=1) / np.sqrt(replications)),
        mean_action_cost=(float(np.mean(cost_means))
                          if bundle.scenario.startswith("vending") else None),
        seed=seed,
    )


@pytest.mark.parametrize("kind", ["feedback-finite", "nofeedback",
                                  "vending-feedback", "vending-nofeedback"])
def test_block_draws_replay_the_whole_streams(kind, monkeypatch):
    # blocks of 7 split the burn-in (1000 = 142 * 7 + 6) and the horizon
    spec, d, _, _, bundle = _hand_bundle(kind, np.random.default_rng(62))
    default = simulate(bundle, spec, d, 53, 3, seed=9)
    monkeypatch.setattr(simulate_module, "DRAW_BLOCK", 7)
    assert simulate(bundle, spec, d, 53, 3, seed=9) == default
    assert default == _whole_stream_report(bundle, spec, d, 53, 3, 9)


def test_simulator_memory_stays_flat_past_one_block(solved_d11,
                                                     monkeypatch):
    spec, _, bundle = solved_d11
    monkeypatch.setattr(simulate_module, "DRAW_BLOCK", 1000)

    def peak(horizon):
        tracemalloc.start()
        try:
            simulate(bundle, spec, 1, horizon, 1, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1000)                            # first-call caches
    short, long = peak(2_000), peak(40_000)
    # two whole streams of 41,000 draws as lists take over 2.5 MB
    assert long - short < 100_000
