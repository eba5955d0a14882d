"""Monte Carlo cross-checks of solved policies on the true system."""
import importlib
import tracemalloc

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
from rtcode.scenarios import (_chain_rewards, _coding_chain,
                              _coding_decoders, _whole_map_policy)
from rtcode.simulate import (BURN_IN, SimReport, _draw_codes, _flat_table,
                              _step_table)
from rtcode.vending import _vending_feedback_core

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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
    report = solve_vending_feedback(spec, 0, memory_last_m(0, 1),
                                    memory_last_m(0, 2))
    bundle = PolicyBundle.from_report(report)
    out = simulate(bundle, spec, 0, 2000, 2, seed=7)
    assert out.mean_distortion == 0.0
    assert out.mean_action_cost == pytest.approx(1.0, abs=1e-12)


def test_sim_vending_zero_budget_spends_nothing():
    spec = with_budget(spec_from_dict(TOY), 0.0)
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


KINDS = ["feedback-finite", "nofeedback", "vending-feedback",
         "vending-nofeedback"]
# ten outputs of 0.1: the CDF row of input 0 ends at 0.9999999999999999,
# so a draw above it takes `_pick`'s clamp to the last output
TENTHS = {"source": [0.6, 0.4],
          "channel": [[0.1] * 10, [0.5, 0.5] + [0.0] * 8],
          "distortion": [[0.0, 1.0], [1.0, 0.0]]}
# its CDF ends at 0.9999999999999998: a draw above it takes the clamp to
# the last source symbol
SOURCE_BELOW_1 = {**RICH, "source": [0.2, 0.4, 0.3, 0.1],
                  "distortion": [[0.0, 1.0], [1.0, 0.0]] * 2,
                  "vending": {**RICH["vending"],
                              "kernel": RICH["vending"]["kernel"] * 2}}


def _hand_bundle(kind, rng, data=None):
    """(spec, d, compiled chain, random per-successor policy, bundle) of
    one scenario kind, with random encoder and decoder tables and no
    solve.  The problem is `data`, by default RICH for the vending kinds
    and WIDE for the coding kinds.  The memories are last:1; so is the
    x-memory of both vending kinds."""
    d, resolution = 1, 3
    vending = kind.startswith("vending")
    spec = spec_from_dict(data or (RICH if vending else WIDE))
    n_x, n_y = spec.num_channel_inputs, spec.num_channel_outputs
    n_r = spec.num_reconstructions
    if vending:
        mem_x, mem_y = memory_last_m(1, n_x), memory_last_m(1, n_y)
        grid = (None if kind == "vending-feedback" else
                simplex_grid(mem_y.num_states, resolution))
        av = (1, 0)
        core = _vending_feedback_core(spec, d, mem_x, mem_y, av, grid)
        dec = rng.integers(0, n_r, size=(n_x, n_y, n_x, n_y))
        memories = {"memory_x": mem_x, "memory_y": mem_y,
                    "vending_action_map": av}
    else:
        memory = memory_last_m(1, n_y)
        grid = (None if kind == "feedback-finite" else
                simplex_grid(memory.num_states, resolution))
        core = _coding_chain(spec, d, memory, grid)
        dec = rng.integers(0, n_r, size=(n_y, n_y))
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


def _pick(cdf_row, r: float) -> int:
    """The reference draw rule: the first output whose CDF value exceeds
    the draw r, or the last output."""
    for j, c in enumerate(cdf_row):
        if r < c:
            return j
    return len(cdf_row) - 1


@pytest.mark.parametrize("kind", KINDS)
def test_step_table_moves_as_the_compiled_chain(kind):
    """Every step of the simulator's table lands, with the chain's
    probability, on the chain state that the compiler moves to under the
    same action, and a state's expected loss is the chain's reward there,
    on the default problem and every edge case of the kind.  The
    simulator tracks the decoder memories (m, n) and, without feedback,
    the encoder's grid point g; the encoder sees m and n, or m and g.  An
    open-loop chain's reward averages the simulator states over n with
    the weights of the grid point g."""
    vending = kind.startswith("vending")
    for data in [None] + [edge for edge in EDGES.values()
                          if vending == ("vending" in edge)]:
        rng = np.random.default_rng(61)
        spec, d, core, policy, bundle = _hand_bundle(kind, rng, data)
        nxt, loss, cost, obs, rows, _ = _step_table(bundle, spec, d)
        n_v, n_m, n_seen = core["shape"][:3]
        n_s = core["next_states"].shape[0]
        feedback = "nofeedback" not in kind
        points_n = core["points_n"]
        n_n = points_n.shape[1]
        n_g = 1 if feedback else n_seen
        n_c = n_m * n_g * n_n
        p_u = np.asarray(spec.source.p)
        n_u, n_y = len(p_u), rows.shape[1]
        assert nxt.shape == loss.shape == (n_v * n_c, n_u, n_y)
        assert cost.shape == obs.shape == (n_v * n_c, n_u)
        decs = np.asarray(bundle.decoder)[None]
        if not vending:
            decs = _coding_decoders(decs, spec.num_channel_inputs)
        reward = _chain_rewards(core, decs)[0][np.arange(n_s), policy]

        def chain_state(s):
            v, c = np.divmod(s, n_c)
            m, rest = np.divmod(c, n_g * n_n)
            g, n = np.divmod(rest, n_n)
            return (v * n_m + m) * n_seen + (n if feedback else g), g, n

        expected_loss = np.zeros(n_s)
        for s in range(n_v * n_c):
            cs, g, n = chain_state(s)
            a = policy[cs]
            expected = np.zeros(n_s)
            np.add.at(expected, core["next_states"][cs, a],
                      core["next_probs"][cs, a])
            got = np.zeros(n_s)
            p_uy = p_u[:, None] * rows[obs[s]]               # (U, Y)
            np.add.at(got, chain_state(nxt[s])[0], p_uy)
            np.testing.assert_allclose(got, expected, atol=1e-12)
            assert p_u @ cost[s] == pytest.approx(
                core["cost"][cs, a] if "cost" in core else 0.0, abs=1e-12)
            expected_loss[cs] += ((1.0 if feedback else points_n[g, n])
                                  * np.sum(p_uy * loss[s]))
        np.testing.assert_allclose(expected_loss, -reward, rtol=0,
                                   atol=1e-12)


def _interval_draws(breaks):
    """For each interval [lo, hi) between 0, the breakpoints and 1 that
    holds a draw: its left end (a breakpoint, or 0), its midpoint and its
    last draw."""
    ends = [0.0, *sorted(set(breaks) - {0.0, 1.0}), 1.0]
    draws = []
    for lo, hi in zip(ends, ends[1:]):
        last = float(np.nextafter(hi, 0.0))
        draws += [lo, min((lo + hi) / 2, last), last]
    return draws


@pytest.mark.parametrize("kind, data", [(kind, None) for kind in KINDS]
                         + [("feedback-finite", TENTHS),
                            ("nofeedback", TENTHS),
                            ("vending-feedback", SOURCE_BELOW_1)])
def test_draw_codes_pick_as_the_step_table(kind, data):
    """From every state, each source interval and each observation
    interval, the flat entry of the draws' code is the step that `_pick`
    selects in the step table, at the intervals' left ends (breakpoints),
    midpoints and last draws."""
    spec, d, _, _, bundle = _hand_bundle(kind, np.random.default_rng(63),
                                         data)
    nxt, loss, cost, obs, rows, start = _step_table(bundle, spec, d)
    entries, breaks, first = _flat_table(bundle, spec, d)
    cdf_u = np.cumsum(spec.source.p)
    cdf = np.cumsum(rows, axis=1).tolist()
    n_k = len(entries) // nxt.shape[0]
    assert first == start * n_k
    pairs = [(ru, ry) for ru in _interval_draws(cdf_u.tolist())
             for ry in _interval_draws(breaks.tolist())]
    ru, ry = np.array(pairs).T
    codes = _draw_codes(cdf_u, breaks, ru, ry)
    clamped = 0
    for s in range(nxt.shape[0]):
        for (ru, ry), code in zip(pairs, codes):
            u = _pick(cdf_u.tolist(), ru)
            row = cdf[obs[s, u]]
            clamped += ry >= row[-1] or ru >= cdf_u[-1]
            y = _pick(row, ry)
            assert entries[s * n_k + code] \
                == (nxt[s, u, y] * n_k, loss[s, u, y], cost[s, u])
    assert (clamped > 0) == (data is not None)


def _whole_stream_report(bundle, spec, d, horizon, replications, seed):
    """The simulator's report with each replication's two streams drawn
    whole: the first and the second horizon + burn-in draws of the
    generator seeded (seed, rep)."""
    nxt, loss, cost, obs, rows, start = _step_table(bundle, spec, d)
    nxt, loss, cost, obs = (a.tolist() for a in (nxt, loss, cost, obs))
    cdf = np.cumsum(rows, axis=1).tolist()
    cdf_u = np.cumsum(spec.source.p).tolist()
    loss_means, cost_means = [], []
    for rep in range(replications):
        rng = np.random.default_rng([seed, rep])
        ru = rng.random(horizon + BURN_IN).tolist()
        ry = rng.random(horizon + BURN_IN).tolist()
        s = start
        tot = cost_tot = 0.0
        for t in range(horizon + BURN_IN):
            u = _pick(cdf_u, ru[t])
            y = _pick(cdf[obs[s][u]], ry[t])
            if t >= BURN_IN:
                tot += loss[s][u][y]
                cost_tot += cost[s][u]
            s = nxt[s][u][y]
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


@pytest.mark.parametrize("kind", KINDS)
def test_block_draws_replay_the_whole_streams(kind, monkeypatch):
    # blocks of 7 split the burn-in (1000 = 142 * 7 + 6) and the horizon
    spec, d, _, _, bundle = _hand_bundle(kind, np.random.default_rng(62))
    default = simulate(bundle, spec, d, 53, 3, seed=9)
    monkeypatch.setattr(simulate_module, "DRAW_BLOCK", 7)
    assert simulate(bundle, spec, d, 53, 3, seed=9) == default
    assert default == _whole_stream_report(bundle, spec, d, 53, 3, 9)


def _coding(source, channel, distortion=((0.0, 1.0), (1.0, 0.0))):
    return {"source": source, "channel": channel, "distortion": distortion}


def _vending(source, kernel, distortion=((0.0, 1.0), (1.0, 0.0))):
    return {**RICH, "source": source, "distortion": distortion,
            "vending": {**RICH["vending"], "kernel": kernel}}


BSC = [[0.8, 0.2], [0.2, 0.8]]
TERNARY_LOSS = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
EDGES = {
    "p = 0": _coding([1.0, 0.0], BSC),
    "p = 1": _coding([0.0, 1.0], BSC),
    "deterministic rows": _coding([0.6, 0.4], [[1.0, 0.0], [0.3, 0.7]]),
    "ternary source": _coding([0.2, 0.3, 0.5], BSC, TERNARY_LOSS),
    # the CDF rows [0.2, 0.5, 1] and [0.5, 0.8, 1] share 0.5 and 1
    "shared breakpoints": _coding([0.6, 0.4],
                                  [[0.2, 0.3, 0.5], [0.5, 0.3, 0.2]]),
    "source CDF below 1": SOURCE_BELOW_1,
    "vending p = 1": _vending([0.0, 1.0], RICH["vending"]["kernel"]),
    "vending ternary source": _vending(
        [0.2, 0.3, 0.5], [[0.9, 0.1], [1.0, 0.0], [0.3, 0.7], [0.0, 1.0],
                          [0.5, 0.5], [0.5, 0.5]], TERNARY_LOSS),
}


@pytest.mark.parametrize("block, horizon", [(7, 53), (1000, 2500)])
@pytest.mark.parametrize("name, kind", [
    (name, kind) for name, data in EDGES.items() for kind in KINDS
    if kind.startswith("vending") == ("vending" in data)])
def test_edge_cases_replay_the_whole_streams(name, kind, block, horizon,
                                             monkeypatch):
    """Bit for bit the scalar `_pick` walk of the whole streams, with
    horizons over several blocks of draws."""
    spec, d, _, _, bundle = _hand_bundle(kind, np.random.default_rng(64),
                                         EDGES[name])
    monkeypatch.setattr(simulate_module, "DRAW_BLOCK", block)
    assert simulate(bundle, spec, d, horizon, 3, seed=17) \
        == _whole_stream_report(bundle, spec, d, horizon, 3, 17)


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
