"""Scenario compilers against brute-force one-step oracles."""
import json
import time

import numpy as np
import pytest

from rtcode import (
    CapacityError,
    UnreachableObservationError,
    binary_problem,
    memory_last_m,
    simplex_grid,
    solve_feedback_complete,
    solve_feedback_finite,
    solve_nofeedback,
    solve_vending_feedback,
    solve_vending_nofeedback,
    spec_from_dict,
)
from rtcode.bayes import (
    _posteriors,
    bayes_envelope,
    belief_update_feedback,
    belief_update_memory,
)
from rtcode.cli import main
from rtcode.lookahead import build_markov_kernel
from rtcode.mdp import (PI_MAX_ROUNDS, FiniteMdp, batch_policy_iteration,
                        batch_value_iteration, evaluate_policy)
from rtcode.scenarios import (_chain_rewards, _coding_chain,
                              _coding_decoders, _first_within,
                              _successor_policy,
                              build_feedback_complete_discretized)
from conftest import (all_maps, nearest, random_rows, random_spec,
                      solve_with_whole_maps, whole_map)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# Binary sources over channels whose input and output alphabets differ,
# on which a chain that mixes up the two axes builds the wrong tables.
WIDE = spec_from_dict({"source": [0.6, 0.4],
                       "channel": [[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]],
                       "distortion": [[0.0, 1.0], [1.0, 0.0]]})
TALL = spec_from_dict({"source": [0.6, 0.4],
                       "channel": [[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]],
                       "distortion": [[0.0, 1.0], [1.0, 0.0]]})


def _decoder_mdp(spec, core, dec):
    """A coding chain under one decoder table indexed [y, z], rewarded as
    the decoder-family solve rewards its candidates."""
    rewards = _chain_rewards(core, _coding_decoders(
        np.asarray(dec)[None], spec.num_channel_inputs))[0]
    return FiniteMdp(core["next_states"], core["next_probs"], rewards)


def test_memory_m0_is_singleton():
    mem = memory_last_m(0, 2)
    assert mem.num_states == 1
    np.testing.assert_array_equal(mem.table, [[0, 0]])


def test_memory_m1_stores_last_output():
    mem = memory_last_m(1, 2)
    assert mem.num_states == 2
    for z in range(2):
        for y in range(2):
            assert mem.table[z, y] == y


def test_memory_m2_is_shift_register():
    mem = memory_last_m(2, 2)
    assert mem.num_states == 4
    # state (a, b) encoded 2a + b; appending c gives (b, c)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                assert mem.table[2 * a + b, c] == 2 * b + c


def test_memory_capacity_guard(monkeypatch):
    monkeypatch.setenv("RTC_MAX_STATES", "10")
    with pytest.raises(CapacityError):
        memory_last_m(3, 4)


def test_feedback_build_counts_d0_m0():
    spec = binary_problem(0.3, 0.2)
    mem = memory_last_m(0, 2)
    mdp = _decoder_mdp(spec, _coding_chain(spec, 0, mem),
                       np.zeros((2, 1), dtype=int))
    assert mdp.num_states == 2
    assert mdp.num_actions == 4
    assert mdp.check() == []


def test_feedback_one_step_reward_matches_enumeration():
    """Reward of (state, action) vs the joint over (u, y)."""
    d = 1
    rng = np.random.default_rng(31)
    for spec in (binary_problem(0.3, 0.2), WIDE, TALL):
        n_x, n_y = spec.num_channel_inputs, spec.num_channel_outputs
        mem = memory_last_m(1, n_y)
        codec = build_markov_kernel(spec.source, d).codec
        dec = rng.integers(0, 2, size=(n_y, mem.num_states))
        mdp = _decoder_mdp(spec, _coding_chain(spec, d, mem), dec)
        maps = all_maps(2, n_x)         # per-successor actions: u -> x
        p_u = np.asarray(spec.source.p)
        w = spec.channel.rows
        loss = np.asarray(spec.distortion.loss)
        n_z = mem.num_states
        assert mdp.num_actions == maps.shape[0]
        for _ in range(40):
            v = int(rng.integers(0, codec.size))
            z = int(rng.integers(0, n_z))
            a = int(rng.integers(0, maps.shape[0]))
            expected = 0.0
            for u in range(2):
                vt = codec.shift(v, u)
                charged = codec.component(vt, 1)
                x = maps[a][u]
                for y in range(n_y):
                    expected += p_u[u] * w[x, y] * loss[charged, dec[y, z]]
            assert mdp.rewards[v * n_z + z, a] == pytest.approx(-expected,
                                                                abs=1e-14)


def test_feedback_one_step_transition_matches_enumeration():
    d = 1
    rng = np.random.default_rng(32)
    for spec in (binary_problem(0.3, 0.2), WIDE, TALL):
        n_x, n_y = spec.num_channel_inputs, spec.num_channel_outputs
        mem = memory_last_m(1, n_y)
        codec = build_markov_kernel(spec.source, d).codec
        dec = np.zeros((n_y, mem.num_states), dtype=int)
        mdp = _decoder_mdp(spec, _coding_chain(spec, d, mem), dec)
        maps = all_maps(2, n_x)
        dense = mdp.dense()
        p_u = np.asarray(spec.source.p)
        w = spec.channel.rows
        n_z = mem.num_states
        for _ in range(40):
            v = int(rng.integers(0, codec.size))
            z = int(rng.integers(0, n_z))
            a = int(rng.integers(0, maps.shape[0]))
            expected = np.zeros(mdp.num_states)
            for u in range(2):
                vt = codec.shift(v, u)
                x = maps[a][u]
                for y in range(n_y):
                    expected[vt * n_z + mem.table[z, y]] += p_u[u] * w[x, y]
            np.testing.assert_allclose(dense[v * n_z + z, a], expected,
                                       atol=1e-14)


def test_feedback_solve_symbol_by_symbol_floor():
    """Zero lookahead cannot beat min{p, delta}, whatever the memory."""
    spec = binary_problem(0.3, 0.3)
    for m in (0, 1):
        rep = solve_feedback_finite(spec, 0, memory_last_m(m, 2))
        assert rep.distortion == pytest.approx(0.3, abs=1e-9)
        assert rep.scenario == "feedback-finite"
        assert rep.flags == ()


def test_feedback_solve_noiseless_channel_is_lossless():
    spec = binary_problem(0.3, 0.0)
    for d, m in ((0, 0), (1, 1)):
        rep = solve_feedback_finite(spec, d, memory_last_m(m, 2))
        assert rep.distortion == 0.0


def test_feedback_solve_monotone_in_memory_and_lookahead():
    spec = binary_problem(0.3, 0.3)
    d10 = solve_feedback_finite(spec, 1, memory_last_m(0, 2)).distortion
    d11 = solve_feedback_finite(spec, 1, memory_last_m(1, 2)).distortion
    d12 = solve_feedback_finite(spec, 1, memory_last_m(2, 2)).distortion
    d01 = solve_feedback_finite(spec, 0, memory_last_m(1, 2)).distortion
    assert d12 <= d11 + 1e-9
    assert d11 <= d10 + 1e-9
    assert d11 <= d01 + 1e-9


def test_feedback_report_is_json_ready():
    spec = binary_problem(0.25, 0.1)
    rep = solve_feedback_finite(spec, 0, memory_last_m(1, 2))
    data = rep.to_dict()
    assert data["scenario"] == "feedback-finite"
    assert 0.0 <= data["distortion"] <= 1.0
    assert data["params"]["d"] == 0
    assert data["params"]["memory"]["num_states"] == 2
    assert len(data["encoder_policy"]) == 2 * 2
    assert data["diagnostics"]["decoder_candidates"] == 16


def test_feedback_complete_transition_matches_belief_oracle():
    """Grid chain rows vs posterior update + projection done by hand, and
    the batched posteriors behind them vs the scalar update; the noiseless
    channel makes some outputs unreachable."""
    d = 1
    rng = np.random.default_rng(33)
    for spec in (binary_problem(0.3, 0.2), binary_problem(0.3, 0.0)):
        kernel = build_markov_kernel(spec.source, d)
        codec = kernel.codec
        grid = simplex_grid(codec.size, 4)
        mdp = build_feedback_complete_discretized(spec, d, grid)
        tables = all_maps(codec.size, 2)
        post, reachable = _posteriors(np.asarray(grid.points), kernel,
                                      spec.channel, tables)
        dense = mdp.dense()
        p_u = np.asarray(spec.source.p)
        w = spec.channel.rows
        n_g = grid.size
        unreachable = 0
        for _ in range(25):
            v = int(rng.integers(0, codec.size))
            g = int(rng.integers(0, n_g))
            a = int(rng.integers(0, tables.shape[0]))
            beta = np.asarray(grid.points)[g]
            expected = np.zeros(mdp.num_states)
            for u in range(2):
                vt = codec.shift(v, u)
                x = tables[a][vt]
                for y in range(2):
                    try:
                        nxt = np.asarray(belief_update_feedback(
                            beta, kernel, spec.channel, tables[a], y).p)
                    except UnreachableObservationError:
                        nxt = beta @ kernel.matrix
                        unreachable += 1
                        assert not reachable[g, a, y]
                    else:
                        assert reachable[g, a, y]
                    np.testing.assert_allclose(post[g, a, y], nxt, rtol=0,
                                               atol=1e-15)
                    g2 = nearest(grid, nxt)
                    expected[vt * n_g + g2] += p_u[u] * w[x, y]
            np.testing.assert_allclose(dense[v * n_g + g, a], expected,
                                       atol=1e-14)
        assert (unreachable > 0) == (spec.channel.rows.min() == 0.0)


def test_feedback_complete_reward_is_first_marginal_envelope():
    spec = binary_problem(0.3, 0.2)
    grid = simplex_grid(4, 3)
    mdp = build_feedback_complete_discretized(spec, 1, grid)
    for g in range(grid.size):
        beta = np.asarray(grid.points)[g].reshape(2, 2)
        env = bayes_envelope(beta.sum(axis=1), spec.distortion)
        for v in range(4):
            np.testing.assert_allclose(mdp.rewards[v * grid.size + g], -env,
                                       atol=1e-14)


def test_feedback_complete_projections_follow_the_tie_rule():
    """Every (grid point, action, output) projection of the grid chain is
    the lexicographically first L1-nearest point within TIE_L1; at
    p = delta = 0.3 many posteriors lie exactly between grid points."""
    spec = binary_problem(0.3, 0.3)
    kernel = build_markov_kernel(spec.source, 1)
    grid = simplex_grid(kernel.codec.size, 4)
    mdp = build_feedback_complete_discretized(spec, 1, grid)
    tables = all_maps(kernel.codec.size, 2)
    off_rule = 0
    for g, beta in enumerate(np.asarray(grid.points)):
        for a in range(tables.shape[0]):
            for y in range(2):
                try:
                    post = belief_update_feedback(beta, kernel, spec.channel,
                                                  tables[a], y)
                except UnreachableObservationError:
                    post = beta @ kernel.matrix
                # window 0 followed by symbol 0 is window 0 again, so the
                # successor slot (u = 0, y) of state (0, g) is the projection
                off_rule += mdp.next_states[g, a, y] != nearest(grid, post)
    assert off_rule == 0


def test_feedback_complete_vertex_grid_noiseless():
    spec = binary_problem(0.3, 0.0)
    rep = solve_feedback_complete(spec, 0, 1)
    assert rep.distortion == 0.0
    assert "APPROXIMATE" in rep.flags


def test_feedback_complete_sandwich_at_zero_lookahead():
    spec = binary_problem(0.3, 0.3)
    from rtcode import d0_distortion, shannon_limit
    d0, _ = d0_distortion(spec)
    dinf = shannon_limit(spec)
    for r in (10, 40):
        rep = solve_feedback_complete(spec, 0, r)
        assert dinf - 1e-9 <= rep.distortion <= d0 + 1e-9


def test_nofeedback_one_step_reward_matches_enumeration():
    """Open-loop reward vs the joint over (memory, fresh symbol, output)."""
    d = 1
    rng = np.random.default_rng(34)
    for spec in (binary_problem(0.4, 0.3), WIDE, TALL):
        n_x, n_y = spec.num_channel_inputs, spec.num_channel_outputs
        mem = memory_last_m(1, n_y)
        grid = simplex_grid(mem.num_states, 3)
        codec = build_markov_kernel(spec.source, d).codec
        dec = rng.integers(0, 2, size=(n_y, mem.num_states))
        mdp = _decoder_mdp(spec, _coding_chain(spec, d, mem, grid), dec)
        maps = all_maps(2, n_x)
        p_u = np.asarray(spec.source.p)
        w = spec.channel.rows
        loss = np.asarray(spec.distortion.loss)
        n_g = grid.size
        for _ in range(40):
            v = int(rng.integers(0, codec.size))
            g = int(rng.integers(0, n_g))
            a = int(rng.integers(0, maps.shape[0]))
            beta = np.asarray(grid.points)[g]
            expected = 0.0
            for u in range(2):
                vt = codec.shift(v, u)
                charged = codec.component(vt, 1)
                x = maps[a][u]
                for z in range(mem.num_states):
                    for y in range(n_y):
                        expected += (p_u[u] * beta[z] * w[x, y]
                                     * loss[charged, dec[y, z]])
            assert mdp.rewards[v * n_g + g, a] == pytest.approx(-expected,
                                                                abs=1e-14)


def test_nofeedback_transition_matches_memory_belief_oracle():
    """Open-loop successors vs belief_update_memory plus projection."""
    d = 1
    rng = np.random.default_rng(36)
    for spec, m in ((binary_problem(0.4, 0.3), 2), (WIDE, 1), (TALL, 2)):
        n_x = spec.num_channel_inputs
        mem = memory_last_m(m, spec.num_channel_outputs)
        grid = simplex_grid(mem.num_states, 3)
        core = _coding_chain(spec, d, mem, grid)
        kernel = build_markov_kernel(spec.source, d)
        codec = kernel.codec
        maps = all_maps(2, n_x)
        p_u = np.asarray(spec.source.p)
        n_g = grid.size
        for _ in range(60):
            v = int(rng.integers(0, codec.size))
            g = int(rng.integers(0, n_g))
            a = int(rng.integers(0, maps.shape[0]))
            expected = np.zeros(codec.size * n_g)
            for u in range(2):
                vt = codec.shift(v, u)
                belief = belief_update_memory(
                    grid.points[g], kernel, v, vt, spec.channel,
                    whole_map(codec, v, maps[a]), mem.table)
                expected[vt * n_g + nearest(grid, belief)] += p_u[u]
            got = np.zeros(codec.size * n_g)
            s = v * n_g + g
            np.add.at(got, core["next_states"][s, a],
                      core["next_probs"][s, a])
            np.testing.assert_allclose(got, expected, atol=1e-14)


def test_nofeedback_singleton_memory_reduces_to_open_loop():
    spec = binary_problem(0.3, 0.2)
    mem = memory_last_m(0, 2)
    grid = simplex_grid(1, 1)
    dec = np.zeros((2, 1), dtype=int)
    mdp = _decoder_mdp(spec, _coding_chain(spec, 0, mem, grid), dec)
    assert mdp.num_states == 2
    assert mdp.check() == []


def test_nofeedback_noiseless_matched_decoder_lossless():
    spec = binary_problem(0.3, 0.0)
    mem = memory_last_m(1, 2)
    rep = solve_nofeedback(spec, 0, mem, resolution=4)
    assert rep.distortion == 0.0
    assert rep.scenario == "nofeedback-finite"
    assert "APPROXIMATE" in rep.flags


def test_nofeedback_never_beats_feedback_badly_nor_d0():
    # the open-loop value sits near the feedback value; the approximation
    # has no one-sided bound, so only sanity-bound it
    spec = binary_problem(0.3, 0.3)
    mem = memory_last_m(1, 2)
    rep = solve_nofeedback(spec, 1, mem, resolution=6)
    assert 0.0 <= rep.distortion <= 0.3 + 1e-9


def _feedback_batch(p, delta, m):
    spec = binary_problem(p, delta)
    core = _coding_chain(spec, 1, memory_last_m(m, 2))
    decs = all_maps(2 * 2**m, 2).reshape(-1, 2, 2**m)
    return core, decs, _chain_rewards(core, _coding_decoders(decs, 2))


def test_feedback_tie_rule_takes_lowest_index_within_tol(capsys):
    # at p = delta = 0.3 four decoder tables tie to within 1e-16
    tol = 1e-9
    core, decs, rewards = _feedback_batch(0.3, 0.3, 2)
    gains = batch_value_iteration(core["next_states"], core["next_probs"],
                                  rewards, tol=1e-12).gains
    top = gains.max()
    assert not np.any(np.abs(gains - (top - tol)) < 1e-10)   # no near-misses
    lowest = next(i for i, g in enumerate(gains) if g >= top - tol)
    assert np.sum(gains >= top - tol) > 1

    assert main(["solve", "--source", "bernoulli:0.3", "--channel", "bsc:0.3",
                 "--distortion", "hamming", "--d", "1",
                 "--memory", "last:2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    np.testing.assert_array_equal(doc["decoder"], decs[lowest])
    mdp = _decoder_mdp(binary_problem(0.3, 0.3), core, doc["decoder"])
    ev = evaluate_policy(mdp, _successor_policy(doc["encoder_policy"],
                                                core["shift"], 2))
    assert abs(-ev.gain - doc["distortion"]) <= 1e-10
    # the rule itself, on distortions whose float minimum is not the
    # first tie
    assert _first_within(np.array([0.9, 0.5 + 1e-12, 0.5]), tol) == 1


@pytest.mark.parametrize("p, delta", [(0.3, 0.3), (0.05, 0.0), (0.15, 0.3),
                                      (0.0, 0.025), (0.2, 0.1)])
def test_feedback_policy_iteration_matches_value_iteration(p, delta):
    core, _, rewards = _feedback_batch(p, delta, 2)
    args = (core["next_states"], core["next_probs"], rewards)
    pi = batch_policy_iteration(*args)
    vi = batch_value_iteration(*args)
    np.testing.assert_allclose(pi.gains, vi.gains, rtol=0, atol=1e-8)


def test_feedback_multichain_candidates_fall_back_to_value_iteration():
    # at p = delta = 0 many encoder policies split the chain into several
    # recurrent classes; those candidates are solved by value iteration
    core, _, rewards = _feedback_batch(0.0, 0.0, 2)
    args = (core["next_states"], core["next_probs"], rewards)
    pi = batch_policy_iteration(*args)
    assert pi.fallback.sum() > 0
    np.testing.assert_allclose(pi.gains, batch_value_iteration(*args).gains,
                               rtol=0, atol=1e-8)
    rep = solve_feedback_finite(binary_problem(0.0, 0.0), 1,
                                memory_last_m(2, 2))
    assert rep.distortion == 0.0
    assert rep.diagnostics["fallbacks"] == int(pi.fallback.sum())
    # the rounds counters count policy-iteration rounds, not the
    # fallbacks' sweeps
    assert rep.diagnostics["rounds_max"] == pi.rounds[~pi.fallback].max()
    assert rep.diagnostics["rounds_max"] <= PI_MAX_ROUNDS


@pytest.mark.parametrize("p", [0.0, 1e-6, 1e-4])
@pytest.mark.parametrize("delta", [0.0, 1e-6, 1e-4])
def test_feedback_degenerate_parameters_solve_fast(p, delta):
    spec = binary_problem(p, delta)
    for m in (0, 1, 2):
        t0 = time.perf_counter()
        rep = solve_feedback_finite(spec, 1, memory_last_m(m, 2))
        assert time.perf_counter() - t0 < 2.0
        assert 0.0 <= rep.distortion <= min(p, delta) + 1e-12
        assert rep.diagnostics["optimality_residual"] <= 1e-9
        mem = memory_last_m(m, 2)
        mdp = _decoder_mdp(spec, _coding_chain(spec, 1, mem), rep.decoder)
        shift = build_markov_kernel(spec.source, 1).codec.shift_table()
        ev = evaluate_policy(mdp, _successor_policy(rep.encoder_policy,
                                                    shift, 2))
        assert abs(-ev.gain - rep.distortion) <= 1e-10


def test_feedback_near_noiseless_point_solves(capsys):
    # value iteration mixes too slowly here to converge in 1e6 sweeps
    t0 = time.perf_counter()
    assert main(["solve", "--source", "bernoulli:0.0001", "--channel",
                 "bsc:0.0001", "--distortion", "hamming", "--d", "1",
                 "--memory", "last:2"]) == 0
    assert time.perf_counter() - t0 < 2.0
    doc = json.loads(capsys.readouterr().out)
    assert doc["distortion"] == pytest.approx(5.9978e-08, rel=1e-4)
    diag = doc["diagnostics"]
    assert diag["final_span"] <= 1e-9
    assert diag["rounds_min"] <= diag["rounds_median"] <= diag["rounds_max"]
    assert diag["fallbacks"] == 0


def _oracle_case(chain, seed):
    """A random small instance of one chain: its solver and arguments."""
    rng = np.random.default_rng(seed)
    if chain.startswith("vending"):
        # two inputs, two paid actions and two side outputs already make
        # 64 (decoder, actuator) pairs, each with its own dual search
        p = float(rng.uniform(0.05, 0.5))
        spec = spec_from_dict({
            "source": [1.0 - p, p],
            "channel": random_rows(rng, 2, 2).tolist(),
            "distortion": [[0.0, 1.0], [1.0, 0.0]],
            "vending": {"kernel": random_rows(rng, 4, 2, zeros=0.3).tolist(),
                        "costs": [0.0, 1.0],
                        "budget": float(rng.uniform(0.2, 0.8))}})
        mems = (memory_last_m(0, 2), memory_last_m(0, 2))
        if chain == "vending-feedback":
            return solve_vending_feedback, (spec, 1, *mems)
        return solve_vending_nofeedback, (spec, 1, *mems, 2)
    # (inputs, outputs, lookahead): at most 3^4 or 2^8 whole maps
    n_x, n_y, d = ((2, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 1), (3, 3, 1),
                   (2, 3, 1))[seed]
    spec = random_spec(rng, 2, n_x, n_y, zeros=0.3)
    if chain == "feedback":
        return solve_feedback_finite, (spec, d, memory_last_m(1, n_y))
    return solve_nofeedback, (spec, d, memory_last_m(1, n_y), 2)


@pytest.mark.parametrize("chain, seed", [
    *((chain, seed) for chain in ("feedback", "nofeedback")
      for seed in range(6)),
    *((chain, seed) for chain in ("vending-feedback", "vending-nofeedback")
      for seed in range(2))])
def test_successor_actions_match_whole_map_oracle(chain, seed):
    """Per-successor actions against the whole-map chain: the same value,
    tables and printed encoder policy."""
    solve, args = _oracle_case(chain, seed)
    got = solve(*args)
    want = solve_with_whole_maps(solve, *args)
    assert abs(got.distortion - want.distortion) <= 1e-12
    assert got.decoder == want.decoder
    assert got.vending_action_map == want.vending_action_map
    assert got.encoder_policy == want.encoder_policy
    assert all(type(a) is int for a in got.encoder_policy)
