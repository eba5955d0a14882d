"""Vending-machine scenarios: builders, duals, enumeration."""
import warnings

import numpy as np
import pytest

from rtcode import (
    CapacityError,
    SpecValidationError,
    belief_update_encoded_memory,
    belief_update_sideinfo_memory,
    build_markov_kernel,
    build_vending_feedback_finite,
    build_vending_nofeedback_discretized,
    encoder_action_tables,
    memory_last_m,
    project,
    simplex_grid,
    solve_vending_feedback,
    solve_vending_nofeedback,
    spec_from_dict,
    vending_action_maps,
    with_budget,
)
from rtcode.vending import _best_pair

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


def _toy_spec(budget=None):
    spec = spec_from_dict(TOY)
    return spec if budget is None else with_budget(spec, budget)


def test_vending_action_maps_enumeration():
    maps = vending_action_maps(2, 2)
    np.testing.assert_array_equal(maps, [[0, 0], [0, 1], [1, 0], [1, 1]])
    with pytest.raises(CapacityError):
        vending_action_maps(8, 4, max_maps=100)


def test_vending_feedback_build_rejects_negative_multiplier():
    spec = _toy_spec()
    mem_x = memory_last_m(0, 1)
    mem_y = memory_last_m(0, 2)
    dec = np.zeros((1, 2, 1, 1), dtype=int)
    with pytest.raises(SpecValidationError):
        build_vending_feedback_finite(spec, 0, mem_x, mem_y, dec, [0],
                                      lam=-1.0)


def test_vending_feedback_zero_cost_map_reduces_to_distortion():
    """lam=0 with the free action: reward is the plain negated loss."""
    spec = _toy_spec()
    mem_x = memory_last_m(0, 1)
    mem_y = memory_last_m(0, 2)
    dec = np.zeros((1, 2, 1, 1), dtype=int)
    mdp = build_vending_feedback_finite(spec, 0, mem_x, mem_y, dec, [0],
                                        lam=0.0)
    # free action is uninformative; constant-0 decoding loses p on symbol 1
    np.testing.assert_allclose(mdp.rewards, -0.3)


def test_vending_feedback_reward_matches_enumeration():
    """Spot rewards vs the joint over (fresh symbol, input, side output)."""
    spec = spec_from_dict(RICH)
    d = 1
    mem_x = memory_last_m(1, 2)
    mem_y = memory_last_m(1, 2)
    kernel = build_markov_kernel(spec.source, d)
    codec = kernel.codec
    rng = np.random.default_rng(51)
    dec = rng.integers(0, 2, size=(2, 2, 2, 2))
    av = np.array([1, 0])
    lam = 0.4
    mdp = build_vending_feedback_finite(spec, d, mem_x, mem_y, dec, av,
                                        lam=lam)
    tables = encoder_action_tables(codec.size, 2)
    p_u = np.asarray(spec.source.p)
    loss = np.asarray(spec.distortion.loss)
    vend = spec.vending
    costs = np.asarray(vend.costs.cost)
    budget = vend.costs.budget
    n_m, n_n = mem_x.num_states, mem_y.num_states
    dense = mdp.dense()
    for _ in range(40):
        v = int(rng.integers(0, codec.size))
        m = int(rng.integers(0, n_m))
        n = int(rng.integers(0, n_n))
        a = int(rng.integers(0, tables.shape[0]))
        s = (v * n_m + m) * n_n + n
        loss_exp = cost_exp = 0.0
        trans = np.zeros(mdp.num_states)
        for u in range(2):
            vt = codec.shift(v, u)
            u_now = codec.component(vt, 1)
            x = tables[a][vt]
            act = av[x]
            cost_exp += p_u[u] * costs[act]
            for y in range(2):
                py = vend.row(u_now, act)[y]
                # decoder sees the memories as they were before this step
                loss_exp += p_u[u] * py * loss[u_now, dec[x, y, m, n]]
                s2 = ((vt * n_m + mem_x.table[m, x]) * n_n
                      + mem_y.table[n, y])
                trans[s2] += p_u[u] * py
        expected = -loss_exp + lam * (budget - cost_exp)
        assert mdp.rewards[s, a] == pytest.approx(expected, abs=1e-12)
        np.testing.assert_allclose(dense[s, a], trans, atol=1e-14)


def test_vending_feedback_perfect_free_side_channel_lossless():
    perfect = {
        "source": [0.7, 0.3],
        "channel": [[0.5, 0.5]],
        "distortion": [[0.0, 1.0], [1.0, 0.0]],
        "vending": {"kernel": [[1.0, 0.0], [0.0, 1.0]],
                    "costs": [0.0], "budget": 0.0},
    }
    spec = spec_from_dict(perfect)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rep = solve_vending_feedback(spec, 0, memory_last_m(0, 1),
                                     memory_last_m(0, 2))
    assert rep.distortion == pytest.approx(0.0, abs=1e-9)


def test_vending_feedback_budget_endpoints():
    mem_x = memory_last_m(0, 1)
    mem_y = memory_last_m(0, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        slack = solve_vending_feedback(_toy_spec(1.0), 0, mem_x, mem_y,
                                       budget=1.0)
        binding = solve_vending_feedback(_toy_spec(0.0), 0, mem_x, mem_y,
                                         budget=0.0)
    # a full budget affords the revealing action every step
    assert slack.distortion == pytest.approx(0.0, abs=1e-8)
    # zero budget forbids the informative action on average
    assert binding.distortion == pytest.approx(0.3, abs=1e-8)
    assert binding.scenario == "vending-feedback"
    assert slack.vending_action_map == (1,)


def test_vending_feedback_value_monotone_in_budget():
    mem_x = memory_last_m(0, 1)
    mem_y = memory_last_m(0, 2)
    values = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for g in (0.0, 0.25, 0.5, 0.75, 1.0):
            rep = solve_vending_feedback(_toy_spec(g), 0, mem_x, mem_y,
                                         budget=g)
            values.append(rep.distortion)
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_vending_feedback_report_diagnostics():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rep = solve_vending_feedback(_toy_spec(0.5), 0, memory_last_m(0, 1),
                                     memory_last_m(0, 2), budget=0.5)
    diag = rep.diagnostics
    assert diag["lambda_star"] >= 0.0
    assert diag["decoder_candidates"] == 4
    assert diag["actuator_candidates"] == 2
    assert rep.vending_action_map is not None
    assert rep.params["vending"]["budget"] == 0.5


def test_vending_nofeedback_reward_matches_enumeration():
    """Spot rewards vs the joint over memories and step outcomes."""
    spec = spec_from_dict(RICH)
    d = 1
    mem_x = memory_last_m(1, 2)
    mem_y = memory_last_m(1, 2)
    gm = simplex_grid(2, 3)
    gn = simplex_grid(2, 3)
    kernel = build_markov_kernel(spec.source, d)
    codec = kernel.codec
    rng = np.random.default_rng(52)
    dec = rng.integers(0, 2, size=(2, 2, 2, 2))
    av = np.array([1, 0])
    lam = 0.4
    mdp = build_vending_nofeedback_discretized(spec, d, mem_x, mem_y, dec,
                                               av, gm, gn, lam=lam)
    tables = encoder_action_tables(codec.size, 2)
    p_u = np.asarray(spec.source.p)
    loss = np.asarray(spec.distortion.loss)
    vend = spec.vending
    costs = np.asarray(vend.costs.cost)
    budget = vend.costs.budget
    n_gm, n_gn = gm.size, gn.size
    dense = mdp.dense()
    for _ in range(30):
        v = int(rng.integers(0, codec.size))
        im = int(rng.integers(0, n_gm))
        iN = int(rng.integers(0, n_gn))
        a = int(rng.integers(0, tables.shape[0]))
        s = (v * n_gm + im) * n_gn + iN
        beta_m = np.asarray(gm.points)[im]
        gamma_n = np.asarray(gn.points)[iN]
        loss_exp = cost_exp = 0.0
        trans = np.zeros(mdp.num_states)
        for u in range(2):
            vt = codec.shift(v, u)
            u_now = codec.component(vt, 1)
            x = tables[a][vt]
            act = av[x]
            cost_exp += p_u[u] * costs[act]
            for y in range(2):
                py = vend.row(u_now, act)[y]
                for m in range(2):
                    for n in range(2):
                        loss_exp += (p_u[u] * py * beta_m[m] * gamma_n[n]
                                     * loss[u_now, dec[x, y, m, n]])
            pm = np.zeros(2)
            for m in range(2):
                pm[mem_x.table[m, x]] += beta_m[m]
            pn = np.zeros(2)
            total = 0.0
            for n in range(2):
                for y in range(2):
                    wgt = gamma_n[n] * vend.row(u_now, act)[y]
                    pn[mem_y.table[n, y]] += wgt
                    total += wgt
            pn = pn / total if total > 0 else gamma_n
            # the library's belief updates agree with the loops above
            np.testing.assert_allclose(
                belief_update_encoded_memory(beta_m, kernel, v, vt,
                                             tables[a], mem_x.table, 2).p,
                pm, atol=1e-15)
            np.testing.assert_allclose(
                belief_update_sideinfo_memory(gamma_n, kernel, v, vt, vend,
                                              av, tables[a], mem_y.table,
                                              2).p,
                pn, atol=1e-15)
            s2 = (vt * n_gm + project(gm, pm)) * n_gn + project(gn, pn)
            trans[s2] += p_u[u]
        expected = -loss_exp + lam * (budget - cost_exp)
        assert mdp.rewards[s, a] == pytest.approx(expected, abs=1e-12)
        np.testing.assert_allclose(dense[s, a], trans, atol=1e-14)


def test_vending_nofeedback_singleton_memories_collapse():
    spec = _toy_spec()
    mem_x = memory_last_m(0, 1)
    mem_y = memory_last_m(0, 2)
    dec = np.zeros((1, 2, 1, 1), dtype=int)
    mdp = build_vending_nofeedback_discretized(
        spec, 0, mem_x, mem_y, dec, [0], simplex_grid(1, 1), simplex_grid(1, 1))
    assert mdp.num_states == 2
    assert mdp.check() == []


def test_vending_nofeedback_solve_flags_approximate():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rep = solve_vending_nofeedback(_toy_spec(1.0), 0, memory_last_m(0, 1),
                                       memory_last_m(0, 2), 4, budget=1.0)
    assert rep.scenario == "vending-nofeedback"
    assert "APPROXIMATE" in rep.flags
    # the informative action remains affordable and memoryless decoding
    # of a perfect side observation is exact even without feedback
    assert rep.distortion == pytest.approx(0.0, abs=1e-8)


def test_vending_feedback_matches_nofeedback_on_deterministic_memories():
    """Point-mass beliefs make the open-loop build exact."""
    spec = spec_from_dict(RICH)
    mem_x = memory_last_m(0, 2)
    mem_y = memory_last_m(0, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fb = solve_vending_feedback(spec, 0, mem_x, mem_y, budget=0.5)
        nf = solve_vending_nofeedback(spec, 0, mem_x, mem_y, 2, budget=0.5)
    assert nf.distortion == pytest.approx(fb.distortion, abs=1e-8)


def test_vending_infeasible_pair_cannot_win():
    # at budget 0.75 the always-pay actuator (average cost 1) cannot meet
    # the budget, so the free pair's 0.3 wins in both settings
    mem_x, mem_y = memory_last_m(0, 1), memory_last_m(0, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fb = solve_vending_feedback(_toy_spec(), 0, mem_x, mem_y,
                                    budget=0.75)
        nf = solve_vending_nofeedback(_toy_spec(), 0, mem_x, mem_y, 2,
                                      budget=0.75)
    for rep in (fb, nf):
        assert rep.diagnostics["avg_constraint_cost"] <= 0.75
        assert rep.distortion == pytest.approx(0.3, abs=1e-8)


def test_vending_no_feasible_pair_names_the_budget():
    # validated specs always have a free action, so this guards the
    # selection step itself
    with pytest.raises(SpecValidationError, match="budget 0.25"):
        _best_pair(np.full((4, 2), np.inf), 0.25, 1e-8)
    assert _best_pair(np.array([[np.inf, 0.5], [0.5, 0.2]]), 0.25,
                      1e-8) == (1, 1)
    # values within the tolerance tie, and the lowest index wins even
    # where the float minimum lies further on
    assert _best_pair(np.array([[0.2 + 1e-15, 0.5], [0.2, 0.9]]), 0.25,
                      1e-8) == (0, 0)
