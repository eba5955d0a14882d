"""Vending-machine scenarios: builders, duals, enumeration."""
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from rtcode import (
    SpecValidationError,
    binary_problem,
    mdp,
    memory_last_m,
    simplex_grid,
    solve_vending_feedback,
    solve_vending_nofeedback,
    spec_from_dict,
    vending,
    with_budget,
)
from rtcode.bayes import belief_update_sideinfo_memory
from rtcode.lookahead import _enumerate_maps, build_markov_kernel
from rtcode.mdp import DUAL_TOL, FiniteMdp, constrained_solve
from rtcode.scenarios import (DEFAULT_DECODER_CAP, _chain_rewards,
                              _coding_chain, _coding_decoders,
                              _decoder_family, _select)
from rtcode.vending import (_decoder_shape, _vending_feedback_core,
                            _vending_feedback_rewards)
from conftest import (all_maps, nearest, occupation_lp, pair_lagrangian,
                      whole_map)
from test_golden import TERNARY as GOLDEN_TERNARY, TOY as GOLDEN_TOY, VENDING

# the vending solvers and constrained_solve warn of nothing
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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


INPUTS = Path(__file__).parent.parent / "rtbench" / "inputs"


def _input_spec(name, budget):
    """The benchmark's problem <name>.json with <name>_vending.json."""
    data = json.loads((INPUTS / f"{name}.json").read_text())
    data["vending"] = json.loads(
        (INPUTS / f"{name}_vending.json").read_text())
    return with_budget(spec_from_dict(data), budget)


def _toy_spec(budget=None):
    spec = spec_from_dict(TOY)
    return spec if budget is None else with_budget(spec, budget)


def test_vending_feedback_zero_cost_map_reduces_to_distortion():
    """lam=0 with the free action: reward is the plain negated loss."""
    spec = _toy_spec()
    mem_x = memory_last_m(0, 1)
    mem_y = memory_last_m(0, 2)
    dec = np.zeros((1, 2, 1, 1), dtype=int)
    mdp = pair_lagrangian(
        spec, _vending_feedback_core(spec, 0, mem_x, mem_y, [0]), dec, 0.0)
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
    mdp = pair_lagrangian(
        spec, _vending_feedback_core(spec, d, mem_x, mem_y, av), dec, lam)
    maps = all_maps(2, 2)           # per-successor actions: u -> x
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
        a = int(rng.integers(0, maps.shape[0]))
        s = (v * n_m + m) * n_n + n
        loss_exp = cost_exp = 0.0
        trans = np.zeros(mdp.num_states)
        for u in range(2):
            vt = codec.shift(v, u)
            u_now = codec.component(vt, 1)
            x = maps[a][u]
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
    rep = solve_vending_feedback(spec, 0, memory_last_m(0, 1),
                                 memory_last_m(0, 2))
    assert rep.distortion == pytest.approx(0.0, abs=1e-9)


def test_vending_feedback_budget_endpoints():
    mem_x = memory_last_m(0, 1)
    mem_y = memory_last_m(0, 2)
    slack = solve_vending_feedback(_toy_spec(1.0), 0, mem_x, mem_y)
    binding = solve_vending_feedback(_toy_spec(0.0), 0, mem_x, mem_y)
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
    for g in (0.0, 0.25, 0.5, 0.75, 1.0):
        rep = solve_vending_feedback(_toy_spec(g), 0, mem_x, mem_y)
        values.append(rep.distortion)
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_vending_feedback_report_diagnostics():
    rep = solve_vending_feedback(_toy_spec(0.5), 0, memory_last_m(0, 1),
                                 memory_last_m(0, 2))
    diag = rep.diagnostics
    assert diag["lambda_star"] >= 0.0
    assert diag["decoder_candidates"] == 4
    assert diag["actuator_candidates"] == 2
    assert rep.vending_action_map is not None
    assert rep.params["vending"]["budget"] == 0.5


def test_vending_nofeedback_reward_matches_enumeration():
    """Spot rewards vs the joint over the y-memory and step outcomes; the
    encoder knows the x-memory, which records its own inputs."""
    spec = spec_from_dict(RICH)
    d = 1
    mem_x = memory_last_m(1, 2)
    mem_y = memory_last_m(1, 2)
    gn = simplex_grid(2, 3)
    kernel = build_markov_kernel(spec.source, d)
    codec = kernel.codec
    rng = np.random.default_rng(52)
    dec = rng.integers(0, 2, size=(2, 2, 2, 2))
    av = np.array([1, 0])
    lam = 0.4
    core = _vending_feedback_core(spec, d, mem_x, mem_y, av, gn)
    mdp = pair_lagrangian(spec, core, dec, lam)
    maps = all_maps(2, 2)           # per-successor actions: u -> x
    p_u = np.asarray(spec.source.p)
    loss = np.asarray(spec.distortion.loss)
    vend = spec.vending
    costs = np.asarray(vend.costs.cost)
    budget = vend.costs.budget
    n_m, n_gn = mem_x.num_states, gn.size
    dense = mdp.dense()
    for _ in range(30):
        v = int(rng.integers(0, codec.size))
        m = int(rng.integers(0, n_m))
        iN = int(rng.integers(0, n_gn))
        a = int(rng.integers(0, maps.shape[0]))
        s = (v * n_m + m) * n_gn + iN
        gamma_n = np.asarray(gn.points)[iN]
        loss_exp = cost_exp = 0.0
        trans = np.zeros(mdp.num_states)
        for u in range(2):
            vt = codec.shift(v, u)
            u_now = codec.component(vt, 1)
            x = maps[a][u]
            act = av[x]
            cost_exp += p_u[u] * costs[act]
            for y in range(2):
                py = vend.row(u_now, act)[y]
                for n in range(2):
                    loss_exp += (p_u[u] * py * gamma_n[n]
                                 * loss[u_now, dec[x, y, m, n]])
            pm = mem_x.table[m, x]
            pn = np.zeros(2)
            total = 0.0
            for n in range(2):
                for y in range(2):
                    wgt = gamma_n[n] * vend.row(u_now, act)[y]
                    pn[mem_y.table[n, y]] += wgt
                    total += wgt
            pn = pn / total if total > 0 else gamma_n
            # the library's belief update agrees with the loop above
            table = whole_map(codec, v, maps[a])
            np.testing.assert_allclose(
                belief_update_sideinfo_memory(gamma_n, kernel, v, vt, vend,
                                              av, table, mem_y.table,
                                              2).p,
                pn, atol=1e-15)
            s2 = (vt * n_m + pm) * n_gn + nearest(gn, pn)
            trans[s2] += p_u[u]
        expected = -loss_exp + lam * (budget - cost_exp)
        assert mdp.rewards[s, a] == pytest.approx(expected, abs=1e-12)
        np.testing.assert_allclose(dense[s, a], trans, atol=1e-14)


def test_vending_nofeedback_singleton_memories_collapse():
    spec = _toy_spec()
    mem_x = memory_last_m(0, 1)
    mem_y = memory_last_m(0, 2)
    dec = np.zeros((1, 2, 1, 1), dtype=int)
    core = _vending_feedback_core(spec, 0, mem_x, mem_y, [0],
                                  simplex_grid(1, 1))
    mdp = pair_lagrangian(spec, core, dec, 0.0)
    assert mdp.num_states == 2
    assert mdp.check() == []


# RICH with dyadic probabilities: every product and sum below is exact
# in floating point, so equal chains compare equal bit for bit.
DYADIC = {
    "source": [0.625, 0.375],
    "channel": [[0.75, 0.25], [0.25, 0.75]],
    "distortion": [[0.0, 1.0], [1.0, 0.0]],
    "vending": {
        "kernel": [[0.875, 0.125], [1.0, 0.0], [0.25, 0.75], [0.0, 1.0]],
        "costs": [0.0, 1.0],
        "budget": 0.5,
    },
}


@pytest.mark.parametrize("d", [0, 1])
@pytest.mark.parametrize("m", [1, 2])
def test_vending_open_loop_chain_is_feedback_chain_without_y_memory(d, m):
    """With a one-state y-memory the encoder knows every decoder memory,
    since the x-memory records only its own inputs, so the open-loop
    chain is the feedback chain: same states, transitions, costs and
    rewards."""
    spec = spec_from_dict(DYADIC)
    mem_x, mem_y = memory_last_m(m, 2), memory_last_m(0, 2)
    rng = np.random.default_rng(70 + 2 * d + m)
    decs = rng.integers(0, 2, size=(5, 2, 2, mem_x.num_states, 1))
    for av in ([0, 1], [1, 0], [1, 1]):
        fb = _vending_feedback_core(spec, d, mem_x, mem_y, av)
        ol = _vending_feedback_core(spec, d, mem_x, mem_y, av,
                                    simplex_grid(1, 4))
        dense = [FiniteMdp(core["next_states"], core["next_probs"],
                           np.zeros(core["cost"].shape)).dense()
                 for core in (fb, ol)]
        assert dense[0].shape == dense[1].shape
        assert np.array_equal(dense[0], dense[1])
        assert np.array_equal(fb["cost"], ol["cost"])
        assert np.array_equal(_chain_rewards(fb, decs),
                              _chain_rewards(ol, decs))


def test_vending_nofeedback_solve_flags_approximate():
    rep = solve_vending_nofeedback(_toy_spec(1.0), 0, memory_last_m(0, 1),
                                   memory_last_m(0, 2), 4)
    assert rep.scenario == "vending-nofeedback"
    assert "APPROXIMATE" in rep.flags
    # the informative action remains affordable and memoryless decoding
    # of a perfect side observation is exact even without feedback
    assert rep.distortion == pytest.approx(0.0, abs=1e-8)


def test_vending_feedback_matches_nofeedback_on_deterministic_memories():
    """Point-mass beliefs make the open-loop build exact."""
    spec = with_budget(spec_from_dict(RICH), 0.5)
    mem_x = memory_last_m(0, 2)
    mem_y = memory_last_m(0, 2)
    fb = solve_vending_feedback(spec, 0, mem_x, mem_y)
    nf = solve_vending_nofeedback(spec, 0, mem_x, mem_y, 2)
    assert nf.distortion == pytest.approx(fb.distortion, abs=1e-8)


def test_vending_infeasible_pair_cannot_win():
    # at budget 0.75 the always-pay actuator (average cost 1) cannot meet
    # the budget, so the free pair's 0.3 wins in both settings
    mem_x, mem_y = memory_last_m(0, 1), memory_last_m(0, 2)
    fb = solve_vending_feedback(_toy_spec(0.75), 0, mem_x, mem_y)
    nf = solve_vending_nofeedback(_toy_spec(0.75), 0, mem_x, mem_y, 2)
    for rep in (fb, nf):
        assert rep.diagnostics["avg_constraint_cost"] <= 0.75
        assert rep.distortion == pytest.approx(0.3, abs=1e-8)


@pytest.mark.parametrize("name, budget, d, m_y", [
    ("golden-toy", None, 1, 1), ("golden-ternary", None, 0, 0),
    *[("ternary", b, 0, 0) for b in (0.0, 0.25, 0.5, 0.75, 1.0)],
    *[("toy", b, 0, 0) for b in (0.25, 0.5, 0.75)],
    ("ternary", 0.5, 1, 0), ("binary", 0.5, 1, 1),
])
def test_vending_pair_dual_value_is_its_lp_optimum(name, budget, d, m_y):
    """The winning pair's dual value is the constrained optimum of its
    chain, which the occupation-measure LP computes directly: on the
    golden solve_vending_feedback and simulate_vending_feedback problems
    and on the benchmark's instances."""
    if name.startswith("golden-"):
        kind = name.removeprefix("golden-")
        problem = {"toy": GOLDEN_TOY, "ternary": GOLDEN_TERNARY}[kind]
        spec = spec_from_dict({**problem, "vending": VENDING[kind]})
    else:
        spec = _input_spec(name, budget)
    mem_x = memory_last_m(0, spec.num_channel_inputs)
    mem_y = memory_last_m(m_y, spec.num_channel_outputs)
    rep = solve_vending_feedback(spec, d, mem_x, mem_y, tol=1e-9)
    core = _vending_feedback_core(spec, d, mem_x, mem_y,
                                  rep.vending_action_map)
    rewards = _chain_rewards(core, np.asarray(rep.decoder)[None])[0]
    chain = FiniteMdp(core["next_states"], core["next_probs"], rewards)
    lp = occupation_lp(chain.dense(), -rewards, core["cost"],
                       spec.vending.costs.budget)
    assert rep.distortion == pytest.approx(lp, abs=1e-9)


def test_vending_solvers_need_vending_data():
    spec = binary_problem(0.3, 0.3)
    mem = memory_last_m(0, 2)
    with pytest.raises(SpecValidationError, match="needs vending data"):
        solve_vending_feedback(spec, 0, mem, mem)
    with pytest.raises(SpecValidationError, match="needs vending data"):
        solve_vending_nofeedback(spec, 0, mem, mem, 2)


def _selected_pair(values, budget):
    """The (decoder, actuator) pair that scenarios._select reports for a
    table of pair values indexed [decoder, map], at the given budget."""
    values = np.asarray(values)
    n_dec, n_map = values.shape
    columns = iter(values.T)

    def solve(core):
        return next(columns), lambda i: ((), {})
    rep = _select("vending-feedback", _toy_spec(budget), 0,
                  [{"shift": np.zeros((1, 1), dtype=int)}] * n_map,
                  np.arange(n_dec)[:, None], solve, DUAL_TOL, {},
                  action_maps=np.arange(n_map)[:, None])
    return rep.decoder[0], rep.vending_action_map[0]


def test_vending_no_feasible_pair_names_the_budget():
    # validated specs always have a free action, so this guards the
    # selection step itself
    with pytest.raises(SpecValidationError, match="budget 0.25"):
        _selected_pair(np.full((4, 2), np.inf), 0.25)
    assert _selected_pair([[np.inf, 0.5], [0.5, 0.2]], 0.25) == (1, 1)
    # values within the tolerance tie, and the lowest index wins even
    # where the float minimum lies further on
    assert _selected_pair([[0.2 + 1e-15, 0.5], [0.2, 0.9]], 0.25) == (0, 0)
    # the order is decoder-major: a lower decoder beats a lower map
    assert _selected_pair([[0.5, 0.2], [0.2, 0.9]], 0.25) == (0, 1)


@pytest.mark.parametrize("name", ["toy", "ternary"])
def test_lockstep_dual_matches_one_search_per_decoder(name):
    """Each actuator map's decoder family in one constrained_solve call
    gets, decoder by decoder, the result of a batch of one, bit for bit."""
    spec = _input_spec(name, 0.5)
    mem_x = memory_last_m(0, spec.num_channel_inputs)
    mem_y = memory_last_m(0, spec.num_channel_outputs)
    decs = _decoder_family(spec, _decoder_shape(spec, mem_x, mem_y))
    avs = _enumerate_maps(spec.num_channel_inputs, spec.vending.num_actions,
                          DEFAULT_DECODER_CAP, "actuator enumeration", "")
    fields = ("lambda_star", "dual_value", "gain_at_lambda_star",
              "avg_constraint_cost", "bracket_edge", "evaluations",
              "iterations", "final_span")
    for av in avs:
        core = _vending_feedback_core(spec, 0, mem_x, mem_y, av)
        rewards = _vending_feedback_rewards(core, decs)

        def dual(tables):
            return constrained_solve(
                FiniteMdp(core["next_states"], core["next_probs"], tables),
                core["cost"], spec.vending.costs.budget)
        batch = dual(rewards)
        assert len(batch) == decs.shape[0]
        singles = [dual(r[None])[0] for r in rewards]
        assert batch.evaluations == sum(r.evaluations for r in singles)
        for got, want in zip(batch, singles):
            assert [getattr(got, f) for f in fields] == [
                getattr(want, f) for f in fields]
            np.testing.assert_array_equal(got.policy, want.policy)


def test_vending_solve_validates_each_actuator_chain_once(monkeypatch):
    """The ternary solve (324 pairs over 4 actuator maps) checks each
    actuator map's chain once, not once per pair and multiplier."""
    calls = []
    check = FiniteMdp.check

    def counted(self):
        calls.append(1)
        return check(self)
    monkeypatch.setattr(FiniteMdp, "check", counted)
    spec = _input_spec("ternary", 0.5)
    report = solve_vending_feedback(spec, 0, memory_last_m(0, 2),
                                    memory_last_m(0, 2))
    assert report.diagnostics["actuator_candidates"] == 4
    assert 0 < len(calls) <= 4


def _ternary_duals(monkeypatch, budget):
    """The DualBatch of each actuator map in the ternary d = 0 solve."""
    batches = []
    solve = vending.constrained_solve

    def tapped(*args, **kwargs):
        batches.append(solve(*args, **kwargs))
        return batches[-1]
    monkeypatch.setattr(vending, "constrained_solve", tapped)
    solve_vending_feedback(_input_spec("ternary", budget), 0,
                           memory_last_m(0, 2), memory_last_m(0, 2))
    return batches


def test_vending_solve_finds_classes_once_per_lambda_star_policy(
        monkeypatch):
    """The ternary solve finds the recurrent classes of each actuator
    map's distinct dual-minimizer policies, not those of all 324 pairs."""
    calls = []
    classes = mdp._stationary_classes

    def counted(next_states, next_probs):
        calls.append(1)
        return classes(next_states, next_probs)
    monkeypatch.setattr(mdp, "_stationary_classes", counted)
    batches = _ternary_duals(monkeypatch, 0.5)
    assert sum(len(batch) for batch in batches) == 324
    assert len(calls) == sum(len({res.policy.tobytes() for res in batch})
                             for batch in batches) < 324 // 8


@pytest.mark.parametrize("budget, total", [(0.0, 10_695), (0.5, 13_232)])
def test_ternary_dual_evaluations_stay_pinned(monkeypatch, budget, total):
    """Tables that share a search still count its evaluations each."""
    assert sum(batch.evaluations
               for batch in _ternary_duals(monkeypatch, budget)) == total


# Chains whose rewards must not depend on the decoder batch.  A coding
# chain is a vending chain with one x-memory state and the channel's law
# (scenarios._coding_law), so both kinds go through _chain_rewards.
CODING_CHAINS = [
    pytest.param("coding", (p, delta), d, m, res,
                 id=f"coding-p{p}-delta{delta}-d{d}-m{m}-grid{res}")
    for p, delta in ((0.3, 0.3), (0.2, 0.1))
    for d in range(3) for m in range(3)
    for res in ((None, 3, 10) if m else (None,))]
VENDING_CHAINS = [
    pytest.param("vending", name, d, (mx, my), res,
                 id=f"vending-{name}-d{d}-mx{mx}-my{my}-grid{res}")
    for name in ("toy", "ternary", "binary", "rich")
    for d in range(2) for mx in range(2) for my in range(2)
    for res in (None, 3)]


def _rewarded_cores(kind, instance, d, memory, res):
    """(core, decoders) of each chain of one configuration: a coding
    chain, or each actuator map's vending chain, with at most 64 of its
    decoders, drawn at random when the family is larger."""
    rng = np.random.default_rng(91)
    if kind == "coding":
        spec = binary_problem(*instance)
        mem_y = memory_last_m(memory, 2)
        shape = (2, mem_y.num_states)
    else:
        spec = (spec_from_dict(RICH) if instance == "rich"
                else _input_spec(instance, 0.5))
        mem_x = memory_last_m(memory[0], spec.num_channel_inputs)
        mem_y = memory_last_m(memory[1], spec.num_channel_outputs)
        shape = _decoder_shape(spec, mem_x, mem_y)
    n_z = spec.num_reconstructions
    size = int(np.prod(shape))
    decs = (all_maps(size, n_z) if n_z ** size <= 64
            else rng.integers(0, n_z, size=(64, size))).reshape(-1, *shape)
    grid = None if res is None else simplex_grid(mem_y.num_states, res)
    if kind == "coding":
        return [(_coding_chain(spec, d, mem_y, grid),
                 _coding_decoders(decs, 2))]
    avs = all_maps(spec.num_channel_inputs, spec.vending.num_actions)
    return [(_vending_feedback_core(spec, d, mem_x, mem_y, av, grid), decs)
            for av in avs]


@pytest.mark.parametrize("kind, instance, d, memory, res",
                         CODING_CHAINS + VENDING_CHAINS)
def test_chain_rewards_do_not_depend_on_batch(kind, instance, d, memory,
                                              res):
    """Each decoder's rewards are the same bits, signed zeros included,
    in its full batch, in a batch of one and in half the batch."""
    for core, decs in _rewarded_cores(kind, instance, d, memory, res):
        full = _chain_rewards(core, decs).view(np.int64)
        half = decs.shape[0] // 2
        np.testing.assert_array_equal(
            _chain_rewards(core, decs[half:]).view(np.int64), full[half:])
        for i in range(decs.shape[0]):
            np.testing.assert_array_equal(
                _chain_rewards(core, decs[i:i + 1])[0].view(np.int64),
                full[i])


@pytest.mark.parametrize("kind, instance, d, memory", [
    pytest.param("coding", (0.3, 0.3), 1, 0, id="coding"),
    pytest.param("vending", "ternary", 0, (0, 0), id="vending")])
def test_chain_rewards_add_outcomes_in_slot_order(kind, instance, d, memory):
    """A plain loop that adds each step's (u, y) terms in slot order, u
    outer and y inner, and negates the sum gives the rewards bit for bit
    on feedback chains, whose y-memory is a point mass."""
    for core, decs in _rewarded_cores(kind, instance, d, memory, None):
        rewards = _chain_rewards(core, decs)
        loss, prob = core["loss"], core["prob"]
        n_a, n_v, n_u, n_y = prob.shape
        _, n_m, n_n = core["shape"][:3]
        for t, a, v, m, n in itertools.product(
                range(decs.shape[0]), range(n_a), range(n_v), range(n_m),
                range(n_n)):
            total = 0.0
            for u in range(n_u):
                c, x = core["u_next"][v, u], core["x_sent"][a, v, u]
                for y in range(n_y):
                    total += prob[a, v, u, y] * loss[c, decs[t, x, y, m, n]]
            s = (v * n_m + m) * n_n + n
            assert rewards[t, s, a].view(np.int64) == np.float64(
                -total).view(np.int64)
