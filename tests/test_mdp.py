"""Average-reward solver machinery against brute-force oracles."""
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from rtcode import CapacityError, NonConvergenceError, SpecValidationError
from rtcode import mdp as mdp_module
from rtcode.mdp import (
    FiniteMdp,
    batch_policy_iteration,
    batch_value_iteration,
    constrained_solve,
    evaluate_policy,
    exhaustive_policy_search,
    relative_value_iteration,
    rvi_batch,
)
from conftest import random_unichain_mdp


def _single_state(rewards):
    dense = np.ones((1, len(rewards), 1))
    return FiniteMdp.from_dense(dense, np.asarray([rewards], dtype=float))


def _cycle():
    dense = np.zeros((2, 1, 2))
    dense[0, 0, 1] = 1.0
    dense[1, 0, 0] = 1.0
    return FiniteMdp.from_dense(dense, np.array([[0.0], [1.0]]))


def test_rvi_single_state_picks_best_reward():
    res = relative_value_iteration(_single_state([1.0, 2.0]))
    assert res.gain == pytest.approx(2.0, abs=1e-9)
    assert res.policy.tolist() == [1]


def test_rvi_deterministic_cycle_time_average():
    res = relative_value_iteration(_cycle())
    assert res.gain == pytest.approx(0.5, abs=1e-9)
    assert res.final_span < 1e-9


def test_rvi_matches_exhaustive_search_on_random_instances():
    rng = np.random.default_rng(404)
    for _ in range(30):
        mdp = random_unichain_mdp(rng)
        res = relative_value_iteration(mdp, tol=1e-10)
        _, best_gain = exhaustive_policy_search(mdp)
        assert res.gain == pytest.approx(best_gain, abs=1e-8)


def test_evaluate_policy_agrees_with_rvi():
    rng = np.random.default_rng(405)
    for _ in range(30):
        mdp = random_unichain_mdp(rng)
        res = relative_value_iteration(mdp, tol=1e-10)
        ev = evaluate_policy(mdp, res.policy)
        assert ev.gain == pytest.approx(res.gain, abs=1e-8)
        assert not ev.classes_disagree


def test_evaluate_policy_single_action_chain():
    mdp = _cycle()
    ev = evaluate_policy(mdp, [0, 0])
    assert ev.gain == pytest.approx(0.5)
    assert not ev.multichain


def test_evaluate_policy_reports_absorbing_classes():
    # two absorbing states with different rewards: multichain, best wins
    dense = np.zeros((2, 1, 2))
    dense[0, 0, 0] = 1.0
    dense[1, 0, 1] = 1.0
    mdp = FiniteMdp.from_dense(dense, np.array([[0.25], [0.75]]))
    ev = evaluate_policy(mdp, [0, 0])
    assert ev.multichain
    assert ev.classes_disagree
    assert ev.gain == pytest.approx(0.75)
    assert sorted(ev.class_gains) == pytest.approx([0.25, 0.75])


def test_gain_shifts_exactly_with_constant_reward_offset():
    rng = np.random.default_rng(406)
    for _ in range(10):
        mdp = random_unichain_mdp(rng)
        res = relative_value_iteration(mdp, tol=1e-10)
        shifted = FiniteMdp(mdp.next_states, mdp.next_probs,
                            mdp.rewards + 3.25)
        res2 = relative_value_iteration(shifted, tol=1e-10)
        assert res2.gain - res.gain == pytest.approx(3.25, abs=1e-8)


def test_rvi_nonconvergence_carries_bracket(monkeypatch):
    # slow-mixing two-state chain cannot hit 1e-12 span in three sweeps
    dense = np.array([[[0.99, 0.01]], [[0.01, 0.99]]])
    mdp = FiniteMdp.from_dense(dense, np.array([[0.0], [1.0]]))
    monkeypatch.setattr(mdp_module, "MAX_SWEEPS", 3)
    with pytest.raises(NonConvergenceError) as err:
        relative_value_iteration(mdp, tol=1e-12)
    assert err.value.span is not None
    lo, hi = err.value.gain_bracket
    assert lo <= hi


def _assert_rows_solve_alone(ns, probs, rewards):
    """Each row of one batch_value_iteration call is the batch of one
    that relative_value_iteration solves, bit for bit."""
    sol = batch_value_iteration(ns, probs, rewards, tol=1e-10)
    for k in range(rewards.shape[0]):
        single = relative_value_iteration(FiniteMdp(ns, probs, rewards[k]),
                                          tol=1e-10)
        assert single.gain == sol.gains[k]
        np.testing.assert_array_equal(single.policy, sol.policies[k])
        assert single.iterations == sol.rounds[k]
        assert single.final_span == sol.spans[k] < 1e-10


def _three_tables(rng, mdp):
    return np.stack([
        mdp.rewards,
        mdp.rewards * 0.5 - 1.0,
        rng.uniform(-1, 1, mdp.rewards.shape),
    ])


def test_rvi_batch_matches_single_solves():
    rng = np.random.default_rng(408)
    mdp = random_unichain_mdp(rng, max_states=4, max_actions=3)
    _assert_rows_solve_alone(mdp.next_states, mdp.next_probs,
                             _three_tables(rng, mdp))


def test_rvi_batch_matches_single_solves_with_many_slots():
    # from 8 successor slots on, a sum's order can depend on the batch
    rng = np.random.default_rng(408)
    mdp = random_unichain_mdp(rng, max_states=4, max_actions=3)
    slots = 11
    # split each slot's mass at random over `slots` copies of it
    split = rng.uniform(0.1, 1.0, (*mdp.next_probs.shape, slots))
    split /= split.sum(axis=3, keepdims=True)
    ns = np.repeat(mdp.next_states, slots, axis=2)
    probs = (mdp.next_probs[..., None] * split).reshape(ns.shape)
    _assert_rows_solve_alone(ns, probs, _three_tables(rng, mdp))


def test_exhaustive_search_trivial_cases():
    mdp = _single_state([0.3, 0.9, 0.1])
    policy, gain = exhaustive_policy_search(mdp)
    assert gain == pytest.approx(0.9, abs=1e-10)
    assert policy.tolist() == [1]
    policy, gain = exhaustive_policy_search(_cycle())
    assert gain == pytest.approx(0.5)


def test_exhaustive_search_capacity_guard(monkeypatch):
    rng = np.random.default_rng(1)
    dense = rng.random((4, 3, 4)) + 0.1
    dense /= dense.sum(axis=2, keepdims=True)
    mdp = FiniteMdp.from_dense(dense, rng.random((4, 3)))
    monkeypatch.setenv("RTC_MAX_STATES", "10")
    with pytest.raises(CapacityError):
        exhaustive_policy_search(mdp)


def test_invalid_mdp_rejected():
    dense = np.zeros((2, 1, 2))
    dense[0, 0, 1] = 0.7   # row does not sum to 1
    dense[1, 0, 0] = 1.0
    mdp = FiniteMdp.from_dense(dense, np.zeros((2, 1)))
    with pytest.raises(SpecValidationError):
        relative_value_iteration(mdp)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_solvers_reject_a_tolerance_no_span_can_meet(tol):
    # no span falls below a nonpositive or NaN tolerance, so the sweeps
    # would run on to MAX_SWEEPS
    mdp = _cycle()
    with pytest.raises(SpecValidationError, match="positive finite"):
        relative_value_iteration(mdp, tol=tol)
    for solver in (batch_policy_iteration, batch_value_iteration):
        with pytest.raises(SpecValidationError, match="positive finite"):
            solver(mdp.next_states, mdp.next_probs, mdp.rewards[None],
                   tol=tol)


def _budget_mdp(r_free, r_paid, cost_paid, budget):
    """Single state, two actions: a free one and a costly one.  The
    (chain, cost, budget) arguments of constrained_solve, with a batch of
    one reward table."""
    mdp = _single_state([r_free, r_paid])
    return (FiniteMdp(mdp.next_states, mdp.next_probs, mdp.rewards[None]),
            np.array([[0.0, cost_paid]]), budget)


def _lagrangian(mdp, cost, budget, lam):
    """The unconstrained MDP of mdp's first reward table at multiplier
    lam: reward + lam * (budget - cost)."""
    return FiniteMdp(mdp.next_states, mdp.next_probs,
                     mdp.rewards[0] + lam * (budget - cost))


def test_constrained_solve_slack_budget_is_unconstrained():
    res = constrained_solve(*_budget_mdp(0.0, 0.6, 1.0, 1.0))[0]
    assert res.dual_value == pytest.approx(0.6, abs=1e-8)
    assert res.lambda_star == pytest.approx(0.0, abs=1e-6)


def test_constrained_solve_binding_at_zero_budget():
    res = constrained_solve(*_budget_mdp(0.0, 0.6, 1.0, 0.0),
                            lambda_max=2.0)[0]
    # paying is never affordable on average; the dual pushes to the
    # zero-cost action's gain
    assert res.dual_value == pytest.approx(0.0, abs=1e-8)


def test_constrained_solve_interior_kink():
    # dual(lam) = max(0.5*lam, 0.6 - 0.5*lam): kink at lam=0.6, value 0.3
    res = constrained_solve(*_budget_mdp(0.0, 0.6, 1.0, 0.5),
                            lambda_max=1.0)[0]
    assert res.lambda_star == pytest.approx(0.6, abs=1e-4)
    assert res.dual_value == pytest.approx(0.3, abs=1e-7)
    assert not res.bracket_edge


def test_constrained_solve_dual_beats_lambda_grid():
    cmdp = _budget_mdp(0.0, 0.6, 1.0, 0.5)
    res = constrained_solve(*cmdp, lambda_max=1.0)[0]
    grid = np.linspace(0.0, 1.0, 1000)
    grid_vals = [relative_value_iteration(_lagrangian(*cmdp, lam),
                                          tol=1e-10).gain for lam in grid]
    spacing = 1.0 / 999.0
    max_slope = 1.0    # |budget - cost| is at most 1 here
    assert res.dual_value <= min(grid_vals) + 1e-7
    assert min(grid_vals) - res.dual_value <= spacing * max_slope


def test_dual_is_convex_on_grid():
    rng = np.random.default_rng(409)
    base = random_unichain_mdp(rng, max_states=3, max_actions=3)
    cost = rng.uniform(0.0, 1.0, base.rewards.shape)
    cost[:, 0] = 0.0
    chain = FiniteMdp(base.next_states, base.next_probs, base.rewards[None])
    lams = np.linspace(0.0, 2.0, 41)
    vals = np.array([
        relative_value_iteration(_lagrangian(chain, cost, 0.3, lam),
                                 tol=1e-11).gain for lam in lams])
    second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    assert second.min() >= -1e-8


def test_constrained_solve_flags_bracket_edge_without_warning():
    # costly action strictly dominates but is infeasible: the dual keeps
    # improving out to lambda_max.  The result says so; warning about it
    # is the caller's choice.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = constrained_solve(*_budget_mdp(0.0, 2.0, 1.0, 0.25),
                                lambda_max=1.0)[0]
    assert res.bracket_edge
    assert res.lambda_star == pytest.approx(1.0, abs=1e-4)


def test_constrained_solve_zero_slack_is_not_bracket_edge():
    # every action costs exactly the budget: the search stops at lam = 0
    mdp = _single_state([0.2, 0.7])
    chain = FiniteMdp(mdp.next_states, mdp.next_probs, mdp.rewards[None])
    res = constrained_solve(chain, np.full((1, 2), 0.4), 0.4,
                            lambda_max=1.0)[0]
    assert not res.bracket_edge
    assert res.lambda_star == 0.0
    assert res.dual_value == pytest.approx(0.7, abs=1e-9)


def test_constrained_solve_takes_a_batch_and_checks_its_inputs():
    chain, cost, budget = _budget_mdp(0.0, 0.6, 1.0, 0.5)
    single = FiniteMdp(chain.next_states, chain.next_probs, chain.rewards[0])
    for args, message in [
            ((single, cost, budget), "shape \\(B, S, A\\)"),
            ((chain, cost[:, :1], budget), "match the reward shape"),
            ((chain, -cost, budget), "finite and nonnegative"),
            ((chain, cost, -0.1), "budget must be nonnegative")]:
        with pytest.raises(SpecValidationError, match=message):
            constrained_solve(*args)


def occupation_lp(trans, loss, cost, budget):
    """Minimum average loss over randomized stationary policies of a
    constrained chain, by the occupation-measure linear program (HiGHS).

    trans has shape (S, A, S); loss and cost have shape (S, A).  The
    variables are the long-run frequencies of each (state, action): they
    balance the flow through every state, sum to 1, and pay at most the
    budget on average.
    """
    n_s, n_a, _ = trans.shape
    n = n_s * n_a
    flow = np.zeros((n_s, n))
    for s in range(n_s):
        for a in range(n_a):
            col = s * n_a + a
            flow[s, col] += 1.0
            flow[:, col] -= trans[s, a]
    a_eq = np.vstack([flow, np.ones((1, n))])
    b_eq = np.zeros(n_s + 1)
    b_eq[-1] = 1.0
    res = linprog(loss.ravel(), A_ub=cost.reshape(1, n), b_ub=[budget],
                  A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def test_constrained_solve_matches_occupation_lp():
    """On unichain models the dual optimum is the constrained optimum,
    which the occupation-measure LP computes directly."""
    binding = 0
    for seed in range(60):
        rng = np.random.default_rng(4200 + seed)
        base = random_unichain_mdp(rng)
        while base.num_actions < 2:     # one action leaves nothing to price
            base = random_unichain_mdp(rng)
        cost = rng.uniform(0.0, 1.0, base.rewards.shape)
        cost[:, 0] = 0.0        # a free action keeps every budget feasible
        budget = rng.uniform(0.05, max(0.05, cost.max()))
        chain = FiniteMdp(base.next_states, base.next_probs,
                          base.rewards[None])
        res = constrained_solve(chain, cost, budget)[0]
        lp = occupation_lp(base.dense(), -base.rewards, cost, budget)
        assert res.dual_value == pytest.approx(-lp, abs=1e-7), seed
        binding += res.lambda_star > 0.0
    # the budget binds in a fair share of them
    assert binding >= 15


def test_constrained_solve_narrows_a_wide_bracket_to_its_tolerance():
    # a cost of 1e-100 puts lambda_max at 1e100; the search must narrow
    # to DUAL_TOL around the kink at 0.5, not stop after a fixed number
    # of steps at lam = 0 with the unconstrained value 1.0
    mdp = _single_state([0.0, 0.5, 1.0])
    chain = FiniteMdp(mdp.next_states, mdp.next_probs, mdp.rewards[None])
    cost = np.array([[0.0, 1e-100, 1.0]])
    res = constrained_solve(chain, cost, 0.5)[0]
    lp = occupation_lp(mdp.dense(), -mdp.rewards, cost, 0.5)
    assert lp == pytest.approx(-0.75, abs=1e-9)
    assert res.dual_value == pytest.approx(-lp, abs=1e-7)
    assert res.lambda_star == pytest.approx(0.5, abs=1e-6)
    assert not res.bracket_edge


def test_constrained_solve_raises_when_the_bracket_stops_narrowing():
    # the kink sits at lam = 1e20, where floats are 16384 apart: no
    # bracket there gets within DUAL_TOL / slope = 2e-8
    chain, cost, budget = _budget_mdp(0.0, 1e20, 1.0, 0.5)
    with pytest.raises(NonConvergenceError, match="stopped narrowing"):
        constrained_solve(chain, cost, budget, lambda_max=1e21)


_DUAL_FIELDS = ("lambda_star", "dual_value", "gain_at_lambda_star",
                "avg_constraint_cost", "bracket_edge", "evaluations",
                "iterations", "final_span")


def _assert_same_dual(got, want):
    assert [getattr(got, f) for f in _DUAL_FIELDS] == [
        getattr(want, f) for f in _DUAL_FIELDS]
    np.testing.assert_array_equal(got.policy, want.policy)


def _solved_rows(monkeypatch):
    """Count the tables that constrained_solve's value iteration sweeps."""
    rows = []
    solve = mdp_module.batch_value_iteration

    def counted(next_states, next_probs, rewards, tol):
        rows.append(rewards.shape[0])
        return solve(next_states, next_probs, rewards, tol=tol)
    monkeypatch.setattr(mdp_module, "batch_value_iteration", counted)
    return rows


def _priced_tables(seed):
    """A random three-state chain with a costly second action, two random
    reward tables on it, and a factory of constrained_solve's (chain,
    cost, budget) arguments for a (B, S, A) batch of its rewards."""
    rng = np.random.default_rng(seed)
    raw = rng.random((3, 2, 3)) + 1e-3
    base = FiniteMdp.from_dense(raw / raw.sum(axis=2, keepdims=True),
                                np.zeros((3, 2)))
    cost = np.array([[0.0, 1.0]] * 3)

    def cmdp(rewards):
        return (FiniteMdp(base.next_states, base.next_probs, rewards),
                cost, 0.4)
    return cmdp, rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, (3, 2))


def test_constrained_solve_equal_tables_share_one_search(monkeypatch):
    cmdp, r0, r1 = _priced_tables(415)
    singles = [constrained_solve(*cmdp(r[None]))[0] for r in (r0, r1)]
    rows = _solved_rows(monkeypatch)
    batch = constrained_solve(*cmdp(np.stack([r0, r1, r0])))
    for got, want in zip(batch, (*singles, singles[0])):
        _assert_same_dual(got, want)
    # the repeated table counts its evaluations but is not swept again
    assert batch.evaluations == 2 * singles[0].evaluations \
        + singles[1].evaluations
    assert sum(rows) == singles[0].evaluations + singles[1].evaluations


def test_constrained_solve_equal_tables_with_other_brackets_search_apart(
        monkeypatch):
    cmdp, r0, _ = _priced_tables(416)
    tops = (1.0, 2.0)
    singles = [constrained_solve(*cmdp(r0[None]), lambda_max=top)[0]
               for top in tops]
    rows = _solved_rows(monkeypatch)
    batch = constrained_solve(*cmdp(np.stack([r0, r0])),
                              lambda_max=np.array(tops))
    for got, want in zip(batch, singles):
        _assert_same_dual(got, want)
    assert sum(rows) == batch.evaluations == sum(
        res.evaluations for res in singles)


def _batch(rng, copies=4, **kwargs):
    """A random unichain structure with several reward tables."""
    mdp = random_unichain_mdp(rng, **kwargs)
    rewards = np.stack([rng.uniform(-1.0, 1.0, mdp.rewards.shape)
                        for _ in range(copies)])
    return mdp.next_states, mdp.next_probs, rewards


def test_stationary_solve_exact_on_slowly_switching_chain():
    # P(0 -> 1) = a, P(1 -> 0) = 2a: the chain sits in state 1 a third of
    # the time, however slowly it switches
    for rate in (1e-4, 1e-5):
        dense = np.array([[[1.0 - rate, rate]],
                          [[2.0 * rate, 1.0 - 2.0 * rate]]])
        mdp = FiniteMdp.from_dense(dense, np.array([[0.0], [1.0]]))
        t0 = time.perf_counter()
        ev = evaluate_policy(mdp, [0, 0])
        assert time.perf_counter() - t0 < 0.5
        assert abs(ev.gain - 1.0 / 3.0) <= 1e-13
        assert not ev.multichain


def test_batch_policy_iteration_matches_value_iteration():
    rng = np.random.default_rng(410)
    for _ in range(20):
        ns, probs, rewards = _batch(rng, max_states=6, max_actions=4)
        pi = batch_policy_iteration(ns, probs, rewards, tol=1e-10)
        vi = batch_value_iteration(ns, probs, rewards, tol=1e-10)
        np.testing.assert_allclose(pi.gains, vi.gains, atol=1e-8)
        assert not pi.fallback.any()
        assert pi.residuals.max() < 1e-10
        assert pi.spans.max() < 1e-10
        for k in range(rewards.shape[0]):
            mdp = FiniteMdp(ns, probs, rewards[k])
            assert evaluate_policy(mdp, pi.policies[k]).gain == \
                pytest.approx(pi.gains[k], abs=1e-10)


def test_rvi_batch_returns_policy_iteration_counters():
    rng = np.random.default_rng(411)
    ns, probs, rewards = _batch(rng, copies=5)
    gains, policies, rounds, spans = sol = rvi_batch(ns, probs, rewards)
    assert rounds == sol.steps == 1 + sol.rounds.max()
    # rtbench's traced runs take a result with .iterations for a
    # SolveResult of one MDP
    assert not hasattr(sol, "iterations")
    assert sol.rounds.shape == sol.fallback.shape == (5,)
    assert gains.shape == (5,) and policies.shape == rewards.shape[:2]


def test_policy_iteration_falls_back_on_multichain_policies():
    # action 0 stays put, action 1 moves to the other state; staying pays
    # 1 in state 1 only, so the greedy start policy has two recurrent
    # classes and a singular evaluation
    dense = np.zeros((2, 2, 2))
    dense[0, 0, 0] = dense[1, 0, 1] = 1.0
    dense[0, 1, 1] = dense[1, 1, 0] = 1.0
    mdp = FiniteMdp.from_dense(dense, np.array([[0.5, 0.0], [1.0, 0.0]]))
    sol = batch_policy_iteration(mdp.next_states, mdp.next_probs,
                                 mdp.rewards[None], tol=1e-10)
    assert sol.fallback.tolist() == [True]
    assert sol.gains[0] == pytest.approx(1.0, abs=1e-9)


def test_rvi_batch_chunks_keep_gathers_within_budget(monkeypatch):
    # a dense chain: one candidate's (S, A, K) successor terms, a gather,
    # take 640 kB, and so do the (S, A, S) tensor and each slot-major copy
    # of the successor lists
    rng = np.random.default_rng(412)
    s, a = 200, 2
    raw = rng.random((s, a, s))
    mdp = FiniteMdp.from_dense(raw / raw.sum(axis=2, keepdims=True),
                               np.zeros((s, a)))
    rewards = rng.uniform(-1.0, 1.0, (64, s, a))
    gather = s * a * s * 8

    def run(solve, budget, tables):
        monkeypatch.setattr(mdp_module, "GATHER_BUDGET_BYTES", budget)
        tracemalloc.start()
        try:
            sol = solve(mdp.next_states, mdp.next_probs, tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return sol, peak

    # a policy-iteration candidate's round takes three gathers of (S, S)
    # systems, and the call holds the tensor and the slot-major lists,
    # three more; a value-iteration candidate's sweep takes five (A, S)
    # arrays and four bias rows, and the call holds the slot-major lists
    # and the (B, S) policies
    each = 8 * s * (5 * a + 4)
    for solve, tables, unit, budget, once in (
            (rvi_batch, rewards[:8], gather, 4 * gather, 3 * gather),
            (batch_value_iteration, rewards, each, 8 * each,
             2 * gather + rewards[..., 0].nbytes)):
        whole, whole_peak = run(solve, 64 * gather, tables)
        chunked, peak = run(solve, budget, tables)
        assert whole_peak - once > budget
        assert peak - once < budget + unit
        np.testing.assert_array_equal(whole.gains, chunked.gains)
        np.testing.assert_array_equal(whole.policies, chunked.policies)
        assert not chunked.fallback.any()
    # below one policy-iteration round, every candidate goes to value
    # iteration, which holds the slot-major lists but no dense tensor
    vi, _ = run(batch_value_iteration, gather, rewards[:8])
    small, peak = run(rvi_batch, gather, rewards[:8])
    assert small.fallback.all()
    assert peak < 2 * gather + gather
    np.testing.assert_array_equal(small.gains, vi.gains)
    np.testing.assert_array_equal(small.policies, vi.policies)


def _slotted_chain(rng, slots):
    """A random chain whose (s, a) rows have `slots` successor slots.
    Slot 0 of every row leads to state 0, so each policy's chain has one
    recurrent class, and state 0's self-loop makes it aperiodic."""
    s, a = int(rng.integers(2, 7)), int(rng.integers(1, 4))
    ns = rng.integers(0, s, (s, a, slots))
    ns[:, :, 0] = 0
    probs = rng.random((s, a, slots)) + 1e-2
    return ns, probs / probs.sum(axis=2, keepdims=True)


def test_policy_iteration_bits_do_not_depend_on_the_batch():
    # a Q-value that summed its slots in an order set by the batch size
    # could tip an improvement step or a certificate in its last bits
    rng = np.random.default_rng(417)
    for _ in range(60):
        ns, probs = _slotted_chain(rng, int(rng.integers(4, 13)))
        size = int(rng.integers(1, 257))
        rewards = rng.uniform(-1.0, 1.0, (size, *ns.shape[:2]))
        sol = batch_policy_iteration(ns, probs, rewards, tol=1e-10)
        for k in rng.choice(size, min(size, 6), replace=False):
            alone = batch_policy_iteration(ns, probs, rewards[k:k + 1],
                                           tol=1e-10)
            assert alone.gains[0] == sol.gains[k]
            np.testing.assert_array_equal(alone.policies[0], sol.policies[k])
            assert alone.spans[0] == sol.spans[k]
            assert alone.residuals[0] == sol.residuals[k]


def test_value_iteration_bits_do_not_depend_on_the_batch():
    # every (b, a, s) adds its successor terms in slot order, and a
    # candidate retires on its own span, whatever the batch
    rng = np.random.default_rng(418)
    for _ in range(60):
        ns, probs = _slotted_chain(rng, int(rng.integers(1, 13)))
        size = int(rng.integers(1, 257))
        rewards = rng.uniform(-1.0, 1.0, (size, *ns.shape[:2]))
        sol = batch_value_iteration(ns, probs, rewards, tol=1e-10)
        for k in rng.choice(size, min(size, 6), replace=False):
            alone = batch_value_iteration(ns, probs, rewards[k:k + 1],
                                          tol=1e-10)
            assert alone.gains[0] == sol.gains[k]
            np.testing.assert_array_equal(alone.policies[0], sol.policies[k])
            assert alone.spans[0] == sol.spans[k]
            assert alone.rounds[0] == sol.rounds[k]


def test_slot_sum_keeps_the_contiguous_reduction_bits_below_8_slots():
    """Below 8 slots, the slot-major sum equals, bit for bit, the C-order
    gather of the (S, A, K) lists summed by a contiguous np.add.reduce,
    which value iteration used before.  From 8 slots on the slot-major sum
    stays in plain slot order, where NumPy's pairwise blocks began, so
    only chains with n_u * n_y >= 8 slots can move in their last bits."""
    rng = np.random.default_rng(419)
    for slots in range(1, 8):
        for _ in range(10):
            ns, probs = _slotted_chain(rng, slots)
            x = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 257)),
                                        ns.shape[0]))
            ev = x.take(ns, axis=1)                          # (B, S, A, K)
            ev *= probs
            old = np.add.reduce(ev, axis=3)
            new = mdp_module._slot_sum(
                x, *mdp_module._slot_major(ns, probs))       # (B, A, S)
            np.testing.assert_array_equal(new, old.transpose(0, 2, 1))
