"""Side-information vending scenarios as constrained average-cost MDPs.

The decoder owns a vending machine: the encoder's symbol x arrives
noiselessly, an actuator map turns it into a paid action, and the side
observation is drawn from a kernel conditioned on the source symbol and
that action.  Budgeted action cost makes each instance a constrained MDP,
solved through its scalar Lagrangian dual; the reported distortion is the
negated dual value.

With feedback the decoder memories (over x and over y) are part of the
state.  Without feedback the encoder tracks grid beliefs over both
memories, and those solves carry the APPROXIMATE flag.  Both chains are
compiled by one prologue and rewarded by one routine: the feedback chain
is the grid case whose grids are the point masses on the memory states.
Both solvers run one pair loop, which gives every (decoder, actuator)
pair its own dual search and keeps the best pair.
"""
from __future__ import annotations

import warnings
from typing import Optional

import numpy as np

from .bayes import check_action_map
from .errors import CapacityError, SpecValidationError
from .mdp import (ConstrainedMdp, DualResult, FiniteMdp, constrained_solve,
                  lagrangian_mdp, relative_value_iteration)
from .models import ProblemSpec, with_budget
from .scenarios import (APPROXIMATE, DEFAULT_DECODER_CAP, MemorySpec,
                        ScenarioSolveReport, _checked_decoder,
                        _clamp_distortion, _memory_params, _nested_tuple,
                        _project_pushforward, _tuple_chain, _tuple_successors,
                        decoder_tables, spec_params)
from .simplex import SimplexGrid, simplex_grid


def _require_vending(spec: ProblemSpec) -> None:
    if spec.vending is None:
        raise SpecValidationError(["this scenario needs vending data"])


def vending_action_maps(num_inputs: int, num_actions: int,
                        max_maps: int = DEFAULT_DECODER_CAP) -> np.ndarray:
    """All actuator maps from channel symbols to vending actions, one row
    per map, enumerated lexicographically."""
    count = num_actions**num_inputs
    if count > max_maps:
        raise CapacityError("actuator enumeration", count, max_maps,
                            hint="reduce the channel input alphabet")
    maps = np.arange(count)
    cols = [
        (maps // num_actions ** (num_inputs - 1 - x)) % num_actions
        for x in range(num_inputs)
    ]
    return np.stack(cols, axis=1)


def _vending_prologue(spec: ProblemSpec, d: int, mem_x: MemorySpec,
                      mem_y: MemorySpec, av_map, points_m: np.ndarray,
                      points_n: np.ndarray, max_states: Optional[int]):
    """What both vending chains compile alike for one actuator map.

    points_m and points_n are the chain's beliefs over the two decoder
    memories, one row per state component: grid points without feedback,
    the identity (point masses) with it.  Returns the core without its
    transitions; the constraint cost is per (state, action).
    """
    _require_vending(spec)
    n_x, n_y = spec.num_channel_inputs, spec.num_channel_outputs
    n_av = spec.vending.num_actions
    av = check_action_map(np.asarray(av_map, dtype=int), n_x, n_av)
    problems = mem_x.check(n_x) + mem_y.check(n_y)
    for name, points, mem in (("memory-x", points_m, mem_x),
                              ("memory-y", points_n, mem_y)):
        if points.shape[1] != mem.num_states:
            problems.append(f"{name} belief grid has dimension "
                            f"{points.shape[1]}, expected {mem.num_states}")
    g_m, g_n = points_m.shape[0], points_n.shape[0]
    kernel, shift, _, x_sent = _tuple_chain(spec, d, g_m * g_n, problems,
                                            max_states)
    n_a, n_v, n_u = x_sent.shape
    u_next = kernel.codec.components_table()[:, 0][shift]      # (V, U)
    p_u = np.asarray(spec.source.p)
    vk = np.asarray(spec.vending.kernel.rows).reshape(n_u, n_av, n_y)
    av_x = av[x_sent]                                          # (A, V, U)
    wvend = vk[u_next[None, :, :], av_x]                       # (A, V, U, Y)
    per_cost = np.asarray(spec.vending.costs.cost)[av_x]       # (A, V, U)
    cost_va = np.einsum("avu,u->va", per_cost, p_u)
    cost = np.broadcast_to(
        cost_va[:, None, None, :], (n_v, g_m, g_n, n_a)
    ).reshape(n_v * g_m * g_n, n_a)
    return {
        "cost": np.ascontiguousarray(cost),
        "points_m": points_m,
        "points_n": points_n,
        "vk": vk,
        "shift": shift,
        "x_sent": x_sent,
        "u_next": u_next,
        "av_x": av_x,
        "p_u": p_u,
        "prob": p_u[None, None, :, None] * wvend,              # (A, V, U, Y)
        "shape": (n_v, g_m, g_n, n_a, n_u, n_y, n_x),
    }


def _vending_feedback_core(spec: ProblemSpec, d: int, mem_x: MemorySpec,
                           mem_y: MemorySpec, av_map,
                           max_states: Optional[int] = None):
    """Transitions, constraint costs and reusable tensors for one actuator
    map; decoder tables only change the reward."""
    core = _vending_prologue(spec, d, mem_x, mem_y, av_map,
                             np.eye(mem_x.num_states),
                             np.eye(mem_y.num_states), max_states)
    n_v, n_m, n_n, n_a, n_u, n_y, _ = core["shape"]
    m_next = np.asarray(mem_x.table)[:, core["x_sent"]]        # (M, A, V, U)
    nxt_c = (m_next.transpose(2, 0, 1, 3)[:, :, None, :, :, None] * n_n
             + np.asarray(mem_y.table)[None, None, :, None, None, :])
    core["next_states"], core["next_probs"] = _tuple_successors(
        core["shift"], nxt_c.reshape(n_v, n_m * n_n, n_a, n_u, n_y),
        core["prob"])
    return core


def _vending_nofeedback_core(spec: ProblemSpec, d: int, mem_x: MemorySpec,
                             mem_y: MemorySpec, grid_m: SimplexGrid,
                             grid_n: SimplexGrid, av_map,
                             max_states: Optional[int] = None):
    """Open-loop vending transition structure over product belief grids."""
    core = _vending_prologue(spec, d, mem_x, mem_y, av_map, grid_m.points,
                             grid_n.points, max_states)
    n_v, g_m, g_n, n_a, n_u, n_y, n_x = core["shape"]
    # the belief over the x-memory moves with the sent symbol, the one
    # over the y-memory with the side-observation law P(y | u, action)
    proj_m = _project_pushforward(grid_m, mem_x.table, np.eye(n_x))
    proj_n = _project_pushforward(grid_n, mem_y.table,
                                  core["vk"].reshape(-1, n_y))
    proj_n = proj_n.reshape(g_n, n_u, -1)                      # (Gn, U, AV)
    pm = proj_m[:, core["x_sent"]].transpose(2, 0, 1, 3)       # (V, Gm, A, U)
    pn = proj_n[:, core["u_next"], core["av_x"]].transpose(2, 0, 1, 3)
    nxt_c = pm[:, :, None] * g_n + pn[:, None]                 # (V, Gm, Gn, A, U)
    core["next_states"], core["next_probs"] = _tuple_successors(
        core["shift"], nxt_c.reshape(n_v, g_m * g_n, n_a, n_u, 1),
        np.broadcast_to(core["p_u"][None, None, :, None],
                        (n_a, n_v, n_u, 1)))
    return core


def _vending_rewards(core, dec: np.ndarray, loss: np.ndarray) -> np.ndarray:
    """(S, A) negated expected loss for a decoder indexed [x, y, m, n],
    with the decoder memories averaged under the chain's beliefs over
    them.  The feedback chain's beliefs are point masses, for which the
    average returns each loss unchanged."""
    n_v, g_m, g_n, n_a, n_u, n_y, n_x = core["shape"]
    u_next, x_sent, prob = core["u_next"], core["x_sent"], core["prob"]
    picked_loss = loss[:, dec]                                 # (C, X, Y, M, N)
    expected = np.einsum("gm,hn,cxymn->cxygh",
                         core["points_m"], core["points_n"],
                         picked_loss)                          # (C, X, Y, Gm, Gn)
    rewards = np.empty((n_v, g_m, g_n, n_a))
    for a in range(n_a):
        gathered = expected[u_next, x_sent[a]]                 # (V, U, Y, Gm, Gn)
        rewards[:, :, :, a] = -np.einsum("vuy,vuygh->vgh", prob[a], gathered)
    return rewards.reshape(n_v * g_m * g_n, n_a)


# The feedback pair loop calls the rewards under this name, which the
# layer timing of rtbench/hooks.py wraps.
_vending_feedback_rewards = _vending_rewards


def _pair_cmdp(core, rewards: np.ndarray, spec: ProblemSpec) -> ConstrainedMdp:
    return ConstrainedMdp(
        FiniteMdp(core["next_states"], core["next_probs"], rewards),
        core["cost"], spec.vending.costs.budget,
    )


def _decoder_shape(spec: ProblemSpec, mem_x: MemorySpec,
                   mem_y: MemorySpec) -> tuple:
    """Axes [x, y, m, n] of a vending decoder table."""
    return (spec.num_channel_inputs, spec.num_channel_outputs,
            mem_x.num_states, mem_y.num_states)


def _lagrangian_build(spec: ProblemSpec, core, decoder, mem_x: MemorySpec,
                      mem_y: MemorySpec, lam: float) -> FiniteMdp:
    dec = _checked_decoder(decoder, _decoder_shape(spec, mem_x, mem_y),
                           spec.num_reconstructions)
    rewards = _vending_rewards(core, dec, np.asarray(spec.distortion.loss))
    return lagrangian_mdp(_pair_cmdp(core, rewards, spec), lam)


def build_vending_feedback_finite(spec: ProblemSpec, d: int, mem_x: MemorySpec,
                                  mem_y: MemorySpec, decoder, av_map,
                                  lam: float = 0.0,
                                  max_states: Optional[int] = None) -> FiniteMdp:
    """MDP for feedback vending with finite memories, at a fixed budget
    multiplier.

    States are (tuple, memory over x, memory over y); the reward is the
    negated expected loss plus lam times the budget slack.
    """
    core = _vending_feedback_core(spec, d, mem_x, mem_y, av_map, max_states)
    return _lagrangian_build(spec, core, decoder, mem_x, mem_y, lam)


def build_vending_nofeedback_discretized(spec: ProblemSpec, d: int,
                                         mem_x: MemorySpec, mem_y: MemorySpec,
                                         decoder, av_map,
                                         grid_m: SimplexGrid,
                                         grid_n: SimplexGrid,
                                         lam: float = 0.0,
                                         max_states: Optional[int] = None
                                         ) -> FiniteMdp:
    """Grid approximation of open-loop vending at a fixed multiplier.

    States are (tuple, belief over memory-x, belief over memory-y); both
    beliefs evolve by deterministic pushforwards projected back to their
    grids, and the only disturbance is the fresh source symbol.
    """
    core = _vending_nofeedback_core(spec, d, mem_x, mem_y, grid_m, grid_n,
                                    av_map, max_states)
    return _lagrangian_build(spec, core, decoder, mem_x, mem_y, lam)


def _pair_value(res: DualResult, budget: float) -> float:
    """Dual distortion of one pair, or +inf for a pair that cannot meet
    the budget: its dual search ends at the bracket edge with an average
    action cost still above the budget."""
    if res.bracket_edge and res.avg_constraint_cost > budget + 1e-9:
        return np.inf
    return -res.dual_value


def _best_pair(values: np.ndarray, budget: float,
               tol: float) -> tuple[int, int]:
    """Lowest (decoder, actuator) index whose value is within tol of the
    least: the lexicographic tie rule of the decoder family, blind to
    dual-search noise below the tolerance.  Raise if no pair meets the
    budget."""
    if not np.isfinite(values).any():
        raise SpecValidationError(
            [f"no (decoder, actuator) pair meets the budget {budget:g}"])
    first = np.flatnonzero(values.ravel() <= values.min() + tol)[0]
    best_i, best_j = np.unravel_index(int(first), values.shape)
    return int(best_i), int(best_j)


def _budgeted(spec: ProblemSpec, budget: Optional[float]) -> ProblemSpec:
    _require_vending(spec)
    return spec if budget is None else with_budget(spec, budget)


def _solve_pairs(scenario: str, spec: ProblemSpec, d: int, mem_x: MemorySpec,
                 mem_y: MemorySpec, compile_core, rewards_fn,
                 dual_tol: float, rvi_tol: float, max_iter: int,
                 lambda_max: Optional[float], max_tables: int, params=None,
                 diagnostics=None, flags=()) -> ScenarioSolveReport:
    """The pair loop behind both vending solvers.

    compile_core(av) compiles the chain of one actuator map and
    rewards_fn(core, dec, loss) rewards one decoder on it.  Every pair
    gets its own dual search, the best pair is kept by _best_pair, and
    its encoder policy is refit at its dual minimizer.  params and
    diagnostics add scenario entries after the common ones.
    """
    budget = spec.vending.costs.budget
    loss = np.asarray(spec.distortion.loss)
    shape = _decoder_shape(spec, mem_x, mem_y)
    decs = decoder_tables(int(np.prod(shape)), spec.num_reconstructions,
                          max_tables).reshape(-1, *shape)
    avs = vending_action_maps(shape[0], spec.vending.num_actions, max_tables)
    values = np.empty((decs.shape[0], avs.shape[0]))
    results: dict[tuple[int, int], DualResult] = {}
    cores = []
    for j, av in enumerate(avs):
        core = compile_core(av)
        cores.append(core)
        for i, dec in enumerate(decs):
            cmdp = _pair_cmdp(core, rewards_fn(core, dec, loss), spec)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                res = constrained_solve(cmdp, lambda_max=lambda_max,
                                        dual_tol=dual_tol, rvi_tol=rvi_tol,
                                        max_iter=max_iter)
            values[i, j] = _pair_value(res, budget)
            results[(i, j)] = res
    best_i, best_j = _best_pair(values, budget, dual_tol)
    best = results[(best_i, best_j)]
    if best.bracket_edge:
        warnings.warn(
            "dual minimizer at lambda_max for the best pair; "
            "the bracket may be too small",
            RuntimeWarning, stacklevel=3,
        )
    core = cores[best_j]
    cmdp = _pair_cmdp(core, rewards_fn(core, decs[best_i], loss), spec)
    refit = relative_value_iteration(lagrangian_mdp(cmdp, best.lambda_star),
                                     tol=rvi_tol, max_iter=max_iter)
    return ScenarioSolveReport(
        scenario=scenario,
        distortion=_clamp_distortion(-best.dual_value,
                                     spec.distortion.max_loss),
        encoder_policy=tuple(int(a) for a in refit.policy),
        decoder=_nested_tuple(decs[best_i]),
        vending_action_map=tuple(int(a) for a in avs[best_j]),
        params={
            "d": d,
            **_memory_params("memory_x", mem_x),
            **_memory_params("memory_y", mem_y),
            **(params or {}),
            **spec_params(spec),
        },
        diagnostics={
            "lambda_star": best.lambda_star,
            "dual_value": best.dual_value,
            "gain_at_lambda_star": best.gain_at_lambda_star,
            "avg_constraint_cost": best.avg_constraint_cost,
            "bracket_edge": best.bracket_edge,
            "dual_evaluations": best.evaluations,
            "iterations": refit.iterations,
            "final_span": refit.final_span,
            "decoder_candidates": int(decs.shape[0]),
            "actuator_candidates": int(avs.shape[0]),
            **(diagnostics or {}),
        },
        flags=flags,
    )


def solve_vending_feedback(spec: ProblemSpec, d: int, mem_x: MemorySpec,
                           mem_y: MemorySpec, budget: Optional[float] = None,
                           dual_tol: float = 1e-8, rvi_tol: float = 1e-10,
                           max_iter: int = 10**6,
                           lambda_max: Optional[float] = None,
                           max_tables: int = DEFAULT_DECODER_CAP,
                           max_states: Optional[int] = None
                           ) -> ScenarioSolveReport:
    """Minimum dual distortion for feedback vending over every (decoder,
    actuator) pair.

    Each pair gets a full Lagrangian dual solve; pairs that cannot meet
    the budget score +inf and lose the minimum, and if no pair meets it
    the solve raises SpecValidationError.  Pairs whose values lie within
    dual_tol of the best count as tied, and ties keep the
    lexicographically smallest (decoder, actuator) pair.  A bracket
    warning is re-raised only for the winning pair.
    """
    spec = _budgeted(spec, budget)
    return _solve_pairs(
        "vending-feedback", spec, d, mem_x, mem_y,
        lambda av: _vending_feedback_core(spec, d, mem_x, mem_y, av,
                                          max_states),
        _vending_feedback_rewards, dual_tol, rvi_tol, max_iter, lambda_max,
        max_tables,
    )


def solve_vending_nofeedback(spec: ProblemSpec, d: int, mem_x: MemorySpec,
                             mem_y: MemorySpec, resolution: int,
                             budget: Optional[float] = None,
                             dual_tol: float = 1e-8, rvi_tol: float = 1e-10,
                             max_iter: int = 10**6,
                             lambda_max: Optional[float] = None,
                             max_tables: int = DEFAULT_DECODER_CAP,
                             max_states: Optional[int] = None
                             ) -> ScenarioSolveReport:
    """Approximate minimum dual distortion for open-loop vending; pairs
    are scored as in solve_vending_feedback."""
    spec = _budgeted(spec, budget)
    grid_m = simplex_grid(mem_x.num_states, resolution, max_points=max_states)
    grid_n = simplex_grid(mem_y.num_states, resolution, max_points=max_states)
    return _solve_pairs(
        "vending-nofeedback", spec, d, mem_x, mem_y,
        lambda av: _vending_nofeedback_core(spec, d, mem_x, mem_y, grid_m,
                                            grid_n, av, max_states),
        _vending_rewards, dual_tol, rvi_tol, max_iter, lambda_max,
        max_tables, params={"grid_resolution": resolution},
        diagnostics={"grid_points_x": grid_m.size,
                     "grid_points_y": grid_n.size},
        flags=(APPROXIMATE,),
    )
