"""Side-information vending scenarios as constrained average-cost MDPs.

The decoder owns a vending machine: the encoder's symbol x arrives
noiselessly, an actuator map turns it into a paid action, and the side
observation is drawn from a kernel conditioned on the source symbol and
that action.  Budgeted action cost makes each instance a constrained MDP,
solved through its scalar Lagrangian dual; the reported distortion is the
negated dual value.

With feedback the decoder memories (over x and over y) are part of the
state.  Without feedback the encoder tracks grid beliefs over both
memories, and those solves carry the APPROXIMATE flag.
"""
from __future__ import annotations

import warnings
from typing import Optional

import numpy as np

from .bayes import check_action_map
from .errors import CapacityError, SpecValidationError
from .lookahead import build_markov_kernel
from .mdp import (ConstrainedMdp, DualResult, FiniteMdp, constrained_solve,
                  lagrangian_mdp, relative_value_iteration)
from .models import ProblemSpec, with_budget
from .scenarios import (APPROXIMATE, DEFAULT_DECODER_CAP, MemorySpec,
                        ScenarioSolveReport, _clamp_distortion, _guard_states,
                        _nested_list, _nested_tuple, _project_rows,
                        decoder_tables, encoder_action_tables, spec_params)
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


def _memory_params(name: str, memory: MemorySpec) -> dict:
    return {name: {"num_states": memory.num_states,
                   "table": _nested_list(np.asarray(memory.table).tolist())}}


def _vending_feedback_core(spec: ProblemSpec, d: int, mem_x: MemorySpec,
                           mem_y: MemorySpec, av_map,
                           max_states: Optional[int] = None):
    """Transitions, constraint costs and reusable tensors for one actuator
    map; decoder tables only change the reward."""
    _require_vending(spec)
    kernel = build_markov_kernel(spec.source, d, max_states=max_states)
    codec = kernel.codec
    n_v, n_u = codec.size, codec.base
    n_x, n_y = spec.num_channel_inputs, spec.num_channel_outputs
    n_m, n_n = mem_x.num_states, mem_y.num_states
    n_av = spec.vending.num_actions
    problems = mem_x.check(n_x) + mem_y.check(n_y)
    if problems:
        raise SpecValidationError(problems)
    av = np.asarray(av_map, dtype=int)
    check_action_map(av, n_x, n_av)
    _guard_states(n_v * n_m * n_n, max_states)
    tables = encoder_action_tables(n_v, n_x, max_states)
    n_a = tables.shape[0]
    shift = codec.shift_table()
    u_next = codec.components_table()[:, 0][shift]             # (V, U)
    x_sent = tables[:, shift]                                  # (A, V, U)
    p_u = np.asarray(spec.source.p)
    vk = np.asarray(spec.vending.kernel.rows).reshape(n_u, n_av, n_y)
    av_x = av[x_sent]                                          # (A, V, U)
    wvend = vk[u_next[None, :, :], av_x]                       # (A, V, U, Y)
    prob = p_u[None, None, :, None] * wvend

    mx = np.asarray(mem_x.table)                               # (M, X)
    ny = np.asarray(mem_y.table)                               # (N, Y)
    m_next = mx[:, x_sent]                                     # (M, A, V, U)
    nxt = (shift[:, None, None, None, :, None] * (n_m * n_n)
           + m_next.transpose(2, 0, 1, 3)[:, :, None, :, :, None] * n_n
           + ny[None, None, :, None, None, :])                 # (V, M, N, A, U, Y)
    next_states = nxt.reshape(n_v * n_m * n_n, n_a, n_u * n_y)
    probs = np.broadcast_to(
        prob.transpose(1, 0, 2, 3)[:, None, None, :, :, :],
        (n_v, n_m, n_n, n_a, n_u, n_y),
    ).reshape(n_v * n_m * n_n, n_a, n_u * n_y)
    per_cost = np.asarray(spec.vending.costs.cost)[av_x]       # (A, V, U)
    cost_va = np.einsum("avu,u->va", per_cost, p_u)
    cost = np.broadcast_to(
        cost_va[:, None, None, :], (n_v, n_m, n_n, n_a)
    ).reshape(n_v * n_m * n_n, n_a)
    return {
        "kernel": kernel,
        "next_states": np.ascontiguousarray(next_states),
        "next_probs": np.ascontiguousarray(probs),
        "cost": np.ascontiguousarray(cost),
        "wvend": wvend,
        "x_sent": x_sent,
        "u_next": u_next,
        "p_u": p_u,
        "av": av,
        "shape": (n_v, n_m, n_n, n_a, n_u, n_y, n_x),
    }


def _vending_feedback_rewards(core, dec: np.ndarray,
                              loss: np.ndarray) -> np.ndarray:
    """(S, A) negated expected loss for a decoder indexed [x, y, m, n]."""
    n_v, n_m, n_n, n_a, n_u, n_y, n_x = core["shape"]
    p_u, wvend = core["p_u"], core["wvend"]
    u_next, x_sent = core["u_next"], core["x_sent"]
    picked_loss = loss[:, dec]                                 # (C, X, Y, M, N)
    rewards = np.empty((n_v, n_m, n_n, n_a))
    for a in range(n_a):
        gathered = picked_loss[u_next, x_sent[a]]              # (V, U, Y, M, N)
        w = p_u[None, :, None] * wvend[a]                      # (V, U, Y)
        rewards[:, :, :, a] = -np.einsum("vuy,vuymn->vmn", w, gathered)
    return rewards.reshape(n_v * n_m * n_n, n_a)


def _checked_decoder(decoder, shape, num_symbols) -> np.ndarray:
    dec = np.asarray(decoder, dtype=int)
    if dec.shape != shape:
        raise SpecValidationError(
            [f"decoder has shape {dec.shape}, expected {shape}"]
        )
    check_action_map(dec.ravel(), int(np.prod(shape)), num_symbols)
    return dec


def build_vending_feedback_finite(spec: ProblemSpec, d: int, mem_x: MemorySpec,
                                  mem_y: MemorySpec, decoder, av_map,
                                  lam: float = 0.0,
                                  max_states: Optional[int] = None) -> FiniteMdp:
    """MDP for feedback vending with finite memories, at a fixed budget
    multiplier.

    States are (tuple, memory over x, memory over y); the reward is the
    negated expected loss plus lam times the budget slack.
    """
    if lam < 0:
        raise SpecValidationError([f"multiplier {lam} must be nonnegative"])
    core = _vending_feedback_core(spec, d, mem_x, mem_y, av_map, max_states)
    n_x, n_y = spec.num_channel_inputs, spec.num_channel_outputs
    dec = _checked_decoder(decoder,
                           (n_x, n_y, mem_x.num_states, mem_y.num_states),
                           spec.num_reconstructions)
    rewards = _vending_feedback_rewards(core, dec,
                                        np.asarray(spec.distortion.loss))
    budget = spec.vending.costs.budget
    return FiniteMdp(core["next_states"], core["next_probs"],
                     rewards + lam * (budget - core["cost"]))


def _enumerate_pairs(spec: ProblemSpec, mem_x: MemorySpec, mem_y: MemorySpec,
                     max_tables: int):
    n_x, n_y = spec.num_channel_inputs, spec.num_channel_outputs
    n_m, n_n = mem_x.num_states, mem_y.num_states
    cells = decoder_tables(n_x * n_y * n_m * n_n, spec.num_reconstructions,
                           max_tables)
    decs = cells.reshape(-1, n_x, n_y, n_m, n_n)
    avs = vending_action_maps(n_x, spec.vending.num_actions, max_tables)
    return decs, avs


def _dual_distortion(res: DualResult) -> float:
    return -res.dual_value


def _pair_value(res: DualResult, budget: float) -> float:
    """Dual distortion of one pair, or +inf for a pair that cannot meet
    the budget: its dual search ends at the bracket edge with an average
    action cost still above the budget."""
    if res.bracket_edge and res.avg_constraint_cost > budget + 1e-9:
        return np.inf
    return _dual_distortion(res)


def _best_pair(values: np.ndarray, budget: float) -> tuple[int, int]:
    """First (decoder, actuator) pair with the least value; raise if no
    pair meets the budget."""
    if not np.isfinite(values).any():
        raise SpecValidationError(
            [f"no (decoder, actuator) pair meets the budget {budget:g}"])
    best_i, best_j = np.unravel_index(int(np.argmin(values)), values.shape)
    return int(best_i), int(best_j)


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
    the solve raises SpecValidationError.  Ties keep the lexicographically
    smallest (decoder, actuator) pair.  A bracket warning is re-raised
    only for the winning pair.
    """
    _require_vending(spec)
    if budget is not None:
        spec = with_budget(spec, budget)
    loss = np.asarray(spec.distortion.loss)
    decs, avs = _enumerate_pairs(spec, mem_x, mem_y, max_tables)
    values = np.empty((decs.shape[0], avs.shape[0]))
    results: dict[tuple[int, int], DualResult] = {}
    cores = []
    for j, av in enumerate(avs):
        core = _vending_feedback_core(spec, d, mem_x, mem_y, av, max_states)
        cores.append(core)
        for i, dec in enumerate(decs):
            rewards = _vending_feedback_rewards(core, dec, loss)
            cmdp = ConstrainedMdp(
                FiniteMdp(core["next_states"], core["next_probs"], rewards),
                core["cost"], spec.vending.costs.budget,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                res = constrained_solve(cmdp, lambda_max=lambda_max,
                                        dual_tol=dual_tol, rvi_tol=rvi_tol,
                                        max_iter=max_iter)
            values[i, j] = _pair_value(res, spec.vending.costs.budget)
            results[(i, j)] = res
    best_i, best_j = _best_pair(values, spec.vending.costs.budget)
    best = results[(best_i, best_j)]
    if best.bracket_edge:
        warnings.warn(
            "dual minimizer at lambda_max for the best pair; "
            "the bracket may be too small",
            RuntimeWarning, stacklevel=2,
        )
    core = cores[best_j]
    rewards = _vending_feedback_rewards(core, decs[best_i], loss)
    cmdp = ConstrainedMdp(
        FiniteMdp(core["next_states"], core["next_probs"], rewards),
        core["cost"], spec.vending.costs.budget,
    )
    refit = relative_value_iteration(lagrangian_mdp(cmdp, best.lambda_star),
                                     tol=rvi_tol, max_iter=max_iter)
    return ScenarioSolveReport(
        scenario="vending-feedback",
        distortion=_clamp_distortion(_dual_distortion(best),
                                     spec.distortion.max_loss),
        encoder_policy=tuple(int(a) for a in refit.policy),
        decoder=_nested_tuple(decs[best_i]),
        vending_action_map=tuple(int(a) for a in avs[best_j]),
        params={
            "d": d,
            **_memory_params("memory_x", mem_x),
            **_memory_params("memory_y", mem_y),
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
        },
        flags=(),
    )


def _vending_nofeedback_core(spec: ProblemSpec, d: int, mem_x: MemorySpec,
                             mem_y: MemorySpec, grid_m: SimplexGrid,
                             grid_n: SimplexGrid, av_map,
                             max_states: Optional[int] = None):
    """Open-loop vending transition structure over product belief grids."""
    _require_vending(spec)
    kernel = build_markov_kernel(spec.source, d, max_states=max_states)
    codec = kernel.codec
    n_v, n_u = codec.size, codec.base
    n_x, n_y = spec.num_channel_inputs, spec.num_channel_outputs
    n_m, n_n = mem_x.num_states, mem_y.num_states
    n_av = spec.vending.num_actions
    problems = mem_x.check(n_x) + mem_y.check(n_y)
    if grid_m.dim != n_m:
        problems.append(
            f"memory-x belief grid has dimension {grid_m.dim}, expected {n_m}"
        )
    if grid_n.dim != n_n:
        problems.append(
            f"memory-y belief grid has dimension {grid_n.dim}, expected {n_n}"
        )
    if problems:
        raise SpecValidationError(problems)
    av = np.asarray(av_map, dtype=int)
    check_action_map(av, n_x, n_av)
    g_m, g_n = grid_m.size, grid_n.size
    _guard_states(n_v * g_m * g_n, max_states)
    tables = encoder_action_tables(n_v, n_x, max_states)
    n_a = tables.shape[0]
    shift = codec.shift_table()
    u_next = codec.components_table()[:, 0][shift]             # (V, U)
    x_sent = tables[:, shift]                                  # (A, V, U)
    p_u = np.asarray(spec.source.p)
    vk = np.asarray(spec.vending.kernel.rows).reshape(n_u, n_av, n_y)
    av_x = av[x_sent]                                          # (A, V, U)
    wvend = vk[u_next[None, :, :], av_x]                       # (A, V, U, Y)
    mx = np.asarray(mem_x.table)
    ny = np.asarray(mem_y.table)

    proj_m = np.empty((g_m, n_x), dtype=int)
    for x in range(n_x):
        pushed = np.zeros((g_m, n_m))
        for m in range(n_m):
            pushed[:, mx[m, x]] += grid_m.points[:, m]
        proj_m[:, x] = _project_rows(grid_m, pushed)
    proj_n = np.empty((g_n, n_u, n_av), dtype=int)
    for u in range(n_u):
        for act in range(n_av):
            pushed = np.zeros((g_n, n_n))
            for n in range(n_n):
                for y in range(n_y):
                    pushed[:, ny[n, y]] += grid_n.points[:, n] * vk[u, act, y]
            proj_n[:, u, act] = _project_rows(grid_n, pushed)

    nxt = np.empty((n_v, g_m, g_n, n_a, n_u), dtype=int)
    for a in range(n_a):
        pm = proj_m[:, x_sent[a]].transpose(1, 0, 2)           # (V, Gm, U)
        pn = proj_n[:, u_next, av_x[a]].transpose(1, 0, 2)     # (V, Gn, U)
        nxt[:, :, :, a, :] = (shift[:, None, None, :] * (g_m * g_n)
                              + pm[:, :, None, :] * g_n
                              + pn[:, None, :, :])
    next_states = nxt.reshape(n_v * g_m * g_n, n_a, n_u)
    probs = np.broadcast_to(
        p_u[None, None, None, None, :], (n_v, g_m, g_n, n_a, n_u)
    ).reshape(n_v * g_m * g_n, n_a, n_u)
    per_cost = np.asarray(spec.vending.costs.cost)[av_x]
    cost_va = np.einsum("avu,u->va", per_cost, p_u)
    cost = np.broadcast_to(
        cost_va[:, None, None, :], (n_v, g_m, g_n, n_a)
    ).reshape(n_v * g_m * g_n, n_a)
    return {
        "kernel": kernel,
        "grid_m": grid_m,
        "grid_n": grid_n,
        "next_states": np.ascontiguousarray(next_states),
        "next_probs": np.ascontiguousarray(probs),
        "cost": np.ascontiguousarray(cost),
        "wvend": wvend,
        "x_sent": x_sent,
        "u_next": u_next,
        "p_u": p_u,
        "av": av,
        "shape": (n_v, g_m, g_n, n_a, n_u, n_y, n_x),
    }


def _vending_nofeedback_rewards(core, dec: np.ndarray,
                                loss: np.ndarray) -> np.ndarray:
    """(S, A) negated loss with the current memories averaged under the
    product of the two grid beliefs."""
    n_v, g_m, g_n, n_a, n_u, n_y, n_x = core["shape"]
    p_u, wvend = core["p_u"], core["wvend"]
    u_next, x_sent = core["u_next"], core["x_sent"]
    picked_loss = loss[:, dec]                                 # (C, X, Y, M, N)
    expected = np.einsum("gm,hn,cxymn->cxygh",
                         core["grid_m"].points, core["grid_n"].points,
                         picked_loss)                          # (C, X, Y, Gm, Gn)
    rewards = np.empty((n_v, g_m, g_n, n_a))
    for a in range(n_a):
        gathered = expected[u_next, x_sent[a]]                 # (V, U, Y, Gm, Gn)
        w = p_u[None, :, None] * wvend[a]                      # (V, U, Y)
        rewards[:, :, :, a] = -np.einsum("vuy,vuygh->vgh", w, gathered)
    return rewards.reshape(n_v * g_m * g_n, n_a)


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
    if lam < 0:
        raise SpecValidationError([f"multiplier {lam} must be nonnegative"])
    core = _vending_nofeedback_core(spec, d, mem_x, mem_y, grid_m, grid_n,
                                    av_map, max_states)
    dec = _checked_decoder(
        decoder,
        (spec.num_channel_inputs, spec.num_channel_outputs,
         mem_x.num_states, mem_y.num_states),
        spec.num_reconstructions,
    )
    rewards = _vending_nofeedback_rewards(core, dec,
                                          np.asarray(spec.distortion.loss))
    budget = spec.vending.costs.budget
    return FiniteMdp(core["next_states"], core["next_probs"],
                     rewards + lam * (budget - core["cost"]))


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
    _require_vending(spec)
    if budget is not None:
        spec = with_budget(spec, budget)
    grid_m = simplex_grid(mem_x.num_states, resolution, max_points=max_states)
    grid_n = simplex_grid(mem_y.num_states, resolution, max_points=max_states)
    loss = np.asarray(spec.distortion.loss)
    decs, avs = _enumerate_pairs(spec, mem_x, mem_y, max_tables)
    values = np.empty((decs.shape[0], avs.shape[0]))
    results: dict[tuple[int, int], DualResult] = {}
    cores = []
    for j, av in enumerate(avs):
        core = _vending_nofeedback_core(spec, d, mem_x, mem_y, grid_m, grid_n,
                                        av, max_states)
        cores.append(core)
        for i, dec in enumerate(decs):
            rewards = _vending_nofeedback_rewards(core, dec, loss)
            cmdp = ConstrainedMdp(
                FiniteMdp(core["next_states"], core["next_probs"], rewards),
                core["cost"], spec.vending.costs.budget,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                res = constrained_solve(cmdp, lambda_max=lambda_max,
                                        dual_tol=dual_tol, rvi_tol=rvi_tol,
                                        max_iter=max_iter)
            values[i, j] = _pair_value(res, spec.vending.costs.budget)
            results[(i, j)] = res
    best_i, best_j = _best_pair(values, spec.vending.costs.budget)
    best = results[(best_i, best_j)]
    if best.bracket_edge:
        warnings.warn(
            "dual minimizer at lambda_max for the best pair; "
            "the bracket may be too small",
            RuntimeWarning, stacklevel=2,
        )
    core = cores[best_j]
    rewards = _vending_nofeedback_rewards(core, decs[best_i], loss)
    cmdp = ConstrainedMdp(
        FiniteMdp(core["next_states"], core["next_probs"], rewards),
        core["cost"], spec.vending.costs.budget,
    )
    refit = relative_value_iteration(lagrangian_mdp(cmdp, best.lambda_star),
                                     tol=rvi_tol, max_iter=max_iter)
    return ScenarioSolveReport(
        scenario="vending-nofeedback",
        distortion=_clamp_distortion(_dual_distortion(best),
                                     spec.distortion.max_loss),
        encoder_policy=tuple(int(a) for a in refit.policy),
        decoder=_nested_tuple(decs[best_i]),
        vending_action_map=tuple(int(a) for a in avs[best_j]),
        params={
            "d": d,
            **_memory_params("memory_x", mem_x),
            **_memory_params("memory_y", mem_y),
            "grid_resolution": resolution,
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
            "grid_points_x": grid_m.size,
            "grid_points_y": grid_n.size,
        },
        flags=(APPROXIMATE,),
    )
