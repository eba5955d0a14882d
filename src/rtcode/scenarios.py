"""Communication scenarios compiled into explicit average-cost MDPs.

Every scenario follows the paper's recipe: compile the scenario into a
controlled Markov chain, solve the average-cost optimality equation for
each decoder choice, keep the best.  The MDP state couples the symbol
tuple the encoder can see with what the decoder side carries forward:
the decoder's finite memory (feedback), a grid point for the posterior
over tuples (feedback with unbounded memory), or a grid point for the
encoder's belief about the decoder's memory of its observations (no
feedback).  Rewards are negated per-symbol losses so the maximizing
solver minimizes distortion.

An encoder map sends every tuple to a channel input, but a state reads
it only at the tuples that can follow its own.  So the finite-memory
chains take per-successor actions, maps from the fresh symbol to an
input: n_x^n_u of them, whatever the lookahead.  Reports print each
state's action as the lowest-index whole map that acts alike.  The
complete-memory chain keeps whole maps, because the decoder's posterior
update reads the whole map.

One builder, _memory_chain, compiles the four finite-memory chains:
coding and vending, each with and without feedback.  All four pair the
symbol tuple with the decoder's two memories, one of the inputs x it is
sent and one of its observations y, and differ only in the observation
law.  A coding chain is a vending chain whose x-memory has one state,
whose observation is the channel output of the sent input, and whose
actions cost nothing; vending.py adds the actuator's law and the
constraint costs.  The encoder always knows the x-memory, which records
only its own inputs.  With feedback it sees the y-memory too; without it
the chain tracks a grid belief over the y-memory.

All four solvers select in one routine, _select: a chain's transitions
do not depend on the decoder table, so each actuator map's chain is
compiled once, every table's rewards are batched over it and solved,
and the first (decoder, map) pair within the tolerance of the best
wins.  Coding is the case of one map and no cost: one batched solve by
policy iteration.  vending.py dual-solves each map's decoder family.

Discretized builds carry an APPROXIMATE flag: projecting beliefs onto a
grid has no one-sided error bound.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bayes import _posteriors, check_action_map
from .errors import SpecValidationError
from .lookahead import TupleCodec, _enumerate_maps, build_markov_kernel
from .mdp import (BatchSolve, FiniteMdp, _chunks, relative_value_iteration,
                  rvi_batch)
from .models import ProblemSpec, _check_capacity
from .simplex import SimplexGrid, project, simplex_grid

APPROXIMATE = "APPROXIMATE"
# Cap on the decoder tables and actuator maps a solve enumerates, read at
# call time.
DEFAULT_DECODER_CAP = 4096


@dataclass(frozen=True)
class MemorySpec:
    """Finite decoder memory with a deterministic update table.

    table[z, o] is the next memory state after observing o in state z.
    """

    num_states: int
    table: np.ndarray

    def check(self, num_observations: int) -> list[str]:
        out = []
        t = np.asarray(self.table)
        if t.shape != (self.num_states, num_observations):
            out.append(
                f"memory table has shape {t.shape}, expected "
                f"({self.num_states}, {num_observations})"
            )
            return out
        if t.min(initial=0) < 0 or t.max(initial=0) >= self.num_states:
            out.append("memory table points outside the memory alphabet")
        return out


def memory_last_m(m: int, num_observations: int) -> MemorySpec:
    """Sliding window remembering the last m observations.

    m = 0 gives the single-state memory that forgets everything.
    """
    if m < 0:
        raise SpecValidationError([f"memory length {m} must be nonnegative"])
    if num_observations < 1:
        raise SpecValidationError(["memory needs at least one observation symbol"])
    size = num_observations**m
    _check_capacity("decoder memory", size, "reduce the memory length m")
    table = (np.zeros((1, num_observations), dtype=int) if m == 0
             else TupleCodec(num_observations, m).shift_table())
    return MemorySpec(size, table)


@dataclass(frozen=True)
class ScenarioSolveReport:
    """Solved scenario: the value, the tables realizing it, diagnostics."""

    scenario: str
    distortion: float
    encoder_policy: tuple
    decoder: tuple
    vending_action_map: Optional[tuple]
    params: dict
    diagnostics: dict
    flags: tuple

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "distortion": self.distortion,
            "flags": list(self.flags),
            "encoder_policy": list(self.encoder_policy),
            "decoder": _nested_list(self.decoder),
            "vending_action_map": (None if self.vending_action_map is None
                                   else list(self.vending_action_map)),
            "params": self.params,
            "diagnostics": self.diagnostics,
        }


def _nested_list(x):
    if isinstance(x, (list, tuple)):
        return [_nested_list(v) for v in x]
    return x


def _nested_tuple(arr) -> tuple:
    a = np.asarray(arr)
    if a.ndim == 1:
        return tuple(int(v) for v in a)
    return tuple(_nested_tuple(row) for row in a)


def spec_params(spec: ProblemSpec) -> dict:
    out = {
        "source": [float(v) for v in spec.source.p],
        "channel": [[float(v) for v in row] for row in spec.channel.rows],
        "distortion": [[float(v) for v in row] for row in spec.distortion.loss],
    }
    if spec.vending is not None:
        out["vending"] = {
            "kernel": [[float(v) for v in row]
                       for row in spec.vending.kernel.rows],
            "costs": [float(v) for v in spec.vending.costs.cost],
            "budget": float(spec.vending.costs.budget),
        }
    return out


def _memory_params(name: str, memory: MemorySpec) -> dict:
    return {name: {"num_states": memory.num_states,
                   "table": _nested_list(np.asarray(memory.table).tolist())}}


def _clamp_distortion(value: float, max_loss: float) -> float:
    return float(min(max(value, 0.0), max_loss) + 0.0)


def _decoder_family(spec: ProblemSpec, shape: tuple) -> np.ndarray:
    """Every decoder table of the given shape, lexicographic, capped by
    DEFAULT_DECODER_CAP: the candidates of _select."""
    return _enumerate_maps(int(np.prod(shape)), spec.num_reconstructions,
                           DEFAULT_DECODER_CAP, "decoder enumeration",
                           "reduce the decoder memory size m"
                           ).reshape(-1, *shape)


def _first_within(values: np.ndarray, tol: float) -> int:
    """Flat index of the first value within tol of the least: the
    lexicographic tie rule, blind to solver noise below the tolerance."""
    return int(np.flatnonzero(values <= values.min() + tol)[0])


def _batch_diagnostics(sol: BatchSolve, best: int) -> dict:
    """Deterministic solver counters of a batched solve, with the
    certificate of the chosen candidate.  The rounds counters cover the
    candidates that policy iteration solved (0 if it solved none); the
    value-iteration fallbacks show in iterations and fallbacks."""
    rounds = sol.rounds[~sol.fallback].tolist() or [0]
    return {
        "iterations": int(sol.steps),
        "rounds_min": min(rounds),
        "rounds_median": statistics.median_low(rounds),
        "rounds_max": max(rounds),
        "fallbacks": int(sol.fallback.sum()),
        "final_span": float(sol.spans[best]),
        "optimality_residual": float(sol.residuals[best]),
    }


def _checked_decoder(decoder, shape: tuple, num_symbols: int) -> np.ndarray:
    """The decoder table as an int array of the given shape, or
    SpecValidationError naming what is wrong with it."""
    dec = np.asarray(decoder)
    if dec.shape != shape:
        raise SpecValidationError(
            [f"decoder has shape {dec.shape}, expected {shape}"]
        )
    return check_action_map(dec.ravel(), dec.size, num_symbols).reshape(shape)


def _select(scenario: str, spec: ProblemSpec, d: int, chains,
            decs: np.ndarray, solve, tol: float, params: dict,
            action_maps=None, diagnostics=None,
            flags=()) -> ScenarioSolveReport:
    """The report of the best (decoder, actuator map) pair: the select
    step of the four finite-memory solvers.

    chains yields each map's compiled chain, lazily if one at a time
    should be alive; coding has one map and no action_maps.  solve(core)
    returns each decoder's value, +inf if it cannot meet the budget, and
    a function giving decoder i's (encoder policy, solver diagnostics).
    The first pair, decoder-major, within tol of the least wins.  params
    and diagnostics add scenario entries after the common ones.
    """
    columns, outcomes = [], []
    for core in chains:
        values, outcome = solve(core)
        columns.append(values)
        outcomes.append(outcome)
    values = np.stack(columns, axis=1)
    if not np.isfinite(values).any():
        raise SpecValidationError([f"no (decoder, actuator) pair meets the "
                                   f"budget {spec.vending.costs.budget:g}"])
    i, j = np.unravel_index(_first_within(values, tol), values.shape)
    policy, solver_diagnostics = outcomes[j](i)
    return ScenarioSolveReport(
        scenario=scenario,
        distortion=_clamp_distortion(values[i, j], spec.distortion.max_loss),
        # every map's chain has the same tuple shift
        encoder_policy=_whole_map_policy(policy, core["shift"],
                                         spec.num_channel_inputs),
        decoder=_nested_tuple(decs[i]),
        vending_action_map=(None if action_maps is None
                            else _nested_tuple(action_maps[j])),
        params={"d": d, **params, **spec_params(spec)},
        diagnostics={
            **solver_diagnostics,
            "decoder_candidates": int(decs.shape[0]),
            **(diagnostics or {}),
        },
        flags=flags,
    )


def _coding_family(spec: ProblemSpec, memory: MemorySpec, tol: float):
    """(decoders, solve) for _select of a coding chain: every decoder
    table indexed [y, z], their rewards batched over the chain's shared
    transition structure and solved together by rvi_batch."""
    decs = _decoder_family(spec, (spec.num_channel_outputs,
                                  memory.num_states))

    def solve(core):
        sol = rvi_batch(core["next_states"], core["next_probs"],
                        _chain_rewards(core, _coding_decoders(
                            decs, spec.num_channel_inputs)), tol=tol)
        return -sol.gains, lambda i: (sol.policies[i],
                                      _batch_diagnostics(sol, i))
    return decs, solve


def _tuple_chain(spec: ProblemSpec, d: int, size: int, problems: list):
    """(kernel, shift, x_sent[a, v, u]) of a chain whose states pair the
    symbol tuple with one of size companions: memory states or belief
    grid points.  Action a is the per-successor map from the fresh
    symbol u to an input, in lexicographic order, so x_sent is the same
    for every tuple v.  problems are the caller's validation failures,
    raised once the tuple kernel builds."""
    kernel = build_markov_kernel(spec.source, d)
    if problems:
        raise SpecValidationError(problems)
    n_v, n_u = kernel.codec.size, kernel.codec.base
    _check_capacity("scenario state space", n_v * size,
                    "reduce lookahead, memory, or grid resolution")
    maps = _enumerate_maps(n_u, spec.num_channel_inputs, None,
                           "encoder action set",
                           "reduce the source or input alphabet")
    x_sent = np.broadcast_to(maps[:, None, :], (maps.shape[0], n_v, n_u))
    return kernel, kernel.codec.shift_table(), x_sent


def _whole_maps(spec: ProblemSpec, kernel) -> np.ndarray:
    """Every whole encoder map from tuples to inputs, lexicographic: the
    actions of the chains whose posterior update reads the whole map."""
    return _enumerate_maps(kernel.codec.size, spec.num_channel_inputs, None,
                           "encoder action set", "reduce the lookahead depth")


def _map_scales(shift: np.ndarray, num_inputs: int) -> list:
    """Weight, in whole-map index, of the last successor entry of each
    tuple: the successors shift[v, :] are consecutive tuple indices."""
    n_v = shift.shape[0]
    return [num_inputs ** (n_v - 1 - int(last)) for last in shift[:, -1]]


def _whole_map_policy(policy, shift: np.ndarray, num_inputs: int) -> tuple:
    """Each state's per-successor action, states tuple-major, as the
    index of the lowest whole map that acts alike, a Python int: the map
    with the action's inputs at the state's successor tuples and 0
    everywhere else."""
    scales = _map_scales(shift, num_inputs)
    size = len(policy) // shift.shape[0]
    return tuple(int(a) * scales[s // size] for s, a in enumerate(policy))


def _successor_policy(encoder, shift: np.ndarray, num_inputs: int) -> list:
    """Inverse of _whole_map_policy: each state's per-successor action,
    read off the digits of its whole-map index at the successor
    tuples."""
    scales = _map_scales(shift, num_inputs)
    size = len(encoder) // shift.shape[0]
    count = num_inputs ** shift.shape[1]
    return [int(idx) // scales[s // size] % count
            for s, idx in enumerate(encoder)]


def _tuple_successors(shift: np.ndarray, nxt_c, prob) -> tuple:
    """(next_states, next_probs) of a chain on (tuple, c) states, indexed
    tuple-major.

    A step draws the fresh symbol u and the output y with probability
    prob[a, v, u, y], moves the tuple v to shift[v, u] and c to
    nxt_c[v, c, a, u, y]; both may be broadcast views.  An open-loop
    chain, whose encoder sees no output, passes an output axis of size 1.
    """
    n_v, n_u = shift.shape
    n_c = nxt_c.shape[1]
    n_a, n_y = prob.shape[0], prob.shape[3]
    shape = (n_v, n_c, n_a, n_u, n_y)
    size = (n_v * n_c, n_a, n_u * n_y)
    nxt = shift[:, None, None, :, None] * n_c + nxt_c
    probs = prob.transpose(1, 0, 2, 3)[:, None]
    return (np.ascontiguousarray(np.broadcast_to(nxt, shape).reshape(size)),
            np.ascontiguousarray(np.broadcast_to(probs, shape).reshape(size)))


def _memory_chain(spec: ProblemSpec, d: int, mem_x: MemorySpec,
                  mem_y: MemorySpec, law: tuple,
                  grid: Optional[SimplexGrid] = None):
    """The chain on states (tuple, x-memory, y-part) that the four
    finite-memory chains share.

    The decoder keeps a memory mem_x of the inputs x it is sent and a
    memory mem_y of its observations y.  law = (rows, stride, act) draws
    y from rows[u * stride + act[x]] when u is the symbol being decoded.
    A coding chain has a one-state mem_x and the channel row of x as its
    law (_coding_law); a vending chain draws from the vending row of
    (u, av[x]).  The x-memory moves with the sent input, which the
    encoder always knows.  With feedback (no grid) the y-part is the
    y-memory, which moves with the observation.  Without it the y-part
    is a grid point of the encoder's belief over the y-memory, moved by
    the pushforward through the observation law and projected back to
    the grid, so the fresh symbol is the only disturbance.  The
    transitions do not depend on the decoder, so one chain serves every
    decoder of a solve.
    """
    rows, stride, act = law
    points_n = np.eye(mem_y.num_states) if grid is None else grid.points
    problems = (mem_x.check(spec.num_channel_inputs)
                + mem_y.check(rows.shape[1]))
    if points_n.shape[1] != mem_y.num_states:
        problems.append(f"memory-y belief grid has dimension "
                        f"{points_n.shape[1]}, expected {mem_y.num_states}")
    n_m, g_n = mem_x.num_states, points_n.shape[0]
    kernel, shift, x_sent = _tuple_chain(spec, d, n_m * g_n, problems)
    n_a, n_v, n_u = x_sent.shape
    u_next = kernel.codec.components_table()[:, 0][shift]      # (V, U)
    row = u_next * stride + act[x_sent]                        # (A, V, U)
    p_u = np.asarray(spec.source.p)
    core = {
        "points_n": points_n,
        "shift": shift,
        "x_sent": x_sent,
        "u_next": u_next,
        "p_u": p_u,
        "loss": np.asarray(spec.distortion.loss),
        "prob": p_u[None, None, :, None] * rows[row],           # (A, V, U, Y)
        "shape": (n_v, n_m, g_n, n_a, n_u, rows.shape[1],
                  spec.num_channel_inputs),
    }
    m_next = np.asarray(mem_x.table)[:, x_sent]                # (M, A, V, U)
    if grid is None:
        n_next = np.asarray(mem_y.table)[None, :, None, None, :]   # (1, N, 1, 1, Y)
        prob = core["prob"]
    else:
        # an open-loop chain's encoder sees no output: one output branch
        proj = _project_pushforward(grid, mem_y.table, rows)
        n_next = proj[:, row].transpose(2, 0, 1, 3)[..., None]
        prob = np.broadcast_to(p_u[None, None, :, None], (n_a, n_v, n_u, 1))
    nxt_c = (m_next.transpose(2, 0, 1, 3)[:, :, None, :, :, None] * g_n
             + n_next[:, None])                                 # (V, M, Gn, A, U, Y)
    core["next_states"], core["next_probs"] = _tuple_successors(
        shift, nxt_c.reshape(n_v, n_m * g_n, n_a, n_u, -1), prob)
    return core


def _chain_rewards(core, decs: np.ndarray) -> np.ndarray:
    """(T, S, A) negated expected losses for a batch of decoders indexed
    [t, x, y, m, n], with the y-memory averaged under the chain's belief
    over it.  Point-mass beliefs return each loss unchanged."""
    n_v, n_m, g_n, n_a, n_u, n_y, n_x = core["shape"]
    u_next, x_sent, prob = core["u_next"], core["x_sent"], core["prob"]
    expected = np.einsum("hn,ctxymn->cxtymh", core["points_n"],
                         core["loss"][:, decs])                # (C, X, T, Y, M, Gn)
    n_t = decs.shape[0]
    rewards = np.empty((n_t, n_v, n_m, g_n, n_a))
    for a in range(n_a):
        gathered = expected[u_next, x_sent[a]]                 # (V, U, T, Y, M, Gn)
        rewards[..., a] = -np.einsum("vuy,vutymh->tvmh", prob[a], gathered)
    return rewards.reshape(n_t, n_v * n_m * g_n, n_a)


def _coding_law(spec: ProblemSpec) -> tuple:
    """(x-memory, law) that make a coding chain a vending chain: one
    memory state, and the channel row of the sent input x."""
    n_x = spec.num_channel_inputs
    return memory_last_m(0, n_x), (spec.channel.rows, 0, np.arange(n_x))


def _coding_chain(spec: ProblemSpec, d: int, memory: MemorySpec,
                  grid: Optional[SimplexGrid] = None):
    """The coding chain with decoder memory `memory`, with feedback or,
    given the grid of beliefs over the memory, without it."""
    mem_x, law = _coding_law(spec)
    return _memory_chain(spec, d, mem_x, memory, law, grid)


def _coding_decoders(decs: np.ndarray, num_inputs: int) -> np.ndarray:
    """Coding decoders indexed [t, y, z] as chain decoders indexed
    [t, x, y, m, n]: blind to the input x, with the one x-memory state."""
    n_t, n_y, n_z = decs.shape
    return np.broadcast_to(decs[:, None, :, None, :],
                           (n_t, num_inputs, n_y, 1, n_z))


def solve_feedback_finite(spec: ProblemSpec, d: int, memory: MemorySpec,
                          tol: float = 1e-9) -> ScenarioSolveReport:
    """Minimum distortion over all decoder tables for the feedback chain.

    Every decoder table is enumerated; the encoder is optimized exactly
    for each by policy iteration, batched over the shared transition
    structure.  Decoder tables whose values lie within tol of the best
    count as tied, and ties keep the lexicographically smallest table.
    """
    return _select("feedback-finite", spec, d,
                   [_coding_chain(spec, d, memory)],
                   *_coding_family(spec, memory, tol), tol,
                   _memory_params("memory", memory))


def _project_pushforward(grid: SimplexGrid, table, weights) -> np.ndarray:
    """proj[g, k]: the grid point nearest to the pushforward of grid point
    g, a belief over memory states, through the memory table
    table[z, b] when observation branch b has weight weights[k, b]."""
    table = np.asarray(table)
    weights = np.asarray(weights)
    pushed = np.zeros((weights.shape[0], grid.size, grid.dim))
    for z in range(grid.dim):
        for b in range(table.shape[1]):
            pushed[:, :, table[z, b]] += (grid.points[None, :, z]
                                          * weights[:, b, None])
    return project(grid, pushed).T


def build_feedback_complete_discretized(spec: ProblemSpec, d: int,
                                        grid: SimplexGrid) -> FiniteMdp:
    """Grid approximation of feedback coding with unbounded memory.

    States pair the symbol tuple with a grid point for the decoder's
    posterior over tuples.  The reward is the Bayes envelope of the
    posterior's current-symbol marginal, independent of the action; the
    action matters through the posterior update and the output law.

    Posterior updates for observations that are unreachable under the
    grid belief fall back to the one-step predicted belief, which keeps
    transition rows stochastic without inventing errors.
    """
    n_v = spec.num_source_symbols ** (d + 1)
    problems = ([] if grid.dim == n_v else
                [f"belief grid has dimension {grid.dim}, expected {n_v}"])
    kernel, shift, _ = _tuple_chain(spec, d, grid.size, problems)
    tables = _whole_maps(spec, kernel)
    n_g, n_a, n_u = grid.size, tables.shape[0], shift.shape[1]
    n_y = spec.num_channel_outputs

    proj = np.empty((n_g, n_a, n_y), dtype=int)
    # a grid point's posteriors and project's temporaries take about ten
    # (A, Y, V) float tensors
    for part in _chunks(n_g, 80 * n_a * n_y * n_v):
        post, _ = _posteriors(grid.points[part], kernel, spec.channel, tables)
        proj[part] = project(grid, post)
    p_u = np.asarray(spec.source.p)
    next_states, probs = _tuple_successors(
        shift, proj[None, :, :, None, :],
        p_u[None, None, :, None] * spec.channel.rows[tables[:, shift]])

    marg1 = grid.points.reshape(n_g, n_u, -1).sum(axis=2)      # (G, U)
    env1 = (marg1 @ np.asarray(spec.distortion.loss)).min(axis=1)
    rewards = np.broadcast_to(
        -env1[None, :, None], (n_v, n_g, n_a)
    ).reshape(n_v * n_g, n_a)
    return FiniteMdp(next_states, probs, np.ascontiguousarray(rewards))


def solve_feedback_complete(spec: ProblemSpec, d: int, resolution: int,
                            tol: float = 1e-9) -> ScenarioSolveReport:
    """Approximate minimum distortion for feedback with unbounded memory."""
    n_v = spec.num_source_symbols ** (d + 1)
    grid = simplex_grid(n_v, resolution)
    mdp = build_feedback_complete_discretized(spec, d, grid)
    res = relative_value_iteration(mdp, tol=tol)
    return ScenarioSolveReport(
        scenario="feedback-complete",
        distortion=_clamp_distortion(-res.gain, spec.distortion.max_loss),
        encoder_policy=tuple(int(a) for a in res.policy),
        decoder=(),
        vending_action_map=None,
        params={"d": d, "grid_resolution": resolution, **spec_params(spec)},
        diagnostics={
            "iterations": res.iterations,
            "final_span": res.final_span,
            "grid_points": grid.size,
        },
        flags=(APPROXIMATE,),
    )


def solve_nofeedback(spec: ProblemSpec, d: int, memory: MemorySpec,
                     resolution: int,
                     tol: float = 1e-9) -> ScenarioSolveReport:
    """Approximate minimum distortion for open-loop coding, minimizing
    over all decoder tables with the tie rule of solve_feedback_finite."""
    grid = simplex_grid(memory.num_states, resolution)
    return _select(
        "nofeedback-finite", spec, d, [_coding_chain(spec, d, memory, grid)],
        *_coding_family(spec, memory, tol), tol,
        {**_memory_params("memory", memory), "grid_resolution": resolution},
        diagnostics={"grid_points": grid.size}, flags=(APPROXIMATE,),
    )
