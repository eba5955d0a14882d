"""Communication scenarios compiled into explicit average-cost MDPs.

Every scenario follows the paper's recipe: compile the scenario into a
controlled Markov chain, solve the average-cost optimality equation for
each decoder choice, keep the best.  The MDP state couples the symbol
tuple the encoder can see with what the decoder side carries forward:
the decoder's finite memory (feedback), a grid point for the posterior
over tuples (feedback with unbounded memory), or a grid point for the
encoder's belief about the decoder memory (no feedback).  Actions are
complete encoder maps from tuples to channel inputs, and rewards are
negated per-symbol losses so the maximizing solver minimizes distortion.

The two finite-memory settings share one decoder-family pipeline: their
transitions do not depend on the decoder table, so every table is
enumerated, the rewards are batched over one transition structure, the
batch is solved at once, and the first table within the tolerance of
the best wins.

Discretized builds carry an APPROXIMATE flag: projecting beliefs onto a
grid has no one-sided error bound, so reports can include a stability
delta from re-solving at twice the resolution instead.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bayes import check_action_map
from .errors import CapacityError, SpecValidationError
from .lookahead import build_markov_kernel
from .mdp import BatchSolve, FiniteMdp, relative_value_iteration, rvi_batch
from .models import ProblemSpec, state_limit
from .simplex import SimplexGrid, simplex_grid

APPROXIMATE = "APPROXIMATE"
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


def memory_last_m(m: int, num_observations: int,
                  max_states: Optional[int] = None) -> MemorySpec:
    """Sliding window remembering the last m observations.

    m = 0 gives the single-state memory that forgets everything.
    """
    if m < 0:
        raise SpecValidationError([f"memory length {m} must be nonnegative"])
    if num_observations < 1:
        raise SpecValidationError(["memory needs at least one observation symbol"])
    size = num_observations**m
    limit = state_limit() if max_states is None else int(max_states)
    if size > limit:
        raise CapacityError("decoder memory", size, limit,
                            hint="reduce the memory length m")
    if m == 0:
        table = np.zeros((1, num_observations), dtype=int)
    else:
        z = np.arange(size)
        tail = (z % num_observations ** (m - 1)) * num_observations
        table = tail[:, None] + np.arange(num_observations)[None, :]
    return MemorySpec(size, table)


def encoder_action_tables(num_tuples: int, num_inputs: int,
                          max_actions: Optional[int] = None) -> np.ndarray:
    """All encoder maps from tuple states to channel inputs, one row per
    action, enumerated lexicographically."""
    limit = state_limit() if max_actions is None else int(max_actions)
    count = num_inputs**num_tuples
    if count > limit:
        raise CapacityError("encoder action set", count, limit,
                            hint="reduce the lookahead depth")
    actions = np.arange(count)
    cols = [
        (actions // num_inputs ** (num_tuples - 1 - v)) % num_inputs
        for v in range(num_tuples)
    ]
    return np.stack(cols, axis=1)


def decoder_tables(num_cells: int, num_symbols: int,
                   max_tables: int = DEFAULT_DECODER_CAP) -> np.ndarray:
    """All decoder tables over num_cells observation cells, enumerated
    lexicographically with cell 0 most significant."""
    count = num_symbols**num_cells
    if count > max_tables:
        raise CapacityError("decoder enumeration", count, max_tables,
                            hint="reduce the decoder memory size m")
    tables = np.arange(count)
    cols = [
        (tables // num_symbols ** (num_cells - 1 - c)) % num_symbols
        for c in range(num_cells)
    ]
    return np.stack(cols, axis=1)


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


def _first_within(gains: np.ndarray, tol: float) -> int:
    """Lowest candidate index whose gain is within tol of the best: the
    lexicographic tie rule, blind to solver noise below the tolerance."""
    return int(np.flatnonzero(gains >= gains.max() - tol)[0])


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


def _guard_states(count: int, max_states: Optional[int]) -> None:
    limit = state_limit() if max_states is None else int(max_states)
    if count > limit:
        raise CapacityError("scenario state space", count, limit,
                            hint="reduce lookahead, memory, or grid resolution")


def _checked_decoder(decoder, shape: tuple, num_symbols: int) -> np.ndarray:
    """The decoder table as an int array of the given shape, or
    SpecValidationError naming what is wrong with it."""
    dec = np.asarray(decoder)
    if dec.shape != shape:
        raise SpecValidationError(
            [f"decoder has shape {dec.shape}, expected {shape}"]
        )
    return check_action_map(dec.ravel(), dec.size, num_symbols).reshape(shape)


def _decoder_mdp(spec: ProblemSpec, memory: MemorySpec, core, rewards_fn,
                 decoder) -> FiniteMdp:
    """The chain of one decoder table indexed [y, z] over a shared core."""
    dec = _checked_decoder(decoder, (spec.num_channel_outputs,
                                     memory.num_states),
                           spec.num_reconstructions)
    rewards = rewards_fn(core, dec[None, :, :])[0]
    return FiniteMdp(core["next_states"], core["next_probs"], rewards)


def _solve_decoder_family(scenario: str, spec: ProblemSpec, d: int,
                          memory: MemorySpec, core, rewards_fn, tol: float,
                          max_iter: int, max_tables: int, params=None,
                          diagnostics=None, flags=()) -> ScenarioSolveReport:
    """Minimum distortion over every decoder table indexed [y, z].

    The tables are enumerated lexicographically, their rewards batched
    over the core's shared transition structure and solved together by
    rvi_batch.  Tables whose gains lie within tol of the best count as
    tied, and ties keep the lexicographically smallest table.  params and
    diagnostics add scenario entries after the common ones.
    """
    n_y, n_z = spec.num_channel_outputs, memory.num_states
    cells = decoder_tables(n_y * n_z, spec.num_reconstructions, max_tables)
    dec_all = cells.reshape(-1, n_y, n_z)
    sol = rvi_batch(core["next_states"], core["next_probs"],
                    rewards_fn(core, dec_all), tol=tol, max_iter=max_iter)
    best = _first_within(sol.gains, tol)
    distortion = _clamp_distortion(-float(sol.gains[best]),
                                   spec.distortion.max_loss)
    return ScenarioSolveReport(
        scenario=scenario,
        distortion=distortion,
        encoder_policy=tuple(int(a) for a in sol.policies[best]),
        decoder=_nested_tuple(dec_all[best]),
        vending_action_map=None,
        params={
            "d": d,
            **_memory_params("memory", memory),
            **(params or {}),
            **spec_params(spec),
        },
        diagnostics={
            **_batch_diagnostics(sol, best),
            "decoder_candidates": int(dec_all.shape[0]),
            **(diagnostics or {}),
        },
        flags=flags,
    )


def _tuple_chain(spec: ProblemSpec, d: int, size: int, problems: list,
                 max_states: Optional[int]):
    """(kernel, shift, encoder maps, x_sent[a, v, u]) of a chain whose
    states pair the symbol tuple with one of size companions: memory
    states or belief grid points.  problems are the caller's validation
    failures, raised once the tuple kernel builds."""
    kernel = build_markov_kernel(spec.source, d, max_states=max_states)
    if problems:
        raise SpecValidationError(problems)
    n_v = kernel.codec.size
    _guard_states(n_v * size, max_states)
    tables = encoder_action_tables(n_v, spec.num_channel_inputs, max_states)
    shift = kernel.codec.shift_table()
    return kernel, shift, tables, tables[:, shift]


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


def _feedback_core(spec: ProblemSpec, d: int, memory: MemorySpec,
                   max_states: Optional[int] = None):
    """Shared transition structure of the feedback finite-memory chain.

    Transitions do not depend on the decoder table, which lets a solve
    reuse one structure across every enumerated decoder.
    """
    kernel, shift, _, x_sent = _tuple_chain(
        spec, d, memory.num_states, memory.check(spec.num_channel_outputs),
        max_states)
    first = kernel.codec.components_table()[:, 0]
    wch = spec.channel.rows[x_sent]                            # (A, V, U, Y)
    p_u = np.asarray(spec.source.p)
    next_states, next_probs = _tuple_successors(
        shift, np.asarray(memory.table)[None, :, None, None, :],
        p_u[None, None, :, None] * wch)
    n_v, n_u = shift.shape
    return {
        "next_states": next_states,
        "next_probs": next_probs,
        "wch": wch,
        "p_u": p_u,
        "loss_first": np.asarray(spec.distortion.loss)[first[shift]],
        "shape": (n_v, memory.num_states, x_sent.shape[0], n_u,
                  spec.num_channel_outputs),
    }


def _feedback_rewards(core, dec_tables: np.ndarray) -> np.ndarray:
    """(T, S, A) negated expected losses for a batch of decoder tables."""
    n_v, n_z, n_a, n_u, n_y = core["shape"]
    picked = core["loss_first"][
        np.arange(n_v)[None, :, None, None, None],
        np.arange(n_u)[None, None, :, None, None],
        dec_tables[:, None, None, :, :],
    ]                                                          # (T, V, U, Y, Z)
    rewards = -np.einsum("avuy,u,tvuyz->tvza", core["wch"], core["p_u"], picked)
    t = dec_tables.shape[0]
    return rewards.reshape(t, n_v * n_z, n_a)


def build_feedback_finite(spec: ProblemSpec, d: int, memory: MemorySpec,
                          decoder, max_states: Optional[int] = None) -> FiniteMdp:
    """MDP for feedback coding with a finite decoder memory.

    States are (tuple, memory) pairs indexed tuple-major; the reward of an
    encoder map is the negated expected loss of the decoder's response to
    the upcoming output, charged to the symbol leaving the window.
    """
    core = _feedback_core(spec, d, memory, max_states)
    return _decoder_mdp(spec, memory, core, _feedback_rewards, decoder)


def solve_feedback_finite(spec: ProblemSpec, d: int, memory: MemorySpec,
                          tol: float = 1e-9, max_iter: int = 10**6,
                          max_tables: int = DEFAULT_DECODER_CAP,
                          max_states: Optional[int] = None) -> ScenarioSolveReport:
    """Minimum distortion over all decoder tables for the feedback chain.

    Every decoder table is enumerated; the encoder is optimized exactly
    for each by policy iteration, batched over the shared transition
    structure.  Decoder tables whose values lie within tol of the best
    count as tied, and ties keep the lexicographically smallest table.
    """
    core = _feedback_core(spec, d, memory, max_states)
    return _solve_decoder_family("feedback-finite", spec, d, memory, core,
                                 _feedback_rewards, tol, max_iter, max_tables)


def _project_rows(grid: SimplexGrid, beliefs: np.ndarray) -> np.ndarray:
    """Row-wise L1 projection; first minimum wins, matching the grid's
    lexicographic order."""
    dist = np.abs(grid.points[None, :, :] - beliefs[:, None, :]).sum(axis=2)
    return dist.argmin(axis=1)


def _project_pushforward(grid: SimplexGrid, table, weights) -> np.ndarray:
    """proj[g, k]: the grid point nearest to the pushforward of grid point
    g, a belief over memory states, through the memory table
    table[z, b] when observation branch b has weight weights[k, b]."""
    table = np.asarray(table)
    weights = np.asarray(weights)
    proj = np.empty((grid.size, weights.shape[0]), dtype=int)
    for k, row in enumerate(weights):
        pushed = np.zeros((grid.size, grid.dim))
        for z in range(grid.dim):
            for b in range(table.shape[1]):
                pushed[:, table[z, b]] += grid.points[:, z] * row[b]
        proj[:, k] = _project_rows(grid, pushed)
    return proj


def build_feedback_complete_discretized(spec: ProblemSpec, d: int,
                                        grid: SimplexGrid,
                                        max_states: Optional[int] = None
                                        ) -> FiniteMdp:
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
    kernel, shift, tables, x_sent = _tuple_chain(spec, d, grid.size,
                                                 problems, max_states)
    n_g, n_a, n_u = grid.size, tables.shape[0], shift.shape[1]
    n_y = spec.num_channel_outputs
    w = spec.channel.rows

    predicted = grid.points @ kernel.matrix                    # (G, V)
    proj = np.empty((n_g, n_a, n_y), dtype=int)
    for a in range(n_a):
        likel = w[tables[a]]                                   # (V, Y)
        for y in range(n_y):
            num = predicted * likel[None, :, y]
            totals = num.sum(axis=1)
            ok = totals > 0.0
            beliefs = predicted.copy()
            beliefs[ok] = num[ok] / totals[ok, None]
            proj[:, a, y] = _project_rows(grid, beliefs)
    p_u = np.asarray(spec.source.p)
    next_states, probs = _tuple_successors(
        shift, proj[None, :, :, None, :], p_u[None, None, :, None] * w[x_sent])

    marg1 = grid.points.reshape(n_g, n_u, -1).sum(axis=2)      # (G, U)
    env1 = (marg1 @ np.asarray(spec.distortion.loss)).min(axis=1)
    rewards = np.broadcast_to(
        -env1[None, :, None], (n_v, n_g, n_a)
    ).reshape(n_v * n_g, n_a)
    return FiniteMdp(next_states, probs, np.ascontiguousarray(rewards))


def solve_feedback_complete(spec: ProblemSpec, d: int, resolution: int,
                            tol: float = 1e-9, max_iter: int = 10**6,
                            max_states: Optional[int] = None,
                            stability_check: bool = False) -> ScenarioSolveReport:
    """Approximate minimum distortion for feedback with unbounded memory."""
    n_v = spec.num_source_symbols ** (d + 1)
    grid = simplex_grid(n_v, resolution, max_points=max_states)
    mdp = build_feedback_complete_discretized(spec, d, grid, max_states)
    res = relative_value_iteration(mdp, tol=tol, max_iter=max_iter)
    distortion = _clamp_distortion(-res.gain, spec.distortion.max_loss)
    diagnostics = {
        "iterations": res.iterations,
        "final_span": res.final_span,
        "grid_points": grid.size,
    }
    if stability_check:
        finer = solve_feedback_complete(spec, d, 2 * resolution, tol=tol,
                                        max_iter=max_iter, max_states=max_states)
        diagnostics["stability_delta"] = abs(distortion - finer.distortion)
    return ScenarioSolveReport(
        scenario="feedback-complete",
        distortion=distortion,
        encoder_policy=tuple(int(a) for a in res.policy),
        decoder=(),
        vending_action_map=None,
        params={"d": d, "grid_resolution": resolution, **spec_params(spec)},
        diagnostics=diagnostics,
        flags=(APPROXIMATE,),
    )


def _nofeedback_core(spec: ProblemSpec, d: int, memory: MemorySpec,
                     grid: SimplexGrid, max_states: Optional[int] = None):
    """Transition structure of the open-loop chain; decoder-independent."""
    problems = memory.check(spec.num_channel_outputs) or (
        [] if grid.dim == memory.num_states else
        [f"memory belief grid has dimension {grid.dim}, "
         f"expected {memory.num_states}"])
    kernel, shift, tables, x_sent = _tuple_chain(spec, d, grid.size,
                                                 problems, max_states)
    n_v, n_u = shift.shape
    n_a = tables.shape[0]
    w = spec.channel.rows
    p_u = np.asarray(spec.source.p)
    proj = _project_pushforward(grid, memory.table, w)         # (G, X)
    # proj[g, x_sent[a, v, u]] moved to axes (V, G, A, U)
    next_states, next_probs = _tuple_successors(
        shift, proj[:, x_sent].transpose(2, 0, 1, 3)[..., None],
        np.broadcast_to(p_u[None, None, :, None], (n_a, n_v, n_u, 1)))
    return {
        "grid": grid,
        "next_states": next_states,
        "next_probs": next_probs,
        "x_sent": x_sent,
        "shift": shift,
        "first": kernel.codec.components_table()[:, 0],
        "p_u": p_u,
        "w": w,
        "loss": np.asarray(spec.distortion.loss),
        "shape": (n_v, grid.size, n_a, n_u, spec.num_channel_outputs,
                  memory.num_states, spec.num_channel_inputs),
    }


def _nofeedback_rewards(core, dec_tables: np.ndarray) -> np.ndarray:
    """(T, S, A) negated losses for open-loop coding, batched over decoder
    tables indexed [y, z]."""
    n_v, n_g, n_a, n_u, n_y, n_z, n_x = core["shape"]
    n_t = dec_tables.shape[0]
    w, p_u = core["w"], core["p_u"]
    first, shift, x_sent = core["first"], core["shift"], core["x_sent"]
    grid = core["grid"]
    # e[t, x, z, c] = sum_y W(x, y) * loss(c, dec[t, y, z])
    picked = core["loss"][:, dec_tables]                       # (C, T, Y, Z)
    e = np.einsum("xy,ctyz->txzc", w, picked)
    be = np.einsum("gz,txzc->tgxc", grid.points, e)            # (T, G, X, C)
    fs = first[shift]                                          # (V, U)
    rewards = np.empty((n_t, n_v, n_g, n_a))
    for a in range(n_a):
        gathered = be[:, :, x_sent[a], fs]                     # (T, G, V, U)
        rewards[:, :, :, a] = -np.einsum("tgvu,u->tvg", gathered, p_u)
    return rewards.reshape(n_t, n_v * n_g, n_a)


def build_nofeedback_finite(spec: ProblemSpec, d: int, memory: MemorySpec,
                            decoder, grid: SimplexGrid,
                            max_states: Optional[int] = None) -> FiniteMdp:
    """Grid approximation of open-loop coding with a finite decoder memory.

    The encoder never observes the channel output, so the chain tracks a
    grid point for its belief about the decoder memory; the source tuple
    is the only random disturbance.
    """
    core = _nofeedback_core(spec, d, memory, grid, max_states)
    return _decoder_mdp(spec, memory, core, _nofeedback_rewards, decoder)


def solve_nofeedback(spec: ProblemSpec, d: int, memory: MemorySpec,
                     resolution: int, tol: float = 1e-9,
                     max_iter: int = 10**6,
                     max_tables: int = DEFAULT_DECODER_CAP,
                     max_states: Optional[int] = None) -> ScenarioSolveReport:
    """Approximate minimum distortion for open-loop coding, minimizing
    over all decoder tables with the tie rule of solve_feedback_finite."""
    grid = simplex_grid(memory.num_states, resolution, max_points=max_states)
    core = _nofeedback_core(spec, d, memory, grid, max_states)
    return _solve_decoder_family(
        "nofeedback-finite", spec, d, memory, core, _nofeedback_rewards,
        tol, max_iter, max_tables, params={"grid_resolution": resolution},
        diagnostics={"grid_points": grid.size}, flags=(APPROXIMATE,),
    )
