"""Communication scenarios compiled into explicit average-cost MDPs.

Three settings share one skeleton.  The MDP state couples the symbol
tuple the encoder can see with what the decoder side carries forward:
the decoder's finite memory (feedback), a grid point for the posterior
over tuples (feedback with unbounded memory), or a grid point for the
encoder's belief about the decoder memory (no feedback).  Actions are
complete encoder maps from tuples to channel inputs, and rewards are
negated per-symbol losses so the maximizing solver minimizes distortion.

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


def _feedback_core(spec: ProblemSpec, d: int, memory: MemorySpec,
                   max_states: Optional[int] = None):
    """Shared transition structure of the feedback finite-memory chain.

    Transitions do not depend on the decoder table, which lets a solve
    reuse one structure across every enumerated decoder.
    """
    kernel = build_markov_kernel(spec.source, d, max_states=max_states)
    codec = kernel.codec
    problems = memory.check(spec.num_channel_outputs)
    if problems:
        raise SpecValidationError(problems)
    n_v, n_z = codec.size, memory.num_states
    n_u, n_y = codec.base, spec.num_channel_outputs
    _guard_states(n_v * n_z, max_states)
    tables = encoder_action_tables(n_v, spec.num_channel_inputs, max_states)
    n_a = tables.shape[0]
    shift = codec.shift_table()
    first = codec.components_table()[:, 0]

    x_sent = tables[:, shift]                                  # (A, V, U)
    wch = spec.channel.rows[x_sent]                            # (A, V, U, Y)
    p_u = np.asarray(spec.source.p)
    prob = p_u[None, None, :, None] * wch                      # (A, V, U, Y)
    mem_next = np.asarray(memory.table)                        # (Z, Y)

    nxt = (shift[:, None, None, :, None] * n_z
           + mem_next[None, :, None, None, :])                 # (V, Z, 1, U, Y)
    nxt = np.broadcast_to(nxt, (n_v, n_z, n_a, n_u, n_y))
    next_states = nxt.reshape(n_v * n_z, n_a, n_u * n_y)
    probs = np.broadcast_to(
        prob.transpose(1, 0, 2, 3)[:, None, :, :, :], (n_v, n_z, n_a, n_u, n_y)
    ).reshape(n_v * n_z, n_a, n_u * n_y)
    loss_first = np.asarray(spec.distortion.loss)[first[shift]]  # (V, U, R)
    return {
        "kernel": kernel,
        "memory": memory,
        "next_states": np.ascontiguousarray(next_states),
        "next_probs": np.ascontiguousarray(probs),
        "wch": wch,
        "p_u": p_u,
        "loss_first": loss_first,
        "num_actions": n_a,
        "shape": (n_v, n_z, n_a, n_u, n_y),
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
    dec = np.asarray(decoder)
    n_y, n_z = spec.num_channel_outputs, memory.num_states
    if dec.shape != (n_y, n_z):
        raise SpecValidationError(
            [f"decoder has shape {dec.shape}, expected ({n_y}, {n_z})"]
        )
    check_action_map(dec.ravel(), n_y * n_z, spec.num_reconstructions)
    rewards = _feedback_rewards(core, dec.astype(int)[None, :, :])[0]
    return FiniteMdp(core["next_states"], core["next_probs"], rewards)


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
    n_y, n_z = spec.num_channel_outputs, memory.num_states
    cells = decoder_tables(n_y * n_z, spec.num_reconstructions, max_tables)
    dec_all = cells.reshape(-1, n_y, n_z)
    rewards = _feedback_rewards(core, dec_all)
    sol = rvi_batch(core["next_states"], core["next_probs"], rewards,
                    tol=tol, max_iter=max_iter)
    best = _first_within(sol.gains, tol)
    distortion = _clamp_distortion(-float(sol.gains[best]),
                                   spec.distortion.max_loss)
    return ScenarioSolveReport(
        scenario="feedback-finite",
        distortion=distortion,
        encoder_policy=tuple(int(a) for a in sol.policies[best]),
        decoder=_nested_tuple(dec_all[best]),
        vending_action_map=None,
        params={
            "d": d,
            "memory": {"num_states": n_z,
                       "table": _nested_list(memory.table.tolist())},
            **spec_params(spec),
        },
        diagnostics={
            **_batch_diagnostics(sol, best),
            "decoder_candidates": int(dec_all.shape[0]),
        },
        flags=(),
    )


def _project_rows(grid: SimplexGrid, beliefs: np.ndarray) -> np.ndarray:
    """Row-wise L1 projection; first minimum wins, matching the grid's
    lexicographic order."""
    dist = np.abs(grid.points[None, :, :] - beliefs[:, None, :]).sum(axis=2)
    return dist.argmin(axis=1)


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
    kernel = build_markov_kernel(spec.source, d, max_states=max_states)
    codec = kernel.codec
    n_v, n_u, n_y = codec.size, codec.base, spec.num_channel_outputs
    if grid.dim != n_v:
        raise SpecValidationError(
            [f"belief grid has dimension {grid.dim}, expected {n_v}"]
        )
    n_g = grid.size
    _guard_states(n_v * n_g, max_states)
    tables = encoder_action_tables(n_v, spec.num_channel_inputs, max_states)
    n_a = tables.shape[0]
    shift = codec.shift_table()
    p_u = np.asarray(spec.source.p)
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

    x_sent = tables[:, shift]                                  # (A, V, U)
    wch = w[x_sent]                                            # (A, V, U, Y)
    prob = p_u[None, None, :, None] * wch                      # (A, V, U, Y)
    nxt = (shift[:, None, None, :, None] * n_g
           + proj[None, :, :, None, :])                        # (V, G, A, U, Y)
    next_states = np.broadcast_to(
        nxt, (n_v, n_g, n_a, n_u, n_y)
    ).reshape(n_v * n_g, n_a, n_u * n_y)
    probs = np.broadcast_to(
        prob.transpose(1, 0, 2, 3)[:, None, :, :, :], (n_v, n_g, n_a, n_u, n_y)
    ).reshape(n_v * n_g, n_a, n_u * n_y)

    marg1 = grid.points.reshape(n_g, n_u, -1).sum(axis=2)      # (G, U)
    env1 = (marg1 @ np.asarray(spec.distortion.loss)).min(axis=1)
    rewards = np.broadcast_to(
        -env1[None, :, None], (n_v, n_g, n_a)
    ).reshape(n_v * n_g, n_a)
    return FiniteMdp(np.ascontiguousarray(next_states),
                     np.ascontiguousarray(probs),
                     np.ascontiguousarray(rewards))


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
    kernel = build_markov_kernel(spec.source, d, max_states=max_states)
    codec = kernel.codec
    problems = memory.check(spec.num_channel_outputs)
    if problems:
        raise SpecValidationError(problems)
    if grid.dim != memory.num_states:
        raise SpecValidationError(
            [f"memory belief grid has dimension {grid.dim}, "
             f"expected {memory.num_states}"]
        )
    n_v, n_u = codec.size, codec.base
    n_y, n_z = spec.num_channel_outputs, memory.num_states
    n_g, n_x = grid.size, spec.num_channel_inputs
    _guard_states(n_v * n_g, max_states)
    tables = encoder_action_tables(n_v, n_x, max_states)
    n_a = tables.shape[0]
    shift = codec.shift_table()
    first = codec.components_table()[:, 0]
    w = spec.channel.rows
    p_u = np.asarray(spec.source.p)
    mem = np.asarray(memory.table)

    proj = np.empty((n_g, n_x), dtype=int)
    for x in range(n_x):
        pushed = np.zeros((n_g, n_z))
        for z in range(n_z):
            for y in range(n_y):
                pushed[:, mem[z, y]] += grid.points[:, z] * w[x, y]
        proj[:, x] = _project_rows(grid, pushed)

    x_sent = tables[:, shift]                                  # (A, V, U)
    nxt = np.empty((n_v, n_g, n_a, n_u), dtype=int)
    for a in range(n_a):
        # proj[g, x_sent[a, v, u]] gathered into axes (V, G, U)
        nxt[:, :, a, :] = (shift[:, None, :] * n_g
                           + proj[:, x_sent[a]].transpose(1, 0, 2))
    next_states = nxt.reshape(n_v * n_g, n_a, n_u)
    probs = np.broadcast_to(
        p_u[None, None, None, :], (n_v, n_g, n_a, n_u)
    ).reshape(n_v * n_g, n_a, n_u)
    return {
        "kernel": kernel,
        "memory": memory,
        "grid": grid,
        "next_states": np.ascontiguousarray(next_states),
        "next_probs": np.ascontiguousarray(probs),
        "tables": tables,
        "x_sent": x_sent,
        "shift": shift,
        "first": first,
        "p_u": p_u,
        "w": w,
        "shape": (n_v, n_g, n_a, n_u, n_y, n_z, n_x),
    }


def _nofeedback_rewards(core, dec_tables: np.ndarray,
                        loss: np.ndarray) -> np.ndarray:
    """(T, S, A) negated losses for open-loop coding, batched over decoder
    tables indexed [y, z]."""
    n_v, n_g, n_a, n_u, n_y, n_z, n_x = core["shape"]
    n_t = dec_tables.shape[0]
    w, p_u = core["w"], core["p_u"]
    first, shift, x_sent = core["first"], core["shift"], core["x_sent"]
    grid = core["grid"]
    # e[t, x, z, c] = sum_y W(x, y) * loss(c, dec[t, y, z])
    picked = loss[:, dec_tables]                               # (C, T, Y, Z)
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
    dec = np.asarray(decoder)
    n_y, n_z = spec.num_channel_outputs, memory.num_states
    if dec.shape != (n_y, n_z):
        raise SpecValidationError(
            [f"decoder has shape {dec.shape}, expected ({n_y}, {n_z})"]
        )
    check_action_map(dec.ravel(), n_y * n_z, spec.num_reconstructions)
    rewards = _nofeedback_rewards(core, dec.astype(int)[None, :, :],
                                  np.asarray(spec.distortion.loss))[0]
    return FiniteMdp(core["next_states"], core["next_probs"], rewards)


def solve_nofeedback(spec: ProblemSpec, d: int, memory: MemorySpec,
                     resolution: int, tol: float = 1e-9,
                     max_iter: int = 10**6,
                     max_tables: int = DEFAULT_DECODER_CAP,
                     max_states: Optional[int] = None) -> ScenarioSolveReport:
    """Approximate minimum distortion for open-loop coding, minimizing
    over all decoder tables with the tie rule of solve_feedback_finite."""
    grid = simplex_grid(memory.num_states, resolution, max_points=max_states)
    core = _nofeedback_core(spec, d, memory, grid, max_states)
    n_y, n_z = spec.num_channel_outputs, memory.num_states
    cells = decoder_tables(n_y * n_z, spec.num_reconstructions, max_tables)
    dec_all = cells.reshape(-1, n_y, n_z)
    rewards = _nofeedback_rewards(core, dec_all,
                                  np.asarray(spec.distortion.loss))
    sol = rvi_batch(core["next_states"], core["next_probs"], rewards,
                    tol=tol, max_iter=max_iter)
    best = _first_within(sol.gains, tol)
    distortion = _clamp_distortion(-float(sol.gains[best]),
                                   spec.distortion.max_loss)
    return ScenarioSolveReport(
        scenario="nofeedback-finite",
        distortion=distortion,
        encoder_policy=tuple(int(a) for a in sol.policies[best]),
        decoder=_nested_tuple(dec_all[best]),
        vending_action_map=None,
        params={
            "d": d,
            "memory": {"num_states": n_z,
                       "table": _nested_list(memory.table.tolist())},
            "grid_resolution": resolution,
            **spec_params(spec),
        },
        diagnostics={
            **_batch_diagnostics(sol, best),
            "decoder_candidates": int(dec_all.shape[0]),
            "grid_points": grid.size,
        },
        flags=(APPROXIMATE,),
    )
