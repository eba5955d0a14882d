"""Analytic endpoints and symbol-by-symbol optimality diagnostics.

The two ends of the lookahead/memory tradeoff have closed or
semi-closed forms: with nothing (no lookahead, no memory) the best
scheme is a symbol map found by enumeration, and with everything the
separation optimum is read off the capacity and rate-distortion curves.
Between them sits a verifiable optimality condition for symbol-by-symbol
coding, checked here on a belief grid, and a parameter-plane scan that
flags where memoryful coding strictly beats the best symbol map.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import brentq

# belief_update_feedback, the scalar reference of _posteriors, is not
# called here; rtbench/hooks.py counts its calls under this name and
# reports bayes.updates as unmeasured when the name is missing.
from .bayes import (_posteriors, belief_update_feedback,  # noqa: F401
                    check_action_map)
from .errors import SpecValidationError
from .infotheory import (binary_entropy, channel_capacity,
                         rate_distortion_point, zero_rate_distortion)
from .lookahead import TupleCodec, _enumerate_maps
from .mdp import _chunks
from .models import ProblemSpec, binary_problem
from .scenarios import (_tuple_chain, _whole_maps, memory_last_m,
                        solve_feedback_finite)
from .simplex import SimplexGrid

VIOLATION_TOL = 1e-9
TIE_TOL = 1e-12
_D_TOL = 1e-9


@dataclass(frozen=True)
class SymbolPolicy:
    """Dense map sending each source symbol to a channel input."""

    table: tuple

    @classmethod
    def make(cls, table) -> "SymbolPolicy":
        return cls(tuple(int(x) for x in np.asarray(table).ravel()))


def _map_scores(spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """Every symbol map, lexicographic, and its Bayes-decoder score."""
    p_u = np.asarray(spec.source.p)
    w = np.asarray(spec.channel.rows)
    loss = np.asarray(spec.distortion.loss)
    maps = _enumerate_maps(spec.num_source_symbols, spec.num_channel_inputs,
                           None, "symbol-map enumeration",
                           "reduce the source or input alphabet")
    weighted = p_u[None, :, None] * w[maps]                    # (T, U, Y)
    joint = np.einsum("tuy,uc->tyc", weighted, loss)
    return maps, joint.min(axis=2).sum(axis=1)


def d0_distortion(spec: ProblemSpec) -> tuple[float, SymbolPolicy]:
    """Best memoryless per-symbol distortion and a map achieving it.

    Every symbol map is scored with its Bayes-optimal decoder; ties keep
    the lexicographically smallest map.
    """
    maps, values = _map_scores(spec)
    best = int(np.argmin(values))
    return float(values[best]), SymbolPolicy.make(maps[best])


def shannon_limit(spec: ProblemSpec) -> float:
    """Distortion floor with unlimited lookahead, one channel use per
    source symbol.

    Finds the smallest distortion whose rate requirement fits under the
    channel capacity, bisecting the tradeoff slope of the rate-distortion
    curve until the distortion bracket closes below 1e-9.
    """
    cap, _ = channel_capacity(spec.channel)
    if cap <= 1e-12:
        return zero_rate_distortion(spec.source, spec.distortion)
    lo_d = zero_rate_distortion(spec.source, spec.distortion)
    lo_s = 0.0
    hi_s = 1.0
    prev_rate = -1.0
    for _ in range(200):
        # fresh start per slope: warm-starting across the zero-rate corner
        # can pin the alternating minimization to a stale reproduction law
        rate, dist, _ = rate_distortion_point(spec.source, spec.distortion,
                                              hi_s)
        if rate >= cap - 1e-9:
            break
        if rate - prev_rate <= 1e-13 and dist <= _D_TOL:
            # the curve has topped out below capacity: rate is not binding
            return dist
        prev_rate = rate
        lo_s, lo_d = hi_s, dist
        hi_s *= 2.0
    else:
        return dist
    hi_d = dist
    for _ in range(200):
        if lo_d - hi_d <= _D_TOL or hi_s - lo_s <= 1e-13:
            break
        mid = 0.5 * (lo_s + hi_s)
        rate, dist, _ = rate_distortion_point(spec.source, spec.distortion,
                                              mid)
        if rate >= cap:
            hi_s, hi_d = mid, dist
        else:
            lo_s, lo_d = mid, dist
    return 0.5 * (lo_d + hi_d)


def binary_shannon_closed_form(p: float, delta: float) -> float:
    """Separation-optimum distortion for a biased bit over a symmetric
    binary channel, by inverting the binary entropy."""
    if not 0.0 <= p <= 0.5:
        raise SpecValidationError([f"source bias {p} outside [0, 0.5]"])
    if not 0.0 <= delta <= 0.5:
        raise SpecValidationError([f"crossover {delta} outside [0, 0.5]"])
    target = binary_entropy(p) - (1.0 - binary_entropy(delta))
    if target <= 0.0:
        return 0.0
    hi = min(p, 0.5)
    return float(brentq(lambda x: binary_entropy(x) - target, 0.0, hi,
                        xtol=1e-13, rtol=8.9e-16))


def _as_table(policy, num_symbols: int, num_inputs: int) -> np.ndarray:
    raw = getattr(policy, "table", policy)
    return check_action_map(np.asarray(raw), num_symbols, num_inputs)


def _h_vector(beliefs: np.ndarray, comp: np.ndarray, table: np.ndarray,
              w: np.ndarray, loss: np.ndarray) -> np.ndarray:
    """Closed-form relative value of the symbol policy table at every
    tuple (rows of comp), for a (..., V) batch of beliefs over tuples.

    Equals minus the Bayes envelope of the belief's first marginal, minus
    the forecast envelopes of each committed-but-unsent symbol: for slot k
    the output law follows the symbol actually held there, while the
    posterior starts from the belief's k-th marginal.  Outputs that the
    policy cannot produce from a marginal contribute zero.
    """
    slots = comp[:, :, None] == np.arange(loss.shape[0])       # (V, K, U)
    marg = np.einsum("...v,vku->...ku", beliefs, slots)        # (..., K, U)
    num = marg[..., 1:, None, :] * w[table].T                  # (..., K-1, Y, U)
    totals = num.sum(axis=-1)
    reached = totals > 0.0
    env = np.where(reached, (num @ loss).min(axis=-1)
                   / np.where(reached, totals, 1.0), 0.0)      # (..., K-1, Y)
    out = -(marg[..., 0, :] @ loss).min(axis=-1)[..., None]
    # per-belief matrix-vector products, rounding as for one belief
    for k in range(1, comp.shape[1]):
        out = out - (w[table[comp[:, k]]] @ env[..., k - 1, :, None])[..., 0]
    return out


@dataclass(frozen=True)
class SymbolCheckReport:
    """Grid evaluation of the symbol-policy optimality condition.

    A recorded violation certifies that the symbol policy is beaten by
    some encoder map at that belief; a clean grid is evidence, not proof.
    """

    holds_on_grid: bool
    first_violation: Optional[tuple]
    max_gap: float
    max_identity_gap: float
    policy: SymbolPolicy
    points_checked: int


def _grid_check(spec: ProblemSpec, d: int, belief_grid: SimplexGrid,
                policy: SymbolPolicy) -> SymbolCheckReport:
    """The optimality gaps lhs[g, v] - min_a rhs[g, a, v] of one symbol
    policy, at grid point g and tuple v, with rhs the one-step deviation
    by encoder map a.  Each chunk of grid points within GATHER_BUDGET_BYTES
    takes one batched posterior update over every map and output."""
    if d < 1:
        raise SpecValidationError(
            [f"lookahead {d} must be at least 1 for the grid check"]
        )
    n_u = spec.num_source_symbols
    n_x = spec.num_channel_inputs
    table = _as_table(policy, n_u, n_x)
    n_v = n_u ** (d + 1)
    problems = ([] if belief_grid.dim == n_v else
                [f"belief grid has dimension {belief_grid.dim}, expected {n_v}"])
    kernel, shift, _ = _tuple_chain(spec, d, 1, problems)
    actions = _whole_maps(spec, kernel)
    comp = kernel.codec.components_table()
    w = np.asarray(spec.channel.rows)
    loss = np.asarray(spec.distortion.loss)
    p_u = np.asarray(spec.source.p)
    n_y = spec.num_channel_outputs
    wch = w[actions[:, shift]]                                 # (A, V, U, Y)
    n_a = wch.shape[0]

    # the symbol policy's index among all encoder maps
    sym_idx = TupleCodec(n_x, n_v).encode(table[comp[:, 0]])

    fresh = ((p_u[:, None] * w[table]).T @ loss).min(axis=1).sum()

    points = belief_grid.points
    gaps = np.empty((belief_grid.size, n_v))
    identity = np.empty(belief_grid.size)
    # a grid point's posteriors, h values and their temporaries take about
    # ten (A, Y, V) float tensors
    for part in _chunks(belief_grid.size, 80 * n_a * n_y * n_v):
        beta = points[part]
        env0 = (beta.reshape(len(beta), n_u, -1).sum(axis=2) @ loss).min(axis=1)
        lhs = fresh - env0[:, None] - _h_vector(beta, comp, table, w, loss)
        post, reachable = _posteriors(beta, kernel, spec.channel, actions)
        hv = np.where(reachable[..., None],
                      _h_vector(post, comp, table, w, loss), 0.0)
        # summed output by output, the order of the scalar reference
        rhs = np.zeros((len(beta), n_a, n_v))
        for y in range(n_y):
            rhs -= (wch[..., y] * hv[:, :, y, shift]) @ p_u
        gaps[part] = lhs - rhs.min(axis=1)
        identity[part] = np.abs(lhs - rhs[:, sym_idx]).max(axis=1)

    # the first violation in (tuple, grid point) order
    hits = np.argwhere(gaps.T > VIOLATION_TOL)
    first: Optional[tuple] = None
    if len(hits):
        v, g = hits[0]
        first = (tuple(int(s) for s in comp[v]),
                 tuple(float(x) for x in points[g]), float(gaps[g, v]))
    return SymbolCheckReport(
        holds_on_grid=first is None,
        first_violation=first,
        max_gap=float(gaps.max()),
        max_identity_gap=float(identity.max()),
        policy=SymbolPolicy.make(table),
        points_checked=int(belief_grid.size * n_v),
    )


def _optimal_symbol_maps(spec: ProblemSpec) -> np.ndarray:
    """Symbol maps tying the best Bayes-decoder score, lexicographic."""
    maps, values = _map_scores(spec)
    return maps[values <= values.min() + TIE_TOL]


def symbol_by_symbol_check(spec: ProblemSpec, d: int,
                           belief_grid: SimplexGrid) -> SymbolCheckReport:
    """Check the optimality condition for the best symbol map on a belief
    grid.

    At every (tuple, belief) pair, the stay-with-the-policy side must not
    exceed the best one-step deviation over all encoder maps by more than
    the violation tolerance.  The per-symbol problem can tie across
    several maps; each tying map is tried in lexicographic order and one
    clean grid certifies the lot.  When every tying map is beaten
    somewhere, the report describes the first map's violation.
    """
    first: Optional[SymbolCheckReport] = None
    for table in _optimal_symbol_maps(spec):
        rep = _grid_check(spec, d, belief_grid, SymbolPolicy.make(table))
        if rep.holds_on_grid:
            return rep
        if first is None:
            first = rep
    assert first is not None
    return first


def uncoded_condition_check(spec: ProblemSpec, d: int,
                            belief_grid: SimplexGrid) -> SymbolCheckReport:
    """Same grid check, pinned to the identity embedding of symbols into
    channel inputs."""
    n_u = spec.num_source_symbols
    if spec.num_channel_inputs < n_u:
        raise SpecValidationError(
            [f"identity embedding needs at least {n_u} channel inputs"]
        )
    return _grid_check(spec, d, belief_grid,
                       SymbolPolicy.make(np.arange(n_u)))


@dataclass(frozen=True)
class RegionReport:
    """Parameter-plane scan of where coding with memory strictly beats
    the best symbol map."""

    d: int
    m: int
    p_grid: tuple
    delta_grid: tuple
    d0: np.ndarray
    ddm: np.ndarray
    flags: np.ndarray
    margin: float
    errors: tuple


def _map_tasks(fn, tasks: list, workers: int, chunksize: int = 1) -> list:
    """fn over tasks in order, on a process pool when two or more of the
    workers can be busy.  The pool starts all its workers at once, so it
    gets no more than there are tasks or CPUs."""
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers < 2:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunksize))


def _region_point(args) -> tuple[int, int, float, float, str]:
    i, j, p, delta, d, m, tol = args
    spec = binary_problem(p, delta)
    base, _ = d0_distortion(spec)
    try:
        memory = memory_last_m(m, spec.num_channel_outputs)
        report = solve_feedback_finite(spec, d, memory, tol=tol)
        return i, j, base, report.distortion, ""
    except Exception as exc:  # noqa: BLE001 - recorded per point
        return i, j, base, float("nan"), f"{type(exc).__name__}: {exc}"


def suboptimality_region(d: int, m: int, p_grid, delta_grid,
                         margin: float = 1e-6, tol: float = 1e-9,
                         workers: int = 1) -> RegionReport:
    """Scan a (source bias, crossover) grid of binary problems and flag
    points where the lookahead-d, window-m solve beats the symbol map by
    more than margin.

    Solver failures are recorded per point and leave the point unflagged.
    A negative d or m fails every point alike, so it is rejected first,
    and so is a margin that is not a finite number >= 0: NaN or inf
    flags no point, and a negative margin flags points that tie.
    """
    problems = [f"{name} {value} must be nonnegative"
                for name, value in (("lookahead", d), ("memory length", m))
                if value < 0]
    if not 0.0 <= margin < np.inf:
        problems.append(f"margin {margin} must be a finite number >= 0")
    if problems:
        raise SpecValidationError(problems)
    ps = [float(p) for p in np.asarray(p_grid, dtype=float)]
    deltas = [float(x) for x in np.asarray(delta_grid, dtype=float)]
    tasks = [
        (i, j, p, delta, d, m, tol)
        for i, p in enumerate(ps)
        for j, delta in enumerate(deltas)
    ]
    rows = _map_tasks(_region_point, tasks, workers, chunksize=4)
    d0 = np.empty((len(ps), len(deltas)))
    ddm = np.empty((len(ps), len(deltas)))
    errors = []
    for i, j, base, value, err in rows:
        d0[i, j] = base
        ddm[i, j] = value
        if err:
            errors.append((i, j, err))
    with np.errstate(invalid="ignore"):
        flags = ddm < d0 - margin
    return RegionReport(
        d=d, m=m,
        p_grid=tuple(ps), delta_grid=tuple(deltas),
        d0=d0, ddm=ddm, flags=flags,
        margin=margin, errors=tuple(errors),
    )
