"""Finite average-reward MDPs: policy and value iteration, Lagrangian duals.

Transitions are stored in successor-list form: for every (state, action)
pair a fixed number of candidate successors with probabilities, padded
with zero-probability entries.  This keeps the per-iteration work
proportional to the number of genuine outcomes, which for the coding
chains is tiny compared to the state count.

The solver maximizes average reward.  Callers encode distortion as a
negated reward and flip the sign of the reported gain.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spsolve

from .errors import CapacityError, NonConvergenceError, SpecValidationError

PROB_TOL = 1e-12
DAMPING = 0.5
# Batched solves use dense policy iteration.  A Q-value must beat the
# current action by PI_IMPROVE_EPS, relative to the largest Q-value, to
# change the policy.
PI_MAX_ROUNDS = 100
PI_IMPROVE_EPS = 1e-12
# Candidates are solved in chunks whose per-step arrays (successor
# gathers, evaluation systems) take at most this many bytes.  A chain
# whose dense policy-iteration round cannot fit is left to value
# iteration.
GATHER_BUDGET_BYTES = 64 * 2**20


@dataclass(frozen=True)
class FiniteMdp:
    """Average-reward MDP with successor-list transitions.

    next_states and next_probs have shape (S, A, K); rewards has shape
    (S, A).  For each (s, a) the probabilities over the K slots sum to 1.
    """

    next_states: np.ndarray
    next_probs: np.ndarray
    rewards: np.ndarray

    @property
    def num_states(self) -> int:
        return self.rewards.shape[0]

    @property
    def num_actions(self) -> int:
        return self.rewards.shape[1]

    @classmethod
    def from_dense(cls, transition, rewards) -> "FiniteMdp":
        """Build from a dense (S, A, S) transition tensor."""
        t = np.asarray(transition, dtype=float)
        r = np.asarray(rewards, dtype=float)
        if t.ndim != 3 or t.shape[0] != t.shape[2]:
            raise SpecValidationError(["transition tensor must have shape (S, A, S)"])
        s, a, _ = t.shape
        next_states = np.broadcast_to(np.arange(s), (s, a, s)).copy()
        return cls(next_states, t.copy(), r)

    def check(self) -> list[str]:
        out = []
        ns, p, r = self.next_states, self.next_probs, self.rewards
        if r.ndim != 2:
            return ["rewards must have shape (S, A)"]
        if ns.shape != p.shape or ns.shape[:2] != r.shape:
            return ["transition arrays inconsistent with rewards shape"]
        if not np.all(np.isfinite(p)) or not np.all(np.isfinite(r)):
            out.append("non-finite transition probability or reward")
            return out
        if np.any(p < 0):
            out.append("negative transition probability")
        sums = p.sum(axis=2)
        worst = np.abs(sums - 1.0).max()
        if worst > PROB_TOL:
            out.append(f"transition rows off stochastic by {worst:.3e}")
        if ns.min(initial=0) < 0 or ns.max(initial=0) >= self.num_states:
            out.append("successor index outside the state space")
        return out

    def dense(self) -> np.ndarray:
        """Dense (S, A, S) transition tensor, summing duplicate successors."""
        return _dense(self.next_states, self.next_probs)


def _dense(next_states: np.ndarray, next_probs: np.ndarray) -> np.ndarray:
    s, a, k = next_states.shape
    out = np.zeros((s, a, s))
    flat = (np.arange(s * a).repeat(k) * s) + next_states.ravel()
    np.add.at(out.reshape(-1), flat, next_probs.ravel())
    return out


@dataclass(frozen=True)
class SolveResult:
    """Outcome of relative value iteration."""

    gain: float
    bias: np.ndarray
    policy: np.ndarray
    iterations: int
    final_span: float


def _validated(mdp: FiniteMdp) -> FiniteMdp:
    problems = mdp.check()
    if problems:
        raise SpecValidationError(problems)
    return mdp


def relative_value_iteration(mdp: FiniteMdp, tol: float = 1e-9,
                             max_iter: int = 10**6,
                             ref_state: int = 0) -> SolveResult:
    """Solve for the optimal average reward by span-contracting sweeps.

    Each sweep applies the Bellman operator, measures the span of the
    one-step improvement, and renormalizes the bias at ref_state.  For a
    unichain model the span brackets the optimal gain, and the reported
    gain is the midpoint of the final bracket, so its error is at most
    half the stopping tolerance.

    Sweeps run on the chain with a (1 - DAMPING) self-loop blended into
    every row.  That leaves each policy's stationary law, the gain, and
    the maximizing actions untouched, but makes every induced chain
    aperiodic, so the iteration also converges on periodic instances
    such as deterministic cycles.
    """
    _validated(mdp)
    if tol <= 0:
        raise SpecValidationError([f"tolerance {tol} must be positive"])
    if not 0 <= ref_state < mdp.num_states:
        raise SpecValidationError([f"reference state {ref_state} out of range"])
    h = np.zeros(mdp.num_states)
    ns, probs, rewards = mdp.next_states, mdp.next_probs, mdp.rewards
    span = np.inf
    lo = hi = np.nan
    for it in range(1, int(max_iter) + 1):
        q = rewards + DAMPING * (probs * h[ns]).sum(axis=2)
        th = (1.0 - DAMPING) * h + q.max(axis=1)
        diff = th - h
        lo = float(diff.min())
        hi = float(diff.max())
        span = hi - lo
        h = th - th[ref_state]
        if span < tol:
            policy = q.argmax(axis=1)
            return SolveResult((lo + hi) / 2.0, h, policy, it, span)
    raise NonConvergenceError(
        f"relative value iteration exceeded {max_iter} sweeps (span {span:.3e})",
        span=span, gain_bracket=(lo, hi),
    )


class BatchSolve(tuple):
    """What rvi_batch returns: the 4-tuple (gains, policies, steps, spans),
    with per-candidate counters as attributes.  steps counts the
    policy-iteration rounds plus the value-iteration sweeps of the batch.

    spans is the span of T h - h at each returned bias h, T the undamped
    Bellman operator; residuals is max |T h - h - gain|.  rounds counts,
    per candidate, the policy-iteration rounds to its last policy change
    or, for a candidate solved by value iteration, its sweeps.  fallback
    marks the candidates that policy iteration handed to value iteration.
    """

    def __new__(cls, gains, policies, steps, spans, rounds, fallback,
                residuals):
        out = super().__new__(cls, (gains, policies, int(steps), spans))
        out.rounds = rounds
        out.fallback = fallback
        out.residuals = residuals
        return out

    # The count is `steps`, not `iterations`: rtbench/hooks.py tells a
    # SolveResult from this tuple by that attribute.
    gains = property(lambda self: self[0])
    policies = property(lambda self: self[1])
    steps = property(lambda self: self[2])
    spans = property(lambda self: self[3])


def _chunks(count: int, bytes_each: int):
    """Slices of range(count) whose members take at most
    GATHER_BUDGET_BYTES together (at least one member per slice)."""
    step = max(1, GATHER_BUDGET_BYTES // max(1, bytes_each))
    return [slice(i, min(count, i + step)) for i in range(0, count, step)]


def batch_value_iteration(next_states: np.ndarray, next_probs: np.ndarray,
                          rewards: np.ndarray, tol: float = 1e-9,
                          max_iter: int = 10**6,
                          ref_state: int = 0) -> BatchSolve:
    """Relative value iteration over a batch of reward tables.

    Sweeps apply the same self-loop damping as relative_value_iteration.
    A candidate retires on the sweep its span falls below tol, so its
    answer does not depend on the rest of the batch, and the batch is
    swept in chunks whose successor gathers stay within
    GATHER_BUDGET_BYTES.  NonConvergenceError is raised after max_iter
    sweeps.
    """
    b, s, a = rewards.shape
    gains = np.empty(b)
    policies = np.empty((b, s), dtype=int)
    spans = np.empty(b)
    sweeps = np.zeros(b, dtype=int)
    for part in _chunks(b, s * a * next_states.shape[2] * 8):
        active = np.arange(part.start, part.stop)
        h = np.zeros((active.size, s))
        for it in range(1, int(max_iter) + 1):
            ev = np.einsum("sak,bsak->bsa", next_probs, h[:, next_states])
            q = rewards[active] + DAMPING * ev
            th = (1.0 - DAMPING) * h + q.max(axis=2)
            diff = th - h
            lo = diff.min(axis=1)
            hi = diff.max(axis=1)
            span = hi - lo
            done = span < tol
            if done.any():
                ids = active[done]
                gains[ids] = (lo[done] + hi[done]) / 2.0
                policies[ids] = q[done].argmax(axis=2)
                spans[ids] = span[done]
                sweeps[ids] = it
                active, th = active[~done], th[~done]
                lo, hi, span = lo[~done], hi[~done], span[~done]
                if active.size == 0:
                    break
            h = th - th[:, ref_state][:, None]
        else:
            worst = int(span.argmax())
            raise NonConvergenceError(
                f"batched value iteration exceeded {max_iter} sweeps "
                f"(worst span {span[worst]:.3e})",
                span=float(span[worst]),
                gain_bracket=(float(lo[worst]), float(hi[worst])),
            )
    return BatchSolve(gains, policies, sweeps.max(initial=0), spans, sweeps,
                      np.zeros(b, dtype=bool), spans / 2.0)


def _evaluate_batch(matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve each (S, S) system of a batch; a singular system gets a row
    of NaN."""
    try:
        return np.linalg.solve(matrices, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for i in range(rhs.shape[0]):
            try:
                out[i] = np.linalg.solve(matrices[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
        return out


def batch_policy_iteration(next_states: np.ndarray, next_probs: np.ndarray,
                           rewards: np.ndarray, tol: float = 1e-9,
                           max_iter: int = 10**6,
                           ref_state: int = 0) -> BatchSolve:
    """Howard policy iteration over a batch of reward tables (Puterman
    1994, section 8.6), with dense evaluations.

    Each round evaluates every unfinished candidate's policy exactly, by
    one batched solve of (I - P) h + g = r with h[ref_state] = 0, and then
    moves each state to its first maximizing action, but only where that
    beats the current action by more than PI_IMPROVE_EPS relative to the
    size of the Q-values.  Policies start greedy on the rewards.

    A candidate whose policy stops changing is certified by T h - h at
    its bias: both its span and its largest distance from the gain must
    stay below tol.  Its reported policy takes, in each state, the first
    action within PI_IMPROVE_EPS of the best Q-value, so near-ties are
    broken by action index and not by the path of the iteration.  A
    candidate whose evaluation is singular (a multichain policy), that
    needs more than PI_MAX_ROUNDS rounds, or whose certificate fails (an
    ill-conditioned evaluation) is solved by batch_value_iteration
    instead, with max_iter sweeps.  So is every candidate of a chain too
    large for dense evaluation: when the (S, A, S) tensor and one
    candidate's (S, S) systems do not fit GATHER_BUDGET_BYTES.
    """
    b, s, a = rewards.shape
    step_bytes = 8 * s * (4 * s + a * next_states.shape[2])
    fits = 8 * s * a * s + step_bytes <= GATHER_BUDGET_BYTES
    dense = _dense(next_states, next_probs) if fits else None   # (S, A, S)
    idx = np.arange(s)
    gains = np.empty(b)
    policies = rewards.argmax(axis=2)
    spans = np.full(b, np.nan)
    residuals = np.full(b, np.nan)
    rounds = np.zeros(b, dtype=int)
    fallback = np.zeros(b, dtype=bool)
    total = 0
    # a candidate left unevaluated has a NaN certificate, so it falls back
    for part in _chunks(b, step_bytes) if fits else ():
        active = np.arange(part.start, part.stop)
        for rnd in range(1, PI_MAX_ROUNDS + 1):
            total = max(total, rnd)
            pol = policies[active]
            mat = -dense[idx, pol]
            mat[:, idx, idx] += 1.0
            mat[:, :, ref_state] = 1.0
            r = rewards[active]
            x = _evaluate_batch(
                mat, np.take_along_axis(r, pol[:, :, None], axis=2)[:, :, 0])
            ok = np.isfinite(x).all(axis=1)
            fallback[active[~ok]] = True
            active, x, pol, r = active[ok], x[ok], pol[ok], r[ok]
            g = x[:, ref_state].copy()
            x[:, ref_state] = 0.0
            q = r + np.einsum("sak,bsak->bsa", next_probs, x[:, next_states])
            now = np.take_along_axis(q, pol[:, :, None], axis=2)[:, :, 0]
            best = q.max(axis=2)
            eps = PI_IMPROVE_EPS * (1.0 + np.abs(q).max(axis=(1, 2)))
            better = best > now + eps[:, None]
            changed = better.any(axis=1)
            policies[active] = np.where(better, q.argmax(axis=2), pol)
            rounds[active[changed]] = rnd
            stay = ~changed
            diff = best[stay] - x[stay]
            ids = active[stay]
            policies[ids] = (q[stay] >= (best - eps[:, None])[stay][:, :, None]
                             ).argmax(axis=2)
            gains[ids] = g[stay]
            spans[ids] = diff.max(axis=1) - diff.min(axis=1)
            residuals[ids] = np.abs(diff - g[stay][:, None]).max(axis=1)
            active = active[changed]
            if active.size == 0:
                break
        fallback[active] = True
    with np.errstate(invalid="ignore"):
        fallback |= ~((spans < tol) & (residuals < tol))
    steps = total
    if fallback.any():
        sub = batch_value_iteration(next_states, next_probs,
                                    rewards[fallback], tol=tol,
                                    max_iter=max_iter, ref_state=ref_state)
        gains[fallback], policies[fallback] = sub.gains, sub.policies
        spans[fallback] = sub.spans
        rounds[fallback] = sub.rounds
        residuals[fallback] = sub.residuals
        steps += sub.steps
    return BatchSolve(gains, policies, steps, spans, rounds, fallback,
                      residuals)


# The batched solver entry point of the scenario compilers: optimal gains
# of a batch of reward tables that share one transition structure, each
# certified by a span of T h - h below tol.
rvi_batch = batch_policy_iteration


def _stationary_classes(next_states, next_probs):
    """Closed recurrent classes of a finite chain in successor-list form,
    each with its stationary distribution.

    Each class's law solves its balance equations mu Q = 0 with one
    equation replaced by sum(mu) = 1, a direct solve that neither slow
    mixing nor periodicity can stall.  The generator Q takes the
    off-diagonal probabilities as given and puts minus their row sum on
    the diagonal, which keeps small switching rates exact where P - I
    would cancel them against 1.
    """
    s, k = next_states.shape
    mask = next_probs > 0.0
    rows = np.repeat(np.arange(s), k)[mask.ravel()]
    cols = next_states.ravel()[mask.ravel()]
    vals = next_probs.ravel()[mask.ravel()]
    graph = csr_matrix((vals, (rows, cols)), shape=(s, s))
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
    closed = []
    for c in range(n_comp):
        members = np.flatnonzero(labels == c)
        targets = labels[cols[np.isin(rows, members)]]
        if np.all(targets == c):
            closed.append(members)
    closed.sort(key=lambda m: int(m[0]))
    local = np.full(s, -1)
    off = rows != cols
    out = []
    for members in closed:
        n = members.size
        local[members] = np.arange(n)
        inside = off & (local[rows] >= 0)
        i, j, v = local[rows[inside]], local[cols[inside]], vals[inside]
        # transpose of the generator, then row n - 1 becomes sum(mu) = 1
        r = np.concatenate([j, i])
        c = np.concatenate([i, i])
        w = np.concatenate([v, -v])
        keep = r != n - 1
        balance = csc_matrix(
            (np.concatenate([w[keep], np.ones(n)]),
             (np.concatenate([r[keep], np.full(n, n - 1)]),
              np.concatenate([c[keep], np.arange(n)]))),
            shape=(n, n))
        rhs = np.zeros(n)
        rhs[-1] = 1.0
        mu = np.atleast_1d(spsolve(balance, rhs))
        local[members] = -1
        out.append((members, mu / mu.sum()))
    return out


@dataclass(frozen=True)
class PolicyEvaluation:
    """Average reward of a fixed policy, reported per recurrent class."""

    gain: float
    class_gains: tuple[float, ...]
    multichain: bool
    classes_disagree: bool


def evaluate_policy(mdp: FiniteMdp, policy) -> PolicyEvaluation:
    """Stationary average reward of the chain a fixed policy induces.

    Returns the best recurrent-class gain, which matches optimizing the
    initial state, together with all class gains and a disagreement flag
    for multichain instances.
    """
    _validated(mdp)
    pol = np.asarray(policy, dtype=int)
    if pol.shape != (mdp.num_states,):
        raise SpecValidationError([f"policy has shape {pol.shape}, "
                                   f"expected ({mdp.num_states},)"])
    if pol.min(initial=0) < 0 or pol.max(initial=0) >= mdp.num_actions:
        raise SpecValidationError(["policy action index out of range"])
    idx = np.arange(mdp.num_states)
    ns = mdp.next_states[idx, pol]
    probs = mdp.next_probs[idx, pol]
    r = mdp.rewards[idx, pol]
    classes = _stationary_classes(ns, probs)
    gains = tuple(float(mu @ r[members]) for members, mu in classes)
    best = max(gains)
    spread = max(gains) - min(gains)
    return PolicyEvaluation(best, gains, len(gains) > 1, spread > 1e-10)


def exhaustive_policy_search(mdp: FiniteMdp, limit: int = 10**6):
    """Best stationary deterministic policy by full enumeration.

    Ties keep the lexicographically smallest action table.  Only usable
    when num_actions ** num_states stays within limit.
    """
    _validated(mdp)
    total = mdp.num_actions**mdp.num_states
    if total > limit:
        raise CapacityError("policy enumeration", total, limit)
    best_gain = -np.inf
    best_policy = None
    for tbl in itertools.product(range(mdp.num_actions), repeat=mdp.num_states):
        gain = evaluate_policy(mdp, np.array(tbl)).gain
        if gain > best_gain:
            best_gain = gain
            best_policy = tbl
    return np.array(best_policy, dtype=int), float(best_gain)


@dataclass(frozen=True)
class ConstrainedMdp:
    """MDP with a per-step constraint cost and an average-cost budget."""

    mdp: FiniteMdp
    cost: np.ndarray
    budget: float

    def check(self) -> list[str]:
        out = self.mdp.check()
        cost = np.asarray(self.cost)
        if cost.shape != self.mdp.rewards.shape:
            out.append("constraint cost table must match the reward shape")
            return out
        if not np.all(np.isfinite(cost)) or np.any(cost < 0):
            out.append("constraint costs must be finite and nonnegative")
        if self.budget < 0:
            out.append("budget must be nonnegative")
        return out


def lagrangian_mdp(cmdp: ConstrainedMdp, lam: float) -> FiniteMdp:
    """Unconstrained MDP whose reward absorbs the budget constraint at
    multiplier lam: reward + lam * (budget - cost)."""
    if lam < 0:
        raise SpecValidationError([f"multiplier {lam} must be nonnegative"])
    base = cmdp.mdp
    rewards = base.rewards + lam * (cmdp.budget - cmdp.cost)
    return FiniteMdp(base.next_states, base.next_probs, rewards)


@dataclass(frozen=True)
class DualResult:
    """Outcome of the scalar dual search over the constraint multiplier."""

    lambda_star: float
    dual_value: float
    gain_at_lambda_star: float
    avg_constraint_cost: float
    bracket_edge: bool
    evaluations: int


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def constrained_solve(cmdp: ConstrainedMdp, lambda_max: Optional[float] = None,
                      dual_tol: float = 1e-8, rvi_tol: float = 1e-10,
                      max_iter: int = 10**6) -> DualResult:
    """Minimize the Lagrangian dual of a budget-constrained MDP.

    The dual value d(lam) is the optimal gain of the Lagrangian MDP; it is
    convex in lam, so a golden-section search over [0, lambda_max] finds
    its minimum.  The search stops once the bracket width times the
    largest possible dual slope is below dual_tol.  A minimizer pinned at
    lambda_max usually signals an infeasible instance or a bracket chosen
    too small, and is flagged.
    """
    problems = cmdp.check()
    if problems:
        raise SpecValidationError(problems)
    if lambda_max is None:
        rng = float(cmdp.mdp.rewards.max() - cmdp.mdp.rewards.min())
        pos = cmdp.cost[cmdp.cost > 0]
        lambda_max = (rng if rng > 0 else 1.0) / (float(pos.min()) if pos.size else 1.0)
    if lambda_max <= 0:
        raise SpecValidationError([f"lambda_max {lambda_max} must be positive"])
    slack = np.abs(cmdp.budget - cmdp.cost)
    slope = float(slack.max()) if slack.size else 1.0
    cache: dict[float, tuple[float, SolveResult]] = {}

    def dual(lam: float) -> float:
        if lam not in cache:
            res = relative_value_iteration(lagrangian_mdp(cmdp, lam),
                                           tol=rvi_tol, max_iter=max_iter)
            cache[lam] = (res.gain, res)
        return cache[lam][0]

    a, b = 0.0, float(lambda_max)
    dual(a)
    dual(b)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = dual(c), dual(d)
    for _ in range(200):
        if slope * (b - a) <= max(dual_tol, 0.0) or (b - a) <= 1e-14:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = dual(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = dual(d)
    lambda_star = min(cache, key=lambda lam: (cache[lam][0], lam))
    dual_value, best = cache[lambda_star]
    edge = lambda_star >= float(lambda_max) - max(b - a, 1e-14)
    if edge:
        warnings.warn(
            "dual minimizer at lambda_max; the bracket may be too small",
            RuntimeWarning, stacklevel=2,
        )

    idx = np.arange(cmdp.mdp.num_states)
    ns = cmdp.mdp.next_states[idx, best.policy]
    probs = cmdp.mdp.next_probs[idx, best.policy]
    base_r = cmdp.mdp.rewards[idx, best.policy]
    cost_r = cmdp.cost[idx, best.policy]
    classes = _stationary_classes(ns, probs)
    lag_r = base_r + lambda_star * (cmdp.budget - cost_r)
    stats = [
        (float(mu @ lag_r[members]), float(mu @ base_r[members]),
         float(mu @ cost_r[members]))
        for members, mu in classes
    ]
    _, gain_g, avg_cost = max(stats, key=lambda t: t[0])
    return DualResult(float(lambda_star), float(dual_value), gain_g, avg_cost,
                      bool(edge), len(cache))
