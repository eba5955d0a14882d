"""Finite average-reward MDPs: policy and value iteration, Lagrangian duals.

Transitions are stored in successor-list form: for every (state, action)
pair a fixed number of candidate successors with probabilities, padded
with zero-probability entries.  This keeps the per-iteration work
proportional to the number of genuine outcomes, which for the coding
chains is tiny compared to the state count.

The solver maximizes average reward.  Callers encode distortion as a
negated reward and flip the sign of the reported gain.

batch_value_iteration holds the one value-iteration sweep loop.  Both
batched solvers add expected next values slot by slot (_slot_sum) into
action-major (B, A, S) Q-values.

constrained_solve is the one Lagrangian dual routine: it takes a batch of
reward tables on one chain, a constraint cost table and a budget, and
returns a DualBatch with one DualResult per table.  It flags a minimizer
at the bracket edge in that result and warns of nothing; a search that
cannot narrow to DUAL_TOL raises NonConvergenceError.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spsolve

from .errors import NonConvergenceError, SpecValidationError
from .models import _check_capacity

PROB_TOL = 1e-12
DAMPING = 0.5
# Batched solves use dense policy iteration.  A Q-value must beat the
# current action by PI_IMPROVE_EPS, relative to the largest Q-value, to
# change the policy.
PI_MAX_ROUNDS = 100
PI_IMPROVE_EPS = 1e-12
# Candidates are solved in chunks whose per-step arrays (Q-values and
# slot terms, evaluation systems) take at most this many bytes.  A chain
# whose dense policy-iteration round cannot fit is left to value
# iteration.
GATHER_BUDGET_BYTES = 64 * 2**20
# Value iteration raises NonConvergenceError after this many sweeps.
MAX_SWEEPS = 10**6
# Width of the dual search's stopping bracket, in dual value; vending
# pairs whose dual values lie this close tie.
DUAL_TOL = 1e-8


@dataclass(frozen=True)
class FiniteMdp:
    """Average-reward MDP with successor-list transitions.

    next_states and next_probs have shape (S, A, K); rewards has shape
    (S, A), or (B, S, A) for the batch of tables that constrained_solve
    takes.  For each (s, a) the probabilities over the K slots sum to 1.
    """

    next_states: np.ndarray
    next_probs: np.ndarray
    rewards: np.ndarray

    @property
    def num_states(self) -> int:
        return self.next_states.shape[0]

    @property
    def num_actions(self) -> int:
        return self.next_states.shape[1]

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
        if r.ndim not in (2, 3):
            return ["rewards must have shape (S, A) or (B, S, A)"]
        if ns.shape != p.shape or ns.shape[:2] != r.shape[-2:]:
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
    policy: np.ndarray
    iterations: int
    final_span: float


def _validated(mdp: FiniteMdp) -> FiniteMdp:
    """mdp, if it is valid and has one reward table."""
    problems = mdp.check() or (
        [] if mdp.rewards.ndim == 2 else ["rewards must have shape (S, A)"])
    if problems:
        raise SpecValidationError(problems)
    return mdp


def _check_tol(tol: float) -> None:
    """A stopping tolerance must be a positive finite number: no sweep
    stops on a span below a nonpositive or NaN one."""
    if not 0.0 < tol < np.inf:
        raise SpecValidationError(
            [f"tolerance {tol} must be a positive finite number"])


def relative_value_iteration(mdp: FiniteMdp,
                             tol: float = 1e-9) -> SolveResult:
    """Solve for the optimal average reward by span-contracting sweeps:
    batch_value_iteration on a batch of one.

    Each sweep applies the Bellman operator, measures the span of the
    one-step improvement, and renormalizes the bias at state 0.  For a
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
    return batch_value_iteration(mdp.next_states, mdp.next_probs,
                                 mdp.rewards[None], tol=tol).result(0)


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

    def result(self, k: int) -> SolveResult:
        """Candidate k's answer, as relative_value_iteration reports it."""
        return SolveResult(float(self.gains[k]), self.policies[k],
                           int(self.rounds[k]), float(self.spans[k]))


def _chunks(count: int, bytes_each: int):
    """Slices of range(count) whose members take at most
    GATHER_BUDGET_BYTES together (at least one member per slice)."""
    step = max(1, GATHER_BUDGET_BYTES // max(1, bytes_each))
    return [slice(i, min(count, i + step)) for i in range(0, count, step)]


def _slot_major(next_states, next_probs):
    """Slot-major (K, A, S) copies of (S, A, K) successor lists; np.take
    copies an index array that is not writable C-ordered intp."""
    return (np.require(next_states.transpose(2, 1, 0), np.intp, ["C", "W"]),
            np.ascontiguousarray(next_probs.transpose(2, 1, 0)))


def _slot_sum(x, next_states, next_probs) -> np.ndarray:
    """(B, A, S) expected next value of each row of x over _slot_major
    lists, added slot by slot in slot order, whatever the batch.  Below 8
    slots a contiguous np.add.reduce adds in that order too; from 8 on,
    where NumPy's pairwise blocks begin, the last bits can differ."""
    out = x.take(next_states[0], axis=1)
    out *= next_probs[0]
    for k in range(1, next_states.shape[0]):
        term = x.take(next_states[k], axis=1)
        term *= next_probs[k]
        out += term
    return out


def batch_value_iteration(next_states: np.ndarray, next_probs: np.ndarray,
                          rewards: np.ndarray,
                          tol: float = 1e-9) -> BatchSolve:
    """Relative value iteration over a batch of reward tables.

    Sweeps are those of relative_value_iteration, damping included.  A
    candidate retires on the sweep its span falls below tol, so its answer
    does not depend on the rest of the batch, and the batch is swept in
    chunks whose per-sweep arrays stay within GATHER_BUDGET_BYTES.
    NonConvergenceError is raised after MAX_SWEEPS sweeps.  Q-values are
    (B, A, S), summed by _slot_sum in slot order, and maximized over the
    action axis, not a short innermost one.
    """
    _check_tol(tol)
    b, s, a = rewards.shape
    next_states, next_probs = _slot_major(next_states, next_probs)
    gains = np.empty(b)
    policies = np.empty((b, s), dtype=int)
    spans = np.empty(b)
    sweeps = np.zeros(b, dtype=int)
    # per candidate: five (A, S) arrays at a sweep's peak, four bias rows
    for part in _chunks(b, 8 * s * (5 * a + 4)):
        active = np.arange(part.start, part.stop)
        r = np.ascontiguousarray(rewards[part].transpose(0, 2, 1))
        h = np.zeros((active.size, s))
        # ufunc reductions: the array methods' Python wrappers cost more
        # than a sweep of a small chain
        for it in range(1, MAX_SWEEPS + 1):
            q = DAMPING * _slot_sum(h, next_states, next_probs)
            q += r
            th = (1.0 - DAMPING) * h + np.maximum.reduce(q, axis=1)
            diff = th - h
            lo = np.minimum.reduce(diff, axis=1)
            hi = np.maximum.reduce(diff, axis=1)
            span = hi - lo
            if np.minimum.reduce(span) < tol:
                done = span < tol
                ids = active[done]
                gains[ids] = (lo[done] + hi[done]) / 2.0
                policies[ids] = q[done].argmax(axis=1)
                spans[ids] = span[done]
                sweeps[ids] = it
                active, th, r = active[~done], th[~done], r[~done]
                if active.size == 0:
                    break
            h = th - th[:, :1]
        else:
            worst = int(span.argmax())
            raise NonConvergenceError(
                f"relative value iteration exceeded {MAX_SWEEPS} sweeps "
                f"(span {span[worst]:.3e})",
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
                           rewards: np.ndarray,
                           tol: float = 1e-9) -> BatchSolve:
    """Howard policy iteration over a batch of reward tables (Puterman
    1994, section 8.6), with dense evaluations.

    Each round evaluates every unfinished candidate's policy exactly, by
    one batched solve of (I - P) h + g = r with h[0] = 0, and then
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
    instead.  So is every candidate of a chain too
    large for dense evaluation: when the (S, A, S) tensor and one
    candidate's (S, S) systems do not fit GATHER_BUDGET_BYTES.
    """
    _check_tol(tol)
    b, s, a = rewards.shape
    step_bytes = 8 * s * (4 * s + a * next_states.shape[2])
    fits = 8 * s * a * s + step_bytes <= GATHER_BUDGET_BYTES
    dense = _dense(next_states, next_probs) if fits else None   # (S, A, S)
    slots = _slot_major(next_states, next_probs) if fits else None
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
            mat[:, :, 0] = 1.0
            r = rewards[active]
            x = _evaluate_batch(
                mat, np.take_along_axis(r, pol[:, :, None], axis=2)[:, :, 0])
            ok = np.isfinite(x).all(axis=1)
            fallback[active[~ok]] = True
            active, x, pol, r = active[ok], x[ok], pol[ok], r[ok]
            g = x[:, 0].copy()
            x[:, 0] = 0.0
            q = r.transpose(0, 2, 1) + _slot_sum(x, *slots)   # (B, A, S)
            now = np.take_along_axis(q, pol[:, None], axis=1)[:, 0]
            best = q.max(axis=1)
            eps = PI_IMPROVE_EPS * (1.0 + np.abs(q).max(axis=(1, 2)))
            better = best > now + eps[:, None]
            changed = better.any(axis=1)
            policies[active] = np.where(better, q.argmax(axis=1), pol)
            rounds[active[changed]] = rnd
            stay = ~changed
            diff = best[stay] - x[stay]
            ids = active[stay]
            policies[ids] = (q[stay] >= (best - eps[:, None])[stay][:, None]
                             ).argmax(axis=1)
            gains[ids] = g[stay]
            spans[ids] = diff.max(axis=1) - diff.min(axis=1)
            residuals[ids] = np.abs(diff - g[stay][:, None]).max(axis=1)
            active = active[changed]
            if active.size == 0:
                break
        fallback[active] = True
    with np.errstate(invalid="ignore"):
        fallback |= ~((spans < tol) & (residuals < tol))
    if fallback.any():
        sub = batch_value_iteration(next_states, next_probs,
                                    rewards[fallback], tol=tol)
        gains[fallback], policies[fallback] = sub.gains, sub.policies
        spans[fallback] = sub.spans
        rounds[fallback] = sub.rounds
        residuals[fallback] = sub.residuals
        total += sub.steps
    return BatchSolve(gains, policies, total, spans, rounds, fallback,
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


def _policy_classes(mdp: FiniteMdp, policy: np.ndarray) -> list:
    """_stationary_classes of the chain that policy induces."""
    idx = np.arange(mdp.num_states)
    return _stationary_classes(mdp.next_states[idx, policy],
                               mdp.next_probs[idx, policy])


def _class_means(classes: list, policy: np.ndarray, *tables) -> list:
    """For each (members, mu) of classes, the stationary means of the
    (S, A) tables along policy."""
    idx = np.arange(policy.size)
    picked = [table[idx, policy] for table in tables]
    return [tuple(float(mu @ r[members]) for r in picked)
            for members, mu in classes]


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
    gains = tuple(means[0] for means in
                  _class_means(_policy_classes(mdp, pol), pol, mdp.rewards))
    best = max(gains)
    spread = max(gains) - min(gains)
    return PolicyEvaluation(best, gains, len(gains) > 1, spread > 1e-10)


def exhaustive_policy_search(mdp: FiniteMdp):
    """Best stationary deterministic policy by full enumeration.

    Ties keep the lexicographically smallest action table.  Only usable
    when num_actions ** num_states stays within state_limit().
    """
    _validated(mdp)
    _check_capacity("policy enumeration", mdp.num_actions**mdp.num_states,
                    "reduce the states or actions")
    best_gain = -np.inf
    best_policy = None
    for tbl in itertools.product(range(mdp.num_actions), repeat=mdp.num_states):
        gain = evaluate_policy(mdp, np.array(tbl)).gain
        if gain > best_gain:
            best_gain = gain
            best_policy = tbl
    return np.array(best_policy, dtype=int), float(best_gain)


@dataclass(frozen=True)
class DualResult:
    """Outcome of one table's dual search, with the solve at lambda_star."""

    lambda_star: float
    dual_value: float
    gain_at_lambda_star: float
    avg_constraint_cost: float
    bracket_edge: bool
    evaluations: int
    policy: np.ndarray
    iterations: int
    final_span: float


class DualBatch(tuple):
    """What constrained_solve returns: one DualResult per reward table,
    with the total of their dual evaluations (tables that share a search
    count its evaluations each)."""

    evaluations = property(lambda self: sum(r.evaluations for r in self))


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_section(lambda_max: float, slope: float):
    """One table's golden-section search over [0, lambda_max], run until
    the bracket width times slope, the largest dual slope, is at most
    DUAL_TOL.  It yields each multiplier it has not evaluated, is sent the
    dual value there (the optimal gain, as a float), and returns the dual
    values by multiplier and the width of the final bracket.  A bracket
    that stops narrowing first, as one near a large multiplier does at the
    spacing of floats there, raises NonConvergenceError."""
    values: dict[float, float] = {}

    def dual(lam):
        if lam not in values:
            values[lam] = yield lam
        return values[lam]

    a, b = 0.0, lambda_max
    c, d = b - _GOLDEN * b, _GOLDEN * b
    for lam in (a, b):
        yield from dual(lam)
    fc = yield from dual(c)
    fd = yield from dual(d)
    width = np.inf
    while slope * (b - a) > DUAL_TOL:
        if b - a >= width:
            raise NonConvergenceError(
                f"dual search stopped narrowing near lambda = {a:.6g} at "
                f"width {b - a:.3e}, above DUAL_TOL / slope = "
                f"{DUAL_TOL / slope:.3e}")
        width = b - a
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = yield from dual(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = yield from dual(d)
    return values, b - a


def constrained_solve(mdp: FiniteMdp, cost, budget: float, lambda_max=None,
                      rvi_tol: float = 1e-10) -> DualBatch:
    """Minimize the Lagrangian dual of a budget-constrained MDP for each
    of a batch of reward tables.

    mdp's rewards are a (B, S, A) batch on one chain, and cost is the
    (S, A) constraint cost, whose average must stay within budget.  The
    dual value d(lam) of a table is the optimal gain of its Lagrangian
    rewards + lam * (budget - cost); it is convex in lam, so a
    golden-section search over [0, lambda_max] finds its minimum, which
    for a unichain model is the optimum of the constrained problem.  A
    positive minimizer pinned at lambda_max usually signals an infeasible
    table or a bracket chosen too small, and sets that DualResult's
    bracket_edge; nothing is warned here.  A search whose bracket stops
    narrowing before its width times the largest dual slope is within
    DUAL_TOL raises NonConvergenceError.  A table equal bit for bit to
    an earlier one with the same lambda_max shares that table's
    DualResult; the distinct tables' searches run in lockstep, one
    batch_value_iteration call per step over those still searching, and
    each keeps the DualResult it gets alone.  Only the solve at each
    table's minimizer is kept as a SolveResult, and the recurrent classes
    behind its average cost are found once per distinct policy.
    """
    cost = np.asarray(cost, dtype=float)
    problems = mdp.check()
    if mdp.rewards.ndim != 3:
        problems.append("rewards must have shape (B, S, A)")
    elif cost.shape != mdp.rewards.shape[1:]:
        problems.append("constraint cost table must match the reward shape")
    elif not np.all(np.isfinite(cost)) or np.any(cost < 0):
        problems.append("constraint costs must be finite and nonnegative")
    if budget < 0:
        problems.append("budget must be nonnegative")
    if problems:
        raise SpecValidationError(problems)
    rewards = mdp.rewards
    if lambda_max is None:
        rng = rewards.max(axis=(1, 2)) - rewards.min(axis=(1, 2))
        pos = cost[cost > 0]
        lambda_max = (np.where(rng > 0, rng, 1.0)
                      / (float(pos.min()) if pos.size else 1.0))
    if np.any(lambda_max <= 0):
        raise SpecValidationError([f"lambda_max {lambda_max} must be positive"])
    tops = np.broadcast_to(lambda_max, rewards.shape[:1])
    # one search per distinct (table, lambda_max), compared by their bytes
    keys = [r.tobytes() + top.tobytes() for r, top in zip(rewards, tops)]
    first: dict[bytes, int] = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    rows = np.array(list(first.values()), dtype=int)
    slack = budget - cost
    slope = float(np.abs(slack).max()) if slack.size else 1.0
    searches = [_golden_section(float(tops[i]), slope) for i in rows]
    lams = np.array([next(search) for search in searches])
    # per search, the (BatchSolve, row) that solved each multiplier
    solved = [{} for _ in rows]
    found = [None] * len(rows)
    asking = np.arange(len(rows))
    while asking.size:
        sol = batch_value_iteration(
            mdp.next_states, mdp.next_probs,
            rewards[rows[asking]] + lams[asking, None, None] * slack,
            tol=rvi_tol)
        gains = sol.gains.tolist()
        for row, k in enumerate(asking):
            solved[k][lams[k]] = sol, row
            try:
                lams[k] = searches[k].send(gains[row])
            except StopIteration as stop:
                found[k] = stop.value
        asking = asking[[found[k] is None for k in asking]]
    classes = {}
    results = []
    for k, (i, (values, width)) in enumerate(zip(rows, found)):
        star = min(values, key=lambda lam: (values[lam], lam))
        sol, row = solved[k][star]
        best = sol.result(row)
        # a search that never left lam = 0 (every slack is zero) has no edge
        edge = star > 0.0 and star >= tops[i] - max(width, 1e-14)
        policy = best.policy.tobytes()
        if policy not in classes:
            classes[policy] = _policy_classes(mdp, best.policy)
        stats = _class_means(classes[policy], best.policy,
                             rewards[i] + star * slack, rewards[i], cost)
        _, gain_g, avg_cost = max(stats, key=lambda t: t[0])
        results.append(DualResult(float(star), best.gain, gain_g, avg_cost,
                                  bool(edge), len(values), best.policy,
                                  best.iterations, best.final_span))
    by_key = dict(zip(first, results))
    return DualBatch(by_key[key] for key in keys)
