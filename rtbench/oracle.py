"""Reference computations made apart from rtcode.

Nothing here imports rtcode.  Every check in the benchmark compares a
number the program printed with a number computed by this module from
the problem parameters alone: closed forms, a binary-entropy bisection,
stationary laws of explicitly built chains, Bayes posteriors with a
brute-force nearest-point search, and the occupation-measure linear
program of a constrained chain.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spsolve


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def dinf_binary(p: float, delta: float) -> float:
    """Separation limit for a Bernoulli(p) bit over a BSC(delta) under
    Hamming loss: the D in [0, min(p, 1-p)] with h(D) = h(p) - C, found by
    bisection; 0 when the channel carries the whole source entropy."""
    q = min(p, 1.0 - p)
    target = binary_entropy(q) - (1.0 - binary_entropy(delta))
    if target <= 0.0:
        return 0.0
    lo, hi = 0.0, q
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def _bits(index: int, width: int) -> list[int]:
    """Digits of index in base 2, most significant first."""
    return [(index >> (width - 1 - k)) & 1 for k in range(width)]


def feedback_chain(p: float, delta: float, d: int, m: int,
                   encoder, decoder) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrix and per-state loss of a binary feedback code.

    The state is (window of the current and d next source bits, last m
    channel outputs), window-major.  Each step a fresh bit u enters the
    window, the encoder's map for the state sends the bit that the new
    window's map entry names, the channel flips it with probability
    delta, the decoder answers from (output, memory) and is charged
    against the first bit of the new window, and the memory shifts the
    output in.
    """
    width = d + 1
    n_v, n_z = 2 ** width, 2 ** m
    n_s = n_v * n_z
    enc = np.asarray(encoder, dtype=int).reshape(n_s)
    dec = np.asarray(decoder, dtype=int).reshape(2, n_z)
    src = (1.0 - p, p)
    chan = ((1.0 - delta, delta), (delta, 1.0 - delta))
    trans = np.zeros((n_s, n_s))
    loss = np.zeros(n_s)
    for v in range(n_v):
        for z in range(n_z):
            s = v * n_z + z
            amap = _bits(int(enc[s]), n_v)
            for u in (0, 1):
                vt = (v % 2 ** (width - 1)) * 2 + u
                x = amap[vt]
                first = _bits(vt, width)[0]
                for y in (0, 1):
                    pr = src[u] * chan[x][y]
                    zt = (z % 2 ** (m - 1)) * 2 + y if m > 0 else 0
                    trans[s, vt * n_z + zt] += pr
                    loss[s] += pr * (first != dec[y, z])
    return trans, loss


def class_gains(trans, reward) -> list[float]:
    """Average reward of every closed recurrent class of a finite chain,
    each from a direct sparse solve of its stationary equations."""
    trans = csr_matrix(trans)
    reward = np.asarray(reward, dtype=float)
    n_comp, labels = connected_components(trans, directed=True,
                                          connection="strong")
    rows, cols = trans.nonzero()
    leaks = np.zeros(n_comp, dtype=bool)
    leaks[labels[rows][labels[rows] != labels[cols]]] = True
    gains = []
    for c in np.flatnonzero(~leaks):
        members = np.flatnonzero(labels == c)
        k = members.size
        sub = trans[members][:, members].T.tolil()
        sub.setdiag(sub.diagonal() - 1.0)
        sub[k - 1, :] = np.ones(k)
        rhs = np.zeros(k)
        rhs[-1] = 1.0
        mu = np.atleast_1d(spsolve(sub.tocsc(), rhs))
        gains.append(float(mu @ reward[members]))
    return gains


def policy_chain(next_states, next_probs, rewards, policy):
    """Sparse chain and reward of a fixed policy on a successor-list MDP
    given as plain arrays (S, A, K) and (S, A)."""
    ns = np.asarray(next_states)
    pr = np.asarray(next_probs)
    pol = np.asarray(policy, dtype=int)
    n = ns.shape[0]
    idx = np.arange(n)
    trans = csr_matrix((pr[idx, pol].ravel(),
                        (np.repeat(idx, ns.shape[2]), ns[idx, pol].ravel())),
                       shape=(n, n))
    return trans, np.asarray(rewards)[idx, pol]


def compositions(dim: int, resolution: int) -> np.ndarray:
    """All points of the simplex with denominator resolution, as
    probabilities, in lexicographic order of their count vectors."""
    out = []
    for counts in itertools.product(range(resolution + 1), repeat=dim):
        if sum(counts) == resolution:
            out.append(counts)
    return np.asarray(out, dtype=float) / resolution


def tuple_kernel(p: float, d: int) -> np.ndarray:
    """Sliding-window chain over the (d+1)-bit windows of a Bernoulli(p)
    source, windows indexed with the oldest bit most significant."""
    width = d + 1
    n_v = 2 ** width
    kern = np.zeros((n_v, n_v))
    for v in range(n_v):
        for u, pu in ((0, 1.0 - p), (1, p)):
            kern[v, (v % 2 ** (width - 1)) * 2 + u] += pu
    return kern


def posteriors(beliefs, kern, delta, amap_index, y) -> np.ndarray:
    """Decoder posteriors over windows, one row per prior belief, after a
    binary output y sent by encoder map amap_index through a BSC(delta);
    rows where y cannot occur keep the predicted law."""
    n_v = kern.shape[0]
    pred = np.asarray(beliefs) @ kern
    x = np.asarray(_bits(int(amap_index), n_v))
    num = pred * np.where(x == y, 1.0 - delta, delta)[None, :]
    total = num.sum(axis=1, keepdims=True)
    return np.where(total > 0.0, num / np.where(total > 0.0, total, 1.0),
                    pred)


def nearest_mask(points: np.ndarray, targets: np.ndarray,
                 tie_tol: float = 1e-12) -> np.ndarray:
    """mask[t, g]: point g is L1-nearest to target t, within tie_tol."""
    dist = np.abs(targets[:, None, :] - points[None, :, :]).sum(axis=2)
    return dist <= dist.min(axis=1, keepdims=True) + tie_tol


def occupation_lp(trans: np.ndarray, loss: np.ndarray, cost: np.ndarray,
                  budget: float):
    """Minimum average loss over randomized stationary policies of a
    constrained chain, by the occupation-measure linear program.

    trans has shape (S, A, S); loss and cost have shape (S, A).  Returns
    the optimum, or None when no policy meets the budget.
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
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"linear program ended with status {res.status}: "
                           f"{res.message}")
    return float(res.fun)


def vending_chain(source, kernel_rows, costs, distortion, decoder, av_map):
    """Constrained chain of a lookahead-0 vending code with no decoder
    memory, for one (decoder, actuator) pair.

    The state is the last source symbol, which the next step ignores; an
    action is an encoder map from the fresh symbol to a channel input.
    The decoder sees the input noiselessly and a side observation drawn
    given the symbol and the paid action the actuator map picks.
    Returns (trans, loss, cost) with shapes (S, A, S), (S, A), (S, A).
    """
    p = np.asarray(source, dtype=float)
    n_u = p.size
    av = np.asarray(av_map, dtype=int)
    n_x = av.size
    n_act = len(costs)
    rows = np.asarray(kernel_rows, dtype=float).reshape(n_u, n_act, -1)
    n_y = rows.shape[2]
    dec = np.asarray(decoder, dtype=int).reshape(n_x, n_y)
    dist = np.asarray(distortion, dtype=float)
    maps = list(itertools.product(range(n_x), repeat=n_u))
    n_a = len(maps)
    loss = np.zeros((n_u, n_a))
    cost = np.zeros((n_u, n_a))
    for a, amap in enumerate(maps):
        lsum = csum = 0.0
        for u in range(n_u):
            x = amap[u]
            act = av[x]
            csum += p[u] * costs[act]
            lsum += p[u] * sum(rows[u, act, y] * dist[u, dec[x, y]]
                               for y in range(n_y))
        loss[:, a] = lsum
        cost[:, a] = csum
    trans = np.broadcast_to(p, (n_u, n_a, n_u)).copy()
    return trans, loss, cost
