"""Entropy, channel capacity, and rate-distortion primitives, in bits.

Capacity and the rate-distortion curve are computed by the classical
alternating-optimization schemes.  Both return bracketed estimates whose
width is controlled by the tolerance argument, so callers can reason
about the precision of downstream comparisons.
"""
from __future__ import annotations

import numpy as np

from .errors import NonConvergenceError
from .models import DistortionMatrix, ProbVector, StochasticMatrix

_LN2 = np.log(2.0)


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def channel_capacity(channel: StochasticMatrix, tol: float = 1e-10,
                     max_iter: int = 10**5) -> tuple[float, np.ndarray]:
    """Capacity in bits per use and a maximizing input law.

    Alternates the input-law update with the standard mutual-information
    bracket; stops when the bracket is narrower than tol and returns its
    midpoint.
    """
    w = np.asarray(channel.rows, dtype=float)
    n_in = w.shape[0]
    p = np.full(n_in, 1.0 / n_in)
    logw = np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), 0.0)
    for _ in range(int(max_iter)):
        q = p @ w
        logq = np.where(q > 0, np.log(np.where(q > 0, q, 1.0)), 0.0)
        kl = (w * (logw - logq[None, :])).sum(axis=1) / _LN2
        lower = float(p @ kl)
        upper = float(kl.max())
        if upper - lower < tol:
            return (upper + lower) / 2.0, p
        p = p * np.exp(kl * _LN2)
        p = p / p.sum()
    raise NonConvergenceError(
        f"capacity iteration did not reach tolerance {tol:.1e}"
    )


def rate_distortion_point(source: ProbVector, distortion: DistortionMatrix,
                          slope: float, q0: np.ndarray | None = None,
                          tol: float = 1e-13, max_iter: int = 10**5):
    """One point of the rate-distortion curve at a given tradeoff slope.

    Larger slopes penalize distortion harder, sweeping the curve from the
    zero-rate end toward zero distortion.  Returns (rate_bits, distortion,
    reproduction_law); pass the returned law back as q0 to warm-start a
    neighboring slope.
    """
    p = np.asarray(source.p, dtype=float)
    loss = np.asarray(distortion.loss, dtype=float)
    n_rec = loss.shape[1]
    live = p > 0
    q = (np.full(n_rec, 1.0 / n_rec) if q0 is None
         else np.asarray(q0, dtype=float).copy())
    weights = np.exp(-slope * loss)
    cond = np.zeros_like(loss)
    step_prev = np.inf
    ext_step = np.inf
    ext_ok = True
    for it in range(int(max_iter)):
        scores = q[None, :] * weights
        denom = scores.sum(axis=1, keepdims=True)
        cond[live] = scores[live] / denom[live]
        q_new = p @ cond
        diff = q_new - q
        step = float(np.abs(diff).max())
        if step < tol:
            q = q_new
            break
        q = q_new
        # The plain iteration contracts linearly and can be arbitrarily
        # slow near support boundaries.  Every few steps, jump along the
        # current error direction by its estimated geometric tail; the
        # floor keeps the iterate in the simplex without killing support,
        # and extrapolation switches off if a cycle makes no net progress.
        if ext_ok and (it & 7) == 7:
            if step >= ext_step:
                ext_ok = False
            else:
                ext_step = step
                rho = step / step_prev
                if 0.0 < rho < 1.0:
                    q = np.maximum(q + diff * (rho / (1.0 - rho)),
                                   q_new * 1e-3)
                    q = q / q.sum()
        step_prev = step
    else:
        raise NonConvergenceError(
            f"rate-distortion iteration did not reach tolerance {tol:.1e}"
        )
    scores = q[None, :] * weights
    denom = scores.sum(axis=1, keepdims=True)
    cond[live] = scores[live] / denom[live]
    d_val = float((p[:, None] * cond * loss).sum())
    ratio = np.zeros_like(cond)
    mask = cond > 0
    qb = np.broadcast_to(q[None, :], cond.shape)
    ratio[mask] = np.log2(cond[mask] / qb[mask])
    r_val = float((p[:, None] * cond * ratio).sum())
    return max(r_val, 0.0), d_val, q


def zero_rate_distortion(source: ProbVector, distortion: DistortionMatrix) -> float:
    """Best constant-reconstruction loss, the zero-rate end of the curve."""
    p = np.asarray(source.p, dtype=float)
    return float((p @ np.asarray(distortion.loss)).min())
