"""Entropy, channel capacity, and rate-distortion primitives, in bits.

Capacity and the rate-distortion curve are computed by the classical
alternating-optimization schemes, each run to a fixed tolerance and
raising NonConvergenceError after MAX_SWEEPS updates.
"""
from __future__ import annotations

import numpy as np

from .errors import NonConvergenceError
from .models import DistortionMatrix, ProbVector, StochasticMatrix

_LN2 = np.log(2.0)
MAX_SWEEPS = 10**5
# capacity stops once its mutual-information bracket is this narrow, a
# rate-distortion point once its reproduction law moves less than this
_CAP_TOL = 1e-10
_RD_TOL = 1e-13


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def channel_capacity(channel: StochasticMatrix) -> tuple[float, np.ndarray]:
    """Capacity in bits per use and a maximizing input law.

    Alternates the input-law update with the standard mutual-information
    bracket; stops when the bracket is narrower than 1e-10 and returns
    its midpoint.
    """
    w = np.asarray(channel.rows, dtype=float)
    n_in = w.shape[0]
    p = np.full(n_in, 1.0 / n_in)
    logw = np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), 0.0)
    for _ in range(MAX_SWEEPS):
        q = p @ w
        logq = np.where(q > 0, np.log(np.where(q > 0, q, 1.0)), 0.0)
        kl = (w * (logw - logq[None, :])).sum(axis=1) / _LN2
        lower = float(p @ kl)
        upper = float(kl.max())
        if upper - lower < _CAP_TOL:
            return (upper + lower) / 2.0, p
        p = p * np.exp(kl * _LN2)
        p = p / p.sum()
    raise NonConvergenceError(
        f"capacity iteration did not reach tolerance {_CAP_TOL:.1e}"
    )


def rate_distortion_point(source: ProbVector, distortion: DistortionMatrix,
                          slope: float):
    """One point of the rate-distortion curve at a given tradeoff slope.

    Larger slopes penalize distortion harder, sweeping the curve from the
    zero-rate end toward zero distortion.  The iteration starts from the
    uniform reproduction law and stops once no entry of the law moves by
    1e-13.  Returns (rate_bits, distortion, reproduction_law).
    """
    p = np.asarray(source.p, dtype=float)
    loss = np.asarray(distortion.loss, dtype=float)
    n_rec = loss.shape[1]
    live = p > 0
    q = np.full(n_rec, 1.0 / n_rec)
    # each row's least loss cancels in scores / denom; taking it off keeps
    # a row without a zero loss from underflowing to 0 / 0 at large slopes
    weights = np.exp(-slope * (loss - loss.min(axis=1, keepdims=True)))
    cond = np.zeros_like(loss)
    step_prev = np.inf
    ext_step = np.inf
    ext_ok = True
    for it in range(MAX_SWEEPS):
        scores = q[None, :] * weights
        denom = scores.sum(axis=1, keepdims=True)
        cond[live] = scores[live] / denom[live]
        q_new = p @ cond
        diff = q_new - q
        step = float(np.abs(diff).max())
        if step < _RD_TOL:
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
            f"rate-distortion iteration did not reach tolerance "
            f"{_RD_TOL:.1e}"
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
