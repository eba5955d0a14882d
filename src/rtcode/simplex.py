"""Regular grids on the probability simplex with nearest-point projection."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .errors import SpecValidationError
from .models import SIMPLEX_TOL, _check_capacity

# Grid points whose L1 distances to a belief differ by at most this tie.
_TIE_L1 = 1e-12


@dataclass(frozen=True)
class SimplexGrid:
    """All distributions with denominators resolution over dim atoms.

    Points are stored in lexicographic order of their composition
    vectors, so a point's index is its composition's lexicographic rank.
    """

    dim: int
    resolution: int
    points: np.ndarray

    @property
    def size(self) -> int:
        return self.points.shape[0]


def simplex_grid(dim: int, resolution: int) -> SimplexGrid:
    """Grid of compositions of resolution into dim nonnegative parts."""
    if dim < 1:
        raise SpecValidationError([f"simplex dimension {dim} must be at least 1"])
    if resolution < 1:
        raise SpecValidationError([f"resolution {resolution} must be at least 1"])
    size = comb(resolution + dim - 1, dim - 1)
    _check_capacity("simplex grid", size, "reduce the grid resolution")
    slots = resolution + dim - 1
    counts = np.empty((size, dim), dtype=np.int64)
    for i, dividers in enumerate(combinations(range(slots), dim - 1)):
        prev = -1
        for j, cut in enumerate(dividers):
            counts[i, j] = cut - prev - 1
            prev = cut
        counts[i, dim - 1] = slots - prev - 1
    return SimplexGrid(dim, resolution, counts / float(resolution))


def project(grid: SimplexGrid, beliefs):
    """Index of the L1-nearest grid point to a (dim,) belief, or the
    indices for a (..., dim) batch of them.

    resolution * belief is rounded by largest remainder: after flooring,
    the missing units go to the largest remainders, which is exact as the
    L1 cost is separable and convex in the counts.  Remainders within an
    L1 gap of _TIE_L1 of the cut tie, and the tied units go to the later
    coordinates: of the tied nearest points, the lexicographically
    smallest composition.
    """
    b = np.asarray(beliefs, dtype=float)
    if b.ndim == 0 or b.shape[-1] != grid.dim:
        raise SpecValidationError(
            [f"belief has shape {b.shape}, expected (..., {grid.dim})"])
    if not ((b >= 0.0).all()
            and (np.abs(b.sum(axis=-1) - 1.0) <= SIMPLEX_TOL).all()):
        raise SpecValidationError(["beliefs must be probability vectors"])
    r, dim = grid.resolution, grid.dim
    scaled = b * r
    counts = np.floor(scaled)
    rem = scaled - counts
    short = r - counts.sum(axis=-1, keepdims=True)         # 0..dim units
    cut = np.take_along_axis(-np.sort(-rem, axis=-1),
                             np.maximum(short - 1, 0).astype(int), axis=-1)
    tol = r * _TIE_L1 / 2   # remainders e apart trade L1 distance 2e / r
    above = rem > cut + tol
    tied = np.abs(rem - cut) <= tol
    tied_on = np.cumsum(tied[..., ::-1], axis=-1)[..., ::-1]
    counts += above | tied & (tied_on
                              <= short - above.sum(axis=-1, keepdims=True))
    # tail[i, n]: compositions of n into the parts i..dim-1.  Those before
    # counts differ from it first at some part i, with a smaller count.
    c = counts.astype(np.int64)
    after = r - np.cumsum(c, axis=-1)
    tail = np.array([[comb(n + dim - 1 - i, dim - 1 - i)
                      for n in range(r + 1)] for i in range(dim)])
    parts = np.arange(dim)
    return (tail[parts, after + c] - tail[parts, after]).sum(axis=-1)
