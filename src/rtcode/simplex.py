"""Regular grids on the probability simplex with nearest-point projection."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .errors import SpecValidationError
from .models import _check_capacity


@dataclass(frozen=True)
class SimplexGrid:
    """All distributions with denominators resolution over dim atoms.

    Points are stored in lexicographic order of their composition
    vectors, which makes first-hit argmin searches reproducible.
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


def project(grid: SimplexGrid, belief) -> int:
    """Index of the L1-nearest grid point; ties pick the lexicographically
    smallest composition."""
    b = np.asarray(belief, dtype=float)
    if b.shape != (grid.dim,):
        raise SpecValidationError(
            [f"belief has shape {b.shape}, expected ({grid.dim},)"]
        )
    return int(np.argmin(np.abs(grid.points - b[None, :]).sum(axis=1)))
