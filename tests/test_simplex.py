"""Belief grids and nearest-point projection."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rtcode import CapacityError, SpecValidationError, simplex_grid
from rtcode.simplex import project
from conftest import nearest, random_belief


def test_grid_dim2_resolution2():
    grid = simplex_grid(2, 2)
    np.testing.assert_allclose(
        grid.points, [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]
    )


def test_grid_points_are_sorted_lexicographically():
    grid = simplex_grid(3, 3)
    pts = [tuple(r) for r in np.asarray(grid.points)]
    assert pts == sorted(pts)


@given(st.integers(1, 4), st.integers(1, 6))
def test_grid_size_is_compositions_count(dim, r):
    grid = simplex_grid(dim, r)
    assert grid.size == math.comb(r + dim - 1, dim - 1)
    pts = np.asarray(grid.points)
    np.testing.assert_allclose(pts.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(pts >= 0)


# dim 1, resolution 1, eight atoms, and the 12,341 points of a
# complete-memory --grid 40 at d = 1
GRIDS = [(1, 1), (1, 5), (2, 1), (5, 1), (2, 4), (3, 4), (8, 3), (4, 40)]


def _check(grid, beliefs):
    """project agrees with the dense oracle on a batch and row by row, and
    every index names a grid point."""
    got = project(grid, beliefs)
    assert got.shape == beliefs.shape[:-1]
    assert np.issubdtype(got.dtype, np.integer)
    assert ((got >= 0) & (got < grid.size)).all()
    for part in range(0, len(beliefs), 25):     # oracle temporaries stay small
        np.testing.assert_array_equal(got[part:part + 25],
                                      nearest(grid, beliefs[part:part + 25]))
    for row, idx in zip(beliefs[:10], got):
        assert project(grid, row) == idx


def test_projection_fixes_grid_points():
    for dim, r in GRIDS:
        grid = simplex_grid(dim, r)
        np.testing.assert_array_equal(project(grid, grid.points),
                                      np.arange(grid.size))
        for idx in range(min(grid.size, 40)):
            assert project(grid, np.asarray(grid.points)[idx]) == idx


def test_projection_tie_takes_first_index():
    grid = simplex_grid(2, 1)   # {(0,1), (1,0)}
    assert project(grid, [0.5, 0.5]) == 0
    # the midpoint of two grid points is equally far from both
    rng = np.random.default_rng(11)
    for dim, r in GRIDS:
        grid = simplex_grid(dim, r)
        pairs = rng.integers(0, grid.size, size=(300, 2))
        _check(grid, (grid.points[pairs[:, 0]]
                      + grid.points[pairs[:, 1]]) / 2)


def test_projection_picks_l1_nearest():
    rng = np.random.default_rng(17)
    for dim, r in GRIDS:
        grid = simplex_grid(dim, r)
        _check(grid, np.array([random_belief(rng, dim) for _ in range(300)]))
        # pushforwards through a stochastic matrix sum to 1 within an ulp
        pushed = (rng.dirichlet(np.ones(dim), size=300)
                  @ rng.dirichlet(np.ones(dim), size=dim))
        assert dim == 1 or (pushed.sum(axis=1) != 1.0).any()
        _check(grid, pushed)
        # decimal beliefs k / 100, whose products with r may land an ulp
        # below an integer, as 0.29 * 100 = 28.999999999999996 does
        heads = rng.integers(0, 101, size=(3000, dim - 1)) / 100
        decimal = np.concatenate(
            [heads, 1.0 - heads.sum(axis=1, keepdims=True)], axis=1)
        _check(grid, decimal[decimal[:, -1] >= 0][:300])
        # grid points moved an ulp down, so every product lands just
        # below its count
        below = np.nextafter(grid.points[:300], 0.0)
        assert (below * r < np.round(grid.points[:300] * r)).any()
        _check(grid, below)


def test_projection_memory_does_not_grow_with_the_grid():
    grid = simplex_grid(4, 40)      # 12,341 points
    beliefs = np.random.default_rng(5).dirichlet(np.ones(4), size=1000)
    tracemalloc.start()
    try:
        project(grid, beliefs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_projection_rejects_what_is_not_a_belief():
    grid = simplex_grid(3, 4)
    for bad in ([0.5, 0.5], [[0.2, 0.3, 0.5]] * 2 + [[0.9, 0.9, 0.0]],
                [1.2, -0.2, 0.0], [np.nan, 0.5, 0.5], 1.0):
        with pytest.raises(SpecValidationError):
            project(grid, bad)


def test_grid_dim1_is_single_point():
    grid = simplex_grid(1, 5)
    assert grid.size == 1
    np.testing.assert_allclose(grid.points, [[1.0]])


def test_grid_capacity_guard(monkeypatch):
    monkeypatch.setenv("RTC_MAX_STATES", "1000")
    with pytest.raises(CapacityError):
        simplex_grid(4, 200)
