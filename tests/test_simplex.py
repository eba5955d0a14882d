"""Belief grids and nearest-point projection."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rtcode import CapacityError, simplex_grid
from rtcode.simplex import project
from conftest import random_belief


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


def test_projection_fixes_grid_points():
    grid = simplex_grid(3, 4)
    for idx in range(grid.size):
        assert project(grid, np.asarray(grid.points)[idx]) == idx


def test_projection_tie_takes_first_index():
    grid = simplex_grid(2, 1)   # {(0,1), (1,0)}
    assert project(grid, [0.5, 0.5]) == 0


def test_projection_picks_l1_nearest():
    grid = simplex_grid(2, 4)
    rng = np.random.default_rng(17)
    pts = np.asarray(grid.points)
    for _ in range(50):
        beta = random_belief(rng, 2)
        idx = project(grid, beta)
        dists = np.abs(pts - beta).sum(axis=1)
        assert dists[idx] == pytest.approx(dists.min())


def test_grid_dim1_is_single_point():
    grid = simplex_grid(1, 5)
    assert grid.size == 1
    np.testing.assert_allclose(grid.points, [[1.0]])


def test_grid_capacity_guard(monkeypatch):
    monkeypatch.setenv("RTC_MAX_STATES", "1000")
    with pytest.raises(CapacityError):
        simplex_grid(4, 200)
