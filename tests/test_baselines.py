"""Symbol-map baselines, capacity limit, and the optimality grid check."""
import numpy as np
import pytest

from rtcode import (
    ProblemSpec,
    ProbVector,
    SpecValidationError,
    StochasticMatrix,
    binary_problem,
    bsc,
    d0_distortion,
    hamming,
    shannon_limit,
    simplex_grid,
    suboptimality_region,
    symbol_by_symbol_check,
    uncoded_condition_check,
)
from rtcode.baselines import _h_vector, binary_shannon_closed_form
from rtcode.lookahead import build_markov_kernel


def test_d0_binary_equals_min_of_bias_and_crossover():
    for p in (0.0, 0.1, 0.25, 0.4, 0.5):
        for delta in (0.0, 0.1, 0.25, 0.4, 0.5):
            value, _ = d0_distortion(binary_problem(p, delta))
            assert value == pytest.approx(min(p, delta), abs=1e-12)


def test_d0_ties_keep_lexicographically_smallest_map():
    value, policy = d0_distortion(binary_problem(0.5, 0.3))
    assert value == pytest.approx(0.3, abs=1e-12)
    assert policy.table == (0, 1)


def _score_map(spec, table):
    """Bayes-decoder score of one symbol map, by explicit cell loops."""
    p_u = np.asarray(spec.source.p)
    w = np.asarray(spec.channel.rows)
    loss = np.asarray(spec.distortion.loss)
    total = 0.0
    for y in range(spec.num_channel_outputs):
        num = np.array([p_u[u] * w[table[u], y]
                        for u in range(spec.num_source_symbols)])
        total += min(num @ loss[:, c] for c in range(loss.shape[1]))
    return total


def test_d0_policy_achieves_reported_value():
    rng = np.random.default_rng(61)
    for _ in range(15):
        n_u = int(rng.integers(2, 4))
        raw = rng.random((n_u, 2)) + 1e-3
        spec = ProblemSpec(
            source=ProbVector.make(rng.dirichlet(np.ones(n_u))),
            channel=StochasticMatrix.make(raw / raw.sum(axis=1,
                                                        keepdims=True)),
            distortion=hamming(n_u),
        )
        value, policy = d0_distortion(spec)
        assert _score_map(spec, policy.table) == pytest.approx(value,
                                                               abs=1e-12)
        # no other map does better
        for t in range(2 ** n_u):
            table = [(t >> (n_u - 1 - u)) & 1 for u in range(n_u)]
            assert _score_map(spec, table) >= value - 1e-12


def test_shannon_limit_matches_closed_form_binary():
    for p in (0.0, 0.1, 0.25, 0.4, 0.5):
        for delta in (0.0, 0.1, 0.25, 0.4, 0.5):
            lim = shannon_limit(binary_problem(p, delta))
            closed = binary_shannon_closed_form(p, delta)
            assert lim == pytest.approx(closed, abs=1e-6), (p, delta)


def test_shannon_closed_form_validates_ranges():
    with pytest.raises(SpecValidationError):
        binary_shannon_closed_form(0.6, 0.1)
    with pytest.raises(SpecValidationError):
        binary_shannon_closed_form(0.3, -0.1)


def test_shannon_limit_below_symbol_map_ternary():
    spec = ProblemSpec(
        source=ProbVector.make([0.5, 0.3, 0.2]),
        channel=bsc(0.1),
        distortion=hamming(3),
    )
    lim = shannon_limit(spec)
    d0, _ = d0_distortion(spec)
    assert 0.0 <= lim <= d0 + 1e-9


def _h_oracle(tup, belief, spec, d, table):
    """Re-summation of the symbol-policy relative value with plain loops."""
    kernel = build_markov_kernel(spec.source, d)
    codec = kernel.codec
    n_u = spec.num_source_symbols
    w = np.asarray(spec.channel.rows)
    loss = np.asarray(spec.distortion.loss)
    marg = np.zeros((d + 1, n_u))
    for v in range(codec.size):
        for k in range(1, d + 2):
            marg[k - 1, codec.component(v, k)] += belief[v]
    value = -min(marg[0] @ loss[:, c] for c in range(loss.shape[1]))
    for k in range(1, d + 1):
        x = table[int(tup[k])]
        for y in range(w.shape[1]):
            num = np.array([marg[k, u] * w[table[u], y] for u in range(n_u)])
            tot = num.sum()
            if tot > 0.0:
                env_y = min(num @ loss[:, c]
                            for c in range(loss.shape[1])) / tot
                value -= w[x, y] * env_y
    return value


def test_h_closed_form_matches_resummation():
    # the certificate's own h function, at every tuple
    rng = np.random.default_rng(62)
    for _ in range(25):
        n_u = int(rng.integers(2, 4))
        d = int(rng.integers(1, 3)) if n_u == 2 else 1
        raw = rng.random((n_u, 2)) + 1e-3
        spec = ProblemSpec(
            source=ProbVector.make(rng.dirichlet(np.ones(n_u))),
            channel=StochasticMatrix.make(raw / raw.sum(axis=1,
                                                        keepdims=True)),
            distortion=hamming(n_u),
        )
        table = rng.integers(0, 2, size=n_u)
        belief = rng.dirichlet(np.ones(n_u ** (d + 1)))
        comp = build_markov_kernel(spec.source, d).codec.components_table()
        got = _h_vector(belief, comp, table, np.asarray(spec.channel.rows),
                        np.asarray(spec.distortion.loss))
        for v, tup in enumerate(comp):
            assert got[v] == pytest.approx(
                _h_oracle(tup, belief, spec, d, table), abs=1e-12)


def test_symbol_check_holds_for_useless_channel():
    rep = symbol_by_symbol_check(binary_problem(0.3, 0.5), 1,
                                 simplex_grid(4, 6))
    assert rep.holds_on_grid
    assert rep.first_violation is None
    assert rep.max_identity_gap < 1e-9
    assert rep.points_checked == simplex_grid(4, 6).size * 4


def test_symbol_check_holds_for_noiseless_channel():
    rep = symbol_by_symbol_check(binary_problem(0.3, 0.0), 1,
                                 simplex_grid(4, 6))
    assert rep.holds_on_grid
    assert rep.max_identity_gap < 1e-9


def test_symbol_check_flags_known_beatable_point():
    rep = symbol_by_symbol_check(binary_problem(0.3, 0.3), 1,
                                 simplex_grid(4, 10))
    assert not rep.holds_on_grid
    tup, belief, gap = rep.first_violation
    assert len(tup) == 2 and len(belief) == 4
    assert gap > 1e-9
    assert rep.max_gap >= gap
    # the policy must still satisfy its own equation everywhere
    assert rep.max_identity_gap < 1e-9


def test_uncoded_check_needs_enough_inputs():
    spec = ProblemSpec(
        source=ProbVector.make([0.5, 0.3, 0.2]),
        channel=bsc(0.1),
        distortion=hamming(3),
    )
    with pytest.raises(SpecValidationError):
        uncoded_condition_check(spec, 1, simplex_grid(9, 2))


def test_uncoded_check_agrees_when_identity_is_best():
    spec = binary_problem(0.3, 0.1)
    grid = simplex_grid(4, 4)
    best = symbol_by_symbol_check(spec, 1, grid)
    pinned = uncoded_condition_check(spec, 1, grid)
    assert best.policy.table == (0, 1) == pinned.policy.table
    assert best.holds_on_grid == pinned.holds_on_grid
    assert best.max_gap == pytest.approx(pinned.max_gap, abs=1e-15)


def test_region_small_grid_flags_known_point():
    grid = [0.2, 0.3, 0.4]
    rep = suboptimality_region(1, 1, grid, grid, workers=1)
    assert rep.errors == ()
    for i, p in enumerate(grid):
        for j, delta in enumerate(grid):
            assert rep.d0[i, j] == pytest.approx(min(p, delta), abs=1e-12)
            assert rep.ddm[i, j] <= rep.d0[i, j] + 1e-9
    assert rep.flags[1, 1]
    np.testing.assert_array_equal(
        rep.flags, rep.ddm < rep.d0 - rep.margin)


def test_region_boundary_lines_stay_empty():
    grid = [0.0, 0.3, 0.5]
    rep = suboptimality_region(1, 1, grid, grid, workers=1)
    assert rep.errors == ()
    assert not rep.flags[0].any()
    assert not rep.flags[:, 0].any()
    assert not rep.flags[2].any()
    assert not rep.flags[:, 2].any()
    assert rep.flags[1, 1]


def test_region_workers_do_not_change_values():
    grid = [0.25, 0.35]
    serial = suboptimality_region(1, 1, grid, grid, workers=1)
    parallel = suboptimality_region(1, 1, grid, grid, workers=2)
    np.testing.assert_array_equal(serial.d0, parallel.d0)
    np.testing.assert_array_equal(serial.ddm, parallel.ddm)
    np.testing.assert_array_equal(serial.flags, parallel.flags)


def test_region_records_solver_failures():
    rep = suboptimality_region(1, 5, [0.3], [0.3], workers=1)
    assert len(rep.errors) == 1
    i, j, msg = rep.errors[0]
    assert (i, j) == (0, 0)
    assert "CapacityError" in msg
    assert np.isnan(rep.ddm[0, 0])
    assert not rep.flags[0, 0]
