"""Symbol-map baselines, capacity limit, and the optimality grid check."""
import tracemalloc

import numpy as np
import pytest

from rtcode import (
    ProblemSpec,
    ProbVector,
    SpecValidationError,
    StochasticMatrix,
    UnreachableObservationError,
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
import rtcode.mdp as mdp_module
from rtcode.baselines import (SymbolPolicy, _grid_check, _h_vector,
                              binary_shannon_closed_form)
from rtcode.bayes import belief_update_feedback
from rtcode.lookahead import build_markov_kernel
from conftest import all_maps, random_spec


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


def _h_oracle(belief, spec, d, table):
    """Re-summation of the symbol-policy relative value with plain loops,
    one entry per tuple."""
    codec = build_markov_kernel(spec.source, d).codec
    n_u = spec.num_source_symbols
    w = np.asarray(spec.channel.rows)
    loss = np.asarray(spec.distortion.loss)
    marg = np.zeros((d + 1, n_u))
    for v in range(codec.size):
        for k in range(1, d + 2):
            marg[k - 1, codec.component(v, k)] += belief[v]
    env = np.zeros((d + 1, w.shape[1]))
    for k in range(1, d + 1):
        for y in range(w.shape[1]):
            num = np.array([marg[k, u] * w[table[u], y] for u in range(n_u)])
            tot = num.sum()
            if tot > 0.0:
                env[k, y] = min(num @ loss[:, c]
                                for c in range(loss.shape[1])) / tot
    first = -min(marg[0] @ loss[:, c] for c in range(loss.shape[1]))
    return np.array([first - sum(w[table[int(tup[k])], y] * env[k, y]
                                 for k in range(1, d + 1)
                                 for y in range(w.shape[1]))
                     for tup in codec.components_table()])


def test_h_closed_form_matches_resummation():
    # the certificate's own h function, at every tuple, for one belief
    # and for a batch of them
    rng = np.random.default_rng(62)
    for _ in range(25):
        n_u = int(rng.integers(2, 4))
        d = int(rng.integers(1, 3)) if n_u == 2 else 1
        spec = random_spec(rng, n_u)
        table = rng.integers(0, 2, size=n_u)
        beliefs = rng.dirichlet(np.ones(n_u ** (d + 1)), size=(2, 3))
        comp = build_markov_kernel(spec.source, d).codec.components_table()
        args = (comp, table, np.asarray(spec.channel.rows),
                np.asarray(spec.distortion.loss))
        expected = np.array([[_h_oracle(b, spec, d, table) for b in row]
                             for row in beliefs])
        np.testing.assert_allclose(_h_vector(beliefs[0, 0], *args),
                                   expected[0, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(_h_vector(beliefs, *args), expected,
                                   rtol=0, atol=1e-12)


def _scalar_check(spec, d, grid, table):
    """The certificate by the scalar path, one belief_update_feedback and
    one _h_oracle per (grid point, encoder map, output).  Returns the
    (G, V) gaps, the (G,) identity gaps, and the (grid point, tuple) index
    of the first violation, tuples first (None when the grid is clean)."""
    kernel = build_markov_kernel(spec.source, d)
    codec = kernel.codec
    n_v, n_u = codec.size, spec.num_source_symbols
    p_u = np.asarray(spec.source.p)
    w = np.asarray(spec.channel.rows)
    loss = np.asarray(spec.distortion.loss)
    maps = all_maps(n_v, spec.num_channel_inputs)
    shift = codec.shift_table()
    sym = [int(table[codec.component(v, 1)]) for v in range(n_v)]
    sym_row = next(a for a, m in enumerate(maps) if list(m) == sym)
    fresh = 0.0
    for y in range(w.shape[1]):
        num = p_u * w[table, y]
        if num.sum() > 0.0:
            fresh += (num @ loss).min()
    gaps = np.empty((grid.size, n_v))
    identity = np.empty(grid.size)
    for g, beta in enumerate(np.asarray(grid.points)):
        first = np.zeros(n_u)
        for v in range(n_v):
            first[codec.component(v, 1)] += beta[v]
        lhs = fresh - (first @ loss).min() - _h_oracle(beta, spec, d, table)
        rhs = np.zeros((maps.shape[0], n_v))
        for a, amap in enumerate(maps):
            for y in range(w.shape[1]):
                try:
                    post = belief_update_feedback(beta, kernel, spec.channel,
                                                  amap, y)
                except UnreachableObservationError:
                    continue
                h = _h_oracle(np.asarray(post.p), spec, d, table)
                rhs[a] -= (w[amap[shift], y] * h[shift]) @ p_u
        gaps[g] = lhs - rhs.min(axis=0)
        identity[g] = np.abs(lhs - rhs[sym_row]).max()
    for v in range(n_v):
        for g in range(grid.size):
            if gaps[g, v] > 1e-9:
                return gaps, identity, (g, v)
    return gaps, identity, None


def test_symbol_check_matches_scalar_reference():
    rng = np.random.default_rng(64)
    cases = [(binary_problem(0.3, 0.0), 1, 4),
             (binary_problem(0.2, 0.5), 1, 4),
             (binary_problem(0.3, 0.3), 2, 1)]
    for _ in range(5):
        cases.append((random_spec(rng, 2, n_x=int(rng.integers(2, 4)),
                                   n_y=int(rng.integers(2, 4)), zeros=0.3),
                      1, 3))
    cases.append((random_spec(rng, 2, zeros=0.3), 2, 1))
    cases.append((random_spec(rng, 3, n_y=3, zeros=0.3), 1, 1))
    violated = 0
    for spec, d, res in cases:
        grid = simplex_grid(spec.num_source_symbols ** (d + 1), res)
        table = rng.integers(0, spec.num_channel_inputs,
                             size=spec.num_source_symbols)
        rep = _grid_check(spec, d, grid, SymbolPolicy.make(table))
        gaps, identity, at = _scalar_check(spec, d, grid, table)
        tup = belief = None
        if at is not None:
            tup = tuple(int(s) for s in build_markov_kernel(
                spec.source, d).codec.components_table()[at[1]])
            belief = tuple(float(x) for x in grid.points[at[0]])
        assert rep.holds_on_grid == (tup is None)
        assert rep.max_gap == pytest.approx(gaps.max(), abs=1e-12)
        assert rep.max_identity_gap == pytest.approx(identity.max(),
                                                     abs=1e-12)
        if tup is not None:
            violated += 1
            assert rep.first_violation[:2] == (tup, belief)
            assert rep.first_violation[2] == pytest.approx(gaps[at],
                                                           abs=1e-12)
    assert 0 < violated < len(cases)


def test_symbol_check_chunks_stay_within_the_budget(monkeypatch):
    """With the gather budget lowered, the certificate's peak memory grows
    by at most the budget over a run that takes one grid point at a time,
    far below what the whole grid at once would take."""
    spec = binary_problem(0.3, 0.3)
    grid = simplex_grid(8, 3)
    policy = SymbolPolicy.make([0, 1])

    def peak(budget):
        monkeypatch.setattr(mdp_module, "GATHER_BUDGET_BYTES", budget)
        tracemalloc.start()
        try:
            rep = _grid_check(spec, 2, grid, policy)
            return tracemalloc.get_traced_memory()[1], rep
        finally:
            tracemalloc.stop()

    one, rep_one = peak(1)
    budget = 2**20
    chunked, rep = peak(budget)
    whole, rep_whole = peak(2**40)
    assert chunked <= one + budget
    assert whole > one + 10 * budget
    assert rep == rep_one == rep_whole


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
