"""Tuple codec, the sliding-window source chain, map enumeration."""
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rtcode import (
    CapacityError,
    SpecValidationError,
    bernoulli_source,
    binary_problem,
    d0_distortion,
    memory_last_m,
    solve_feedback_complete,
    solve_feedback_finite,
    solve_vending_feedback,
    spec_from_dict,
)
from rtcode import scenarios
from rtcode.lookahead import TupleCodec, _enumerate_maps, build_markov_kernel
from conftest import all_maps


def test_kernel_depth_zero_is_iid():
    kernel = build_markov_kernel(bernoulli_source(0.3), 0)
    np.testing.assert_allclose(kernel.matrix, [[0.7, 0.3], [0.7, 0.3]])


def test_kernel_depth_one_shifts_window():
    kernel = build_markov_kernel(bernoulli_source(0.3), 1)
    codec = kernel.codec
    # from (0,1) the window can only move to (1, new symbol)
    row = kernel.matrix[codec.encode((0, 1))]
    assert row[codec.encode((1, 0))] == pytest.approx(0.7)
    assert row[codec.encode((1, 1))] == pytest.approx(0.3)
    assert row[codec.encode((0, 0))] == 0.0
    assert row[codec.encode((0, 1))] == 0.0


@given(st.floats(0.05, 0.95), st.integers(0, 2))
def test_product_measure_is_stationary(p, d):
    kernel = build_markov_kernel(bernoulli_source(p), d)
    comps = kernel.codec.components_table()
    pi = np.prod(np.asarray(kernel.source.p)[comps], axis=1)
    np.testing.assert_allclose(pi @ kernel.matrix, pi, atol=1e-12)
    assert pi.sum() == pytest.approx(1.0)


@given(st.integers(2, 4), st.integers(1, 4), st.data())
def test_codec_bijection(base, width, data):
    codec = TupleCodec(base, width)
    idx = data.draw(st.integers(0, codec.size - 1))
    assert codec.encode(codec.decode(idx)) == idx
    tup = tuple(data.draw(st.integers(0, base - 1)) for _ in range(width))
    assert codec.decode(codec.encode(tup)) == tup


def test_codec_first_symbol_most_significant():
    codec = TupleCodec(2, 3)
    assert codec.encode((1, 0, 0)) == 4
    assert codec.decode(3) == (0, 1, 1)


def test_codec_shift_drops_oldest_symbol():
    codec = TupleCodec(2, 2)
    assert codec.shift(codec.encode((0, 1)), 0) == codec.encode((1, 0))
    assert codec.shift(codec.encode((1, 1)), 1) == codec.encode((1, 1))


def test_codec_component_is_one_based():
    codec = TupleCodec(3, 2)
    idx = codec.encode((2, 1))
    assert codec.component(idx, 1) == 2
    assert codec.component(idx, 2) == 1
    with pytest.raises(ValueError):
        codec.component(idx, 0)


def test_codec_tables_match_scalar_ops():
    codec = TupleCodec(2, 3)
    comps = codec.components_table()
    shifts = codec.shift_table()
    for v in range(codec.size):
        assert tuple(comps[v]) == codec.decode(v)
        for u in range(2):
            assert shifts[v, u] == codec.shift(v, u)


def test_kernel_rejects_negative_lookahead():
    with pytest.raises(SpecValidationError):
        build_markov_kernel(bernoulli_source(0.3), -1)


def test_kernel_capacity_guard(monkeypatch):
    monkeypatch.setenv("RTC_MAX_STATES", "8")
    with pytest.raises(CapacityError) as err:
        build_markov_kernel(bernoulli_source(0.3), 4)
    assert err.value.count == 32
    assert err.value.limit == 8


# Two channel inputs, one output, three vending actions: nine actuator
# maps against four decoder tables, so the actuator cap binds first.
WIDE_ACTUATOR = {
    "source": [0.5, 0.5],
    "channel": [[1.0], [1.0]],
    "distortion": [[0.0, 1.0], [1.0, 0.0]],
    "vending": {"kernel": [[1.0]] * 6, "costs": [0.0, 1.0, 2.0],
                "budget": 1.0},
}

# Each caller's CapacityError label and hint, one (domain, values) shape
# of the enumeration it asks for, the cap that binds it lowered to a
# limit, and a call that trips that limit.
CAPPED = {
    "encoder": ("encoder action set", "reduce the lookahead depth", (8, 2),
                "RTC_MAX_STATES", 100,
                lambda: solve_feedback_complete(
                    binary_problem(0.3, 0.3), 2, 1)),
    "decoder": ("decoder enumeration", "reduce the decoder memory size m",
                (4, 3), "DEFAULT_DECODER_CAP", 100,
                lambda: solve_feedback_finite(
                    binary_problem(0.3, 0.3), 1, memory_last_m(2, 2))),
    "actuator": ("actuator enumeration", "reduce the channel input alphabet",
                 (2, 3), "DEFAULT_DECODER_CAP", 5,
                 lambda: solve_vending_feedback(
                     spec_from_dict(WIDE_ACTUATOR), 0, memory_last_m(0, 2),
                     memory_last_m(0, 1))),
    "symbol": ("symbol-map enumeration", "reduce the source or input alphabet",
               (3, 2), "RTC_MAX_STATES", 3,
               lambda: d0_distortion(binary_problem(0.3, 0.3))),
}


@pytest.mark.parametrize("caller", sorted(CAPPED))
def test_map_enumeration_and_caps(caller, monkeypatch):
    what, hint, (domain, values), cap, limit, trip = CAPPED[caller]
    np.testing.assert_array_equal(
        _enumerate_maps(domain, values, None, what, hint),
        all_maps(domain, values))
    if cap == "RTC_MAX_STATES":
        monkeypatch.setenv(cap, str(limit))
    else:
        monkeypatch.setattr(scenarios, cap, limit)
    with pytest.raises(CapacityError,
                       match=re.escape(what) + r" needs .*\(" + re.escape(hint)
                       ) as err:
        trip()
    assert err.value.limit == limit
