"""Capacity, rate-distortion, and entropy helpers."""
import warnings

import numpy as np
import pytest

from rtcode import (DistortionMatrix, ProbVector, bernoulli_source, bsc,
                    hamming)
from rtcode.infotheory import (
    binary_entropy,
    channel_capacity,
    rate_distortion_point,
    zero_rate_distortion,
)


def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0)
    assert binary_entropy(0.11) == pytest.approx(0.4999, abs=5e-4)


@pytest.mark.parametrize("delta", [0.0, 0.1, 0.25, 0.4, 0.5])
def test_bsc_capacity_closed_form(delta):
    cap, prior = channel_capacity(bsc(delta))
    assert cap == pytest.approx(1.0 - binary_entropy(delta), abs=1e-9)
    np.testing.assert_allclose(prior, [0.5, 0.5], atol=1e-6)


def test_capacity_of_noiseless_channel():
    cap, _ = channel_capacity(bsc(0.0))
    assert cap == pytest.approx(1.0, abs=1e-9)


def test_rate_distortion_on_binary_hamming_curve():
    # R(D) = h(p) - h(D) for D below min(p, 1-p); sweep slopes and
    # verify every returned point sits on the closed-form curve
    source = bernoulli_source(0.3)
    dist = hamming(2)
    for slope in (0.25, 0.5, 1.0, 2.0, 4.0):
        rate, d_val, _ = rate_distortion_point(source, dist, slope)
        if rate > 1e-9 and d_val > 1e-12:
            expected = binary_entropy(0.3) - binary_entropy(d_val)
            assert rate == pytest.approx(expected, abs=1e-9)


def test_rate_distortion_tradeoff_moves_with_slope():
    # steeper slope buys rate with distortion: rate up, distortion down
    source = bernoulli_source(0.3)
    dist = hamming(2)
    points = [rate_distortion_point(source, dist, s)[:2]
              for s in (0.1, 0.5, 1.0, 3.0, 8.0)]
    rates = [r for r, _ in points]
    dists = [d for _, d in points]
    assert all(r2 >= r1 - 1e-12 for r1, r2 in zip(rates, rates[1:]))
    assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(dists, dists[1:]))


def test_zero_rate_distortion_is_best_constant_guess():
    assert zero_rate_distortion(bernoulli_source(0.3), hamming(2)) \
        == pytest.approx(0.3)
    assert zero_rate_distortion(bernoulli_source(0.5), hamming(2)) \
        == pytest.approx(0.5)
    from rtcode import DistortionMatrix
    loss = DistortionMatrix.make([[0.0, 3.0], [1.0, 0.0]])
    # guessing 1 costs 0.9*3; guessing 0 costs 0.1*1
    assert zero_rate_distortion(bernoulli_source(0.1), loss) \
        == pytest.approx(0.1)


@pytest.mark.parametrize("slope", [500.0, 800.0, 2000.0])
def test_rate_distortion_point_at_large_slope_without_zero_loss(slope):
    # no loss row has a zero entry, so exp(-slope * loss) underflows in
    # every row: the point must still come out of the iteration without
    # a 0 / 0, with each symbol sent to its least-loss reconstruction
    source = ProbVector.make([0.5, 0.3, 0.2])
    dist = DistortionMatrix.make([[1.0, 2.0], [3.0, 1.5], [2.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rate, d_val, _ = rate_distortion_point(source, dist, slope)
    assert d_val == pytest.approx(1.15, abs=1e-9)
    assert rate == pytest.approx(1.0, abs=1e-9)
