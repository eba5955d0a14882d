"""Problem data containers and their validation."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from rtcode import (
    ActionCostVector,
    DistortionMatrix,
    ProbVector,
    SpecValidationError,
    StochasticMatrix,
    bernoulli_source,
    binary_problem,
    bsc,
    hamming,
    spec_from_dict,
    with_budget,
)
from rtcode.models import state_limit


def test_bernoulli_source_orders_mass():
    src = bernoulli_source(0.3)
    np.testing.assert_allclose(src.p, [0.7, 0.3])


def test_bernoulli_source_rejects_bad_probability():
    with pytest.raises(SpecValidationError):
        bernoulli_source(1.4)


def test_bsc_rows():
    ch = bsc(0.2)
    np.testing.assert_allclose(ch.rows, [[0.8, 0.2], [0.2, 0.8]])


@given(st.integers(min_value=1, max_value=8))
def test_hamming_zero_diagonal_unit_off_diagonal(n):
    loss = np.asarray(hamming(n).loss)
    assert loss.shape == (n, n)
    assert np.all(np.diag(loss) == 0.0)
    off = loss[~np.eye(n, dtype=bool)]
    assert np.all(off == 1.0)
    assert hamming(n).max_loss == (1.0 if n > 1 else 0.0)


def test_binary_problem_dimensions():
    spec = binary_problem(0.3, 0.2)
    assert spec.num_source_symbols == 2
    assert spec.num_channel_inputs == 2
    assert spec.num_channel_outputs == 2
    assert spec.num_reconstructions == 2
    assert spec.check() == []


def test_prob_vector_must_sum_to_one():
    with pytest.raises(SpecValidationError):
        ProbVector.make([0.5, 0.4])
    with pytest.raises(SpecValidationError):
        ProbVector.make([-0.1, 1.1])


def test_stochastic_matrix_rows_checked():
    with pytest.raises(SpecValidationError):
        StochasticMatrix.make([[0.5, 0.4], [0.5, 0.5]])


def test_distortion_rejects_negative_loss():
    with pytest.raises(SpecValidationError):
        DistortionMatrix.make([[0.0, -1.0], [1.0, 0.0]])


def test_action_costs_need_a_zero_cost_action():
    with pytest.raises(SpecValidationError):
        ActionCostVector.make([0.5, 1.0], budget=0.2)


def test_action_costs_budget_range():
    with pytest.raises(SpecValidationError):
        ActionCostVector.make([0.0, 1.0], budget=1.5)
    with pytest.raises(SpecValidationError):
        ActionCostVector.make([0.0, 1.0], budget=-0.1)


def _toy_dict():
    return {
        "source": [0.7, 0.3],
        "channel": [[0.5, 0.5]],
        "distortion": [[0.0, 1.0], [1.0, 0.0]],
        "vending": {
            "kernel": [[0.5, 0.5], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0]],
            "costs": [0.0, 1.0],
            "budget": 1.0,
        },
    }


def test_spec_from_dict_round_trip():
    spec = spec_from_dict(_toy_dict())
    np.testing.assert_allclose(spec.source.p, [0.7, 0.3])
    np.testing.assert_allclose(spec.channel.rows, [[0.5, 0.5]])
    assert spec.vending is not None
    assert spec.vending.num_actions == 2
    np.testing.assert_allclose(spec.vending.costs.cost, [0.0, 1.0])
    assert spec.vending.costs.budget == 1.0


def test_spec_from_dict_collects_all_problems():
    data = _toy_dict()
    data["source"] = [0.7, 0.2]
    data["distortion"] = [[0.0, -1.0], [1.0, 0.0]]
    with pytest.raises(SpecValidationError) as err:
        spec_from_dict(data)
    assert len(err.value.problems) >= 2


def test_spec_from_dict_requires_core_fields():
    with pytest.raises(SpecValidationError):
        spec_from_dict({"source": [1.0]})


def test_vending_kernel_shape_checked():
    data = _toy_dict()
    data["vending"]["kernel"] = [[0.5, 0.5], [1.0, 0.0]]
    with pytest.raises(SpecValidationError):
        spec_from_dict(data)


def test_with_budget_replaces_and_validates():
    spec = spec_from_dict(_toy_dict())
    tightened = with_budget(spec, 0.25)
    assert tightened.vending.costs.budget == 0.25
    assert spec.vending.costs.budget == 1.0
    with pytest.raises(SpecValidationError):
        with_budget(spec, 2.0)


def test_state_limit_env_override(monkeypatch):
    monkeypatch.setenv("RTC_MAX_STATES", "123")
    assert state_limit() == 123
    monkeypatch.delenv("RTC_MAX_STATES")
    assert state_limit() == 10**6
