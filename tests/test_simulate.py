"""Monte Carlo cross-checks of solved policies on the true system."""
import warnings

import numpy as np
import pytest

from rtcode import (
    PolicyBundle,
    SpecValidationError,
    binary_problem,
    memory_last_m,
    simulate,
    solve_feedback_complete,
    solve_feedback_finite,
    solve_nofeedback,
    solve_vending_feedback,
    solve_vending_nofeedback,
    spec_from_dict,
    with_budget,
)

TOY = {
    "source": [0.7, 0.3],
    "channel": [[0.5, 0.5]],
    "distortion": [[0.0, 1.0], [1.0, 0.0]],
    "vending": {
        "kernel": [[0.5, 0.5], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0]],
        "costs": [0.0, 1.0],
        "budget": 1.0,
    },
}


@pytest.fixture(scope="module")
def solved_d11():
    spec = binary_problem(0.3, 0.3)
    report = solve_feedback_finite(spec, 1, memory_last_m(1, 2))
    return spec, report, PolicyBundle.from_report(report)


def test_sim_is_deterministic_in_the_seed(solved_d11):
    spec, _, bundle = solved_d11
    a = simulate(bundle, spec, 1, 2000, 2, seed=101)
    b = simulate(bundle, spec, 1, 2000, 2, seed=101)
    assert a == b
    c = simulate(bundle, spec, 1, 2000, 2, seed=102)
    assert c.mean_distortion != a.mean_distortion


def test_sim_noiseless_channel_is_lossless():
    spec = binary_problem(0.3, 0.0)
    report = solve_feedback_finite(spec, 0, memory_last_m(0, 2))
    bundle = PolicyBundle.from_report(report)
    out = simulate(bundle, spec, 0, 2000, 1, seed=1)
    assert out.mean_distortion == 0.0
    assert out.std_error == 0.0
    assert out.mean_action_cost is None


def test_sim_matches_planner_for_useless_channel():
    spec = binary_problem(0.3, 0.5)
    report = solve_feedback_finite(spec, 0, memory_last_m(0, 2))
    assert report.distortion == pytest.approx(0.3, abs=1e-9)
    bundle = PolicyBundle.from_report(report)
    out = simulate(bundle, spec, 0, 20000, 4, seed=5)
    gap = abs(out.mean_distortion - report.distortion)
    assert gap <= 4.0 * out.std_error


def test_sim_matches_planner_with_feedback_memory(solved_d11):
    spec, report, bundle = solved_d11
    out = simulate(bundle, spec, 1, 20000, 4, seed=11)
    gap = abs(out.mean_distortion - report.distortion)
    assert gap <= 4.0 * out.std_error
    assert out.horizon == 20000 and out.replications == 4
    assert out.seed == 11


def test_sim_standard_error_shrinks_with_more_data(solved_d11):
    spec, _, bundle = solved_d11
    small = simulate(bundle, spec, 1, 2000, 5, seed=21)
    large = simulate(bundle, spec, 1, 8000, 20, seed=22)
    # four times the reps and four times the horizon: expect about 4x
    ratio = small.std_error / large.std_error
    assert 2.0 <= ratio <= 8.0


def test_sim_gap_shrinks_with_horizon(solved_d11):
    spec, report, bundle = solved_d11
    gaps = [
        abs(simulate(bundle, spec, 1, h, 1, seed=3).mean_distortion
            - report.distortion)
        for h in (10**3, 10**4, 10**5, 10**6)
    ]
    drops = sum(b <= a for a, b in zip(gaps, gaps[1:]))
    assert drops >= 2
    assert gaps[-1] < gaps[0]


def test_sim_vending_full_budget_is_lossless_and_billed():
    spec = with_budget(spec_from_dict(TOY), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = solve_vending_feedback(spec, 0, memory_last_m(0, 1),
                                        memory_last_m(0, 2))
    bundle = PolicyBundle.from_report(report)
    out = simulate(bundle, spec, 0, 2000, 2, seed=7)
    assert out.mean_distortion == 0.0
    assert out.mean_action_cost == pytest.approx(1.0, abs=1e-12)


def test_sim_vending_zero_budget_spends_nothing():
    spec = with_budget(spec_from_dict(TOY), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = solve_vending_feedback(spec, 0, memory_last_m(0, 1),
                                        memory_last_m(0, 2), budget=0.0)
    bundle = PolicyBundle.from_report(report)
    out = simulate(bundle, spec, 0, 20000, 4, seed=9)
    assert out.mean_action_cost == pytest.approx(0.0, abs=1e-12)
    gap = abs(out.mean_distortion - report.distortion)
    assert gap <= 4.0 * out.std_error


def _within_band(out, value):
    """The simulate benchmark's band: 5 standard errors of the mean."""
    return out.std_error > 0.0 and \
        abs(out.mean_distortion - value) <= 5.0 * out.std_error


def test_sim_matches_planner_without_feedback():
    # at delta = 0.3 the beliefs over a last:1 memory are points of the
    # resolution-10 grid, so the open-loop grid chain is exact
    spec = binary_problem(0.3, 0.3)
    report = solve_nofeedback(spec, 1, memory_last_m(1, 2), 10)
    bundle = PolicyBundle.from_report(report)
    assert bundle.scenario == "nofeedback"
    out = simulate(bundle, spec, 1, 20000, 10, seed=13)
    assert _within_band(out, report.distortion)
    assert out.mean_action_cost is None


def test_sim_vending_nofeedback_matches_base_gain():
    # with last:0 memories both belief grids are single points, so the
    # open-loop chain is exact; the simulator runs the refit policy,
    # whose loss is the base gain at the dual minimizer
    spec = with_budget(spec_from_dict(TOY), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = solve_vending_nofeedback(spec, 0, memory_last_m(0, 1),
                                          memory_last_m(0, 2), 2)
    bundle = PolicyBundle.from_report(report)
    assert bundle.scenario == "vending-nofeedback"
    out = simulate(bundle, spec, 0, 20000, 10, seed=19)
    assert _within_band(out, -report.diagnostics["gain_at_lambda_star"])
    assert out.mean_action_cost == pytest.approx(
        report.diagnostics["avg_constraint_cost"], abs=1e-12)


def test_sim_bundle_round_trips_through_report(solved_d11):
    spec, report, bundle = solved_d11
    assert bundle.scenario == "feedback-finite"
    assert len(bundle.encoder) == 4 * 2
    assert bundle.memory.num_states == 2
    rebuilt = PolicyBundle.from_report(report)
    assert rebuilt.encoder == bundle.encoder
    assert rebuilt.decoder == bundle.decoder
    np.testing.assert_array_equal(rebuilt.memory.table, bundle.memory.table)


def test_sim_rejects_belief_state_reports():
    spec = binary_problem(0.3, 0.3)
    report = solve_feedback_complete(spec, 0, 3)
    with pytest.raises(SpecValidationError):
        PolicyBundle.from_report(report)


def test_sim_validates_configuration_before_running(solved_d11):
    spec, _, bundle = solved_d11
    with pytest.raises(SpecValidationError):
        simulate(bundle, spec, 1, 0, 1, seed=1)
    with pytest.raises(SpecValidationError):
        simulate(bundle, spec, 1, 100, 0, seed=1)
    bad_encoder = PolicyBundle(
        scenario="feedback-finite",
        encoder=bundle.encoder[:-1],
        decoder=bundle.decoder,
        memory=bundle.memory,
    )
    with pytest.raises(SpecValidationError):
        simulate(bad_encoder, spec, 1, 100, 1, seed=1)
    no_memory = PolicyBundle(
        scenario="feedback-finite",
        encoder=bundle.encoder,
        decoder=bundle.decoder,
    )
    with pytest.raises(SpecValidationError):
        simulate(no_memory, spec, 1, 100, 1, seed=1)
    wrong_tag = PolicyBundle(
        scenario="mystery",
        encoder=bundle.encoder,
        decoder=bundle.decoder,
        memory=bundle.memory,
    )
    with pytest.raises(SpecValidationError):
        simulate(wrong_tag, spec, 1, 100, 1, seed=1)
