"""Bayes envelopes and the belief updates behind each scenario.

Every [DERIVED] value is cross-checked against a brute-force enumeration
of the one-step joint distribution written independently here.
"""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from rtcode import (
    SpecValidationError,
    UnreachableObservationError,
    bernoulli_source,
    bsc,
    hamming,
    memory_last_m,
    spec_from_dict,
)
from rtcode.bayes import (
    bayes_envelope,
    belief_update_feedback,
    belief_update_memory,
    belief_update_sideinfo_memory,
)
from rtcode.lookahead import build_markov_kernel
from conftest import random_belief


def test_bayes_envelope_examples():
    assert bayes_envelope([0.3, 0.7], hamming(2)) == pytest.approx(0.3)
    assert bayes_envelope([1.0, 0.0], [[0.0, 5.0], [2.0, 0.0]]) == 0.0
    assert bayes_envelope([0.5, 0.5], hamming(2)) == pytest.approx(0.5)


@given(st.data())
def test_bayes_envelope_concave(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    t = data.draw(st.floats(0.0, 1.0))
    loss = rng.uniform(0.0, 1.0, size=(3, 3))
    b1, b2 = random_belief(rng, 3), random_belief(rng, 3)
    mixed = bayes_envelope(t * b1 + (1 - t) * b2, loss)
    parts = t * bayes_envelope(b1, loss) + (1 - t) * bayes_envelope(b2, loss)
    assert mixed >= parts - 1e-12


def test_feedback_update_uninformative_channel_gives_source_law():
    kernel = build_markov_kernel(bernoulli_source(0.3), 0)
    for beta in ([0.5, 0.5], [0.9, 0.1]):
        out = belief_update_feedback(beta, kernel, bsc(0.5), [0, 1], 1)
        np.testing.assert_allclose(out.p, [0.7, 0.3])


def test_feedback_update_noiseless_identity():
    kernel = build_markov_kernel(bernoulli_source(0.3), 0)
    out = belief_update_feedback([0.4, 0.6], kernel, bsc(0.0), [0, 1], 1)
    np.testing.assert_allclose(out.p, [0.0, 1.0])


def test_feedback_update_matches_joint_enumeration():
    rng = np.random.default_rng(11)
    kernel = build_markov_kernel(bernoulli_source(0.3), 1)
    channel = bsc(0.2)
    n_v = kernel.num_states
    for _ in range(20):
        beta = random_belief(rng, n_v)
        amap = rng.integers(0, 2, size=n_v)
        y = int(rng.integers(0, 2))
        # joint over (v_next, y): step the chain, then observe the output
        # of the input the encoder assigns to the landed tuple
        joint = np.zeros(n_v)
        for v in range(n_v):
            for v2 in range(n_v):
                joint[v2] += beta[v] * kernel.matrix[v, v2] \
                    * channel.rows[amap[v2], y]
        expected = joint / joint.sum()
        out = belief_update_feedback(beta, kernel, channel, amap, y)
        np.testing.assert_allclose(out.p, expected, atol=1e-12)


def test_feedback_update_useless_channel_is_kernel_push():
    kernel = build_markov_kernel(bernoulli_source(0.4), 1)
    channel = bsc(0.5)
    beta = random_belief(np.random.default_rng(2), kernel.num_states)
    for y in (0, 1):
        out = belief_update_feedback(beta, kernel, channel, [0, 1, 1, 0], y)
        np.testing.assert_allclose(out.p, beta @ kernel.matrix, atol=1e-12)


def test_feedback_update_unreachable_observation():
    kernel = build_markov_kernel(bernoulli_source(0.3), 0)
    with pytest.raises(UnreachableObservationError):
        belief_update_feedback([1.0, 0.0], kernel, bsc(0.0), [0, 0], 1)


def test_memory_update_singleton_memory():
    kernel = build_markov_kernel(bernoulli_source(0.3), 0)
    mem = memory_last_m(0, 2)
    out = belief_update_memory([1.0], kernel, 0, 1, bsc(0.2), [0, 1], mem.table)
    np.testing.assert_allclose(out.p, [1.0])


def test_memory_update_noiseless_pass_through():
    kernel = build_markov_kernel(bernoulli_source(0.3), 0)
    mem = memory_last_m(1, 2)
    out = belief_update_memory([0.5, 0.5], kernel, 0, 1, bsc(0.0), [0, 1],
                               mem.table)
    np.testing.assert_allclose(out.p, [0.0, 1.0])


def test_memory_update_matches_joint_enumeration():
    rng = np.random.default_rng(5)
    kernel = build_markov_kernel(bernoulli_source(0.4), 1)
    channel = bsc(0.3)
    mem = memory_last_m(1, 2)
    for _ in range(20):
        beta = random_belief(rng, 2)
        amap = rng.integers(0, 2, size=kernel.num_states)
        v_prev = int(rng.integers(0, kernel.num_states))
        nexts = np.flatnonzero(kernel.matrix[v_prev] > 0)
        v_next = int(rng.choice(nexts))
        expected = np.zeros(2)
        for z in range(2):
            for y in range(2):
                z2 = mem.table[z, y]
                expected[z2] += beta[z] * channel.rows[amap[v_next], y]
        expected /= expected.sum()
        out = belief_update_memory(beta, kernel, v_prev, v_next, channel,
                                   amap, mem.table)
        np.testing.assert_allclose(out.p, expected, atol=1e-12)


def test_memory_update_rejects_impossible_transition():
    kernel = build_markov_kernel(bernoulli_source(0.3), 1)
    mem = memory_last_m(1, 2)
    # tuple (0,1) cannot move to (0,0): the window must keep the 1
    with pytest.raises(SpecValidationError):
        belief_update_memory([0.5, 0.5], kernel, 1, 0, bsc(0.2),
                             [0, 1, 1, 0], mem.table)


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


def test_sideinfo_memory_update_deterministic_side_channel():
    perfect = dict(TOY)
    perfect["vending"] = {"kernel": [[1.0, 0.0], [0.0, 1.0]],
                          "costs": [0.0], "budget": 0.0}
    vending = spec_from_dict(perfect).vending
    kernel = build_markov_kernel(bernoulli_source(0.3), 0)
    mem = memory_last_m(1, 2)
    out = belief_update_sideinfo_memory([0.5, 0.5], kernel, 0, 1, vending,
                                        [0], [0, 0], mem.table, 1)
    np.testing.assert_allclose(out.p, [0.0, 1.0])


def test_sideinfo_memory_update_matches_joint_enumeration():
    rng = np.random.default_rng(9)
    vending = spec_from_dict(TOY).vending
    kernel = build_markov_kernel(bernoulli_source(0.3), 1)
    mem = memory_last_m(1, 2)
    for _ in range(20):
        gamma = random_belief(rng, 2)
        amap = np.zeros(kernel.num_states, dtype=int)
        av = np.array([int(rng.integers(0, 2))])
        v_prev = int(rng.integers(0, kernel.num_states))
        v_next = int(rng.choice(np.flatnonzero(kernel.matrix[v_prev] > 0)))
        u_now = kernel.codec.component(v_next, 1)
        yrow = vending.row(u_now, av[0])
        expected = np.zeros(2)
        for n in range(2):
            for y in range(2):
                expected[mem.table[n, y]] += gamma[n] * yrow[y]
        expected /= expected.sum()
        out = belief_update_sideinfo_memory(gamma, kernel, v_prev, v_next,
                                            vending, av, amap, mem.table, 1)
        np.testing.assert_allclose(out.p, expected, atol=1e-12)


def test_updates_return_valid_beliefs():
    rng = np.random.default_rng(13)
    kernel = build_markov_kernel(bernoulli_source(0.25), 1)
    channel = bsc(0.1)
    mem = memory_last_m(1, 2)
    for _ in range(25):
        beta = random_belief(rng, kernel.num_states)
        amap = rng.integers(0, 2, size=kernel.num_states)
        y = int(rng.integers(0, 2))
        out = np.asarray(belief_update_feedback(beta, kernel, channel, amap, y))
        assert np.all(out >= 0)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        gamma = random_belief(rng, 2)
        v_prev = int(rng.integers(0, kernel.num_states))
        v_next = int(rng.choice(np.flatnonzero(kernel.matrix[v_prev] > 0)))
        out = np.asarray(belief_update_memory(gamma, kernel, v_prev, v_next,
                                              channel, amap, mem.table))
        assert np.all(out >= 0)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
