"""Shared factories for the test suite."""
import itertools

import numpy as np
import pytest

from rtcode import (ProblemSpec, ProbVector, StochasticMatrix, hamming,
                    scenarios)
from rtcode.mdp import FiniteMdp
from rtcode.scenarios import _chain_rewards, _tuple_chain

TIE_L1 = 1e-12


def random_unichain_mdp(rng, max_states=4, max_actions=3, mixing=0.1):
    """Random MDP whose induced chain is irreducible under every policy.

    Blending each transition row with the uniform distribution keeps all
    states mutually reachable no matter which actions a policy picks, so
    the instance is unichain and the average reward is well defined.
    """
    s = int(rng.integers(1, max_states + 1))
    a = int(rng.integers(1, max_actions + 1))
    raw = rng.random((s, a, s)) + 1e-3
    raw /= raw.sum(axis=2, keepdims=True)
    dense = (1.0 - mixing) * raw + mixing / s
    rewards = rng.uniform(-1.0, 1.0, size=(s, a))
    return FiniteMdp.from_dense(dense, rewards)


def random_belief(rng, dim):
    """Random point in the interior of the probability simplex."""
    raw = rng.random(dim) + 1e-3
    return raw / raw.sum()


def nearest(grid, beliefs):
    """Dense reference for simplex.project: for a (dim,) belief or each of
    a (..., dim) batch, the first grid point, in the grid's lexicographic
    order, whose L1 distance is within TIE_L1 of the smallest.  The
    benchmark's nearest_mask uses the same tie rule."""
    b = np.asarray(beliefs, dtype=float)
    dist = np.abs(np.asarray(grid.points) - b[..., None, :]).sum(axis=-1)
    return np.argmax(dist <= dist.min(axis=-1, keepdims=True) + TIE_L1,
                     axis=-1)


def random_rows(rng, n_in, n_out, zeros=0.0):
    """Random stochastic rows; a fraction zeros of the entries is set to
    0, which makes some outputs unreachable."""
    raw = rng.random((n_in, n_out)) + 1e-3
    raw[rng.random((n_in, n_out)) < zeros] = 0.0
    raw[raw.sum(axis=1) == 0.0, 0] = 1.0
    return raw / raw.sum(axis=1, keepdims=True)


def random_spec(rng, n_u, n_x=2, n_y=2, zeros=0.0):
    """Random problem under Hamming loss over a random_rows channel."""
    rows = random_rows(rng, n_x, n_y, zeros)
    return ProblemSpec(
        source=ProbVector.make(rng.dirichlet(np.ones(n_u))),
        channel=StochasticMatrix.make(rows),
        distortion=hamming(n_u),
    )


def all_maps(domain, num_values):
    """Every map from domain entries to num_values values, one row per map
    in lexicographic order: the enumeration order of the solvers."""
    return np.array(list(itertools.product(range(num_values),
                                           repeat=domain)), dtype=int)


def whole_map(codec, v, inputs):
    """The lowest-index whole encoder map that sends the successor tuple
    shift(v, u) to inputs[u]: 0 at every other tuple."""
    table = np.zeros(codec.size, dtype=int)
    for u, x in enumerate(inputs):
        table[codec.shift(v, u)] = x
    return table


def whole_map_chain(spec, d, size, problems):
    """Oracle for scenarios._tuple_chain: the same chain with every whole
    encoder map, from tuples to inputs, as an action, so that
    x_sent[a, v, u] = maps[a, shift[v, u]]."""
    kernel, shift, _ = _tuple_chain(spec, d, size, problems)
    maps = all_maps(kernel.codec.size, spec.num_channel_inputs)
    return kernel, shift, maps[:, shift]


def solve_with_whole_maps(solve, *args):
    """solve(*args) with the finite-memory chains acting on whole encoder
    maps and the report printing the chosen maps' indices as they are."""
    with pytest.MonkeyPatch.context() as mp:
        # the one chain prologue, in scenarios, builds all four chains
        mp.setattr(scenarios, "_tuple_chain", whole_map_chain)
        # the one report builder, scenarios._select, prints the policy
        mp.setattr(scenarios, "_whole_map_policy",
                   lambda policy, shift, num_inputs:
                   tuple(int(a) for a in policy))
        return solve(*args)


def pair_lagrangian(spec, core, dec, lam):
    """The Lagrangian MDP at multiplier lam of one vending decoder indexed
    [x, y, m, n] on an actuator map's compiled core: that pair's reward
    plus lam * (budget - cost), the table its dual search solves at lam."""
    rewards = _chain_rewards(core, np.asarray(dec)[None])[0]
    return FiniteMdp(core["next_states"], core["next_probs"],
                     rewards + lam * (spec.vending.costs.budget - core["cost"]))
