"""Shared factories for the test suite."""
import itertools

import numpy as np

from rtcode.mdp import FiniteMdp

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


def all_maps(domain, num_values):
    """Every map from domain entries to num_values values, one row per map
    in lexicographic order: the enumeration order of the solvers."""
    return np.array(list(itertools.product(range(num_values),
                                           repeat=domain)), dtype=int)
