"""Bayes envelopes and the belief recursions behind each dynamic program.

Beliefs are probability vectors over a hidden alphabet.  The feedback
update is a true posterior (it conditions on a channel output), while the
open-loop updates push a belief over the decoder's memory forward through
known dynamics, so their normalizers are 1 by construction.

Memory update tables are indexed [current_state, new_observation].
"""
from __future__ import annotations

import numpy as np

from .errors import SpecValidationError, UnreachableObservationError
from .lookahead import MarkovKernel
from .models import ProbVector, StochasticMatrix, VendingSpec


def _belief_array(belief, size=None) -> np.ndarray:
    b = np.asarray(belief, dtype=float)
    if b.ndim != 1:
        raise SpecValidationError(["belief must be 1-dimensional"])
    if size is not None and b.size != size:
        raise SpecValidationError(
            [f"belief has {b.size} entries, expected {size}"]
        )
    return b


def check_action_map(table, domain: int, num_values: int) -> np.ndarray:
    """Validate a dense deterministic map, returning it as an int array."""
    arr = np.asarray(table)
    if arr.shape != (domain,):
        raise SpecValidationError(
            [f"action map has shape {arr.shape}, expected ({domain},)"]
        )
    arr = arr.astype(int)
    if arr.min(initial=0) < 0 or arr.max(initial=0) >= num_values:
        raise SpecValidationError(
            [f"action map values outside 0..{num_values - 1}"]
        )
    return arr


def bayes_envelope(belief, distortion) -> float:
    """Minimum expected loss achievable against belief."""
    loss = np.asarray(distortion if not hasattr(distortion, "loss") else distortion.loss)
    b = _belief_array(belief, loss.shape[0])
    return float(np.min(b @ loss))


def belief_update_feedback(belief, kernel: MarkovKernel, channel: StochasticMatrix,
                           action_map, y: int) -> ProbVector:
    """Posterior over the next symbol tuple given one more channel output.

    The belief is first pushed through the tuple kernel, then reweighted
    by the likelihood of y under the input the encoder map assigns to each
    candidate tuple.
    """
    b = _belief_array(belief, kernel.num_states)
    a = check_action_map(action_map, kernel.num_states, channel.num_inputs)
    if not 0 <= y < channel.num_outputs:
        raise SpecValidationError([f"observation {y} outside channel outputs"])
    predicted = b @ kernel.matrix
    num = predicted * channel.rows[a, y]
    total = num.sum()
    if total <= 0.0:
        raise UnreachableObservationError(
            f"unreachable observation {y} under the given encoder map"
        )
    return ProbVector(num / total)


def _posteriors(beliefs: np.ndarray, kernel: MarkovKernel,
                channel: StochasticMatrix,
                maps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """belief_update_feedback for (G, V) beliefs, (A, V) encoder maps and
    every output at once: the (G, A, Y, V) posteriors and the (G, A, Y)
    mask of reachable outputs.  An unreachable output keeps the predicted
    belief, so every row stays a probability vector."""
    predicted = beliefs @ kernel.matrix                        # (G, V)
    likel = np.ascontiguousarray(channel.rows[maps].transpose(0, 2, 1))
    num = predicted[:, None, None, :] * likel[None]            # (G, A, Y, V)
    totals = num.sum(axis=3)
    reachable = totals > 0.0
    post = np.where(reachable[..., None],
                    num / np.where(reachable, totals, 1.0)[..., None],
                    predicted[:, None, None, :])
    return post, reachable


def _check_transition(kernel: MarkovKernel, v_prev: int, v_next: int) -> None:
    n = kernel.num_states
    if not (0 <= v_prev < n and 0 <= v_next < n):
        raise SpecValidationError(["tuple index outside the kernel state space"])
    if kernel.matrix[v_prev, v_next] <= 0.0:
        raise SpecValidationError(
            [f"zero-probability transition {v_prev} -> {v_next}"]
        )


def _memory_table(table, num_states: int, num_observations: int) -> np.ndarray:
    arr = np.asarray(table)
    if arr.shape != (num_states, num_observations):
        raise SpecValidationError(
            [f"memory table has shape {arr.shape}, "
             f"expected ({num_states}, {num_observations})"]
        )
    return arr.astype(int)


def belief_update_memory(belief, kernel: MarkovKernel, v_prev: int, v_next: int,
                         channel: StochasticMatrix, action_map,
                         memory_table) -> ProbVector:
    """Open-loop belief over the decoder memory after one more channel use.

    Without feedback the encoder never sees the channel output, so it
    tracks the distribution of the decoder's memory state.  Conditioned on
    the tuple transition, the output law depends only on the input sent
    for v_next, and the memory moves deterministically given output and
    previous memory.
    """
    _check_transition(kernel, v_prev, v_next)
    a = check_action_map(action_map, kernel.num_states, channel.num_inputs)
    num_mem = np.asarray(belief).size
    table = _memory_table(memory_table, num_mem, channel.num_outputs)
    b = _belief_array(belief, num_mem)
    x = a[v_next]
    weights = b[:, None] * channel.rows[x][None, :]
    out = np.zeros(num_mem)
    np.add.at(out, table, weights)
    total = out.sum()
    if total <= 0.0:
        raise UnreachableObservationError("memory belief lost all mass")
    return ProbVector(out / total)


def belief_update_sideinfo_memory(belief, kernel: MarkovKernel, v_prev: int,
                                  v_next: int, vending: VendingSpec, av_map,
                                  action_map, memory_table,
                                  num_inputs: int) -> ProbVector:
    """Belief over a decoder memory that records side observations.

    The side observation is drawn given the current source symbol (the
    first component of v_next) and the vending action triggered by the
    encoder output, then folded into the memory deterministically.
    """
    _check_transition(kernel, v_prev, v_next)
    a = check_action_map(action_map, kernel.num_states, num_inputs)
    av = check_action_map(av_map, num_inputs, vending.num_actions)
    num_obs = vending.kernel.num_outputs
    num_mem = np.asarray(belief).size
    table = _memory_table(memory_table, num_mem, num_obs)
    b = _belief_array(belief, num_mem)
    u_now = kernel.codec.component(v_next, 1)
    x = a[v_next]
    yrow = vending.row(u_now, av[x])
    weights = b[:, None] * yrow[None, :]
    out = np.zeros(num_mem)
    np.add.at(out, table, weights)
    total = out.sum()
    if total <= 0.0:
        raise UnreachableObservationError("side-information belief lost all mass")
    return ProbVector(out / total)
