"""Side-information vending scenarios as constrained average-cost MDPs.

The decoder owns a vending machine: the encoder's symbol x arrives
noiselessly, an actuator map turns it into a paid action, and the side
observation is drawn from a kernel conditioned on the source symbol and
that action.  Budgeted action cost makes each instance a constrained MDP,
solved through its scalar Lagrangian dual; the reported distortion is the
negated dual value.

The decoder keeps a memory of the inputs x it is sent and one of its
side observations y.  The encoder always knows the x-memory, since x
reaches the decoder without noise, so that memory is part of the state
in both variants.  With feedback the y-memory is part of the state too.
Without feedback the encoder tracks a grid belief over the y-memory, and
those solves carry the APPROXIMATE flag.  scenarios._memory_chain and
_chain_rewards compile and reward the chains, as they do the coding
chains; this module adds the actuator map's observation law and the
constraint costs.  Both solvers hand the actuator maps' chains, compiled
one at a time, to scenarios._select, which keeps the best (decoder,
actuator) pair.  Each map's chain carries the whole decoder family's
rewards, built in one call, and one mdp.constrained_solve(chain, cost,
budget) call dual-solves every pair on it: decoders whose reward tables
are identical share one search, and the distinct searches run in
lockstep.  constrained_solve only flags a search that ends at the
bracket edge; _dual_outcome warns of it, for the winning pair alone.
"""
from __future__ import annotations

import warnings
from typing import Optional

import numpy as np

from . import scenarios
from .bayes import check_action_map
from .errors import SpecValidationError
from .lookahead import _enumerate_maps
from .mdp import DUAL_TOL, DualResult, FiniteMdp, constrained_solve
# Unused here: constrained_solve sweeps by batch_value_iteration.
# rtbench/hooks.py still wraps relative_value_iteration under this name
# and reports the solve layer as unmeasured when the name is missing.
from .mdp import relative_value_iteration  # noqa: F401
from .models import ProblemSpec
from .scenarios import (APPROXIMATE, MemorySpec, ScenarioSolveReport,
                        _chain_rewards, _decoder_family, _memory_chain,
                        _memory_params, _select)
from .simplex import SimplexGrid, simplex_grid


def _require_vending(spec: ProblemSpec) -> None:
    if spec.vending is None:
        raise SpecValidationError(["this scenario needs vending data"])


def _vending_law(spec: ProblemSpec, av_map) -> tuple:
    """The observation law of scenarios._memory_chain for one actuator
    map: the vending row of (u, av[x])."""
    _require_vending(spec)
    av = check_action_map(np.asarray(av_map, dtype=int),
                          spec.num_channel_inputs, spec.vending.num_actions)
    return spec.vending.kernel.rows, spec.vending.num_actions, av


# The actuator loop compiles and rewards under names that
# rtbench/hooks.py wraps.
def _vending_feedback_core(spec: ProblemSpec, d: int, mem_x: MemorySpec,
                           mem_y: MemorySpec, av_map,
                           grid: Optional[SimplexGrid] = None):
    """The chain of one actuator map, compiled by scenarios._memory_chain
    (open-loop given the grid over the y-memory), with its constraint
    cost per (state, action): the expected cost of the action that the
    sent input buys.  Decoder tables only change the reward."""
    law = _vending_law(spec, av_map)
    core = _memory_chain(spec, d, mem_x, mem_y, law, grid)
    n_v, n_m, g_n, n_a, _, _, _ = core["shape"]
    per_cost = np.asarray(spec.vending.costs.cost)[law[2]][core["x_sent"]]
    cost_va = np.einsum("avu,u->va", per_cost, core["p_u"])
    core["cost"] = np.ascontiguousarray(np.broadcast_to(
        cost_va[:, None, None, :], (n_v, n_m, g_n, n_a)
    ).reshape(n_v * n_m * g_n, n_a))
    return core


# The whole decoder family's rewards on one actuator map's chain, in one
# call; a decoder's rewards do not depend on the batch.
_vending_feedback_rewards = _chain_rewards


def _decoder_shape(spec: ProblemSpec, mem_x: MemorySpec,
                   mem_y: MemorySpec) -> tuple:
    """Axes [x, y, m, n] of a vending decoder table."""
    return (spec.num_channel_inputs, spec.num_channel_outputs,
            mem_x.num_states, mem_y.num_states)


def _solve_pairs(scenario: str, spec: ProblemSpec, d: int, mem_x: MemorySpec,
                 mem_y: MemorySpec, grid: Optional[SimplexGrid],
                 rvi_tol: float, params=None, diagnostics=None,
                 flags=()) -> ScenarioSolveReport:
    """Both vending solvers, open-loop given the grid: every (decoder,
    actuator) pair, selected by scenarios._select.

    Each actuator map's chain is compiled once, rewarded for the whole
    decoder family in one batch-independent _chain_rewards call, and
    dual-solved in one constrained_solve call on that chain, its cost
    table and the budget, which gives every decoder the result of its
    own search (one search per distinct reward table).  A pair whose
    search ends at the bracket edge with an average action cost still
    above the budget cannot meet it and scores +inf.  The winning pair
    reports the encoder policy that its search solved at the dual
    minimizer.
    """
    _require_vending(spec)
    decs = _decoder_family(spec, _decoder_shape(spec, mem_x, mem_y))
    avs = _enumerate_maps(spec.num_channel_inputs, spec.vending.num_actions,
                          scenarios.DEFAULT_DECODER_CAP,
                          "actuator enumeration",
                          "reduce the channel input alphabet")

    def solve(core):
        chain = FiniteMdp(core["next_states"], core["next_probs"],
                          _vending_feedback_rewards(core, decs))
        duals = constrained_solve(chain, core["cost"],
                                  spec.vending.costs.budget, rvi_tol=rvi_tol)
        values = [np.inf if res.bracket_edge and res.avg_constraint_cost
                  > spec.vending.costs.budget + 1e-9
                  else -res.dual_value for res in duals]
        return np.array(values), lambda i: _dual_outcome(duals[i])

    return _select(
        scenario, spec, d,
        (_vending_feedback_core(spec, d, mem_x, mem_y, av, grid)
         for av in avs),
        decs, solve, DUAL_TOL,
        {**_memory_params("memory_x", mem_x),
         **_memory_params("memory_y", mem_y), **(params or {})},
        action_maps=avs,
        diagnostics={"actuator_candidates": int(avs.shape[0]),
                     **(diagnostics or {})},
        flags=flags,
    )


def _dual_outcome(best: DualResult) -> tuple:
    """(encoder policy, diagnostics) of the winning pair's dual search,
    whose bracket warning is the only one raised."""
    if best.bracket_edge:
        # frames up: the lambda in _solve_pairs, scenarios._select,
        # _solve_pairs, the public solver, and then its caller
        warnings.warn(
            "dual minimizer at lambda_max for the best pair; "
            "the bracket may be too small",
            RuntimeWarning, stacklevel=6,
        )
    return best.policy, {
        "lambda_star": best.lambda_star,
        "dual_value": best.dual_value,
        "gain_at_lambda_star": best.gain_at_lambda_star,
        "avg_constraint_cost": best.avg_constraint_cost,
        "bracket_edge": best.bracket_edge,
        "dual_evaluations": best.evaluations,
        "iterations": best.iterations,
        "final_span": best.final_span,
    }


def solve_vending_feedback(spec: ProblemSpec, d: int, mem_x: MemorySpec,
                           mem_y: MemorySpec,
                           rvi_tol: float = 1e-10) -> ScenarioSolveReport:
    """Minimum dual distortion for feedback vending over every (decoder,
    actuator) pair.

    The budget is the spec's; with_budget sets another.  Each pair gets
    a full Lagrangian dual solve; pairs that cannot meet the budget score
    +inf and lose the minimum, and if no pair meets it the solve raises
    SpecValidationError.  Pairs whose values lie within DUAL_TOL (1e-8)
    of the best count as tied, and ties keep the lexicographically
    smallest (decoder, actuator) pair.  A bracket warning is re-raised
    only for the winning pair.
    """
    return _solve_pairs("vending-feedback", spec, d, mem_x, mem_y, None,
                        rvi_tol)


def solve_vending_nofeedback(spec: ProblemSpec, d: int, mem_x: MemorySpec,
                             mem_y: MemorySpec, resolution: int,
                             rvi_tol: float = 1e-10) -> ScenarioSolveReport:
    """Approximate minimum dual distortion for open-loop vending; pairs
    are scored as in solve_vending_feedback."""
    grid = simplex_grid(mem_y.num_states, resolution)
    return _solve_pairs(
        "vending-nofeedback", spec, d, mem_x, mem_y, grid, rvi_tol,
        params={"grid_resolution": resolution},
        diagnostics={"grid_points_y": grid.size}, flags=(APPROXIMATE,),
    )
