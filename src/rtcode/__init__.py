"""Minimum expected distortion for real-time coding with encoder lookahead.

The library compiles communication scenarios (feedback or open-loop,
finite or belief-grid decoder memory, optional cost-constrained side
information) into average-cost MDPs, solves them by policy or relative
value iteration, and cross-checks the results with analytic endpoints,
optimality conditions, and Monte Carlo simulation.

This package exports the library API; the MDP layer, the chain
builders, the belief updates and the information-theory primitives stay
importable from their modules.
"""
from .baselines import (RegionReport, SymbolCheckReport, SymbolPolicy,
                        d0_distortion, shannon_limit, suboptimality_region,
                        symbol_by_symbol_check, uncoded_condition_check)
from .errors import (CapacityError, NonConvergenceError, SpecValidationError,
                     UnreachableObservationError)
from .models import (ActionCostVector, DistortionMatrix, ProblemSpec,
                     ProbVector, StochasticMatrix, VendingSpec,
                     bernoulli_source, binary_problem, bsc, hamming,
                     load_spec, spec_from_dict, with_budget)
from .scenarios import (APPROXIMATE, MemorySpec, ScenarioSolveReport,
                        memory_last_m, solve_feedback_complete,
                        solve_feedback_finite, solve_nofeedback)
from .simplex import SimplexGrid, simplex_grid
from .simulate import PolicyBundle, SimReport, simulate
from .vending import solve_vending_feedback, solve_vending_nofeedback

__version__ = "0.1.0"

__all__ = [
    # problems
    "ActionCostVector",
    "DistortionMatrix",
    "ProbVector",
    "ProblemSpec",
    "StochasticMatrix",
    "VendingSpec",
    "bernoulli_source",
    "binary_problem",
    "bsc",
    "hamming",
    "load_spec",
    "spec_from_dict",
    "with_budget",
    # decoder memories
    "MemorySpec",
    "memory_last_m",
    # scenario solvers
    "APPROXIMATE",
    "ScenarioSolveReport",
    "solve_feedback_complete",
    "solve_feedback_finite",
    "solve_nofeedback",
    "solve_vending_feedback",
    "solve_vending_nofeedback",
    # endpoints and optimality checks
    "RegionReport",
    "SymbolCheckReport",
    "SymbolPolicy",
    "d0_distortion",
    "shannon_limit",
    "suboptimality_region",
    "symbol_by_symbol_check",
    "uncoded_condition_check",
    # belief grids
    "SimplexGrid",
    "simplex_grid",
    # simulation
    "PolicyBundle",
    "SimReport",
    "simulate",
    # errors
    "CapacityError",
    "NonConvergenceError",
    "SpecValidationError",
    "UnreachableObservationError",
]
