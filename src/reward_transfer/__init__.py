"""Resolving binary-action social dilemmas with reward transfer contracts.

Model a group game as a payoff table over cooperate/defect profiles,
test whether it is a social dilemma, and search for the most
self-interested transfer contract (a matrix of reward shares) under
which full cooperation becomes every player's weakly dominant choice.
"""

from .game import (ActionProfile, ConditionWitness, DilemmaClassification,
                   DilemmaKind, DominanceReport, NormalFormGame,
                   check_dominance, classify_dilemma, pure_nash_equilibria,
                   social_optima)
from .transfer import (ExcessReport, TransferMatrix, apply_transfers,
                       conservation_check, exchange_matrix, excess_report,
                       verify_resolution)
from .lp import LinearProgram, LpSolution, LpStatus, check_feasible, solve_lp
from .levels import (NotADilemmaError, NotResolvableError, SelfInterestResult,
                     SolveMode, binding_constraints, deviation_deltas,
                     general_level, general_level_symmetric_fastpath,
                     symmetrical_level)
from .dilemmas import (AnalyticLevel, BaseGame, BaseGameParams,
                       FunctionalParams, GraphKind, analytic_level,
                       analytic_matrix, base_payoff, build_functional,
                       build_graphical, scaled_prisoners_dilemma,
                       too_many_cooks)
from .serialize import (FormatError, dumps_game, dumps_matrix, dumps_result,
                        parse_game, parse_matrix)

__version__ = "0.1.0"

__all__ = [
    "ActionProfile", "NormalFormGame", "DilemmaKind", "DilemmaClassification",
    "ConditionWitness", "DominanceReport", "classify_dilemma",
    "check_dominance", "pure_nash_equilibria", "social_optima",
    "TransferMatrix", "ExcessReport", "exchange_matrix", "apply_transfers",
    "verify_resolution", "conservation_check", "excess_report",
    "LinearProgram", "LpSolution", "LpStatus", "solve_lp", "check_feasible",
    "SelfInterestResult", "SolveMode", "NotADilemmaError",
    "NotResolvableError", "symmetrical_level", "general_level",
    "general_level_symmetric_fastpath", "binding_constraints",
    "deviation_deltas",
    "BaseGame", "BaseGameParams", "GraphKind", "FunctionalParams",
    "AnalyticLevel", "base_payoff", "build_graphical", "build_functional",
    "analytic_level", "analytic_matrix", "scaled_prisoners_dilemma",
    "too_many_cooks",
    "FormatError", "dumps_game", "parse_game", "dumps_matrix", "parse_matrix",
    "dumps_result",
]
