"""Finding the most self-interested contract that still resolves a game.

The level of a transfer matrix is its smallest diagonal entry: the share
of their own reward the most-taxed player keeps.  For a game and a
target profile we look for the contract with the largest level under
which the target becomes weakly dominant.  Two searches are offered:

* ``symmetrical_level`` restricts contracts to the one-parameter family
  where everyone keeps s and splits the rest evenly; the optimum has a
  closed form (an interval intersection).
* ``general_level`` searches all transfer matrices with a linear
  program: variables are the n*n shares plus the level z, constraints
  say z is below every diagonal entry, rows are conserving (or may burn
  reward with ``allow_excess``), and no player profits by deviating from
  the target against any co-profile.

Deviation constraints number n * 2**(n-1), so they are generated
lazily from the first solve on, whatever the game's size: solve on a
working set that starts from the two extreme co-profiles, scan the full
set for violations, add the worst offenders, repeat.  The relaxation
optimum only ever over-estimates, so a violation-free solution is exact.
"""

from __future__ import annotations

import enum
import itertools
import logging
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .game import (ActionProfile, DilemmaClassification, DilemmaKind,
                   NormalFormGame, classify_dilemma, deviation_gains,
                   deviation_pairs, social_optima)
from .lp import LinearProgram, LpStatus, solve_lp
from .transfer import (ExcessReport, TransferMatrix, exchange_matrix,
                       excess_report)

log = logging.getLogger(__name__)

_ROWS_PER_ROUND = 8


class SolveMode(enum.Enum):
    SYMMETRIC = "symmetric"
    GENERAL = "general"
    GENERAL_WITH_EXCESS = "general-with-excess"


class NotADilemmaError(ValueError):
    """The game fails the dilemma conditions and force was not given."""

    def __init__(self, message: str, classification: DilemmaClassification):
        super().__init__(message)
        self.classification = classification


class NotResolvableError(RuntimeError):
    """No admissible contract makes the target weakly dominant."""


@dataclass(frozen=True)
class SelfInterestResult:
    """Outcome of a level search.

    ``binding`` lists the (player, co-profile mask) deviation
    constraints that hold with equality at the optimum; these are the
    temptations the contract only just neutralizes.
    """

    level: float
    matrix: TransferMatrix
    target: ActionProfile
    binding: tuple[tuple[int, int], ...]
    excess: ExcessReport
    mode: SolveMode


def deviation_deltas(game: NormalFormGame,
                     target: ActionProfile,
                     player: int) -> np.ndarray:
    """Reward changes caused by one player's defection from the target.

    Row m (a co-profile mask) is the vector of every player's reward
    change when ``player`` swaps their target action for its opposite
    while the co-players play m.
    """
    if target.n != game.n:
        raise ValueError("target profile size does not match the game")
    keep, leave = deviation_pairs(game.payoffs, target, player)
    return (leave - keep).reshape(-1, game.n)


def _scale(game, target) -> float:
    """1 + the largest reward change any deviation causes, one player's
    deltas at a time."""
    return 1.0 + max(float(np.abs(deviation_deltas(game, target, i)).max())
                     for i in range(game.n))


def _player_masks(flags) -> tuple[tuple[int, int], ...]:
    """(player, mask) for every set entry of an (n, 2**(n-1)) array."""
    pairs = []
    for i, row in enumerate(flags):
        pairs.extend(zip(itertools.repeat(i), np.flatnonzero(row).tolist()))
    return tuple(pairs)


def _gate_dilemma(game, force, tolerance=1e-9) -> Optional[DilemmaClassification]:
    classification = classify_dilemma(game, tolerance)
    if classification.kind is DilemmaKind.NOT_DILEMMA and not force:
        first = classification.witnesses[0].describe(game.n)
        raise NotADilemmaError(
            f"not a social dilemma ({first}); pass force=True to search anyway",
            classification)
    return classification


def _warn_if_suboptimal(game, target):
    if target not in social_optima(game):
        warnings.warn(
            f"target {target} is not a social optimum of the game",
            UserWarning, stacklevel=3)


def _resolve_target(game, target) -> ActionProfile:
    if target is None:
        return ActionProfile.all_cooperate(game.n)
    if target.n != game.n:
        raise ValueError("target profile size does not match the game")
    return target


def symmetrical_level(game: NormalFormGame,
                      target: Optional[ActionProfile] = None,
                      force: bool = False,
                      tolerance: float = 1e-9) -> SelfInterestResult:
    """Largest kept share s for which the even-split exchange contract
    resolves the game.

    Each deviation constraint is linear in s, so each yields a one-sided
    bound and the answer is the upper end of the feasible interval
    intersected with [0, 1].  Raises NotResolvableError when the
    interval is empty.
    """
    target = _resolve_target(game, target)
    _gate_dilemma(game, force)
    _warn_if_suboptimal(game, target)
    n = game.n
    own = deviation_gains(game.payoffs, target)
    others = np.empty_like(own)
    reach = 0.0
    for i in range(n):
        deltas = deviation_deltas(game, target, i)
        others[i] = deltas.sum(axis=1) - own[i]
        reach = max(reach, float(np.abs(deltas).max()))
    scale = 1.0 + reach
    tiny = 1e-12 * scale

    # s * own + (1 - s)/(n - 1) * others <= 0, rearranged in s
    coef = own - others / (n - 1)
    base = -others / (n - 1)
    immune = (np.abs(coef) <= tiny) & (base < -tiny)
    if immune.any():
        player = int(np.flatnonzero(immune.any(axis=1))[0])
        raise NotResolvableError(
            "deviation gains are immune to symmetrical transfers "
            f"(player {player + 1}); no exchange share resolves {target}")
    above, below = coef > tiny, coef < -tiny
    hi = float(np.min(base[above] / coef[above], initial=1.0))
    lo = float(np.max(base[below] / coef[below], initial=0.0))
    if lo > hi + tiny:
        raise NotResolvableError(
            f"no exchange share makes {target} weakly dominant "
            f"(feasible interval [{lo:.6g}, {hi:.6g}] is empty)")

    level = hi
    matrix = exchange_matrix(n, level)
    resid = level * own + (1.0 - level) / (n - 1) * others
    return SelfInterestResult(
        level=level,
        matrix=matrix,
        target=target,
        binding=_player_masks(np.abs(resid) <= tolerance * scale),
        excess=excess_report(matrix),
        mode=SolveMode.SYMMETRIC,
    )


def _deviation_block(table, target, working, var, width) -> np.ndarray:
    """LP rows of the working deviation constraints, player by player
    and masks ascending.  Player i's row for mask m reads
    sum_j delta[m, j] * T[j, i] <= 0, with T[j, i] held by LP variable
    var[j, i]; delta is sliced straight from the payoff rows."""
    blocks = []
    for i in range(target.n):
        keep, leave = deviation_pairs(table, target, i)
        masks = np.array(sorted(working[i]))
        at = (masks >> i, masks & ((1 << i) - 1))
        block = np.zeros((masks.size, width))
        block[:, var[:, i]] = leave[at] - keep[at]
        blocks.append(block)
    return np.vstack(blocks)


def _lazy_solve(build_lp, var, table, target, working, atol,
                feas_tol, opt_tol, max_rounds):
    """Solve on the working set, scan every deviation of the resulting
    matrix T (entry [j, i] is LP variable var[j, i]) and add each
    player's worst missing violations; repeat until none is left.
    ``working`` (one mask set per player) grows in place."""
    for _ in range(max_rounds):
        sol = solve_lp(build_lp(working), feas_tol=feas_tol, opt_tol=opt_tol)
        if sol.status is LpStatus.INFEASIBLE:
            return sol
        if sol.status is LpStatus.UNBOUNDED:
            raise RuntimeError("level search reported unbounded; the level "
                               "is capped by construction, so this is a bug")
        grown = False
        gains = deviation_gains(table @ sol.x[var], target)
        for i, resid in enumerate(gains):
            fresh = [m for m in np.flatnonzero(resid > atol).tolist()
                     if m not in working[i]]
            if fresh:
                fresh = np.array(fresh)
                order = np.lexsort((fresh, -resid[fresh]))
                working[i].update(fresh[order[:_ROWS_PER_ROUND]].tolist())
                grown = True
        if not grown:
            return sol
    raise RuntimeError("constraint generation did not converge")


def _extremes(n) -> list[set]:
    """Every player's starting working set: all co-players cooperate,
    all defect."""
    return [{0, (1 << (n - 1)) - 1} for _ in range(n)]


def _general_lp(table, target, var, allow_excess, objective, level_floor):
    """LP builder over T's n*n entries (variable j*n + i is T[j, i]) and
    the level z (variable n*n)."""
    n = target.n
    nv = n * n + 1
    level_rows = np.zeros((n, nv))
    level_rows[:, n * n] = 1.0
    level_rows[range(n), np.diag(var)] = -1.0
    row_sums = np.zeros((n, nv))
    row_sums[np.arange(n)[:, None], var] = 1.0

    c = np.zeros(nv)
    if objective == "level":
        c[n * n] = 1.0
    elif objective == "min-total":
        c[:n * n] = -1.0
    elif objective == "max-diag":
        c[np.diag(var)] = 1.0
    else:
        raise ValueError(f"unknown objective {objective!r}")
    lower = np.zeros(nv)
    if level_floor is not None:
        lower[n * n] = level_floor

    def build(working):
        rows = np.vstack([level_rows,
                          _deviation_block(table, target, working, var, nv)])
        b_ub = np.zeros(len(rows))
        if allow_excess:
            return LinearProgram(c, a_ub=np.vstack([rows, row_sums]),
                                 b_ub=np.concatenate([b_ub, np.ones(n)]),
                                 lower=lower)
        return LinearProgram(c, a_ub=rows, b_ub=b_ub, a_eq=row_sums,
                             b_eq=np.ones(n), lower=lower)

    return build


def _matrix_from_solution(t, conserving) -> TransferMatrix:
    t[np.abs(t) < 1e-12] = 0.0
    np.clip(t, 0.0, 1.0, out=t)
    sums = t.sum(axis=1)
    if conserving:
        t /= sums[:, None]
    else:
        over = sums > 1.0
        if over.any():
            t[over] /= sums[over, None]
    return TransferMatrix(t)


def _binding(game, target, matrix, tolerance):
    gains = deviation_gains(game.payoffs @ matrix.entries, target)
    return _player_masks(np.abs(gains) <= tolerance)


def general_level(game: NormalFormGame,
                  target: Optional[ActionProfile] = None,
                  *,
                  allow_excess: bool = False,
                  force: bool = False,
                  feas_tol: float = 1e-9,
                  opt_tol: float = 1e-9,
                  binding_tol: float = 1e-7,
                  refine_diagonal: bool = False,
                  max_rounds: int = 200) -> SelfInterestResult:
    """Search all transfer contracts for the highest resolving level.

    With ``allow_excess`` rows may sum to less than one (burning reward
    as a deterrent); a second LP pass then minimizes the total paid out
    so the reported slack is the largest one compatible with the level.
    With ``refine_diagonal`` (conserving mode only) a second pass
    maximizes the diagonal sum to break ties among optimal matrices.

    Raises NotADilemmaError for non-dilemmas unless ``force`` is given,
    and NotResolvableError when no contract works at all.
    """
    target = _resolve_target(game, target)
    _gate_dilemma(game, force)
    _warn_if_suboptimal(game, target)
    n = game.n
    table = game.payoffs
    var = np.arange(n * n).reshape(n, n)
    atol = feas_tol * _scale(game, target)
    working = _extremes(n)

    def stage(objective, level_floor):
        build = _general_lp(table, target, var, allow_excess, objective,
                            level_floor)
        return _lazy_solve(build, var, table, target, working, atol,
                           feas_tol, opt_tol, max_rounds)

    sol = stage("level", None)
    if sol.status is LpStatus.INFEASIBLE:
        raise NotResolvableError(
            f"no transfer contract makes {target} weakly dominant")
    level = float(sol.objective_value)
    log.debug("level %.12g after stage 1 (%d iterations)", level, sol.iterations)

    if allow_excess or refine_diagonal:
        refined = stage("min-total" if allow_excess else "max-diag", level)
        if refined.status is LpStatus.OPTIMAL:
            sol = refined

    matrix = _matrix_from_solution(sol.x[var], conserving=not allow_excess)
    return SelfInterestResult(
        level=level,
        matrix=matrix,
        target=target,
        binding=_binding(game, target, matrix, binding_tol),
        excess=excess_report(matrix),
        mode=SolveMode.GENERAL_WITH_EXCESS if allow_excess else SolveMode.GENERAL,
    )


def _permutation_powers(generator: Sequence[int], n: int) -> list[np.ndarray]:
    perm = np.asarray(generator, dtype=int)
    if perm.shape != (n,) or sorted(perm.tolist()) != list(range(n)):
        raise ValueError("generator must be a permutation of the players")
    orbit = {0}
    at = 0
    for _ in range(n - 1):
        at = int(perm[at])
        orbit.add(at)
    if len(orbit) != n:
        raise ValueError("generator must be a single cycle through all "
                         "players; its orbit of player 1 is shorter")
    powers = [np.arange(n)]
    for _ in range(n - 1):
        powers.append(perm[powers[-1]])
    return powers


def _check_symmetry(game, perm, tolerance=1e-9):
    n = game.n
    bits = np.arange(1 << n)
    mapped = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        mapped |= ((bits >> i) & 1) << int(perm[i])
    table = game.payoffs
    diff = np.abs(table[mapped][:, perm] - table).max()
    scale = 1.0 + float(np.abs(table).max())
    if diff > tolerance * scale:
        raise ValueError(
            "the game is not symmetric under the generator "
            f"(payoff mismatch {diff:.3g})")


def general_level_symmetric_fastpath(game: NormalFormGame,
                                     generator: Optional[Sequence[int]] = None,
                                     *,
                                     force: bool = False,
                                     feas_tol: float = 1e-9,
                                     opt_tol: float = 1e-9,
                                     binding_tol: float = 1e-7,
                                     max_rounds: int = 200) -> SelfInterestResult:
    """General-level search for games with a cyclic player symmetry.

    ``generator`` is a permutation (one n-cycle) under which the game is
    invariant: relabeling players by it leaves the payoff table
    unchanged.  The optimal matrix can then be taken to share the
    symmetry, which collapses the n*n shares to the n entries of one
    row; rows of the matrix are that row pushed around the cycle.  The
    target is all-cooperate (any symmetric target is all-same).  Results
    agree with ``general_level`` but the LP is tiny even for large n.
    """
    n = game.n
    if generator is None:
        generator = tuple((i + 1) % n for i in range(n))
    powers = _permutation_powers(generator, n)
    _check_symmetry(game, np.asarray(generator, dtype=int))
    _gate_dilemma(game, force)
    target = ActionProfile.all_cooperate(n)
    _warn_if_suboptimal(game, target)
    table = game.payoffs

    # row sigma^k(0) of T is the shared row pushed k steps round the
    # cycle: T[sigma^k(0), sigma^k(j)] = v[j], so T[j, i] is v[var[j, i]]
    var = np.zeros((n, n), dtype=int)
    for perm in powers:
        var[perm[0], perm] = np.arange(n)
    c = np.zeros(n)
    c[0] = 1.0

    def build(working):
        rows = _deviation_block(table, target, working, var, n)
        return LinearProgram(c, a_ub=rows, b_ub=np.zeros(len(rows)),
                             a_eq=np.ones((1, n)), b_eq=np.ones(1))

    sol = _lazy_solve(build, var, table, target, _extremes(n),
                      feas_tol * _scale(game, target), feas_tol, opt_tol,
                      max_rounds)
    if sol.status is LpStatus.INFEASIBLE:
        raise NotResolvableError(
            f"no transfer contract makes {target} weakly dominant")

    matrix = _matrix_from_solution(sol.x[var], conserving=True)
    return SelfInterestResult(
        level=float(sol.objective_value),
        matrix=matrix,
        target=target,
        binding=_binding(game, target, matrix, binding_tol),
        excess=excess_report(matrix),
        mode=SolveMode.GENERAL,
    )


def binding_constraints(game: NormalFormGame,
                        result: SelfInterestResult,
                        tolerance: float = 1e-7) -> list[tuple[int, int]]:
    """Recompute which deviation constraints are tight for a result."""
    return list(_binding(game, result.target, result.matrix, tolerance))
