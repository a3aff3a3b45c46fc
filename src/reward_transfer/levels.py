"""Finding the most self-interested contract that still resolves a game.

The level of a transfer matrix is its smallest diagonal entry: the share
of their own reward the most-taxed player keeps.  For a game and a
target profile we look for the contract with the largest level under
which the target becomes weakly dominant.

``general_level`` and ``general_level_symmetric_fastpath`` are one
linear program over a variable map ``var``: LP variable var[j, i] holds
entry T[j, i] of the transfer matrix, and the level z is the last
variable.  Constraints say z is below every diagonal entry, rows are
conserving (or may burn reward with ``allow_excess``), and no player
profits by deviating from the target against any co-profile.
``general_level`` gives every entry its own variable; the fastpath maps
the entries of a circulant T, constant along the game's player cycle,
onto the n shares of one row.  Restricting T to matrices that commute
with a symmetry of the game keeps the optimum (Bödi, Herr & Joswig
2013).

``symmetrical_level`` restricts contracts to the one-parameter family
where everyone keeps s and splits the rest evenly.  Its optimum has a
closed form (an interval intersection).  The same family run as a
2-variable program gives the same answers but is several times slower
at small n, so the closed form stays.

Deviation constraints number n * 2**(n-1), so they are generated
lazily from the first solve on, whatever the game's size: solve on a
working set that starts from the two extreme co-profiles, scan the full
set for violations, add the worst offenders, repeat.  The relaxation
optimum only ever over-estimates, so a violation-free solution is exact.

Tolerance tests (a violation, the even split's interval and binding
tests) are scaled by 1 + the largest reward change of any single
deviation.  Computing it exactly costs O(n**2 * 2**n), so each search
decides its tests from cheap bounds on it, [1, 1 + the widest column
range], and runs the exact pass only when a test falls between them
(``_Scale``).  The decisions are the exact scale's, bit for bit.
"""

from __future__ import annotations

import enum
import functools
import logging
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# nothing here calls social_optima; the name stays importable because
# perfbench/spans.py re-binds it by name when it traces a run
from .game import (ActionProfile, DilemmaClassification, DilemmaKind,  # noqa: F401
                   NormalFormGame, _is_social_optimum, classify_dilemma,
                   deviation_gains, deviation_pairs, social_optima,
                   transferred_payoffs)
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


def _mask_pairs(mask) -> list[tuple[int, int]]:
    """(player, co-profile mask) for every set entry of an (n, 2**(n-1))
    boolean array, player by player and masks ascending."""
    players, masks = np.nonzero(mask)
    return list(zip(players.tolist(), masks.tolist()))


@dataclass(frozen=True)
class SelfInterestResult:
    """Outcome of a level search.

    The deviation constraints that hold with equality at the optimum are
    the temptations the contract only just neutralizes.  They are stored
    as ``binding_mask``, a read-only (n, 2**(n-1)) boolean array whose
    entry [i, m] says player i's constraint against co-profile mask m
    binds.  ``binding`` lists the same constraints as (player, mask)
    pairs, player by player and masks ascending; it is built from the
    mask when first read.
    """

    level: float
    matrix: TransferMatrix
    target: ActionProfile
    binding_mask: np.ndarray
    excess: ExcessReport
    mode: SolveMode

    def __post_init__(self):
        mask = np.array(self.binding_mask, dtype=bool)
        mask.setflags(write=False)
        object.__setattr__(self, "binding_mask", mask)

    @functools.cached_property
    def binding(self) -> tuple[tuple[int, int], ...]:
        return tuple(_mask_pairs(self.binding_mask))


def deviation_deltas(game: NormalFormGame,
                     target: ActionProfile,
                     player: int) -> np.ndarray:
    """Reward changes caused by one player's defection from the target.

    Row m (a co-profile mask) is the vector of every player's reward
    change when ``player`` swaps their target action for its opposite
    while the co-players play m.

    A reference for tests and tracing: no search calls it.  The largest
    |delta| over every player sets the scale of the tolerances, which
    the searches bound by column ranges and ``_scale`` takes exactly in
    one pass over the table; ``symmetrical_level`` reads welfare changes
    off the welfare vector.
    """
    if target.n != game.n:
        raise ValueError("target profile size does not match the game")
    keep, leave = deviation_pairs(game.payoffs, target, player)
    return (leave - keep).reshape(-1, game.n)


def _scale(game) -> float:
    """1 + the largest reward change any single deviation causes.

    The searches scale their tolerances by it, but they decide most of
    those tests from bounds on it (``_Scale``) and run this pass only
    when a test falls between them.

    That is the largest |difference| between two profiles one bit apart,
    over every player's rewards.  It does not depend on the target, as
    |a - b| = |b - a|, and a max of exact differences is the same in any
    order, so this equals 1 + max_i |deviation_deltas(game, target, i)|
    bit for bit.  One plain pass over the contiguous player rows of
    ``payoffs.T``, bit by bit, into one reused buffer of 2**(n-1)
    differences.
    """
    n = game.n
    diff = np.empty(1 << (n - 1))
    peak = 0.0
    for rewards in game.payoffs.T:
        for i in range(n):
            pairs = rewards.reshape(-1, 2, 1 << i)
            out = np.subtract(pairs[:, 1], pairs[:, 0],
                              out=diff.reshape(-1, 1 << i))
            peak = max(peak, np.abs(out, out=out).max())
    return 1.0 + float(peak)


class _Scale:
    """Bounds [lo, hi] on ``_scale(game)`` that decide scaled tolerance
    tests without the O(n**2 * 2**n) pass.

    Every one-bit difference lies within its column's range and rounding
    is monotone, so lo = 1 <= _scale(game) <= 1 + the widest column
    range holds bit for bit.  ``decide(test)`` takes a test as a
    function of the scale, monotone in it (element by element for an
    array), and evaluates it at both bounds: where the answers agree,
    they are the answer at the exact scale too.  Otherwise it runs
    ``_scale`` once, collapses both bounds onto it and evaluates the
    test there, so every decision is the one the exact scale gives.
    """

    def __init__(self, game):
        self._game = game
        self.lo = 1.0
        self.hi = 1.0 + float(np.ptp(game.payoffs, axis=0).max())

    def decide(self, test):
        at_lo, at_hi = test(self.lo), test(self.hi)
        if np.array_equal(at_lo, at_hi):
            return at_hi
        self.lo = self.hi = _scale(self._game)
        return test(self.hi)


def _gate_dilemma(game, force, tolerance=1e-9) -> Optional[DilemmaClassification]:
    classification = classify_dilemma(game, tolerance)
    if classification.kind is DilemmaKind.NOT_DILEMMA and not force:
        first = classification.witnesses[0].describe(game.n)
        raise NotADilemmaError(
            f"not a social dilemma ({first}); pass force=True to search anyway",
            classification)
    return classification


def _warn_if_suboptimal(game, target, stacklevel=3):
    if not _is_social_optimum(game, target):
        warnings.warn(
            f"target {target} is not a social optimum of the game",
            UserWarning, stacklevel=stacklevel)


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
    table = game.payoffs
    own = deviation_gains(table, target)
    # what the others gain: the welfare change of each deviation, read
    # as the gains of a table whose every column is the welfare
    welfare = table.sum(axis=1)
    others = deviation_gains(np.broadcast_to(welfare[:, None], table.shape),
                             target)
    others -= own
    scale = _Scale(game)

    # s * own + (1 - s)/(n - 1) * others <= 0, rearranged in s
    base = others / (n - 1)
    coef = own - base
    np.negative(base, out=base)
    # a conjunction of tests is not monotone in the scale: decide each
    immune = (scale.decide(lambda s: np.abs(coef) <= 1e-12 * s)
              & scale.decide(lambda s: base < -1e-12 * s))
    if immune.any():
        player = int(np.flatnonzero(immune.any(axis=1))[0])
        raise NotResolvableError(
            "deviation gains are immune to symmetrical transfers "
            f"(player {player + 1}); no exchange share resolves {target}")
    above = scale.decide(lambda s: coef > 1e-12 * s)
    below = scale.decide(lambda s: coef < -1e-12 * s)
    hi = float(np.min(base[above] / coef[above], initial=1.0))
    lo = float(np.max(base[below] / coef[below], initial=0.0))
    if scale.decide(lambda s: lo > hi + 1e-12 * s):
        raise NotResolvableError(
            f"no exchange share makes {target} weakly dominant "
            f"(feasible interval [{lo:.6g}, {hi:.6g}] is empty)")

    level = hi
    matrix = exchange_matrix(n, level)
    resid = level * own + (1.0 - level) / (n - 1) * others
    np.abs(resid, out=resid)
    return SelfInterestResult(
        level=level,
        matrix=matrix,
        target=target,
        binding_mask=scale.decide(lambda s: resid <= tolerance * s),
        excess=excess_report(matrix),
        mode=SolveMode.SYMMETRIC,
    )


def _deviation_block(table, target, mask, var, width) -> np.ndarray:
    """LP rows of the deviation constraints set in ``mask``, an (n,
    2**(n-1)) boolean array, player by player and masks ascending.
    Player i's row for mask m reads sum_j delta[m, j] * T[j, i] <= 0,
    with T[j, i] held by LP variable var[j, i]; delta is sliced straight
    from the payoff rows.  The row is filled by assignment, so no
    variable may repeat within a column of ``var``."""
    blocks = []
    for i in range(target.n):
        keep, leave = deviation_pairs(table, target, i)
        picked = np.flatnonzero(mask[i])
        at = (picked >> i, picked & ((1 << i) - 1))
        block = np.zeros((picked.size, width))
        block[:, var[:, i]] = leave[at] - keep[at]
        blocks.append(block)
    return np.vstack(blocks)


def _lazy_solve(lp, var, table, target, working, scale,
                feas_tol, opt_tol, max_rounds):
    """Solve ``lp``, whose deviation rows are those set in ``working``
    (an (n, 2**(n-1)) boolean mask, grown in place), scan every
    deviation of the resulting matrix T (entry [j, i] is LP variable
    var[j, i]) and append each player's worst missing violations as new
    rows; repeat until none is left.  Each round after the first
    re-optimizes the tableau of the round before.  A violation is a gain
    above ``feas_tol`` times the game's scale, decided through ``scale``
    (a ``_Scale``).  Returns the last program and its solution."""
    sol = None
    for _ in range(max_rounds):
        sol = solve_lp(lp, feas_tol=feas_tol, opt_tol=opt_tol, start=sol)
        if sol.status is LpStatus.INFEASIBLE:
            return lp, sol
        if sol.status is LpStatus.UNBOUNDED:
            raise RuntimeError("level search reported unbounded; the level "
                               "is capped by construction, so this is a bug")
        gains = deviation_gains(transferred_payoffs(table, sol.x[var]), target)
        fresh = scale.decide(lambda s: gains > feas_tol * s) & ~working
        # each player keeps their worst violations, ties to the lower mask
        for i in np.flatnonzero(fresh.sum(axis=1) > _ROWS_PER_ROUND):
            picked = np.flatnonzero(fresh[i])
            order = np.argsort(-gains[i, picked], kind="stable")
            fresh[i, picked[order[_ROWS_PER_ROUND:]]] = False
        if not fresh.any():
            return lp, sol
        working |= fresh
        rows = _deviation_block(table, target, fresh, var, lp.n_variables)
        lp = LinearProgram(lp.objective, a_ub=np.vstack([lp.a_ub, rows]),
                           b_ub=np.concatenate([lp.b_ub, np.zeros(len(rows))]),
                           a_eq=lp.a_eq, b_eq=lp.b_eq, lower=lp.lower)
    raise RuntimeError("constraint generation did not converge")


def _level_lp(table, target, var, working, allow_excess) -> LinearProgram:
    """The level LP over the entries of T (T[j, i] is variable
    var[j, i]) and the level z (the last variable), with the working
    deviation rows: z is below every diagonal variable, and each row of
    T sums to one (at most one with ``allow_excess``)."""
    nv = int(var.max()) + 2
    # a map that shares variables repeats diagonal variables and rows of
    # T; each distinct one gets one row, in order of first appearance
    diagonal = list(dict.fromkeys(np.diag(var).tolist()))
    sums = list(dict.fromkeys(tuple(sorted(row)) for row in var.tolist()))
    level_rows = np.zeros((len(diagonal), nv))
    level_rows[:, -1] = 1.0
    level_rows[np.arange(len(diagonal)), diagonal] = -1.0
    row_sums = np.zeros((len(sums), nv))
    row_sums[np.arange(len(sums))[:, None], sums] = 1.0
    c = np.zeros(nv)
    c[-1] = 1.0

    rows = np.vstack([level_rows,
                      _deviation_block(table, target, working, var, nv)])
    b_ub = np.zeros(len(rows))
    if allow_excess:
        return LinearProgram(c, a_ub=np.vstack([rows, row_sums]),
                             b_ub=np.concatenate([b_ub, np.ones(len(sums))]))
    return LinearProgram(c, a_ub=rows, b_ub=b_ub, a_eq=row_sums,
                         b_eq=np.ones(len(sums)))


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


def _binding(game, target, matrix, tolerance) -> np.ndarray:
    gains = deviation_gains(transferred_payoffs(game.payoffs, matrix.entries),
                            target)
    return np.abs(gains) <= tolerance


def _search(game, target, var, *, force, feas_tol, opt_tol, binding_tol,
            max_rounds, allow_excess=False,
            refine_diagonal=False) -> SelfInterestResult:
    """The level search over transfer matrices whose entry [j, i] is LP
    variable var[j, i]: one variable per entry searches every matrix,
    and a map that shares variables searches the matrices it describes.
    See ``general_level`` for the modes."""
    _gate_dilemma(game, force)
    _warn_if_suboptimal(game, target, stacklevel=4)
    n = game.n
    table = game.payoffs
    scale = _Scale(game)
    # every player's working set starts from the two extreme co-profiles:
    # all co-players cooperate, all defect
    working = np.zeros((n, 1 << (n - 1)), dtype=bool)
    working[:, [0, -1]] = True

    lp, sol = _lazy_solve(_level_lp(table, target, var, working, allow_excess),
                          var, table, target, working, scale,
                          feas_tol, opt_tol, max_rounds)
    if sol.status is LpStatus.INFEASIBLE:
        raise NotResolvableError(
            f"no transfer contract makes {target} weakly dominant")
    level = float(sol.objective_value)
    log.debug("level %.12g after stage 1 (%d iterations)", level, sol.iterations)

    if allow_excess or refine_diagonal:
        # stage 2 holds the level at its optimum and minimizes the total
        # paid out, or maximizes the diagonal sum
        c = np.zeros(lp.n_variables)
        if allow_excess:
            c[var] = -1.0
        else:
            c[np.diag(var)] = 1.0
        floor = np.zeros(lp.n_variables)
        floor[-1] = level
        second = LinearProgram(c, a_ub=lp.a_ub, b_ub=lp.b_ub, a_eq=lp.a_eq,
                               b_eq=lp.b_eq, lower=floor)
        _, refined = _lazy_solve(second, var, table, target, working, scale,
                                 feas_tol, opt_tol, max_rounds)
        if refined.status is LpStatus.OPTIMAL:
            sol = refined

    matrix = _matrix_from_solution(sol.x[var], conserving=not allow_excess)
    return SelfInterestResult(
        level=level,
        matrix=matrix,
        target=target,
        binding_mask=_binding(game, target, matrix, binding_tol),
        excess=excess_report(matrix),
        mode=SolveMode.GENERAL_WITH_EXCESS if allow_excess else SolveMode.GENERAL,
    )


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

    ``feas_tol`` and ``opt_tol`` go to the simplex as they are.  The
    violation scan scales ``feas_tol`` by 1 + the largest reward change
    any single deviation causes in the game: a deviation joins the lazy
    working set when its gain exceeds that.  ``binding_tol`` is an
    absolute bound on the gains after transfer.

    Raises NotADilemmaError for non-dilemmas unless ``force`` is given,
    and NotResolvableError when no contract works at all.
    """
    target = _resolve_target(game, target)
    return _search(game, target, np.arange(game.n ** 2).reshape(game.n, game.n),
                   allow_excess=allow_excess, force=force, feas_tol=feas_tol,
                   opt_tol=opt_tol, binding_tol=binding_tol,
                   refine_diagonal=refine_diagonal, max_rounds=max_rounds)


def _check_symmetry(game, perm, tolerance=1e-9):
    """Raise unless relabeling players by ``perm`` leaves the table
    unchanged: player perm[k] at the profile that moves bit i to bit
    perm[i] earns what player k earns at the original profile.

    Each player's rewards are viewed as an n-axis cube over the bits
    (axis n - 1 - b holds bit b); moving the bits is then a transpose of
    the axes, so player perm[k]'s cube is compared with player k's in
    place, one player at a time, without gathering a permuted table.
    """
    n = game.n
    table = game.payoffs
    cubes = table.T.reshape((n,) + (2,) * n)
    axes = [0] * n
    for i in range(n):
        axes[n - 1 - i] = n - 1 - int(perm[i])
    diff = np.empty((2,) * n)
    worst = 0.0
    for k in range(n):
        np.subtract(cubes[perm[k]].transpose(axes), cubes[k], out=diff)
        worst = max(worst, float(np.abs(diff, out=diff).max()))
    scale = 1.0 + float(np.abs(table).max())
    if worst > tolerance * scale:
        raise ValueError(
            "the game is not symmetric under the generator "
            f"(payoff mismatch {worst:.3g})")


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
    agree with ``general_level`` but the LP has n + 1 variables.
    """
    n = game.n
    if generator is None:
        generator = tuple((i + 1) % n for i in range(n))
    perm = np.asarray(generator, dtype=int)
    if perm.shape != (n,) or sorted(perm.tolist()) != list(range(n)):
        raise ValueError("generator must be a permutation of the players")
    cycle = [0]
    for _ in range(n - 1):
        cycle.append(int(perm[cycle[-1]]))
    if len(set(cycle)) != n:
        raise ValueError("generator must be a single cycle through all "
                         "players; its orbit of player 1 is shorter")
    _check_symmetry(game, perm)

    # row cycle[k] of T is row 0 pushed k steps round the cycle, so
    # T[j, i] = T[0, cycle[pos[i] - pos[j]]], held by variable var[j, i]
    pos = np.argsort(cycle)
    var = np.array(cycle)[(pos[None, :] - pos[:, None]) % n]
    return _search(game, ActionProfile.all_cooperate(n), var, force=force,
                   feas_tol=feas_tol, opt_tol=opt_tol,
                   binding_tol=binding_tol, max_rounds=max_rounds)


def binding_constraints(game: NormalFormGame,
                        result: SelfInterestResult,
                        tolerance: float = 1e-7) -> list[tuple[int, int]]:
    """Recompute which deviation constraints are tight for a result."""
    return _mask_pairs(_binding(game, result.target, result.matrix, tolerance))
