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
``general_level`` gives every entry its own variable; the fastpath, for
games that the cyclic shift of players i -> i + 1 leaves unchanged, maps
the entries of a circulant T, T[j, i] = T[0, i - j], onto the n shares
of row 0.  Restricting T to matrices that commute with a symmetry of
the game keeps the optimum (Bödi, Herr & Joswig 2013).  Any map works:
every coefficient is added onto its variable, so a variable that holds
several entries counts each of them.  Both maps number a row's diagonal
entry last, so the solver's crash, which puts each row sum on its last
variable, starts every cold search from the identity contract; the dual
simplex then repairs the deviation rows that contract violates.

``symmetrical_level`` restricts contracts to the one-parameter family
where everyone keeps s and splits the rest evenly.  Each deviation's
gain is affine in s, so the optimum has a closed form: the least upper
bound on s, clamped to [0, 1], where every gain is then checked once.
It reads the gains in the pieces of ``game._gain_blocks``: one pass
takes the bound, a second the gains at that share, so past 13 players
it forms its pieces twice rather than hold whole arrays.  The same
family is the map ``1 - eye(n)`` through the LP, with the same levels
and binding masks.  Timed in one process on a shared 2-vCPU host with
one BLAS thread (circular prisoner's dilemmas, best of 40 runs, of 7 at
n >= 14), the LP took 0.23-0.25 ms per search at n = 2-6 against
0.07-0.09 ms, and less past 13 players (1.3 against 2.8 ms at n = 14,
5.8 against 8.5 ms at n = 16); the closed form stays.

Deviation constraints number n * 2**(n-1), so they are generated
lazily from the first solve on, whatever the game's size: solve on a
working set that starts from the two extreme co-profiles, read the
contract off the solution, scan its every deviation for violations, add
the worst offenders, repeat.  The scan reads the contract's gains a
block of profiles at a time (``game._gain_blocks``) and keeps each
player's worst violations as it goes, so no transferred table or gains
array is whole.  It picks them in linear time (``np.partition``).  The
LP takes the rows as (player, mask) indices.  The relaxation optimum
only ever over-estimates, so a violation-free contract is exact; the
search returns it with the binding set of that same scan.

Every test a search makes reads its one ``tolerance``: the simplex, the
dilemma gate and the social-optimum warning as it is, and every test on
reward changes (a violation, a binding constraint, the symmetry check)
as value vs tolerance * s, where s is the game's reward scale: 1 + its
widest column range, fixed when the game is made (game.py), the scale
``verify_resolution`` reads.  The even split's bounds and verdict are
fixed guards of exact arithmetic, read against 1e-12 * s.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

# nothing here calls social_optima; the name stays importable because
# perfbench/spans.py re-binds it by name when it traces a run
from .game import (_BLOCK_BITS, ActionProfile,  # noqa: F401
                   DilemmaClassification, DilemmaKind, NormalFormGame,
                   _admit_target, _check_tolerance, _gain_blocks,
                   classify_dilemma, deviation_pairs, insert_bit,
                   social_optima)
from .lp import LinearProgram, LpStatus, solve_lp
from .transfer import (ExcessReport, TransferMatrix, exchange_matrix,
                       excess_report)

_ROWS_PER_ROUND = 8
# constraint generation gives up after this many rounds
_MAX_ROUNDS = 200


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
        players, masks = np.nonzero(self.binding_mask)
        return tuple(zip(players.tolist(), masks.tolist()))


def deviation_deltas(game: NormalFormGame,
                     target: ActionProfile,
                     player: int) -> np.ndarray:
    """Reward changes caused by one player's defection from the target.

    Row m (a co-profile mask) is the vector of every player's reward
    change when ``player`` swaps their target action for its opposite
    while the co-players play m.

    A reference for tests and tracing: no search calls it.  With m the
    largest |delta| over every player, the game's reward scale s (1 +
    its widest column range) lies in [1 + m, n * (1 + m)].
    """
    if target.n != game.n:
        raise ValueError("target profile size does not match the game")
    keep, leave = deviation_pairs(game.payoffs, target, player)
    return (leave - keep).reshape(-1, game.n)


def _admit(game, target, force, tolerance, stacklevel=4) -> ActionProfile:
    """The target a search works for, from ``_admit_target`` (which
    warns at ``stacklevel``), after the dilemma gate, which refuses a
    non-dilemma unless ``force`` is given (and is skipped then).  Both
    read ``tolerance`` unscaled, as ``classify_dilemma`` and
    ``social_optima`` define it."""
    if not force:
        classification = classify_dilemma(game, tolerance)
        if classification.kind is DilemmaKind.NOT_DILEMMA:
            first = next(classification.iter_witnesses()).describe(game.n)
            raise NotADilemmaError(
                f"not a social dilemma ({first}); pass force=True to search "
                "anyway", classification)
    return _admit_target(game, target, tolerance, stacklevel)


def symmetrical_level(game: NormalFormGame,
                      target: Optional[ActionProfile] = None,
                      force: bool = False,
                      tolerance: float = 1e-9) -> SelfInterestResult:
    """Largest kept share s for which the even-split exchange contract
    resolves the game.

    Each deviation's gain is linear in s.  A gain that falls as s falls
    bounds the share from above, and the answer is the least of those
    bounds, clamped to [0, 1].  Every other gain only grows or stays as
    s falls, so the contract at that share is the one to check: raises
    NotResolvableError when a deviation still gains there, naming a
    player whose gain is the same under every share (immune) when there
    is one.  ``tolerance`` is read as in ``general_level``.
    """
    _check_tolerance(tolerance)
    target = _admit(game, target, force, tolerance)
    n = game.n
    limit = tolerance * game._stakes
    guard = 1e-12 * game._stakes
    # a game of one piece keeps it for the second pass; larger ones form
    # their pieces again there, so that no gains array is ever whole
    pieces = _even_split_pieces(game, target)
    if n <= _BLOCK_BITS:
        pieces = list(pieces)
    # the largest share is the least bound base / coef over the gains
    # that fall with s, a plain min over a buffer that holds +inf off
    # them (np.min(where=) on a mixed mask took 1.5-2.5 ms at n = 16);
    # roundoff can leave it a few ulps below 0
    bound = np.inf
    for _, _, coef, base in pieces:
        above = coef > guard
        ratio = np.full_like(coef, np.inf)
        np.divide(base, coef, out=ratio, where=above)
        bound = min(bound, float(ratio.min()))
    # the last piece's buffers go before the second pass forms its own
    del coef, base, above, ratio
    level = min(max(bound, 0.0), 1.0)
    if n > _BLOCK_BITS:
        pieces = _even_split_pieces(game, target)
    # the gains at that share, piece by piece: the binding mask, and the
    # lowest players still tempted there, and tempted though their gain
    # is flat (the same under every share)
    binding = np.empty((n, 1 << (n - 1)), dtype=bool)
    tempted_player = immune_player = n
    for players, masks, coef, base in pieces:
        gain = np.multiply(coef, level)
        gain -= base
        peak = float(gain.max())
        if peak > guard:
            tempted = gain > guard
            immune = tempted & (np.abs(coef, out=coef) <= guard)
            first = players.start
            tempted_player = min(tempted_player,
                                 first + int(np.nonzero(tempted)[0][0]))
            if immune.any():
                immune_player = min(immune_player,
                                    first + int(np.nonzero(immune)[0][0]))
        binding[players, masks] = _binding(gain, limit)
    if immune_player < n:
        raise NotResolvableError(
            "deviation gains are immune to symmetrical transfers (player "
            f"{immune_player + 1}); no exchange share resolves {target}")
    if tempted_player < n:
        raise NotResolvableError(
            f"no exchange share makes {target} weakly dominant: player "
            f"{tempted_player + 1} still gains at {level:.6g}, the largest "
            "share the upper bounds allow (the feasible interval is empty)")

    matrix = exchange_matrix(n, level)
    return SelfInterestResult(
        level=level,
        matrix=matrix,
        target=target,
        binding_mask=binding,
        excess=excess_report(matrix),
        mode=SolveMode.SYMMETRIC,
    )


def _even_split_pieces(game, target):
    """``(players, masks, coef, base)`` over the pieces of
    ``_gain_blocks``: the gain of each deviation at kept share s, s * own
    + (1 - s)/(n - 1) * others, reads s * coef - base, with coef = own -
    others/(n - 1) and base = -others/(n - 1), both formed in place of
    the gains they come from.  What the others gain is the welfare
    change of each deviation, read as the gains of a table whose every
    column is the welfare, less own."""
    table = game.payoffs
    welfare = np.broadcast_to(game._welfare_column[:, None], table.shape)
    for (players, masks, coef), (_, _, base) in zip(
            _gain_blocks(table, target), _gain_blocks(welfare, target)):
        base -= coef
        base /= 1 - game.n
        coef += base
        yield players, masks, coef, base


def _deviation_block(table, target, players, masks, var,
                     width) -> np.ndarray:
    """LP rows of the deviation constraints of ``players[k]`` against
    co-profile mask ``masks[k]``, in that order (``np.nonzero``'s of an
    (n, 2**(n-1)) mask: player by player, masks ascending).
    Player i's row for mask m reads sum_j delta[m, j] * T[j, i] <= 0,
    with T[j, i] held by LP variable var[j, i]; delta is gathered from
    the payoff rows of the profiles where i keeps and leaves the target.
    Each coefficient is added onto its variable, so a variable that
    holds several entries of a column collects all of them."""
    keep = insert_bit(masks, players, (target.bits >> players) & 1)
    delta = table[keep ^ (1 << players)] - table[keep]
    at = np.arange(players.size)[:, None] * width + var[:, players].T
    return np.bincount(at.ravel(), weights=delta.ravel(),
                       minlength=players.size * width).reshape(-1, width)


def _lazy_solve(lp, var, table, target, working, limit, tolerance,
                conserving, start=None):
    """Solve ``lp``, whose deviation rows are those set in ``working`` (an
    (n, 2**(n-1)) boolean mask, grown in place), read the contract T off
    the solution (T[j, i] is LP variable var[j, i]), scan its every
    deviation and append each player's worst missing violations as rows;
    repeat until none is left.  Every solve restarts from the one before
    it, the first from ``start`` when given (an optimal solution of a
    program with ``lp``'s rows).  The simplex reads ``tolerance``, and
    the scan ``limit``, the tolerance times the game's scale.  Returns
    the last program, its solution, the last T and that scan's binding
    mask, or None when a round is infeasible."""
    sol = start
    for _ in range(_MAX_ROUNDS):
        sol = solve_lp(lp, tolerance, start=sol)
        if sol.status is LpStatus.INFEASIBLE:
            return None
        if sol.status is LpStatus.UNBOUNDED:
            raise RuntimeError("level search reported unbounded; the level "
                               "is capped by construction, so this is a bug")
        matrix = _matrix_from_solution(sol.x[var], conserving)
        fresh, binding = _scan(table, target, matrix.entries, working, limit)
        if fresh is None:
            return lp, sol, matrix, binding
        players, masks = fresh
        working[players, masks] = True
        rows = _deviation_block(table, target, players, masks, var,
                                lp.n_variables)
        lp = LinearProgram(lp.objective, a_ub=np.vstack([lp.a_ub, rows]),
                           b_ub=np.concatenate([lp.b_ub, np.zeros(len(rows))]),
                           a_eq=lp.a_eq, b_eq=lp.b_eq)
    raise RuntimeError("constraint generation did not converge")


def _scan(table, target, entries, working, limit):
    """One scan of contract ``entries``' every deviation gain, piece by
    piece (``_gain_blocks``), against ``limit``, the tolerance times the
    game's scale.  Returns ``((players, masks), None)``: the violations
    (gains above ``limit``) missing from ``working``, each player's
    worst ``_ROWS_PER_ROUND`` in ``np.nonzero`` order; or ``(None,
    binding)`` when there are none, with the binding mask of the same
    gains, which stops being filled once a missing violation shows.
    Each player keeps their worst ``_ROWS_PER_ROUND`` violations in the
    piece, ties to the lower mask, by a linear pick (``_largest``)."""
    binding = np.empty(working.shape, dtype=bool)
    worst = None
    for players, masks, gains in _gain_blocks(table, target, entries):
        if gains.max() > limit:
            fresh = (gains > limit) & ~working[players, masks]
            for row in np.flatnonzero(fresh.sum(axis=1) > _ROWS_PER_ROUND):
                picked = np.flatnonzero(fresh[row])
                fresh[row, picked] = _largest(gains[row, picked],
                                              _ROWS_PER_ROUND)
            rows, cols = np.nonzero(fresh)
            if rows.size:
                found = (rows + players.start, cols + masks.start,
                         gains[rows, cols])
                worst = found if worst is None else _worst_per_player(
                    *map(np.concatenate, zip(worst, found)))
        if worst is None:
            binding[players, masks] = _binding(gains, limit)
    if worst is None:
        return None, binding
    players, masks, _ = worst
    order = np.lexsort((masks, players))
    return (players[order], masks[order]), None


def _largest(values, count) -> np.ndarray:
    """The mask of the ``count`` largest ``values``, ties to the lower
    index: every value above the count-th largest, which
    ``np.partition`` finds in linear time, then the first of those equal
    to it."""
    cut = values.size - count
    nth = np.partition(values, cut)[cut]
    keep = values > nth
    tied = np.flatnonzero(values == nth)
    keep[tied[:count - np.count_nonzero(keep)]] = True
    return keep


def _worst_per_player(players, masks, gains):
    """The ``_ROWS_PER_ROUND`` largest gains of each player, ties to the
    entry that comes first, which is the lower mask: a player's masks
    ascend along the input (the worst kept so far, then a later
    piece's).  Returned by player, then gain descending."""
    order = np.lexsort((-gains, players))
    players = players[order]
    keep = (np.arange(players.size)
            - np.searchsorted(players, players) < _ROWS_PER_ROUND)
    order = order[keep]
    return players[keep], masks[order], gains[order]


def _level_lp(table, target, var, players, masks,
              allow_excess) -> LinearProgram:
    """The level LP over the entries of T (T[j, i] is variable
    var[j, i]) and the level z (the last variable), with the deviation
    rows of ``players`` against ``masks`` (``_deviation_block``): z is
    below every diagonal variable, and each row of T sums to one (at
    most one with ``allow_excess``), counting every entry a variable
    holds.  A repeated diagonal variable gets one level row; a repeated
    row sum (the fastpath's n rows all sum the same n variables) is left
    to the solver's crash, which drops it as dependent."""
    nv = int(var.max()) + 2
    n = len(var)
    diagonal = np.flatnonzero(np.bincount(np.diag(var)))
    level_rows = np.zeros((len(diagonal), nv))
    level_rows[:, -1] = 1.0
    level_rows[np.arange(len(diagonal)), diagonal] = -1.0
    row_sums = np.zeros((n, nv))
    np.add.at(row_sums, (np.arange(n)[:, None], var), 1.0)
    c = np.zeros(nv)
    c[-1] = 1.0

    rows = np.vstack([level_rows,
                      _deviation_block(table, target, players, masks,
                                       var, nv)])
    b_ub = np.zeros(len(rows))
    if allow_excess:
        return LinearProgram(c, a_ub=np.vstack([rows, row_sums]),
                             b_ub=np.concatenate([b_ub, np.ones(n)]))
    return LinearProgram(c, a_ub=rows, b_ub=b_ub, a_eq=row_sums,
                         b_eq=np.ones(n))


def _matrix_from_solution(t, conserving) -> TransferMatrix:
    t[np.abs(t) < 1e-12] = 0.0
    np.clip(t, 0.0, 1.0, out=t)
    # each row is scaled to sum to one, or at most one with excess
    sums = t.sum(axis=1)
    t /= np.where(conserving | (sums > 1.0), sums, 1.0)[:, None]
    return TransferMatrix(t)


def _binding(gains, limit) -> np.ndarray:
    """The binding rule: |gain after transfer| <= ``limit``, the
    tolerance times the game's scale.  ``gains`` is overwritten with its
    absolute values."""
    np.abs(gains, out=gains)
    return gains <= limit


def _search(game, target, var, *, force, tolerance,
            allow_excess=False, refine_diagonal=False) -> SelfInterestResult:
    """The level search over transfer matrices whose entry [j, i] is LP
    variable var[j, i]: one variable per entry searches every matrix,
    and a map that shares variables searches the matrices it describes.
    The matrix and binding mask returned are those of the last lazy scan.
    See ``general_level`` for the rest."""
    target = _admit(game, target, force, tolerance, stacklevel=5)
    table = game.payoffs
    limit = tolerance * game._stakes
    # every player's working set starts from the two extreme co-profiles:
    # all co-players cooperate, all defect
    n = game.n
    working = np.zeros((n, 1 << (n - 1)), dtype=bool)
    working[:, [0, -1]] = True

    solved = _lazy_solve(
        _level_lp(table, target, var, *np.nonzero(working), allow_excess),
        var, table, target, working, limit, tolerance, not allow_excess)
    if solved is None:
        raise NotResolvableError(
            f"no transfer contract makes {target} weakly dominant")
    lp, sol, matrix, binding = solved
    level = sol.objective_value

    if allow_excess or refine_diagonal:
        # stage 2 holds the level at its optimum and minimizes the total
        # paid out, or maximizes the diagonal sum.  Its last variable is
        # z - level >= 0, so the level rows' right-hand sides shift by
        # level; z has no cost here, and only the entries of T are read.
        # Stage 1's optimal vertex is feasible for it, so stage 2 starts
        # from stage 1's final basis.  Stage 1's contract stands when
        # stage 2 finds no optimum
        c = np.zeros(lp.n_variables)
        counted, weight = (var, -1.0) if allow_excess else (np.diag(var), 1.0)
        np.add.at(c, counted, weight)
        second = LinearProgram(c, a_ub=lp.a_ub,
                               b_ub=lp.b_ub - lp.a_ub[:, -1] * level,
                               a_eq=lp.a_eq, b_eq=lp.b_eq)
        refined = _lazy_solve(second, var, table, target, working, limit,
                              tolerance, not allow_excess, start=sol)
        if refined is not None:
            _, _, matrix, binding = refined

    return SelfInterestResult(
        level=level,
        matrix=matrix,
        target=target,
        binding_mask=binding,
        excess=excess_report(matrix),
        mode=SolveMode.GENERAL_WITH_EXCESS if allow_excess else SolveMode.GENERAL,
    )


def general_level(game: NormalFormGame,
                  target: Optional[ActionProfile] = None,
                  *,
                  allow_excess: bool = False,
                  force: bool = False,
                  refine_diagonal: bool = False,
                  tolerance: float = 1e-9) -> SelfInterestResult:
    """Search all transfer contracts for the highest resolving level.

    With ``allow_excess`` rows may sum to less than one (burning reward
    as a deterrent); a second LP pass then minimizes the total paid out
    so the reported slack is the largest one compatible with the level.
    With ``refine_diagonal`` (conserving searches only; with
    ``allow_excess`` it raises ValueError) a second pass maximizes the
    diagonal sum to break ties among optimal matrices.

    Every test reads ``tolerance``: the simplex, the dilemma gate and
    the social-optimum warning as it is.  With s the game's reward scale
    (see the module notes), the scan adds a deviation whose gain exceeds
    tolerance * s, and a constraint binds when its gain after transfer is
    within tolerance * s of zero, as ``binding_constraints`` recomputes.

    Raises NotADilemmaError for non-dilemmas unless ``force`` is given,
    and NotResolvableError when no contract works at all.
    """
    _check_tolerance(tolerance)
    if allow_excess and refine_diagonal:
        raise ValueError("refine_diagonal applies to conserving searches "
                         "only; it cannot be combined with allow_excess")
    # T[j, i] is variable j*n + (i - j - 1) mod n: each row of T its own
    # n variables, the diagonal entry last
    n = game.n
    players = np.arange(n)
    var = players[:, None] * n + (players[None, :] - players[:, None] - 1) % n
    return _search(game, target, var, allow_excess=allow_excess, force=force,
                   tolerance=tolerance, refine_diagonal=refine_diagonal)


def _check_symmetry(game, perm, tolerance):
    """Raise unless relabeling players by ``perm`` leaves the table
    unchanged: player perm[k] at the profile that moves bit i to bit
    perm[i] earns what player k earns at the original profile, to within
    tolerance * s, s the game's reward scale.

    Each player's rewards are viewed as an n-axis cube over the bits
    (axis n - 1 - b holds bit b); moving the bits is then a transpose of
    the axes, so player perm[k]'s cube is compared with player k's in
    place, one player at a time, without gathering a permuted table.
    """
    n = game.n
    table = game.payoffs
    cubes = table.T.reshape((n,) + (2,) * n)
    axes = (n - 1 - perm[::-1]).tolist()
    diff = np.empty((2,) * n)
    worst = 0.0
    for k in range(n):
        np.subtract(cubes[perm[k]].transpose(axes), cubes[k], out=diff)
        worst = max(worst, float(np.abs(diff, out=diff).max()))
    if worst > tolerance * game._stakes:
        raise ValueError(
            "the game is not symmetric under the generator "
            f"(payoff mismatch {worst:.3g})")


def general_level_symmetric_fastpath(game: NormalFormGame,
                                     *,
                                     force: bool = False,
                                     tolerance: float = 1e-9) -> SelfInterestResult:
    """General-level search for games invariant under the cyclic shift
    of players i -> i + 1 (mod n): relabeling players by it leaves the
    payoff table unchanged.  The optimal matrix can then be taken to
    share the symmetry, which collapses the n*n shares to the n entries
    of row 0; row j is that row shifted j places, T[j, i] = T[0, i - j].
    The target is all-cooperate (any symmetric target is all-same).
    Results agree with ``general_level`` but the LP has n + 1 variables.

    ``tolerance`` is read as in ``general_level``, and a payoff mismatch
    above tolerance * s fails the symmetry check.
    """
    _check_tolerance(tolerance)
    players = np.arange(game.n)
    _check_symmetry(game, np.roll(players, -1), tolerance)
    # T[j, i] = T[0, (i - j) mod n] is held by variable (i - j - 1) mod n:
    # the diagonal's is the last
    var = (players - players[:, None] - 1) % game.n
    return _search(game, None, var, force=force, tolerance=tolerance)


def binding_constraints(game: NormalFormGame,
                        result: SelfInterestResult,
                        tolerance: float = 1e-9) -> np.ndarray:
    """Recompute which deviation constraints are tight for a result, by
    the searches' rule: a gain after transfer within tolerance * s of 0.
    Returns a read-only mask of the form of ``result.binding_mask``."""
    _check_tolerance(tolerance)
    if result.matrix.n != game.n or result.target.n != game.n:
        raise ValueError("result size does not match the game")
    limit = tolerance * game._stakes
    binding = np.empty((game.n, 1 << (game.n - 1)), dtype=bool)
    for players, masks, gains in _gain_blocks(
            game.payoffs, result.target, result.matrix.entries):
        binding[players, masks] = _binding(gains, limit)
    binding.setflags(write=False)
    return binding
