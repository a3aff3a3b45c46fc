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
2013).  Any map works: every coefficient is added onto its variable,
so a variable that holds several entries counts each of them.  Both
maps number a row's diagonal entry last, so the solver's crash, which
puts each row sum on its last variable, starts every cold search from
the identity contract; the dual simplex then repairs the deviation rows
that contract violates.

``symmetrical_level`` restricts contracts to the one-parameter family
where everyone keeps s and splits the rest evenly.  Each deviation's
gain is affine in s, so the optimum has a closed form: the least upper
bound on s, clamped to [0, 1], where every gain is then checked once.
It takes one pass over two arrays formed in place of the deviation
gains and one buffer of the same size (half a payoff table each).  The
same family is the map ``1 - eye(n)`` through the LP, with the same
levels and binding masks.  Timed in one process on a shared 2-vCPU
host with one BLAS thread (graphical prisoner's dilemmas, best of 40
runs, of 7 at n >= 14), the LP took 0.27-0.32 ms per search at n = 2-6
against 0.08-0.11 ms, 1.7-1.8 against 1.3 ms at n = 14, and less at
n = 16 (6.8-7.0 against 8.1-8.5 ms); the closed form stays.

Deviation constraints number n * 2**(n-1), so they are generated
lazily from the first solve on, whatever the game's size: solve on a
working set that starts from the two extreme co-profiles, read the
contract off the solution, scan its every deviation for violations, add
the worst offenders, repeat.  The relaxation optimum only ever
over-estimates, so a violation-free contract is exact; the search
returns it with the binding set of that same scan.

Every test a search makes reads its one ``tolerance``: the simplex, the
dilemma gate and the social-optimum warning as it is, and every test on
reward changes (a violation, a binding constraint, the symmetry check)
as value vs tolerance * s, where s is 1 + the largest reward change of
any single deviation, decided through the game's one ``_Scale``
(game.py), as ``verify_resolution`` decides it.  The even split's
bounds and verdict are fixed guards of exact arithmetic, decided the
same way against 1e-12 * s.
"""

from __future__ import annotations

import enum
import functools
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# nothing here calls social_optima; the name stays importable because
# perfbench/spans.py re-binds it by name when it traces a run
from .game import (ActionProfile, DilemmaClassification, DilemmaKind,  # noqa: F401
                   NormalFormGame, _check_tolerance, _is_social_optimum,
                   classify_dilemma, deviation_gains, deviation_pairs,
                   insert_bit, social_optima, transferred_payoffs)
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
    |delta| over every player is game.py's ``_scale(game.payoffs)`` - 1.
    """
    if target.n != game.n:
        raise ValueError("target profile size does not match the game")
    keep, leave = deviation_pairs(game.payoffs, target, player)
    return (leave - keep).reshape(-1, game.n)


def _admit(game, target, force, tolerance, stacklevel=3) -> ActionProfile:
    """The target a search works for (all-cooperate when None), after
    the dilemma gate, which refuses a non-dilemma unless ``force`` is
    given (and is skipped then), and a warning if the target is not a
    social optimum.  Both read ``tolerance`` unscaled, as
    ``classify_dilemma`` and ``social_optima`` define it."""
    if target is None:
        target = ActionProfile.all_cooperate(game.n)
    if target.n != game.n:
        raise ValueError("target profile size does not match the game")
    if not force:
        classification = classify_dilemma(game, tolerance)
        if classification.kind is DilemmaKind.NOT_DILEMMA:
            first = next(classification.iter_witnesses()).describe(game.n)
            raise NotADilemmaError(
                f"not a social dilemma ({first}); pass force=True to search "
                "anyway", classification)
    if not _is_social_optimum(game, target, tolerance):
        warnings.warn(
            f"target {target} is not a social optimum of the game",
            UserWarning, stacklevel=stacklevel)
    return target


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
    table = game.payoffs
    scale = game._gain_scale
    # the gain at share s, s * own + (1 - s)/(n - 1) * others, reads
    # s * coef - base, with coef = own - others/(n - 1) and base =
    # -others/(n - 1), both formed in place of the gains they come from;
    # what the others gain is the welfare change of each deviation, read
    # as the gains of a table whose every column is the welfare, less own
    coef = deviation_gains(table, target)
    base = deviation_gains(
        np.broadcast_to(game._welfare_column[:, None], table.shape), target)
    base -= coef
    base /= 1 - n
    coef += base
    # the largest share is the least bound base / coef over the gains
    # that fall with s, a plain min over a buffer that holds +inf off
    # them (np.min(where=) on a mixed mask took 1.5-2.5 ms at n = 16);
    # roundoff can leave it a few ulps below 0
    above = scale.decide(lambda s: coef > 1e-12 * s)
    gain = np.full_like(coef, np.inf)
    np.divide(base, coef, out=gain, where=above)
    level = min(max(float(gain.min()), 0.0), 1.0)
    # the gains at that share, in the same buffer
    np.multiply(coef, level, out=gain)
    gain -= base
    peak = float(gain.max())
    if scale.decide(lambda s: peak > 1e-12 * s):
        tempted = scale.decide(lambda s: gain > 1e-12 * s)
        flat = np.abs(coef, out=coef)
        immune = tempted & scale.decide(lambda s: flat <= 1e-12 * s)
        if immune.any():
            player = int(np.nonzero(immune)[0][0])
            raise NotResolvableError(
                "deviation gains are immune to symmetrical transfers "
                f"(player {player + 1}); no exchange share resolves {target}")
        player = int(np.nonzero(tempted)[0][0])
        raise NotResolvableError(
            f"no exchange share makes {target} weakly dominant: player "
            f"{player + 1} still gains at {level:.6g}, the largest share "
            "the upper bounds allow (the feasible interval is empty)")
    # freed, so that the binding test's masks do not come on top of them
    del coef, base

    matrix = exchange_matrix(n, level)
    return SelfInterestResult(
        level=level,
        matrix=matrix,
        target=target,
        binding_mask=_binding(gain, tolerance, scale),
        excess=excess_report(matrix),
        mode=SolveMode.SYMMETRIC,
    )


def _deviation_block(table, target, mask, var, width) -> np.ndarray:
    """LP rows of the deviation constraints set in ``mask``, an (n,
    2**(n-1)) boolean array, player by player and masks ascending.
    Player i's row for mask m reads sum_j delta[m, j] * T[j, i] <= 0,
    with T[j, i] held by LP variable var[j, i]; delta is gathered from
    the payoff rows of the profiles where i keeps and leaves the target.
    Each coefficient is added onto its variable, so a variable that
    holds several entries of a column collects all of them."""
    players, masks = np.nonzero(mask)
    keep = insert_bit(masks, players, (target.bits >> players) & 1)
    delta = table[keep ^ (1 << players)] - table[keep]
    at = np.arange(players.size)[:, None] * width + var[:, players].T
    return np.bincount(at.ravel(), weights=delta.ravel(),
                       minlength=players.size * width).reshape(-1, width)


def _lazy_solve(lp, var, table, target, working, scale, tolerance,
                conserving, start=None):
    """Solve ``lp``, whose deviation rows are those set in ``working`` (an
    (n, 2**(n-1)) boolean mask, grown in place), read the contract T off
    the solution (T[j, i] is LP variable var[j, i]), scan its every
    deviation and append each player's worst missing violations as rows;
    repeat until none is left.  Every solve restarts from the one before
    it, the first from ``start`` when given (an optimal solution of a
    program with ``lp``'s rows).  A violation is a gain above
    ``tolerance`` times the game's scale, decided through ``scale`` (a
    ``_Scale``).  Returns the last program, its solution, the last T and
    that scan's binding mask, or None when a round is infeasible."""
    sol = start
    for _ in range(_MAX_ROUNDS):
        sol = solve_lp(lp, tolerance, start=sol)
        if sol.status is LpStatus.INFEASIBLE:
            return None
        if sol.status is LpStatus.UNBOUNDED:
            raise RuntimeError("level search reported unbounded; the level "
                               "is capped by construction, so this is a bug")
        matrix = _matrix_from_solution(sol.x[var], conserving)
        gains = deviation_gains(transferred_payoffs(table, matrix.entries),
                                target)
        # the violation mask is built only when the largest gain is one;
        # both tests are monotone in the scale, so they decide alike
        peak = gains.max()
        fresh = None
        if scale.decide(lambda s: peak > tolerance * s):
            fresh = scale.decide(lambda s: gains > tolerance * s) & ~working
        if fresh is None or not fresh.any():
            binding = _binding(gains, tolerance, scale)
            return lp, sol, matrix, binding
        # each player keeps their worst violations, ties to the lower mask
        for i in np.flatnonzero(fresh.sum(axis=1) > _ROWS_PER_ROUND):
            picked = np.flatnonzero(fresh[i])
            order = np.argsort(-gains[i, picked], kind="stable")
            fresh[i, picked[order[_ROWS_PER_ROUND:]]] = False
        # the next round's product is formed without this round's gains
        del gains
        working |= fresh
        rows = _deviation_block(table, target, fresh, var, lp.n_variables)
        lp = LinearProgram(lp.objective, a_ub=np.vstack([lp.a_ub, rows]),
                           b_ub=np.concatenate([lp.b_ub, np.zeros(len(rows))]),
                           a_eq=lp.a_eq, b_eq=lp.b_eq)
    raise RuntimeError("constraint generation did not converge")


def _level_lp(table, target, var, working, allow_excess) -> LinearProgram:
    """The level LP over the entries of T (T[j, i] is variable
    var[j, i]) and the level z (the last variable), with the working
    deviation rows: z is below every diagonal variable, and each row of
    T sums to one (at most one with ``allow_excess``)."""
    nv = int(var.max()) + 2
    # a map that shares variables repeats diagonal variables and rows of
    # T; each distinct one gets one row, in sorted order, and a row sum
    # counts every entry a variable holds.  (np.unique would import
    # numpy.ma, ~17 ms of every process's start-up.)
    diagonal = np.flatnonzero(np.bincount(np.diag(var)))
    rows = np.sort(var, axis=1)
    rows = rows[np.lexsort(rows.T[::-1])]
    sums = rows[np.append(True, (rows[1:] != rows[:-1]).any(axis=1))]
    level_rows = np.zeros((len(diagonal), nv))
    level_rows[:, -1] = 1.0
    level_rows[np.arange(len(diagonal)), diagonal] = -1.0
    row_sums = np.zeros((len(sums), nv))
    np.add.at(row_sums, (np.arange(len(sums))[:, None], sums), 1.0)
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
    # each row is scaled to sum to one, or at most one with excess
    sums = t.sum(axis=1)
    t /= np.where(conserving | (sums > 1.0), sums, 1.0)[:, None]
    return TransferMatrix(t)


def _binding(gains, tolerance, scale) -> np.ndarray:
    """The binding rule: |gain after transfer| <= tolerance * s, decided
    through ``scale``.  ``gains`` is overwritten with its absolute values."""
    np.abs(gains, out=gains)
    return scale.decide(lambda s: gains <= tolerance * s)


def _search(game, target, var, *, force, tolerance,
            allow_excess=False, refine_diagonal=False) -> SelfInterestResult:
    """The level search over transfer matrices whose entry [j, i] is LP
    variable var[j, i]: one variable per entry searches every matrix,
    and a map that shares variables searches the matrices it describes.
    The matrix and binding mask returned are those of the last lazy scan.
    See ``general_level`` for the rest."""
    target = _admit(game, target, force, tolerance, stacklevel=4)
    table = game.payoffs
    scale = game._gain_scale
    # every player's working set starts from the two extreme co-profiles:
    # all co-players cooperate, all defect
    working = np.zeros((game.n, 1 << (game.n - 1)), dtype=bool)
    working[:, [0, -1]] = True

    solved = _lazy_solve(_level_lp(table, target, var, working, allow_excess),
                         var, table, target, working, scale, tolerance,
                         not allow_excess)
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
        refined = _lazy_solve(second, var, table, target, working, scale,
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
    if game._gain_scale.decide(lambda s: worst > tolerance * s):
        raise ValueError(
            "the game is not symmetric under the generator "
            f"(payoff mismatch {worst:.3g})")


def general_level_symmetric_fastpath(game: NormalFormGame,
                                     generator: Optional[Sequence[int]] = None,
                                     *,
                                     force: bool = False,
                                     tolerance: float = 1e-9) -> SelfInterestResult:
    """General-level search for games with a cyclic player symmetry.

    ``generator`` is a permutation (one n-cycle) under which the game is
    invariant: relabeling players by it leaves the payoff table
    unchanged.  The optimal matrix can then be taken to share the
    symmetry, which collapses the n*n shares to the n entries of one
    row; rows of the matrix are that row pushed around the cycle.  The
    target is all-cooperate (any symmetric target is all-same).  Results
    agree with ``general_level`` but the LP has n + 1 variables.

    ``tolerance`` is read as in ``general_level``, and a payoff mismatch
    above tolerance * s fails the symmetry check.
    """
    _check_tolerance(tolerance)
    n = game.n
    if generator is None:
        generator = tuple((i + 1) % n for i in range(n))
    perm = np.asarray(generator)
    # compared before the cast, which would truncate 1.7 to 1
    if perm.shape != (n,) or sorted(perm.tolist()) != list(range(n)):
        raise ValueError("generator must be a permutation of the players")
    perm = perm.astype(int)
    cycle = [0]
    for _ in range(n - 1):
        cycle.append(int(perm[cycle[-1]]))
    if len(set(cycle)) != n:
        raise ValueError("generator must be a single cycle through all "
                         "players; its orbit of player 1 is shorter")
    _check_symmetry(game, perm, tolerance)

    # row cycle[k] of T is row 0 pushed k steps round the cycle, so
    # T[j, i] = T[0, cycle[pos[i] - pos[j]]], held by variable
    # (pos[i] - pos[j] - 1) mod n: the diagonal's is the last
    pos = np.argsort(cycle)
    var = (pos[None, :] - pos[:, None] - 1) % n
    return _search(game, None, var, force=force, tolerance=tolerance)


def binding_constraints(game: NormalFormGame,
                        result: SelfInterestResult,
                        tolerance: float = 1e-9) -> list[tuple[int, int]]:
    """Recompute which deviation constraints are tight for a result, by
    the searches' rule: a gain after transfer within tolerance * s of 0."""
    _check_tolerance(tolerance)
    if result.matrix.n != game.n or result.target.n != game.n:
        raise ValueError("result size does not match the game")
    gains = deviation_gains(
        transferred_payoffs(game.payoffs, result.matrix.entries), result.target)
    return _mask_pairs(_binding(gains, tolerance, game._gain_scale))
