"""Families of social dilemmas and their known optimal levels.

Graphical families place a two-player base game (Prisoner's Dilemma,
Chicken, or Stag Hunt, parameterized by a cooperation stake c and a
defection stake d) on an interaction graph, given as a weight matrix W:
player i earns the sum over j of W[i, j] times their base payoff
against j.

* Cyclical: W[i, i+1 mod n] = 1, one game against the next player.
* Symmetrical: W = 1/(n-1) off the diagonal, the mean over co-players.
* Circular: W[i, j] = (1/2)**(ring distance), zero diagonal.
* Tycoon: ones in player 1's row and column; player 1 plays everyone,
  everyone else only player 1.

Each base payoff is bilinear in the two actions (0 C, 1 D), so for the
n-by-2^n player-major action table A (row i is player i's action at
every profile), the column deg = W.sum(1) and facing = W @ A the whole
table is one formula: c*(deg - facing) plus d*A*deg (Prisoner's
Dilemma), d*mismatch (Chicken) or d*(deg - mismatch) (Stag Hunt), with
mismatch = A*deg + facing - 2*A*facing.  The builders work player-major
throughout and hand the game the transpose, which is already in its
column-major layout.  The graphical builder evaluates the formula over
blocks of profiles, so that the build holds the table and little else.

The functional family replaces per-edge payoffs with a shared welfare
pot, -(c/n)*k**2 + 2*c*k for k cooperators, split in proportion to
effective weights: player i (1-based) carries weight i, doubled when
defecting.  Defection both shrinks the pot and grabs a larger slice.

For the graphical families the optimal levels have closed forms,
exposed through ``analytic_level`` and ``analytic_matrix``; the
functional family has none and is there to exercise the solver.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .game import _MAX_PLAYERS, NormalFormGame
from .levels import SolveMode
from .transfer import TransferMatrix, exchange_matrix


class BaseGame(enum.Enum):
    PRISONERS_DILEMMA = "pd"
    CHICKEN = "chicken"
    STAG_HUNT = "staghunt"


class GraphKind(enum.Enum):
    CYCLICAL = "cyclical"
    SYMMETRICAL = "symmetrical"
    CIRCULAR = "circular"
    TYCOON = "tycoon"


@dataclass(frozen=True)
class BaseGameParams:
    """Stakes of a two-player base game.

    c is what facing a cooperator is worth; d is the defection bonus
    (Prisoner's Dilemma), the mismatch bonus (Chicken), or the matching
    bonus (Stag Hunt).  The constraints keep the base game a dilemma:
    c > d for the Prisoner's Dilemma, c > 2d for the other two.
    """

    kind: BaseGame
    c: float
    d: float

    def __post_init__(self):
        if not (np.isfinite(self.c) and np.isfinite(self.d)):
            raise ValueError("stakes must be finite")
        if self.d <= 0:
            raise ValueError(f"requires d > 0, got d = {self.d}")
        if self.kind is BaseGame.PRISONERS_DILEMMA:
            if self.c <= self.d:
                raise ValueError(f"requires c > d, got c = {self.c}, d = {self.d}")
        elif self.c <= 2 * self.d:
            raise ValueError(f"requires c > 2d, got c = {self.c}, d = {self.d}")


def base_payoff(params: BaseGameParams, own: int, opponent: int) -> float:
    """One player's base-game payoff given both binary actions
    (0 cooperate, 1 defect)."""
    if own not in (0, 1) or opponent not in (0, 1):
        raise ValueError("actions must be 0 (C) or 1 (D)")
    c, d = params.c, params.d
    facing = c * (1 - opponent)
    if params.kind is BaseGame.PRISONERS_DILEMMA:
        return facing + d * own
    if params.kind is BaseGame.CHICKEN:
        return facing + d * abs(own - opponent)
    return facing + d * (1 - abs(own - opponent))


# the graphical builder evaluates its formula over blocks of
# 2**_BLOCK_BITS profiles; a game with at most that many players is one
_BLOCK_BITS = 11


def _action_table(n: int, start: int = 0,
                  stop: Optional[int] = None) -> np.ndarray:
    """A[i, p - start]: player i's action (0 C, 1 D) at profile p, for
    the profiles start <= p < stop (every profile by default),
    player-major.  Row i is 2**i zeros then 2**i ones, repeated; a block
    of profiles must start at a multiple of its power-of-two length, so
    a row whose run is at least that long is constant on it.  Both
    builders start from it, so it refuses a size beyond the cap before
    allocating."""
    if n > _MAX_PLAYERS:
        raise ValueError(f"a game has at most {_MAX_PLAYERS} players, got {n}")
    size = (1 << n if stop is None else stop) - start
    table = np.zeros((n, size))
    for i in range(n):
        if 2 << i <= size:
            table[i].reshape(-1, 2, 1 << i)[:, 1] = 1.0
        else:
            table[i] = (start >> i) & 1
    return table


def _graph_weights(graph: GraphKind, n: int) -> np.ndarray:
    """W[i, j]: how much player i's base game against j counts."""
    if graph is GraphKind.CYCLICAL:
        return np.roll(np.eye(n), 1, axis=1)
    if graph is GraphKind.SYMMETRICAL:
        return (1.0 - np.eye(n)) / (n - 1)
    if graph is GraphKind.CIRCULAR:
        gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        return 0.5 ** np.minimum(gap, n - gap) - np.eye(n)
    if graph is GraphKind.TYCOON:
        w = np.zeros((n, n))
        w[0, 1:] = w[1:, 0] = 1.0
        return w
    raise ValueError(f"unknown graph kind {graph!r}")


def build_graphical(graph: GraphKind,
                    params: BaseGameParams,
                    n: int) -> NormalFormGame:
    """Assemble the payoff table of a graphical dilemma with n players."""
    if n < 2:
        raise ValueError("a graphical dilemma needs at least two players")
    if graph is GraphKind.TYCOON and n == 2:
        warnings.warn("a two-player tycoon game degenerates to the base game",
                      UserWarning, stacklevel=2)
    w = _graph_weights(graph, n)
    deg = w.sum(axis=1)[:, None]
    # the formula runs over blocks of profiles, so that its temporaries
    # stay in cache and the build holds one table; the first block
    # refuses a size beyond the cap before the table is allocated
    step = 1 << min(n, _BLOCK_BITS)
    actions = _action_table(n, 0, step)
    table = np.empty((n, 1 << n))
    for start in range(0, 1 << n, step):
        if start:
            actions = _action_table(n, start, start + step)
        _graphical_block(table[:, start:start + step], actions, w, deg, params)
    return NormalFormGame._adopt(table.T)


def _graphical_block(out, actions, w, deg, params) -> None:
    """The graphical payoff formula on one block of profiles, written
    into ``out``; ``actions`` (the block's action table) is used up.
    Each profile's payoffs take the same operations in the same order
    whatever the block, so a blocked table equals a one-shot one bit
    for bit."""
    facing = w @ actions
    # the d term, accumulated in place: A*deg (PD), mismatch = A*deg +
    # facing*(1 - 2*A) (Chicken), or deg - mismatch (Stag Hunt); A, then
    # facing, are overwritten once no longer needed
    np.multiply(actions, deg, out=out)
    if params.kind is not BaseGame.PRISONERS_DILEMMA:
        actions *= -2.0
        actions += 1.0
        actions *= facing
        out += actions
        if params.kind is BaseGame.STAG_HUNT:
            np.subtract(deg, out, out=out)
    out *= params.d
    np.subtract(deg, facing, out=facing)
    facing *= params.c
    out += facing


@dataclass(frozen=True)
class FunctionalParams:
    n: int
    c: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("a functional dilemma needs at least two players")
        if not np.isfinite(self.c) or self.c <= 0:
            raise ValueError(f"requires c > 0, got c = {self.c}")


def build_functional(params: FunctionalParams) -> NormalFormGame:
    """Assemble a functional dilemma: quadratic welfare pot split by
    defection-doubled weights."""
    n, c = params.n, params.c
    table = _action_table(n)  # 1 where the player defects
    cooperators = n - table.sum(axis=0)
    pot = -(c / n) * cooperators ** 2 + 2.0 * c * cooperators
    # the weights (1 + defect) * (i + 1), then their shares of the pot at
    # each profile, formed in place in the action table to bound the
    # build's peak memory
    table += 1.0
    table *= np.arange(1, n + 1)[:, None]
    table /= table.sum(axis=0)
    table *= pot
    return NormalFormGame._adopt(table.T)


@dataclass(frozen=True)
class AnalyticLevel:
    """A closed-form optimal level.  ``is_limit`` marks values that are
    exact only as n grows (the finite-n level approaches from above)."""

    value: float
    is_limit: bool = False


def analytic_level(graph: GraphKind,
                   params: BaseGameParams,
                   n: int,
                   mode: SolveMode = SolveMode.GENERAL) -> AnalyticLevel:
    """The known optimal level for a graphical dilemma.

    Symmetric mode (even-split exchanges) has one formula per base game
    regardless of the graph; general mode depends on the graph, and for
    the Circular family only the large-n limit is known.
    """
    if n < 2:
        raise ValueError("need at least two players")
    c, d = params.c, params.d
    pd = params.kind is BaseGame.PRISONERS_DILEMMA
    if mode is SolveMode.SYMMETRIC:
        if pd:
            return AnalyticLevel(c / (c + d * (n - 1)))
        return AnalyticLevel((c - d) / (c + d * (n - 2)))
    if mode is not SolveMode.GENERAL:
        raise ValueError("closed forms exist for symmetric and general modes")
    if graph is GraphKind.CYCLICAL:
        return AnalyticLevel(c / (c + d) if pd else (c - d) / c)
    if graph in (GraphKind.SYMMETRICAL, GraphKind.TYCOON):
        return analytic_level(graph, params, n, SolveMode.SYMMETRIC)
    if graph is GraphKind.CIRCULAR:
        if pd:
            return AnalyticLevel(c / (c + 4 * d), is_limit=True)
        return AnalyticLevel((c - d) / (c + 3 * d), is_limit=True)
    raise ValueError(f"unknown graph kind {graph!r}")


def analytic_matrix(graph: GraphKind,
                    params: BaseGameParams,
                    n: int,
                    allow_limit: bool = False) -> TransferMatrix:
    """A known optimal transfer matrix for a graphical dilemma.

    Cyclical: each player keeps the level and pays the rest to their
    opponent, the next player around the circle, buying off the
    defection that would hurt them; the mass sits on the superdiagonal,
    wrapping around.
    Symmetrical and Tycoon: the even-split exchange at the symmetric
    level.  Circular: only the large-n limiting matrix is known (each
    player pays their two neighbours); it must be asked for explicitly
    with ``allow_limit`` and is not optimal at small n.
    """
    if n < 2:
        raise ValueError("need at least two players")
    if graph in (GraphKind.SYMMETRICAL, GraphKind.TYCOON):
        return exchange_matrix(
            n, analytic_level(graph, params, n, SolveMode.SYMMETRIC).value)
    if graph is GraphKind.CIRCULAR:
        if not allow_limit:
            raise ValueError(
                "no finite-n closed-form matrix for the circular family; "
                "pass allow_limit=True for the large-n limiting matrix")
        if n < 3:
            raise ValueError("the limiting circular matrix needs n >= 3")
    level = analytic_level(graph, params, n).value
    nxt = _graph_weights(GraphKind.CYCLICAL, n)
    if graph is GraphKind.CYCLICAL:
        return TransferMatrix(level * np.eye(n) + (1.0 - level) * nxt)
    side = (1.0 - level) / 2.0
    return TransferMatrix(level * np.eye(n) + side * (nxt + nxt.T))


def scaled_prisoners_dilemma(epsilon: float = 1e-6) -> NormalFormGame:
    """A two-player game whose resolution needs reward burning.

    Mutual cooperation is best for the group, but player 1's defection
    payoff is so large that no conserving contract can make cooperation
    dominant; shaving epsilon off it keeps burning contracts viable.
    """
    if not np.isfinite(epsilon) or epsilon <= 0:
        raise ValueError(f"requires epsilon > 0, got {epsilon}")
    return NormalFormGame([
        [9.0, 3.0],            # CC
        [12.0 - epsilon, 0.0],  # DC
        [0.0, 4.0],            # CD
        [3.0, 1.0],            # DD
    ])


def too_many_cooks() -> NormalFormGame:
    """A three-player dilemma whose social optima have exactly one
    defector: the mean-pairwise dilemma with a bonus for unanimity
    removed, so full cooperation is no longer the welfare peak."""
    params = BaseGameParams(BaseGame.PRISONERS_DILEMMA, 3.0, 1.0)
    table = build_graphical(GraphKind.SYMMETRICAL, params, 3).payoffs.copy()
    table[0] -= 1.0   # all cooperate
    table[-1] -= 1.0  # all defect
    return NormalFormGame(table)
