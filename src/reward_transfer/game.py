"""Binary-action normal-form games and social dilemma classification.

Every player simultaneously picks cooperate (C) or defect (D).  A joint
choice is an action profile; with n players there are 2**n of them and we
index each by an integer whose k-th bit holds player k's action.  The
payoff table of a game is therefore a (2**n, n) array: row = profile,
column = player.

The table is stored column-major (Fortran order), so each player's 2**n
rewards are one contiguous run.  Every pass that costs O(n * 2**n) reads
one player at a time (deviation gains, the reward scale, the symmetry
check), and at n = 16 a row-major column walks all 8 MB with a stride of
n floats.  Products with a transfer matrix go through
``transferred_payoffs``, which keeps that layout.

A game is a social dilemma when three things hold at once:

* cooperation raises group welfare: whenever any single player switches
  from D to C, total (utilitarian) welfare strictly increases;
* defection tempts: a player can strictly increase their own reward by
  defecting (against every co-profile for a strict dilemma, against at
  least one for a partial dilemma);
* full cooperation strictly beats full defection for every player.

``classify_dilemma`` checks these conditions and reports witnesses for
the ones that fail.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

COOPERATE = 0
DEFECT = 1

# the most players a game may have: the payoff table of 20 players
# holds 2**20 * 20 floats (160 MB); games are parsed and built up to it
_MAX_PLAYERS = 20

_CHAR_TO_ACTION = {"C": COOPERATE, "D": DEFECT}
_ACTION_TO_CHAR = {COOPERATE: "C", DEFECT: "D"}

# names for the three dilemma conditions, used in witnesses and CLI output
WELFARE_CONDITION = "cooperation-raises-welfare"
TEMPTATION_CONDITION = "defection-raises-own-reward"
MUTUAL_CONDITION = "all-cooperate-beats-all-defect"


def _check_tolerance(tolerance: float) -> None:
    """Refuse a tolerance no test can read: NaN (every comparison with
    it is false, so every check would pass), infinite or negative."""
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(
            f"tolerance must be finite and non-negative, got {tolerance!r}")


def insert_bit(mask: int, player: int, action: int) -> int:
    """Expand a co-profile mask into a full profile by inserting
    ``action`` at bit position ``player``."""
    low = mask & ((1 << player) - 1)
    high = (mask >> player) << (player + 1)
    return high | (action << player) | low


def drop_bit(bits: int, player: int) -> int:
    """Remove ``player``'s bit from a full profile, yielding the
    co-profile mask of everyone else."""
    low = bits & ((1 << player) - 1)
    high = (bits >> (player + 1)) << player
    return high | low


@dataclass(frozen=True)
class ActionProfile:
    """One joint assignment of C/D to every player.

    ``bits`` encodes the profile: bit k is player k's action, 0 for
    cooperate and 1 for defect.  The string form reads left to right in
    player order, e.g. ``"DCC"`` is player 0 defecting among three.
    """

    bits: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("an action profile needs at least one player")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(
                f"profile bits {self.bits} out of range for {self.n} players")

    @classmethod
    def from_actions(cls, actions: Iterable[int]) -> "ActionProfile":
        bits = 0
        n = 0
        for k, action in enumerate(actions):
            if action not in (COOPERATE, DEFECT):
                raise ValueError(f"action {action!r} is not 0 (C) or 1 (D)")
            bits |= action << k
            n += 1
        return cls(bits, n)

    @classmethod
    def from_string(cls, text: str) -> "ActionProfile":
        try:
            return cls.from_actions(_CHAR_TO_ACTION[ch] for ch in text)
        except KeyError:
            raise ValueError(
                f"profile {text!r} may only contain the characters C and D"
            ) from None

    @classmethod
    def all_cooperate(cls, n: int) -> "ActionProfile":
        return cls(0, n)

    @classmethod
    def all_defect(cls, n: int) -> "ActionProfile":
        return cls((1 << n) - 1, n)

    def action(self, player: int) -> int:
        if not 0 <= player < self.n:
            raise ValueError(f"no player {player} in a {self.n}-player profile")
        return (self.bits >> player) & 1

    def actions(self) -> tuple[int, ...]:
        return tuple((self.bits >> k) & 1 for k in range(self.n))

    def flip(self, player: int) -> "ActionProfile":
        """The profile where ``player`` plays the opposite action."""
        if not 0 <= player < self.n:
            raise ValueError(f"no player {player} in a {self.n}-player profile")
        return ActionProfile(self.bits ^ (1 << player), self.n)

    def coplayers(self, player: int) -> int:
        """Everyone else's actions as a mask over n - 1 bits."""
        if not 0 <= player < self.n:
            raise ValueError(f"no player {player} in a {self.n}-player profile")
        return drop_bit(self.bits, player)

    def __str__(self) -> str:
        return "".join(_ACTION_TO_CHAR[a] for a in self.actions())


def coplayer_string(mask: int, n: int, player: int) -> str:
    """Render a co-profile mask as a C/D string over the n - 1 co-players
    of ``player``, in player order."""
    if not 0 <= player < n:
        raise ValueError(f"no player {player} in a {n}-player game")
    if not 0 <= mask < (1 << (n - 1)):
        raise ValueError(f"co-profile mask {mask} out of range")
    return "".join("D" if (mask >> k) & 1 else "C" for k in range(n - 1))


def deviation_pairs(table, target: ActionProfile,
                    player: int) -> tuple[np.ndarray, np.ndarray]:
    """``(keep, leave)``: views of ``table``'s rows (its first axis runs
    over the 2**n profiles) where ``player`` plays their target action
    and where they switch away.

    Profile ``(high << (player + 1)) | (action << player) | low`` pairs
    with co-profile mask ``m = (high << player) | low``, so splitting the
    rows as [high, action, low] lines both views up as [high, low]:
    co-profile m sits at ``[m >> player, m & ((1 << player) - 1)]``, and
    flattening the two leading axes orders the rows by m.
    """
    split = table.reshape((-1, 2, 1 << player) + table.shape[1:])
    action = target.action(player)
    return split[:, action], split[:, 1 - action]


def transferred_payoffs(table, entries) -> np.ndarray:
    """``table @ entries``, the rewards after transfer matrix
    ``entries``, in the same column-major layout as a game's payoffs.

    It is formed player-major, as ``entries.T @ table.T``, so that each
    player's rewards stay one contiguous run for the passes that follow.
    """
    return (entries.T @ table.T).T


def deviation_gains(table, target: ActionProfile) -> np.ndarray:
    """What each player gains by leaving the target, against each
    co-profile.

    ``table`` is any (2**n, n) reward table over profiles: a game's
    payoffs, or ``transferred_payoffs(payoffs, T)`` for the rewards
    after a transfer matrix T.  A column-major table makes each player's
    pass read contiguous memory.  Entry [i, m] of the (n, 2**(n-1)) result is
    ``table[leave, i] - table[keep, i]`` for player i's pair of rows at
    co-profile mask m.  The target is weakly dominant exactly when no
    entry is positive.
    """
    gains = np.empty((target.n, 1 << (target.n - 1)))
    for i in range(target.n):
        keep, leave = deviation_pairs(table[:, i], target, i)
        np.subtract(leave, keep, out=gains[i].reshape(keep.shape))
    return gains


class NormalFormGame:
    """An n-player binary-action game held as a dense payoff table.

    ``payoffs[p, k]`` is player k's reward at the profile with bit
    encoding p.  The table is copied, validated (shape 2**n by n,
    finite) and frozen on construction; tables the library has just
    made itself are adopted without the copy.  It is stored
    column-major (``payoffs.T`` is C-contiguous), so each player's
    rewards over the profiles are contiguous: the deviation passes of
    the level searches read one player at a time.
    """

    def __init__(self, payoffs):
        self._hold(np.array(payoffs, dtype=float, order="F"))

    @classmethod
    def _adopt(cls, table: np.ndarray) -> "NormalFormGame":
        """A game over ``table``, a column-major float64 array the
        library has just made and hands over: validated and frozen in
        place, not copied, so a builder or a transfer holds one table
        where a copy would hold two."""
        game = cls.__new__(cls)
        game._hold(np.asfortranarray(table, dtype=float))
        return game

    def _hold(self, table: np.ndarray) -> None:
        if table.ndim != 2:
            raise ValueError("payoffs must be a 2-d table: profiles by players")
        n_profiles, n = table.shape
        if n < 2:
            raise ValueError("a game needs at least two players")
        if n_profiles != 1 << n:
            raise ValueError(
                f"expected {1 << n} profiles for {n} players, got {n_profiles}")
        if not np.isfinite(table).all():
            raise ValueError("payoffs must be finite")
        table.setflags(write=False)
        self._table = table
        self.n = n

    @property
    def payoffs(self) -> np.ndarray:
        return self._table

    def rewards(self, profile: ActionProfile) -> np.ndarray:
        if profile.n != self.n:
            raise ValueError("profile size does not match the game")
        return self._table[profile.bits]

    def reward(self, profile: ActionProfile, player: int) -> float:
        return float(self.rewards(profile)[player])

    def welfare(self, profile: ActionProfile) -> float:
        return float(self.rewards(profile).sum())

    def profiles(self) -> Iterator[ActionProfile]:
        for bits in range(1 << self.n):
            yield ActionProfile(bits, self.n)

    def __eq__(self, other):
        if not isinstance(other, NormalFormGame):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._table, other._table)

    def __repr__(self):
        return f"NormalFormGame(n={self.n})"


class DilemmaKind(enum.Enum):
    STRICT = "strict"
    PARTIAL = "partial"
    NOT_DILEMMA = "not-a-dilemma"


@dataclass(frozen=True)
class ConditionWitness:
    """A specific failure of one dilemma condition.

    ``coplayers`` is the co-profile mask at which the condition fails,
    or None when the failure is not tied to a single co-profile (the
    temptation condition failing everywhere, or the all-C vs all-D
    comparison).
    """

    condition: str
    player: int
    coplayers: Optional[int] = None

    def describe(self, n: int) -> str:
        where = ""
        if self.coplayers is not None:
            where = f" against co-players {coplayer_string(self.coplayers, n, self.player)}"
        return f"player {self.player + 1}: {self.condition} fails{where}"


@dataclass(frozen=True)
class DilemmaClassification:
    kind: DilemmaKind
    witnesses: tuple[ConditionWitness, ...] = ()

    @property
    def is_dilemma(self) -> bool:
        return self.kind is not DilemmaKind.NOT_DILEMMA


def classify_dilemma(game: NormalFormGame,
                     tolerance: float = 1e-9) -> DilemmaClassification:
    """Decide whether a game is a strict dilemma, a partial one, or none.

    Strict: every unilateral switch to cooperation strictly raises group
    welfare, defecting strictly raises the defector's own reward against
    every co-profile, and everyone strictly prefers all-C to all-D.
    Partial keeps the welfare and all-C conditions but only asks that
    each player has *some* co-profile where defection strictly pays.
    Group welfare is the sum of rewards.  Strictness is judged against
    ``tolerance``: differences within it count as ties, and ties break
    the strict inequalities.
    """
    _check_tolerance(tolerance)
    table = game.payoffs
    n = game.n
    sw = table.sum(axis=1)
    everyone_cooperates = ActionProfile.all_cooperate(n)
    # the welfare change of each switch from cooperating to defecting,
    # read as the gains of a table whose every column is the welfare;
    # the switch back fails to raise welfare by more than tolerance
    # exactly where the change is at least -tolerance
    fails = deviation_gains(np.broadcast_to(sw[:, None], table.shape),
                            everyone_cooperates) >= -tolerance
    witnesses = [ConditionWitness(WELFARE_CONDITION, i, mask)
                 for i, masks in enumerate(fails)
                 for mask in np.flatnonzero(masks).tolist()]

    tempted = deviation_gains(table, everyone_cooperates) > tolerance
    for i in np.flatnonzero(~tempted.any(axis=1)):
        witnesses.append(ConditionWitness(TEMPTATION_CONDITION, int(i)))

    mutual_gain = table[0] - table[-1]
    for i in np.flatnonzero(mutual_gain <= tolerance):
        witnesses.append(ConditionWitness(MUTUAL_CONDITION, int(i)))

    if witnesses:
        return DilemmaClassification(DilemmaKind.NOT_DILEMMA, tuple(witnesses))
    if tempted.all():
        return DilemmaClassification(DilemmaKind.STRICT)
    return DilemmaClassification(DilemmaKind.PARTIAL)


@dataclass(frozen=True)
class DominanceReport:
    """Whether a target profile is (weakly/strictly) dominant.

    ``violations`` lists (player, co-profile mask, gap) triples where the
    player strictly prefers deviating from the target action; the gap is
    by how much.
    """

    target: ActionProfile
    strictly_dominant: bool
    weakly_dominant: bool
    violations: tuple[tuple[int, int, float], ...]


def check_dominance(game: NormalFormGame,
                    target: ActionProfile,
                    tolerance: float = 1e-9) -> DominanceReport:
    """Check whether each player's target action is a dominant choice.

    Weak dominance: no player can strictly gain (beyond ``tolerance``)
    by deviating from their target action, whatever the others do.
    Strict dominance additionally requires every deviation to strictly
    lose.
    """
    _check_tolerance(tolerance)
    if target.n != game.n:
        raise ValueError("target profile size does not match the game")
    gains = deviation_gains(game.payoffs, target)
    players, masks = np.nonzero(gains > tolerance)
    violations = tuple(zip(players.tolist(), masks.tolist(),
                           gains[players, masks].tolist()))
    return DominanceReport(
        target=target,
        strictly_dominant=bool((gains < -tolerance).all()),
        weakly_dominant=not violations,
        violations=violations,
    )


def pure_nash_equilibria(game: NormalFormGame,
                         tolerance: float = 1e-9) -> frozenset[ActionProfile]:
    """All profiles where no single player gains more than ``tolerance``
    by deviating."""
    _check_tolerance(tolerance)
    table = game.payoffs
    everyone_cooperates = ActionProfile.all_cooperate(game.n)
    stable = np.ones(1 << game.n, dtype=bool)
    for i in range(game.n):
        # the profiles where player i cooperates and where they defect,
        # paired by co-profile in the table and in ``stable`` alike
        cooperate, defect = deviation_pairs(table[:, i], everyone_cooperates, i)
        at_c, at_d = deviation_pairs(stable, everyone_cooperates, i)
        at_c &= defect - cooperate <= tolerance
        at_d &= cooperate - defect <= tolerance
    return frozenset(
        ActionProfile(int(bits), game.n) for bits in np.flatnonzero(stable))


def _is_social_optimum(game: NormalFormGame, target: ActionProfile,
                       tolerance: float = 1e-9) -> bool:
    """``target in social_optima(game, tolerance)``, without building
    the set of every optimal profile."""
    sw = game.payoffs.sum(axis=1)
    return bool(sw[target.bits] >= sw.max() - tolerance)


def social_optima(game: NormalFormGame,
                  tolerance: float = 1e-9) -> frozenset[ActionProfile]:
    """Profiles whose group welfare (the sum of rewards) is within
    ``tolerance`` of the best."""
    _check_tolerance(tolerance)
    sw = game.payoffs.sum(axis=1)
    best = sw.max()
    return frozenset(
        ActionProfile(int(bits), game.n)
        for bits in np.flatnonzero(sw >= best - tolerance))
