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

A game is immutable, so its facts are computed on first use (never at
construction) and kept: its welfare column, its classification at each
tolerance and its reward scale s (``_Scale``), which every tolerance
test on a deviation gain reads as value vs tolerance * s.  None refers
back to the game, so a game is freed as soon as its last reference goes.
"""

from __future__ import annotations

import enum
import functools
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


# a pass over pair views whose runs are at most _SHORT_RUN values long,
# and at least _MANY_RUNS in number, reads them column by column
_SHORT_RUN = 4
_MANY_RUNS = 256


def _along_runs(*views) -> Iterable[tuple[np.ndarray, ...]]:
    """Matching pieces of equally shaped 2-d [high, low] views, such as
    ``deviation_pairs`` gives for one column, to pass over together: the
    views themselves, or their columns when the runs (the low axis) are
    short and many.  numpy makes the shortest-stride axis its inner
    loop, which on runs of 1-4 values costs a step per pair; a column
    runs along the long axis (player 1's gains at n = 16: 0.22 -> 0.03
    ms), while a few hundred pairs cost less in one call.  The values
    are the same either way, bit for bit."""
    high, low = views[0].shape
    if low > _SHORT_RUN or high < _MANY_RUNS:
        return (views,)
    return zip(*(view.T for view in views))


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
        for k, l, out in _along_runs(keep, leave,
                                    gains[i].reshape(keep.shape)):
            np.subtract(l, k, out=out)
    return gains


def _scale(table) -> float:
    """The reward scale s of every tolerance test on a deviation gain:
    1 + the largest |difference| between two profiles one bit apart,
    over every player's rewards.  It does not depend on the target, and
    a max of exact differences is the same in any order, so it equals
    1 + max_i |levels.deviation_deltas(game, target, i)| bit for bit.
    One pass over the contiguous player rows of ``table.T``, bit by bit,
    into one reused buffer of 2**(n-1) differences."""
    n = table.shape[1]
    diff = np.empty(1 << (n - 1))
    peak = 0.0
    for rewards in table.T:
        for i in range(n):
            pairs = rewards.reshape(-1, 2, 1 << i)
            out = np.subtract(pairs[:, 1], pairs[:, 0],
                              out=diff.reshape(-1, 1 << i))
            peak = max(peak, np.abs(out, out=out).max())
    return 1.0 + float(peak)


class _Scale:
    """Bounds [lo, hi] on ``_scale(table)`` that decide scaled tolerance
    tests without its O(n**2 * 2**n) pass: lo = 1 <= _scale(table) <= 1 +
    the widest column range holds bit for bit, as every one-bit
    difference lies within its column's range and rounding is monotone.
    ``decide(test)`` evaluates a test monotone in the scale (element by
    element for an array) at both bounds: where they agree, that is the
    exact scale's answer.  Otherwise it runs ``_scale`` once, collapses
    both bounds onto it and evaluates the test there.  It holds the
    table, not the game: no reference cycle."""

    def __init__(self, table):
        self._table = table
        self.lo = 1.0
        self.hi = 1.0 + float(np.ptp(table, axis=0).max())

    def decide(self, test):
        at_lo, at_hi = test(self.lo), test(self.hi)
        if np.array_equal(at_lo, at_hi):
            return at_hi
        self.lo = self.hi = _scale(self._table)
        return test(self.hi)


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
        self._classified = {}

    @functools.cached_property
    def _welfare_column(self) -> np.ndarray:
        """Group welfare at every profile (the row sums), read-only."""
        sums = self._table.sum(axis=1)
        sums.setflags(write=False)
        return sums

    @functools.cached_property
    def _gain_scale(self) -> _Scale:
        """The ``_Scale`` of every tolerance test on a one-bit reward change."""
        return _Scale(self._table)

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
    """The verdict of ``classify_dilemma`` and its failures, compactly:
    ``welfare_fails`` holds per player (none if no switch fails) a byte
    per co-profile mask, set where switching to cooperation fails to
    raise welfare; then the untempted players, and those not preferring
    all-C to all-D.  ``witnesses`` is built on each read (524,320 for a
    constant n=16 game), so nothing keeps it alive; ``iter_witnesses``
    and ``witness_count`` read a few and count all without the rest."""

    kind: DilemmaKind
    welfare_fails: tuple[bytes, ...] = ()
    untempted: tuple[int, ...] = ()
    no_mutual_gain: tuple[int, ...] = ()

    @property
    def is_dilemma(self) -> bool:
        return self.kind is not DilemmaKind.NOT_DILEMMA

    def iter_witnesses(self) -> Iterator[ConditionWitness]:
        """Welfare failures by player and mask, then the other two."""
        for player, fails in enumerate(self.welfare_fails):
            for mask in np.flatnonzero(np.frombuffer(fails, bool)).tolist():
                yield ConditionWitness(WELFARE_CONDITION, player, mask)
        for player in self.untempted:
            yield ConditionWitness(TEMPTATION_CONDITION, player)
        for player in self.no_mutual_gain:
            yield ConditionWitness(MUTUAL_CONDITION, player)

    @property
    def witnesses(self) -> tuple[ConditionWitness, ...]:
        return tuple(self.iter_witnesses())

    @property
    def witness_count(self) -> int:
        return (sum(fails.count(1) for fails in self.welfare_fails)
                + len(self.untempted) + len(self.no_mutual_gain))


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

    The verdict is computed once per tolerance and kept on the game: a
    repeated call returns the same (immutable) object.
    """
    _check_tolerance(tolerance)
    if tolerance not in game._classified:
        game._classified[tolerance] = _classify(game, tolerance)
    return game._classified[tolerance]


def _classify(game, tolerance) -> DilemmaClassification:
    table = game.payoffs
    everyone_cooperates = ActionProfile.all_cooperate(game.n)
    # the welfare change of each switch from cooperating to defecting,
    # read as the gains of a table whose every column is the welfare;
    # the switch back fails to raise welfare by more than tolerance
    # exactly where the change is at least -tolerance
    welfare = np.broadcast_to(game._welfare_column[:, None], table.shape)
    fails = deviation_gains(welfare, everyone_cooperates) >= -tolerance
    tempted = deviation_gains(table, everyone_cooperates) > tolerance
    untempted = tuple(np.flatnonzero(~tempted.any(axis=1)).tolist())
    no_mutual_gain = tuple(
        np.flatnonzero(table[0] - table[-1] <= tolerance).tolist())

    welfare_fails = (tuple(row.tobytes() for row in fails)
                     if fails.any() else ())
    if welfare_fails or untempted or no_mutual_gain:
        return DilemmaClassification(DilemmaKind.NOT_DILEMMA, welfare_fails,
                                     untempted, no_mutual_gain)
    if tempted.all():
        return DilemmaClassification(DilemmaKind.STRICT)
    return DilemmaClassification(DilemmaKind.PARTIAL)


@dataclass(frozen=True)
class DominanceReport:
    """Whether a target profile is (weakly/strictly) dominant.

    ``violations`` lists (player, co-profile mask, gap) triples where the
    player gains more than tolerance * s by deviating from the target
    action, s the game's reward scale; the gap is the gain.
    """

    target: ActionProfile
    strictly_dominant: bool
    weakly_dominant: bool
    violations: tuple[tuple[int, int, float], ...]


def check_dominance(game: NormalFormGame,
                    target: ActionProfile,
                    tolerance: float = 1e-9) -> DominanceReport:
    """Check whether each player's target action is a dominant choice.

    With s the game's reward scale (``_Scale``): weak dominance holds
    when no deviation from a target action gains more than tolerance * s,
    whatever the others do; strict dominance when every deviation loses
    more than tolerance * s.
    """
    _check_tolerance(tolerance)
    if target.n != game.n:
        raise ValueError("target profile size does not match the game")
    return _dominance(game.payoffs, target, tolerance, game._gain_scale)


def _dominance(table, target, tolerance, scale) -> DominanceReport:
    """``check_dominance`` on the reward ``table``, deciding its tests
    through ``scale``: both verdicts read the largest gain alone."""
    gains = deviation_gains(table, target)
    worst = float(gains.max())
    violations = ()
    if not scale.decide(lambda s: worst <= tolerance * s):
        players, masks = np.nonzero(
            scale.decide(lambda s: gains > tolerance * s))
        violations = tuple(zip(players.tolist(), masks.tolist(),
                               gains[players, masks].tolist()))
    strict = scale.decide(lambda s: worst < -tolerance * s)
    return DominanceReport(target, strict, not violations, violations)


def pure_nash_equilibria(game: NormalFormGame,
                         tolerance: float = 1e-9) -> frozenset[ActionProfile]:
    """All profiles where no single player gains more than tolerance * s
    by deviating, s the game's reward scale."""
    _check_tolerance(tolerance)
    table = game.payoffs
    everyone_cooperates = ActionProfile.all_cooperate(game.n)
    stable = np.ones(1 << game.n, dtype=bool)
    for i in range(game.n):
        # the profiles where player i cooperates and where they defect,
        # paired by co-profile in the table and in ``stable`` alike
        cooperate, defect = deviation_pairs(table[:, i], everyone_cooperates, i)
        at_c, at_d = deviation_pairs(stable, everyone_cooperates, i)
        gain = defect - cooperate
        at_c &= game._gain_scale.decide(lambda s: gain <= tolerance * s)
        at_d &= game._gain_scale.decide(lambda s: -gain <= tolerance * s)
    return frozenset(
        ActionProfile(int(bits), game.n) for bits in np.flatnonzero(stable))


def _is_social_optimum(game: NormalFormGame, target: ActionProfile,
                       tolerance: float = 1e-9) -> bool:
    """``target in social_optima(game, tolerance)``, without building
    the set of every optimal profile."""
    sw = game._welfare_column
    return bool(sw[target.bits] >= sw.max() - tolerance)


def social_optima(game: NormalFormGame,
                  tolerance: float = 1e-9) -> frozenset[ActionProfile]:
    """Profiles whose group welfare (the sum of rewards) is within
    ``tolerance`` of the best."""
    _check_tolerance(tolerance)
    sw = game._welfare_column
    best = sw.max()
    return frozenset(
        ActionProfile(int(bits), game.n)
        for bits in np.flatnonzero(sw >= best - tolerance))
