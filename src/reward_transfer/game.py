"""Binary-action normal-form games and social dilemma classification.

Every player simultaneously picks cooperate (C) or defect (D).  A joint
choice is an action profile; with n players there are 2**n of them and we
index each by an integer whose k-th bit holds player k's action.  The
payoff table of a game is therefore a (2**n, n) array: row = profile,
column = player.

The table is stored column-major (Fortran order), so each player's 2**n
rewards are one contiguous run.  Every pass that costs O(n * 2**n) reads
one player at a time (deviation gains, the column ranges, the symmetry
check), and at n = 16 a row-major column walks all 8 MB with a stride of
n floats.  Products with a transfer matrix go through
``transferred_payoffs``, which keeps that layout.

The library's passes over deviation gains (classification, the even
split, the lazy scan, the binding set, dominance and verification) read
them through ``_gain_blocks``, in pieces that are the whole array's
values bit for bit and hold at most a block's gains (a block is 2**13
profiles).  A pass over a contract forms the product block by block, so
that past 13 players no pass holds a whole transferred table or gains
array; a pass without one reads whole player columns, a few players to
a piece.  Each pass reads its table once.

A game is a social dilemma when three things hold at once:

* cooperation raises group welfare: whenever any single player switches
  from D to C, total (utilitarian) welfare strictly increases;
* defection tempts: a player can strictly increase their own reward by
  defecting (against every co-profile for a strict dilemma, against at
  least one for a partial dilemma);
* full cooperation strictly beats full defection for every player.

``classify_dilemma`` checks these conditions and reports witnesses for
the ones that fail, as ``check_dominance`` reports violations: held
compactly, counted and iterated, and built whole only when read.

A game is immutable.  Construction checks the table, through each
column's max and min, and keeps from them the reward scale s that every
tolerance test on a deviation gain reads as value vs tolerance * s:
1 + the widest column range, capped at the largest finite float.  Every
one-bit reward change lies within its column's range, and the largest
one m bounds every range by n * m, so 1 + m <= s <= n * (1 + m).  The
welfare column and the classification at each tolerance are computed
on first use and kept.  None refers back to the game, so a game is
freed as soon as its last reference goes.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
import warnings
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


def transferred_payoffs(table, entries, out=None) -> np.ndarray:
    """``table @ entries``, the rewards after transfer matrix
    ``entries``, in the same column-major layout as a game's payoffs.

    It is formed player-major, as ``entries.T @ table.T``, so that each
    player's rewards stay one contiguous run for the passes that follow;
    ``out``, when given, is the (n, rows) C-contiguous array to form it in.
    """
    return np.matmul(entries.T, table.T, out=out).T


def deviation_gains(table, target: ActionProfile) -> np.ndarray:
    """What each player gains by leaving the target, against each
    co-profile.

    ``table`` is any (2**n, n) reward table over profiles: a game's
    payoffs, or ``transferred_payoffs(payoffs, T)`` for the rewards
    after a transfer matrix T.  A column-major table makes each player's
    pass read contiguous memory.  Entry [i, m] of the (n, 2**(n-1)) result is
    ``table[leave, i] - table[keep, i]`` for player i's pair of rows at
    co-profile mask m.  The target is weakly dominant exactly when no
    entry is positive.  The library's own passes read the same gains a
    block at a time (``_gain_blocks``).
    """
    gains = np.empty((target.n, 1 << (target.n - 1)))
    return _pair_gains(table, target, range(target.n), gains)


def _pair_gains(table, target, players, out) -> np.ndarray:
    """``out[k]``: player ``players[k]``'s gains over the pairs of rows of
    ``table`` (a whole table, a block of one, or a single column for a
    lone player), ordered by the co-profile mask within it."""
    for i, row in zip(players, out):
        column = table[:, i] if table.ndim == 2 else table
        keep, leave = deviation_pairs(column, target, i)
        for k, l, o in _along_runs(keep, leave, row.reshape(keep.shape)):
            np.subtract(l, k, out=o)
    return out


# the gain passes over a contract read a table 2**_BLOCK_BITS profiles (1 MB
# of a 16-player table) at a time, so that at most one block of a
# transferred table and its gains are alive at once; a game of up to
# _BLOCK_BITS players is one block.  A piece of any pass holds at most
# one block's gains, _PIECE_VALUES values
_BLOCK_BITS = 13
_PIECE_VALUES = _BLOCK_BITS << (_BLOCK_BITS - 1)


def _gain_blocks(table, target: ActionProfile,
                 entries=None) -> Iterator[tuple[slice, slice, np.ndarray]]:
    """``deviation_gains`` of ``table``, or of ``transferred_payoffs(table,
    entries)`` when ``entries`` is given, in pieces ``(players, masks,
    gains)``: ``gains`` is the whole array's ``[players, masks]``, both
    slices.  Every piece is the whole array's values bit for bit, holds
    at most _PIECE_VALUES of them or one player's column, and a game of
    up to _BLOCK_BITS players is one piece.

    Without a contract there is no product to save, so the pieces are
    whole player columns, as many players to a piece as fit (6, 3 and 1
    at n = 14, 15 and 16): a column's runs are as long as the table
    allows, where blocks would pay numpy's set-up once per (player,
    block) (at n = 16, 535 against 839 us a pass).  With a contract the
    product is formed 2**_BLOCK_BITS profiles at a time
    (``_product_pieces``).

    The pieces share their buffers, made once per pass rather than once
    per piece (a 16-player pass over a contract took 5.9 ms with fresh
    buffers and 3.3 ms with these): a piece is valid until the next one
    is asked for."""
    if entries is None:
        return _column_pieces(table, target)
    return _product_pieces(table, target, entries)


def _column_pieces(table, target):
    """``_gain_blocks`` without a contract: whole columns, players
    ascending."""
    n = target.n
    width = 1 << (n - 1)
    per_piece = max(1, _PIECE_VALUES // width)
    gains = np.empty((min(n, per_piece), width))
    for first in range(0, n, per_piece):
        players = range(first, min(n, first + per_piece))
        yield (slice(first, players.stop), slice(0, width),
               _pair_gains(table, target, players, gains[:len(players)]))


def _product_pieces(table, target, entries):
    """``_gain_blocks`` over a contract.  The players of the low bits
    pair rows within each block and give one piece per block, masks
    ascending.  A top-bit player's pairs lie in two blocks; the blocks'
    share of their columns is kept (the product is formed once), and
    each of them comes last, as one piece of its own.  A transferred
    reward that is not finite raises the ValueError a game made from
    it would (``_check_finite``)."""
    n = target.n
    low = min(n, _BLOCK_BITS)
    size = 1 << low
    gains = np.empty((low, size >> 1))
    product = np.empty((n, size))
    if n > low:
        top = np.empty((n - low, 1 << n))
    for start in range(0, 1 << n, size):
        block = transferred_payoffs(table[start:start + size], entries,
                                    out=product)
        if n > low:
            top[:, start:start + size] = product[low:]
        piece = _pair_gains(block, target, range(low), gains)
        _check_finite(piece, block[:, :low])
        if start + size == 1 << n:
            # the last block's product goes before its gains are read
            block = product = None
        yield slice(0, low), slice(start >> 1, (start + size) >> 1), piece
    if n > low:
        gains = np.empty((1, 1 << (n - 1)))
    for i in range(low, n):
        piece = _pair_gains(top[i - low], target, (i,), gains)
        _check_finite(piece, top[i - low])
        yield slice(i, i + 1), slice(0, 1 << (n - 1)), piece


def _check_finite(gains, rewards) -> None:
    """Raise the ValueError a game would if ``rewards``, whose every
    value lies in one of the pairs of ``gains``, holds one that is not
    finite.  Such a value makes its gain NaN or infinite, which reaches
    the gains' max or min, so the rewards are read only then (a finite
    difference can also overflow)."""
    if not (math.isfinite(gains.max()) and math.isfinite(gains.min())) \
            and not np.isfinite(rewards).all():
        raise ValueError("payoffs must be finite")


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
        # one pass for each extreme of every column: NaN and infinities
        # reach one of them, and the widest gap between them gives the
        # reward scale s = 1 + that gap (see the module notes), capped
        # at the largest float so that tolerance * s stays finite when
        # the gap overflows
        highest, lowest = table.max(axis=0), table.min(axis=0)
        if not (np.isfinite(highest).all() and np.isfinite(lowest).all()):
            raise ValueError("payoffs must be finite")
        table.setflags(write=False)
        self._table = table
        with np.errstate(over="ignore"):
            self._stakes = min(1.0 + float((highest - lowest).max()),
                               sys.float_info.max)
        self.n = n
        self._classified = {}

    @functools.cached_property
    def _welfare_column(self) -> np.ndarray:
        """Group welfare at every profile (the row sums), read-only.
        Raises ValueError when a sum overflows: every test on welfare
        would then compare infinities and NaNs, which pass."""
        with np.errstate(over="ignore"):
            sums = self._table.sum(axis=1)
        if not np.isfinite(sums).all():
            bits = int(np.flatnonzero(~np.isfinite(sums))[0])
            raise ValueError(
                "group welfare overflows: the rewards at profile "
                f"{ActionProfile(bits, self.n)} sum past the largest float")
        sums.setflags(write=False)
        return sums

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
        """The kept welfare column's entry, so a table whose welfare
        overflows raises its ValueError here too."""
        if profile.n != self.n:
            raise ValueError("profile size does not match the game")
        return float(self._welfare_column[profile.bits])

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
    # exactly where the change is at least -tolerance; the mask of every
    # switch is made only once one fails
    welfare = np.broadcast_to(game._welfare_column[:, None], table.shape)
    fails = None
    for players, masks, gains in _gain_blocks(welfare, everyone_cooperates):
        if gains.max() >= -tolerance:
            if fails is None:
                fails = np.zeros((game.n, 1 << (game.n - 1)), dtype=bool)
            fails[players, masks] = gains >= -tolerance
    # the welfare pass's buffer goes before the payoff pass forms its own
    del gains
    # the players tempted somewhere, and whether all are, everywhere:
    # each piece's extremes settle both, with no mask of the gains
    tempted = np.zeros(game.n, dtype=bool)
    everywhere = True
    for players, _, gains in _gain_blocks(table, everyone_cooperates):
        tempted[players] |= gains.max(axis=1) > tolerance
        everywhere = everywhere and bool(gains.min() > tolerance)
    untempted = tuple(np.flatnonzero(~tempted).tolist())
    no_mutual_gain = tuple(
        np.flatnonzero(table[0] - table[-1] <= tolerance).tolist())

    welfare_fails = (tuple(row.tobytes() for row in fails)
                     if fails is not None else ())
    if welfare_fails or untempted or no_mutual_gain:
        return DilemmaClassification(DilemmaKind.NOT_DILEMMA, welfare_fails,
                                     untempted, no_mutual_gain)
    if everywhere:
        return DilemmaClassification(DilemmaKind.STRICT)
    return DilemmaClassification(DilemmaKind.PARTIAL)


@dataclass(frozen=True)
class DominanceReport:
    """Whether a target profile is (weakly/strictly) dominant.

    A violation is a (player, co-profile mask, gap) triple where the
    player gains more than tolerance * s by deviating from the target
    action, s the game's reward scale (1 + its widest column range, see
    the module notes); the gap is the gain.  They are held by player,
    masks ascending, as bytes: of int64 keys player << (n - 1) | mask and
    of the gaps.  ``violations`` is built on each read; ``iter_violations``
    and ``violation_count`` read a few and count all without the rest."""

    target: ActionProfile
    strictly_dominant: bool
    weakly_dominant: bool
    _keys: bytes
    _gaps: bytes

    def iter_violations(self) -> Iterator[tuple[int, int, float]]:
        shift = self.target.n - 1
        for key, gap in zip(map(int, np.frombuffer(self._keys, np.int64)),
                            map(float, np.frombuffer(self._gaps))):
            yield key >> shift, key & ((1 << shift) - 1), gap

    @property
    def violations(self) -> tuple[tuple[int, int, float], ...]:
        return tuple(self.iter_violations())

    @property
    def violation_count(self) -> int:
        return len(self._gaps) // 8


def check_dominance(game: NormalFormGame,
                    target: ActionProfile,
                    tolerance: float = 1e-9) -> DominanceReport:
    """Check whether each player's target action is a dominant choice.

    With s the game's reward scale (1 + its widest column range): weak
    dominance holds when no deviation from a target action gains more
    than tolerance * s, whatever the others do; strict dominance when
    every deviation loses more than tolerance * s.
    """
    _check_tolerance(tolerance)
    if target.n != game.n:
        raise ValueError("target profile size does not match the game")
    return _dominance(game.payoffs, target, tolerance * game._stakes)


def _dominance(table, target, limit, entries=None) -> DominanceReport:
    """``check_dominance`` on the reward ``table``, or on its product with
    the transfer matrix ``entries`` when given, read piece by piece
    (``_gain_blocks``) against ``limit``, the tolerance times the scale:
    both verdicts read the largest gain alone, and a piece's violations
    are gathered, as keys and gaps, only when its largest gain is one."""
    shift = target.n - 1
    worst = -math.inf
    found = []
    for players, masks, gains in _gain_blocks(table, target, entries):
        peak = float(gains.max())
        worst = max(worst, peak)
        if peak > limit:
            rows, cols = np.nonzero(gains > limit)
            keys = (rows + players.start) << shift | cols + masks.start
            found.append((keys, gains[rows, cols]))
    keys = gaps = b""
    if found:
        # the keys sort in place, so that at most four arrays of a value
        # per violation are ever alive
        keys, gaps = map(np.concatenate, zip(*found))
        del found
        gaps = gaps[np.argsort(keys)]
        keys.sort()
        keys, gaps = keys.tobytes(), gaps.tobytes()
    return DominanceReport(target, worst < -limit, not keys, keys, gaps)


def pure_nash_equilibria(game: NormalFormGame,
                         tolerance: float = 1e-9) -> frozenset[ActionProfile]:
    """All profiles where no single player gains more than tolerance * s
    by deviating, s the game's reward scale."""
    _check_tolerance(tolerance)
    table = game.payoffs
    everyone_cooperates = ActionProfile.all_cooperate(game.n)
    limit = tolerance * game._stakes
    stable = np.ones(1 << game.n, dtype=bool)
    for i in range(game.n):
        # the profiles where player i cooperates and where they defect,
        # paired by co-profile in the table and in ``stable`` alike
        cooperate, defect = deviation_pairs(table[:, i], everyone_cooperates, i)
        at_c, at_d = deviation_pairs(stable, everyone_cooperates, i)
        gain = defect - cooperate
        at_c &= gain <= limit
        at_d &= -gain <= limit
    return frozenset(
        ActionProfile(int(bits), game.n) for bits in np.flatnonzero(stable))


def _is_social_optimum(game: NormalFormGame, target: ActionProfile,
                       tolerance: float = 1e-9) -> bool:
    """``target in social_optima(game, tolerance)``, without building
    the set of every optimal profile."""
    sw = game._welfare_column
    return bool(sw[target.bits] >= sw.max() - tolerance)


def _admit_target(game: NormalFormGame, target: Optional[ActionProfile],
                  tolerance: float, stacklevel: int) -> ActionProfile:
    """The target a search or a check works for: all-cooperate when
    None.  Refuses a target of another size, and warns, at
    ``stacklevel`` counted from here, when the target is not a social
    optimum (``tolerance`` unscaled), since enforcing it pins the group
    to suboptimal welfare."""
    if target is None:
        target = ActionProfile.all_cooperate(game.n)
    if target.n != game.n:
        raise ValueError("target profile size does not match the game")
    if not _is_social_optimum(game, target, tolerance):
        warnings.warn(
            f"target {target} is not a social optimum of the game",
            UserWarning, stacklevel=stacklevel)
    return target


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
