"""Reward transfer contracts: matrices of reward shares and their effect.

A transfer matrix T redistributes realized rewards: entry ``T[i, j]`` is
the fraction of player i's game reward handed to player j, so the
diagonal is what each player keeps.  Rows may sum to less than one
(reward is burned, an "excess" contract) but never more.  Post-transfer
rewards are the matrix product ``r @ T``: column j collects j's shares
of everyone's reward.  For a whole payoff table that product is
``game.transferred_payoffs``, which keeps the table's column-major
layout.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

# nothing here calls social_optima; the name stays importable because
# perfbench/spans.py re-binds it by name when it traces a run
from .game import (ActionProfile, DominanceReport, NormalFormGame,  # noqa: F401
                   _is_social_optimum, check_dominance, social_optima,
                   transferred_payoffs)


class TransferMatrix:
    """A validated, immutable matrix of reward shares.

    Entries must lie in [0, 1] up to ``tol`` (they are clamped back in)
    and every row must sum to at most 1 + ``tol``.
    """

    def __init__(self, entries, tol: float = 1e-12):
        m = np.array(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("a transfer matrix must be square")
        if m.shape[0] < 2:
            raise ValueError("a transfer matrix needs at least two players")
        if not np.isfinite(m).all():
            raise ValueError("transfer shares must be finite")
        if m.min() < -tol or m.max() > 1 + tol:
            bad = np.unravel_index(np.argmax(np.abs(m - 0.5)), m.shape)
            raise ValueError(
                f"share t[{bad[0] + 1}][{bad[1] + 1}] = {m[bad]} is outside [0, 1]")
        m = np.clip(m, 0.0, 1.0)
        sums = m.sum(axis=1)
        if sums.max() > 1 + tol:
            row = int(np.argmax(sums))
            raise ValueError(
                f"row {row + 1} pays out {sums[row]}, more than its full reward")
        m.setflags(write=False)
        self._entries = m
        self.n = m.shape[0]

    @classmethod
    def identity(cls, n: int) -> "TransferMatrix":
        return cls(np.eye(n))

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    def row_sums(self) -> np.ndarray:
        return self._entries.sum(axis=1)

    def is_conserving(self, tolerance: float = 1e-9) -> bool:
        """True when every row sums to 1, i.e. no reward is burned."""
        return bool(np.abs(self.row_sums() - 1.0).max() <= tolerance)

    def min_retained(self) -> float:
        """Smallest diagonal share: the level of self-interest the
        contract leaves every player."""
        return float(self._entries.diagonal().min())

    def __eq__(self, other):
        if not isinstance(other, TransferMatrix):
            return NotImplemented
        return np.array_equal(self._entries, other._entries)

    def __repr__(self):
        return f"TransferMatrix(n={self.n}, min_retained={self.min_retained():.6g})"


def exchange_matrix(n: int, s: float) -> TransferMatrix:
    """The symmetrical contract: keep share ``s``, split the rest evenly.

    Diagonal entries are s and every off-diagonal entry is
    (1 - s) / (n - 1), so rows sum to one and the matrix treats all
    players alike.
    """
    if n < 2:
        raise ValueError("an exchange needs at least two players")
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"kept share must lie in [0, 1], got {s}")
    off = (1.0 - s) / (n - 1)
    m = np.full((n, n), off)
    np.fill_diagonal(m, s)
    return TransferMatrix(m)


def apply_transfers(game: NormalFormGame, matrix: TransferMatrix) -> NormalFormGame:
    """The transformed game: every profile's rewards pushed through the
    contract.  Transfer is linear, so this is one matrix product."""
    if matrix.n != game.n:
        raise ValueError("matrix size does not match the game")
    return NormalFormGame(transferred_payoffs(game.payoffs, matrix.entries),
                          labels=game.labels)


@dataclass(frozen=True)
class ExcessReport:
    """Per-row burned shares of a contract: slack[i] = 1 - row_sum(i)."""

    slack: np.ndarray
    total: float


def excess_report(matrix: TransferMatrix) -> ExcessReport:
    slack = 1.0 - matrix.row_sums()
    slack.setflags(write=False)
    return ExcessReport(slack=slack, total=float(slack.sum()))


def conservation_check(game: NormalFormGame,
                       matrix: TransferMatrix,
                       tolerance: float = 1e-9) -> bool:
    """Confirm the contract moves reward around without creating or
    destroying any: group welfare is unchanged at every profile.

    Raises if the matrix is not conserving to begin with (use
    ``excess_report`` for those).
    """
    if matrix.n != game.n:
        raise ValueError("matrix size does not match the game")
    if not matrix.is_conserving(tolerance):
        raise ValueError(
            "matrix burns reward (rows sum below 1); conservation does not apply")
    before = game.payoffs.sum(axis=1)
    after = transferred_payoffs(game.payoffs, matrix.entries).sum(axis=1)
    scale = max(1.0, float(np.abs(before).max()))
    return bool(np.abs(after - before).max() <= tolerance * scale)


def verify_resolution(game: NormalFormGame,
                      matrix: TransferMatrix,
                      target: Optional[ActionProfile] = None,
                      tolerance: float = 1e-9) -> DominanceReport:
    """Does the contract make the target profile weakly dominant?

    Applies the transfers and checks dominance in the transformed game.
    The target defaults to all-cooperate.  A target that is not a social
    optimum of the original game is allowed but warned about, since
    enforcing it pins the group to suboptimal welfare.
    """
    if target is None:
        target = ActionProfile.all_cooperate(game.n)
    if target.n != game.n:
        raise ValueError("target profile size does not match the game")
    if not _is_social_optimum(game, target, tolerance):
        warnings.warn(
            f"target {target} is not a social optimum of the game",
            UserWarning, stacklevel=2)
    transformed = apply_transfers(game, matrix)
    return check_dominance(transformed, target, tolerance)
