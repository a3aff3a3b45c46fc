import os
from pathlib import Path

import numpy as np
import pytest

from reward_transfer import (DilemmaKind, NormalFormGame, classify_dilemma,
                             too_many_cooks)

SRC = Path(__file__).resolve().parent.parent / "src"


def package_env() -> dict:
    """This environment with src/ first on PYTHONPATH, for child
    processes that import the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# Two-player tables, profile order CC, DC, CD, DD (bit 0 = player 1).
PD_TABLE = [[3.0, 3.0], [4.0, 0.0], [0.0, 4.0], [1.0, 1.0]]
CHICKEN_TABLE = [[3.0, 3.0], [4.0, 1.0], [1.0, 4.0], [0.0, 0.0]]
STAGHUNT_TABLE = [[5.0, 5.0], [4.0, 0.0], [0.0, 4.0], [1.0, 1.0]]

# A lopsided three-player dilemma with no structure to exploit.
ARBITRARY_TABLE = [
    [9, 6, 7],   # CCC
    [8, 4, 8],   # DCC
    [2, 9, 7],   # CDC
    [3, 2, 1],   # DDC
    [1, 6, 12],  # CCD
    [8, 2, 8],   # DCD
    [0, 5, 2],   # CDD
    [1, 2, 0],   # DDD
]

# Best known conserving contract for the arbitrary game, to 3 decimals.
# Rounded that hard it slightly violates a few constraints, so checks
# against it need a loose tolerance.
ARBITRARY_MATRIX_3DP = [
    [0.487, 0.209, 0.304],
    [0.426, 0.487, 0.087],
    [0.426, 0.087, 0.487],
]


@pytest.fixture
def pd_game():
    return NormalFormGame(PD_TABLE)


@pytest.fixture
def chicken_game():
    return NormalFormGame(CHICKEN_TABLE)


@pytest.fixture
def staghunt_game():
    return NormalFormGame(STAGHUNT_TABLE)


@pytest.fixture
def arbitrary_game():
    return NormalFormGame(ARBITRARY_TABLE)


@pytest.fixture
def tmc_game():
    return too_many_cooks()


def make_strict_dilemma(rng: np.random.Generator, n: int) -> NormalFormGame:
    """A random strict dilemma.

    Additive core: player i earns u_i for defecting plus b_ij for every
    cooperating co-player j.  Choosing u_i below both the i-th row and
    column sums of b makes all three dilemma conditions strict; small
    payoff noise then roughens the table without flipping any of them
    (re-checked, with a resample on the rare failure).
    """
    for _ in range(50):
        b = rng.uniform(0.2, 1.2, size=(n, n))
        np.fill_diagonal(b, 0.0)
        headroom = np.minimum(b.sum(axis=0), b.sum(axis=1))
        u = rng.uniform(0.1, 0.9) * headroom * rng.uniform(0.3, 1.0, size=n)
        table = np.zeros((1 << n, n))
        for bits in range(1 << n):
            defect = np.array([(bits >> k) & 1 for k in range(n)], dtype=float)
            table[bits] = u * defect + b @ (1.0 - defect)
        table += rng.uniform(-1e-3, 1e-3, size=table.shape)
        game = NormalFormGame(table)
        if classify_dilemma(game).kind is DilemmaKind.STRICT:
            return game
    raise AssertionError("could not draw a strict dilemma")


def pool_dilemma(n: int, k: int = 0) -> NormalFormGame:
    """The benchmark's random strict dilemma "pool<k>" at size n, drawn
    from the same stream with a copy of its generator: player i earns
    u_i for defecting and b_ij for each cooperating co-player j, plus
    noise; a draw the noise spoils is resampled."""
    rng = np.random.default_rng([20231019, n, k])
    defect = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
    profiles = np.arange(1 << n)
    for _ in range(50):
        b = rng.uniform(0.2, 1.2, size=(n, n))
        np.fill_diagonal(b, 0.0)
        headroom = np.minimum(b.sum(axis=0), b.sum(axis=1))
        u = rng.uniform(0.1, 0.9) * headroom * rng.uniform(0.3, 1.0, size=n)
        table = defect * u + (1.0 - defect) @ b
        table += rng.uniform(-1e-3, 1e-3, size=table.shape)
        # strict: defecting always pays, always costs the group, and
        # all-defect is worse for everyone than all-cooperate
        welfare = table.sum(axis=1)
        strict = (table[0] - table[-1] > 1e-9).all()
        for i in range(n):
            keep = profiles[(profiles >> i) & 1 == 0]
            leave = keep | (1 << i)
            strict &= (table[leave, i] - table[keep, i] > 1e-9).all()
            strict &= (welfare[keep] - welfare[leave] > 1e-9).all()
        if strict:
            return NormalFormGame(table)
    raise AssertionError(f"no strict dilemma drawn for n={n}")


@pytest.fixture
def strict_dilemma_factory():
    return make_strict_dilemma
