"""Levels from the lazy solver, general and fastpath, against the whole
level LP solved by HiGHS (scipy's ``linprog``).

The reference LP is written here from the payoff table, every deviation
row at once, with no code from the package's LP layer or its deviation
helpers.  scipy comes with the package's ``test`` extra only, so the
module is skipped when it is missing.
"""

import functools
import warnings

import numpy as np
import pytest

from reward_transfer import (ActionProfile, BaseGame, BaseGameParams,
                             GraphKind, NormalFormGame, NotResolvableError,
                             build_graphical, general_level,
                             general_level_symmetric_fastpath,
                             scaled_prisoners_dilemma)

from conftest import pool_dilemma

optimize = pytest.importorskip("scipy.optimize")


def full_lp(table, allow_excess):
    """Objective and constraints of the level LP over T (variable
    j*n + i is T[j, i]) and the level z (variable n*n), all-cooperate
    target: z <= T[i, i], no player gains by defecting against any
    co-profile, and rows of T sum to 1 (at most 1 with excess)."""
    size, n = table.shape
    nv = n * n + 1
    profiles = np.arange(size)
    rows = []
    for i in range(n):
        keep = profiles[(profiles >> i) & 1 == 0]
        delta = table[keep | (1 << i)] - table[keep]
        block = np.zeros((keep.size, nv))
        block[:, [j * n + i for j in range(n)]] = delta
        rows.append(block)
    level_rows = np.zeros((n, nv))
    level_rows[:, n * n] = 1.0
    level_rows[range(n), [i * n + i for i in range(n)]] = -1.0
    a_ub = np.vstack([level_rows] + rows)
    sums = np.zeros((n, nv))
    for j in range(n):
        sums[j, j * n:(j + 1) * n] = 1.0
    c = np.zeros(nv)
    c[n * n] = 1.0
    if allow_excess:
        return c, np.vstack([a_ub, sums]), np.concatenate(
            [np.zeros(len(a_ub)), np.ones(n)]), None, None
    return c, a_ub, np.zeros(len(a_ub)), sums, np.ones(n)


def highs(table, allow_excess):
    """(level, least total paid at that level), or None if infeasible."""
    c, a_ub, b_ub, a_eq, b_eq = full_lp(table, allow_excess)
    first = optimize.linprog(-c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                             bounds=(0, None), method="highs")
    if first.status == 2:
        return None
    assert first.status == 0, first.message
    level = -first.fun
    n = table.shape[1]
    bounds = [(0, None)] * (n * n) + [(level, None)]
    total = np.ones_like(c)
    total[n * n] = 0.0
    second = optimize.linprog(total, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq,
                              b_eq=b_eq, bounds=bounds, method="highs")
    assert second.status == 0, second.message
    return level, second.fun


def check(table, allow_excess, search=None):
    """``search(game, force=True)`` against HiGHS; ``general_level`` in
    the given mode by default."""
    game = NormalFormGame(table)
    if search is None:
        search = functools.partial(general_level,
                                   target=ActionProfile.all_cooperate(game.n),
                                   allow_excess=allow_excess)
    expected = highs(table, allow_excess)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if expected is None:
            with pytest.raises(NotResolvableError):
                search(game, force=True)
            return
        result = search(game, force=True)
    level, least_total = expected
    assert abs(result.level - level) <= 1e-9, (result.level, level)
    if allow_excess:
        paid = float(result.matrix.entries.sum())
        assert abs(paid - least_total) <= 1e-7 * game.n, (paid, least_total)


GRAPHICAL = [(graph, base, n) for graph in GraphKind for base in BaseGame
             for n in (3, 4, 5, 6)]


@pytest.mark.parametrize("allow_excess", [False, True],
                         ids=["general", "excess"])
@pytest.mark.parametrize("graph, base, n", GRAPHICAL,
                         ids=[f"{g.value}-{b.value}-n{n}" for g, b, n in GRAPHICAL])
def test_graphical_families(graph, base, n, allow_excess):
    game = build_graphical(graph, BaseGameParams(base, 3.04, 0.97), n)
    check(game.payoffs, allow_excess)


@pytest.mark.parametrize("allow_excess", [False, True],
                         ids=["general", "excess"])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_random_strict_dilemmas(n, allow_excess):
    for k in range(3):
        check(pool_dilemma(n, k).payoffs, allow_excess)


@pytest.mark.parametrize("allow_excess", [False, True],
                         ids=["general", "excess"])
@pytest.mark.parametrize("epsilon", [1e-7, 3.48e-7, 1e-6, 1e-5])
def test_scaled_prisoners_dilemma(epsilon, allow_excess):
    # payoffs that differ by epsilon make the LP nearly degenerate
    check(scaled_prisoners_dilemma(epsilon).payoffs, allow_excess)


CYCLIC = [(graph, base, n)
          for graph in (GraphKind.CYCLICAL, GraphKind.SYMMETRICAL,
                        GraphKind.CIRCULAR)
          for base in BaseGame for n in (3, 4, 5, 6)]


@pytest.mark.parametrize("graph, base, n", CYCLIC,
                         ids=[f"{g.value}-{b.value}-n{n}" for g, b, n in CYCLIC])
def test_fastpath_on_cyclic_families(graph, base, n):
    # the fastpath searches only circulant matrices; the game's rotation
    # symmetry makes that lose nothing against the full LP
    game = build_graphical(graph, BaseGameParams(base, 3.04, 0.97), n)
    check(game.payoffs, False, general_level_symmetric_fastpath)
