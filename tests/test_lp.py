"""The simplex core gets the heaviest scrutiny here because every level
computation sits on top of it.  Random bounded instances are checked
against brute-force vertex enumeration.  The solver takes only lower
bounds, so a box's upper sides are written as rows ``vstack([eye, a])``."""

import itertools

import numpy as np
import pytest

from reward_transfer.lp import (LinearProgram, LpStatus, check_feasible,
                                solve_lp)


def brute_force_max(c, a_ub, b_ub, lo, hi):
    """Enumerate basic feasible points of a box-bounded system."""
    n = len(c)
    rows = np.vstack([a_ub, -np.eye(n), np.eye(n)])
    rhs = np.concatenate([b_ub, -np.asarray(lo, float), np.asarray(hi, float)])
    best = None
    for picked in itertools.combinations(range(len(rhs)), n):
        square = rows[list(picked)]
        if abs(np.linalg.det(square)) < 1e-9:
            continue
        point = np.linalg.solve(square, rhs[list(picked)])
        if np.all(rows @ point <= rhs + 1e-8):
            value = float(c @ point)
            if best is None or value > best[0]:
                best = (value, point)
    return best


class TestBasics:
    def test_single_variable(self):
        sol = solve_lp(LinearProgram([1.0], a_ub=[[1.0]], b_ub=[2.0]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(2.0)
        assert sol.x[0] == pytest.approx(2.0)

    def test_two_variables(self):
        # max x + 2y st x + y <= 4, y <= 3
        lp = LinearProgram([1.0, 2.0], a_ub=[[1, 1], [0, 1]], b_ub=[4, 3])
        sol = solve_lp(lp)
        assert sol.objective_value == pytest.approx(7.0)
        assert np.allclose(sol.x, [1.0, 3.0], atol=1e-9)

    def test_equality_constraint(self):
        # max x st x + y = 3, x <= 2
        lp = LinearProgram([1.0, 0.0], a_ub=[[1, 0]], b_ub=[2],
                           a_eq=[[1, 1]], b_eq=[3])
        sol = solve_lp(lp)
        assert sol.objective_value == pytest.approx(2.0)
        assert np.allclose(sol.x, [2.0, 1.0], atol=1e-9)

    def test_negative_rhs(self):
        # max -x st -x <= -2  (i.e. x >= 2), x <= 5
        lp = LinearProgram([-1.0], a_ub=[[-1.0], [1.0]], b_ub=[-2.0, 5.0])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(2.0)

    def test_degenerate_vertex(self):
        # three constraints meet at (1, 1); Bland's rule must not cycle
        lp = LinearProgram([1.0, 1.0],
                           a_ub=[[1, 0], [0, 1], [1, 1]], b_ub=[1, 1, 2])
        sol = solve_lp(lp)
        assert sol.objective_value == pytest.approx(2.0)

    def test_zero_objective(self):
        lp = LinearProgram([0.0, 0.0], a_ub=[[1, 1]], b_ub=[1])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(0.0)

    def test_redundant_equality_rows(self):
        # duplicated equation must be dropped, not declared infeasible
        lp = LinearProgram([1.0, 1.0], a_eq=[[1, 1], [2, 2]], b_eq=[2, 4])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(2.0)


class TestStatuses:
    def test_infeasible(self):
        lp = LinearProgram([1.0], a_ub=[[1.0]], b_ub=[1.0],
                           a_eq=[[1.0]], b_eq=[3.0])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.INFEASIBLE
        assert np.isnan(sol.x).all()
        assert np.isnan(sol.objective_value)

    def test_infeasible_bounds_vs_rows(self):
        lp = LinearProgram([1.0, 0.0], a_ub=[[1.0, 1.0]], b_ub=[1.0],
                           lower=[2.0, 0.0])
        assert solve_lp(lp).status is LpStatus.INFEASIBLE

    def test_unbounded(self):
        sol = solve_lp(LinearProgram([1.0, 0.0], a_ub=[[0, 1]], b_ub=[1]))
        assert sol.status is LpStatus.UNBOUNDED
        assert sol.objective_value == np.inf
        assert np.isnan(sol.x).all()

    def test_column_of_mixed_magnitudes_is_not_unbounded(self):
        # max x st x <= 1, -1e10 x <= 5: the pivot 1 is tiny next to
        # the column's |-1e10| but is the only one, and x = 1 is optimal
        lp = LinearProgram([1.0], a_ub=[[1.0], [-1e10]], b_ub=[1.0, 5.0])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(1.0, abs=1e-12)


class TestBounds:
    def test_shifted_lower_bound(self):
        # max -x with x >= -3 should park x at the bound
        lp = LinearProgram([-1.0], lower=[-3.0])
        sol = solve_lp(lp)
        assert sol.x[0] == pytest.approx(-3.0)

    def test_negative_box(self):
        # -2 <= x <= -1 and -4 <= y <= 5, the upper sides as rows
        lp = LinearProgram([1.0, -1.0], a_ub=np.eye(2), b_ub=[-1.0, 5.0],
                           lower=[-2.0, -4.0])
        sol = solve_lp(lp)
        assert np.allclose(sol.x, [-1.0, -4.0], atol=1e-9)

    def test_fixed_variable(self):
        # x = 2 from its lower bound and the row x <= 2
        lp = LinearProgram([1.0, 1.0], a_ub=[[1.0, 0.0], [1.0, 1.0]],
                           b_ub=[2.0, 5.0], lower=[2.0, 0.0])
        sol = solve_lp(lp)
        assert sol.x[0] == pytest.approx(2.0)
        assert sol.objective_value == pytest.approx(5.0)


class TestValidation:
    def test_empty_objective(self):
        with pytest.raises(ValueError, match="at least one"):
            LinearProgram([])

    def test_mismatched_rows(self):
        with pytest.raises(ValueError, match="columns"):
            LinearProgram([1.0, 1.0], a_ub=[[1.0]], b_ub=[1.0])
        with pytest.raises(ValueError, match="row count"):
            LinearProgram([1.0], a_ub=[[1.0]], b_ub=[1.0, 2.0])

    def test_orphan_rhs(self):
        with pytest.raises(ValueError, match="together"):
            LinearProgram([1.0], a_ub=[[1.0]])

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            LinearProgram([np.inf])
        with pytest.raises(ValueError):
            LinearProgram([1.0], a_ub=[[np.nan]], b_ub=[1.0])

    def test_bad_bounds(self):
        for bound in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                LinearProgram([1.0], lower=[bound])
        with pytest.raises(ValueError, match="one entry per"):
            LinearProgram([1.0, 1.0], lower=[0.0])
        with pytest.raises(TypeError):
            LinearProgram([1.0], upper=[1.0])

    def test_iteration_cap(self):
        lp = LinearProgram([1.0], a_ub=[[1.0]], b_ub=[1.0])
        with pytest.raises(RuntimeError, match="iterations"):
            solve_lp(lp, max_iterations=1)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(6, 4))
        b = rng.uniform(1.0, 3.0, size=6)
        c = rng.normal(size=4)
        boxed = np.vstack([np.eye(4), a])
        rhs = np.concatenate([np.full(4, 5.0), b])
        first = solve_lp(LinearProgram(c, a_ub=boxed, b_ub=rhs))
        for _ in range(3):
            again = solve_lp(LinearProgram(c, a_ub=boxed, b_ub=rhs))
            assert again.x.tobytes() == first.x.tobytes()
            assert again.objective_value == first.objective_value
            assert again.iterations == first.iterations


class TestCyclingExamples:
    """Textbook programs on which the largest-coefficient rule with
    lowest-index ties cycles forever."""

    def test_beale(self):
        # Beale (1955)
        lp = LinearProgram([0.75, -150.0, 0.02, -6.0],
                           a_ub=[[0.25, -60.0, -0.04, 9.0],
                                 [0.5, -90.0, -0.02, 3.0],
                                 [0.0, 0.0, 1.0, 0.0]],
                           b_ub=[0.0, 0.0, 1.0])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(0.05, abs=1e-12)
        assert np.allclose(sol.x, [0.04, 0.0, 1.0, 0.0], atol=1e-12)
        assert sol.iterations <= 55

    def test_chvatal(self):
        # Chvatal (1983), "Linear Programming", ch. 3
        lp = LinearProgram([10.0, -57.0, -9.0, -24.0],
                           a_ub=[[0.5, -5.5, -2.5, 9.0],
                                 [0.5, -1.5, -0.5, 1.0],
                                 [1.0, 0.0, 0.0, 0.0]],
                           b_ub=[0.0, 0.0, 1.0])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(sol.x, [1.0, 0.0, 1.0, 0.0], atol=1e-12)
        assert sol.iterations <= 55


def random_program(rng, n, m, m_eq=0):
    """A box-bounded random program whose origin is feasible when it
    has no equalities."""
    a = rng.normal(size=(m, n))
    b = rng.uniform(0.5, 2.0, size=m)
    c = rng.normal(size=n)
    if m_eq:
        eq = rng.normal(size=(m_eq, n))
        return c, a, b, eq, eq @ rng.uniform(0.05, 0.3, size=n)
    return c, a, b, None, None


class TestWarmStart:
    """A warm solve appends rows to the previous optimal tableau; it
    must agree with a cold solve of the whole program."""

    @staticmethod
    def grown(c, a, b, eq, eq_rhs, upper, k):
        """The first ``k`` rows of ``a`` under the box x <= upper, whose
        rows come first so that growing ``k`` appends."""
        return LinearProgram(c, a_ub=np.vstack([np.eye(len(c)), a[:k]]),
                             b_ub=np.concatenate([upper, b[:k]]),
                             a_eq=eq, b_eq=eq_rhs)

    def test_matches_cold_solve(self):
        rng = np.random.default_rng(808)
        checked = infeasible = 0
        for trial in range(80):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(3, 12))
            c, a, b, eq, eq_rhs = random_program(rng, n, m,
                                                 m_eq=int(rng.integers(0, 2)))
            # cuts through the region: some rows pass below the optimum
            b[m // 2:] = rng.uniform(-0.5, 1.0, size=m - m // 2)
            upper = rng.uniform(1.0, 3.0, size=n)
            first = solve_lp(self.grown(c, a, b, eq, eq_rhs, upper, 2))
            if first.status is not LpStatus.OPTIMAL:
                continue
            warm, k = first, 2
            while k < m:
                k = min(m, k + int(rng.integers(1, 4)))
                lp = self.grown(c, a, b, eq, eq_rhs, upper, k)
                warm = solve_lp(lp, start=warm)
                cold = solve_lp(lp)
                assert warm.status is cold.status, f"trial {trial}, rows {k}"
                if cold.status is not LpStatus.OPTIMAL:
                    infeasible += 1
                    break
                scale = 1.0 + float(np.abs(b[:k]).max())
                assert abs(warm.objective_value - cold.objective_value) \
                    <= 1e-9 * scale, f"trial {trial}, rows {k}"
                assert not check_feasible(lp, warm.x, feas_tol=1e-9 * scale)
                checked += 1
        assert checked > 100 and infeasible > 10

    def test_infeasible_after_cut(self):
        base = LinearProgram([1.0, 1.0], a_ub=[[1.0, 0.0], [0.0, 1.0]],
                             b_ub=[1.0, 1.0])
        start = solve_lp(base)
        # x + y >= 3 cannot hold inside the unit box
        cut = LinearProgram([1.0, 1.0], a_ub=[[1.0, 0.0], [0.0, 1.0],
                                              [-1.0, -1.0]],
                            b_ub=[1.0, 1.0, -3.0])
        warm = solve_lp(cut, start=start)
        assert warm.status is LpStatus.INFEASIBLE
        assert solve_lp(cut).status is LpStatus.INFEASIBLE
        assert np.isnan(warm.x).all()

    def test_status_at_the_feasibility_tolerance(self):
        # x <= 1 and x >= 1 + gap: a cold phase 1 accepts a residual up
        # to feas_tol * (1 + max |rhs|), and so must the dual simplex
        start = solve_lp(LinearProgram([1.0], a_ub=[[1.0]], b_ub=[1.0]))
        for gap in (1.5e-9, 5e-9):
            cut = LinearProgram([1.0], a_ub=[[1.0], [-1.0]],
                                b_ub=[1.0, -1.0 - gap])
            assert solve_lp(cut, start=start).status is solve_lp(cut).status
        assert solve_lp(cut, start=start).status is LpStatus.INFEASIBLE

    def test_cut_of_mixed_magnitudes_is_not_infeasible(self):
        # max x - y in the unit box sits at (1, 0); the cut
        # x + 1e10 y <= 0.5 moves it to (0.5, 0).  The cut's dual row
        # offers the pivot 1 beside -1e10, and only the 1 lifts it
        start = solve_lp(LinearProgram([1.0, -1.0], a_ub=[[1.0, 0.0],
                                                          [0.0, 1.0]],
                                       b_ub=[1.0, 1.0]))
        cut = LinearProgram([1.0, -1.0], a_ub=[[1.0, 0.0], [0.0, 1.0],
                                               [1.0, 1e10]],
                            b_ub=[1.0, 1.0, 0.5])
        for sol in (solve_lp(cut, start=start), solve_lp(cut)):
            assert sol.status is LpStatus.OPTIMAL
            assert np.allclose(sol.x, [0.5, 0.0], atol=1e-12)

    def test_program_without_rows(self):
        for lp in (LinearProgram([-1.0]), LinearProgram([-1.0], lower=[2.0])):
            cold = solve_lp(lp)
            warm = solve_lp(lp, start=cold)
            assert warm.status is LpStatus.OPTIMAL
            assert warm.x.tobytes() == cold.x.tobytes()
            assert warm.iterations == 0

    def test_cut_moves_the_optimum(self):
        base = LinearProgram([1.0, 2.0], a_ub=[[1.0, 1.0], [0.0, 1.0]],
                             b_ub=[4.0, 3.0])
        start = solve_lp(base)
        cut = LinearProgram([1.0, 2.0], a_ub=[[1.0, 1.0], [0.0, 1.0],
                                              [-1.0, 2.0]],
                            b_ub=[4.0, 3.0, 2.0])
        warm = solve_lp(cut, start=start)
        assert warm.status is LpStatus.OPTIMAL
        assert np.allclose(warm.x, [2.0, 2.0], atol=1e-12)
        assert warm.objective_value == pytest.approx(6.0, abs=1e-12)
        # one dual pivot from the old vertex (1, 3); no phase 1 again
        assert warm.iterations == 1

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(31)
        c, a, b, eq, eq_rhs = random_program(rng, 5, 10, m_eq=1)
        b[5:] = rng.uniform(-0.3, 0.6, size=5)
        upper = np.full(5, 2.0)

        def chain():
            sol = solve_lp(self.grown(c, a, b, eq, eq_rhs, upper, 3))
            for k in (5, 8, 10):
                sol = solve_lp(self.grown(c, a, b, eq, eq_rhs, upper, k),
                               start=sol)
            return sol

        first = chain()
        assert first.status is LpStatus.OPTIMAL
        for _ in range(3):
            again = chain()
            assert again.x.tobytes() == first.x.tobytes()
            assert again.objective_value == first.objective_value
            assert again.iterations == first.iterations

    def test_start_is_left_untouched(self):
        base = LinearProgram([1.0, 2.0], a_ub=[[1.0, 0.0], [0.0, 1.0],
                                               [1.0, 1.0]],
                             b_ub=[3.0, 3.0, 4.0])
        start = solve_lp(base)
        table = start.tableau.table.copy()
        cut = LinearProgram([1.0, 2.0], a_ub=[[1.0, 0.0], [0.0, 1.0],
                                              [1.0, 1.0], [0.0, 1.0]],
                            b_ub=[3.0, 3.0, 4.0, 2.5])
        first = solve_lp(cut, start=start)
        second = solve_lp(cut, start=start)
        assert np.array_equal(start.tableau.table, table)
        assert first.x.tobytes() == second.x.tobytes()

    def test_program_must_extend_the_start(self):
        base = LinearProgram([1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[2.0])
        start = solve_lp(base)
        for other in (LinearProgram([1.0, 0.0], a_ub=[[1.0, 1.0]], b_ub=[2.0]),
                      LinearProgram([1.0, 1.0], a_ub=[[1.0, 2.0]], b_ub=[2.0]),
                      LinearProgram([1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[2.0],
                                    lower=[0.5, 0.0]),
                      LinearProgram([1.0, 1.0])):
            with pytest.raises(ValueError, match="appended"):
                solve_lp(other, start=start)

    def test_start_must_be_optimal(self):
        infeasible = solve_lp(LinearProgram([1.0], a_ub=[[1.0]], b_ub=[1.0],
                                            a_eq=[[1.0]], b_eq=[3.0]))
        with pytest.raises(ValueError, match="OPTIMAL"):
            solve_lp(LinearProgram([1.0], a_ub=[[1.0], [1.0]], b_ub=[1.0, 2.0],
                                   a_eq=[[1.0]], b_eq=[3.0]),
                     start=infeasible)


class TestAgainstVertexEnumeration:
    def test_random_box_bounded(self):
        rng = np.random.default_rng(2024)
        for trial in range(60):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(1, 5))
            a = rng.normal(size=(m, n))
            b = rng.uniform(0.5, 2.0, size=m)  # keeps the origin feasible
            c = rng.normal(size=n)
            hi = rng.uniform(0.5, 3.0, size=n)
            lp = LinearProgram(c, a_ub=np.vstack([np.eye(n), a]),
                               b_ub=np.concatenate([hi, b]))
            sol = solve_lp(lp)
            assert sol.status is LpStatus.OPTIMAL, f"trial {trial}"
            expected = brute_force_max(c, a, b, np.zeros(n), hi)
            assert expected is not None
            assert sol.objective_value == pytest.approx(expected[0], abs=1e-7), \
                f"trial {trial}"
            assert not check_feasible(lp, sol.x, feas_tol=1e-7)

    def test_random_with_equalities(self):
        # fold one equality into the oracle as a pair of inequalities
        rng = np.random.default_rng(7)
        for trial in range(30):
            n = int(rng.integers(2, 4))
            a = rng.normal(size=(2, n))
            b = rng.uniform(0.5, 2.0, size=2)
            eq = rng.normal(size=(1, n))
            eq_rhs = eq @ rng.uniform(0.1, 0.4, size=n)  # passes near origin
            c = rng.normal(size=n)
            hi = np.full(n, 2.0)
            lp = LinearProgram(c, a_ub=np.vstack([np.eye(n), a]),
                               b_ub=np.concatenate([hi, b]), a_eq=eq,
                               b_eq=eq_rhs)
            sol = solve_lp(lp)
            if sol.status is not LpStatus.OPTIMAL:
                continue  # random equality may miss the box; skip those
            stacked = np.vstack([a, eq, -eq])
            rhs = np.concatenate([b, eq_rhs, -eq_rhs])
            expected = brute_force_max(c, stacked, rhs, np.zeros(n), hi)
            assert expected is not None
            assert sol.objective_value == pytest.approx(expected[0], abs=1e-7)
            assert not check_feasible(lp, sol.x, feas_tol=1e-7)


class TestCheckFeasible:
    def test_reports_each_kind(self):
        lp = LinearProgram([1.0, 1.0],
                           a_ub=[[1.0, 0.0]], b_ub=[1.0],
                           a_eq=[[0.0, 1.0]], b_eq=[2.0],
                           lower=[0.0, 5.0])
        found = check_feasible(lp, [2.0, 4.0])
        kinds = {(kind, idx) for kind, idx, _ in found}
        assert kinds == {("lower-bound", 1), ("inequality", 0),
                         ("equality", 0)}
        amounts = {kind: amt for kind, _, amt in found}
        assert amounts["lower-bound"] == pytest.approx(1.0)
        assert amounts["inequality"] == pytest.approx(1.0)
        assert amounts["equality"] == pytest.approx(2.0)

    def test_lower_bound_violation(self):
        lp = LinearProgram([1.0], lower=[1.0])
        found = check_feasible(lp, [0.5])
        assert found == [("lower-bound", 0, 0.5)]

    def test_feasible_point_is_clean(self):
        lp = LinearProgram([1.0, 1.0], a_ub=[[1, 1]], b_ub=[2])
        assert check_feasible(lp, [1.0, 1.0]) == []

    def test_wrong_size(self):
        lp = LinearProgram([1.0, 1.0])
        with pytest.raises(ValueError, match="wrong number"):
            check_feasible(lp, [1.0])
