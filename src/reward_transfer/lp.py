"""A small, deterministic linear program solver.

Dense tableau simplex.  This is deliberately not a high-performance LP
code: problems in this package have at most a few hundred active rows,
and what matters is that repeated solves of the same program give
bit-identical answers (fixed pivoting order, no randomization, no
degeneracy perturbation).

Conventions: ``maximize c @ x`` subject to ``a_ub @ x <= b_ub``,
``a_eq @ x == b_eq`` and x >= 0 (standard form).  Any other bound is
written as an inequality row, or as a shift of its variable.

Feasibility.  A cold solve builds [A_ub | I ; A_eq | 0 | b] as it
stands: each inequality starts on its slack, and each equality row is
pivoted once onto its last column of largest |entry| (a crash basis,
Bixby 1992).  An
equality row left with no entry above ``_CRASH_TOL`` is dependent and
dropped, or inconsistent when its rhs is off zero by more than the
tolerance below.  Under the zero objective the crashed basis is dual
feasible, so the dual simplex repairs its negative rows (Koberstein
2005); then the objective goes in and the primal simplex optimizes.

Pivoting.  The entering column has the most negative reduced cost.  The
leaving row comes from Harris's two-pass ratio test: pass 1 finds the
longest step that keeps every basic value above ``-tolerance``, pass 2
takes the largest pivot among the rows whose own step fits in it, then
the lowest basis index (the dual simplex tests its row the same way).
No pivot smaller than ``_PIVOT_TOL`` times the largest positive entry
of its column (or row), or than ``_PIVOT_TOL`` itself when that entry
is below 1, is taken; that bound only narrows the choice, so a column
is called unbounded (a dual row infeasible) only when none of its
entries exceeds it.  A primal pivot whose step is below ``tolerance``
is degenerate, and so is a dual pivot that does not take the total
infeasibility to a new low by more than ``tolerance``; after
``_STALL_LIMIT`` of them in a row Bland's smallest-index rule takes
over until one makes progress, so degenerate stretches cannot cycle.

One ``tolerance`` serves every test of a solve: basic values and
steps (the primal side), reduced costs (optimality, the dual side),
and the shortfall that proves infeasibility, which must exceed
tolerance * (1 + the largest |rhs|).  ``iterations`` counts the
ratio-test pivots of the dual and the primal pass, not the crash
pivots.  A solve whose counted pivots reach 200 + 25 * (rows +
columns) (``_cap``) raises RuntimeError naming that cap and its pivot
count.

Warm starts.  ``solve_lp(lp, start=previous)`` keeps only the basis of
``previous``: which equality rows its crash kept, and each row's basic
column.  ``lp`` must keep ``previous``'s constraint rows (its
inequality rows first, then any new ones, and the same equalities);
its objective and right-hand sides are free.  The basis, each new row
on its own slack, is refactorized against ``lp``'s untouched rows with
one dense solve (reinversion, Koberstein 2005) and priced on ``lp``'s
objective.  Appending rows or shifting right-hand sides leaves it dual
feasible, so the dual simplex restores primal feasibility (the
re-optimization step of cutting-plane methods, Kelley 1960); a new
objective leaves it primal feasible, so the primal pass alone runs.  A
basis that is neither is repaired on the zero objective, as a cold
solve is.  One singular on the rows gives way to a cold solve, and so
does a new equality rhs when the start's crash dropped a dependent
equality: only the crash can tell whether that row still holds.

Every solve ends by re-solving the final basis against the untouched
rows and keeps that vertex when it fits the rows better than the
pivoted tableau does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# smallest ratio-test pivot, relative to the largest positive entry of
# its column (or row), or absolute when that entry is below 1
_PIVOT_TOL = 1e-9
# smallest entry the crash pivots an equality row on
_CRASH_TOL = 1e-10
# degenerate pivots in a row before Bland's rule takes over
_STALL_LIMIT = 50


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LinearProgram:
    """An immutable LP instance (maximization form)."""

    def __init__(self, objective, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
        c = np.array(objective, dtype=float).ravel()
        if c.size == 0:
            raise ValueError("objective must have at least one variable")
        if not np.isfinite(c).all():
            raise ValueError("objective coefficients must be finite")
        nvar = c.size

        self.a_ub, self.b_ub = self._check_system(a_ub, b_ub, nvar, "a_ub")
        self.a_eq, self.b_eq = self._check_system(a_eq, b_eq, nvar, "a_eq")
        c.setflags(write=False)
        self.objective = c
        self.n_variables = nvar

    @staticmethod
    def _check_system(a, b, nvar, name):
        if a is None and b is None:
            a = np.zeros((0, nvar))
            b = np.zeros(0)
        elif a is None or b is None:
            raise ValueError(f"{name} and its rhs must be given together")
        else:
            a = np.array(a, dtype=float)
            b = np.array(b, dtype=float).ravel()
            if a.ndim != 2 or a.shape[1] != nvar:
                raise ValueError(f"{name} must be 2-d with {nvar} columns")
            if b.shape != (a.shape[0],):
                raise ValueError(f"{name} rhs length must match its row count")
            if not (np.isfinite(a).all() and np.isfinite(b).all()):
                raise ValueError(f"{name} must be finite")
        a.setflags(write=False)
        b.setflags(write=False)
        return a, b


@dataclass(frozen=True)
class _Basis:
    """An optimal basis: all that ``solve_lp(start=...)`` restarts from."""

    lp: LinearProgram      # the program it is optimal for
    kept: np.ndarray       # which equality rows the crash kept
    columns: np.ndarray    # each kept row's basic column, inequalities first


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    x: np.ndarray
    objective_value: float
    iterations: int
    # the final basis of an OPTIMAL solve, for ``solve_lp(start=...)``
    basis: Optional[_Basis] = field(default=None, repr=False, compare=False)


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    pivot_row = tableau[row]
    pivot_row /= pivot_row[col]
    factors = tableau[:, col:col + 1].copy()
    factors[row] = 0.0
    tableau -= factors * pivot_row
    # keep the unit column exact; accumulated drift here breaks Bland's rule
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0


def _pivotable(entries: np.ndarray) -> np.ndarray:
    """Positions of the entries large enough to pivot on: above
    _PIVOT_TOL times the largest entry, or times 1 when that is
    smaller.  Negative entries do not raise the bar, so the set is
    empty only when no entry is above _PIVOT_TOL."""
    top = entries.max(initial=1.0)
    return (entries > _PIVOT_TOL * top).nonzero()[0]


def _harris(values, pivots, rank, tol, bland) -> int:
    """Two-pass ratio test over candidates with positive ``pivots``.
    Pass 1 bounds the step by the smallest (value + tol) / pivot; pass 2
    takes, among candidates whose own step value / pivot is within that
    bound, the largest pivot (any of them under Bland's rule), then the
    lowest ``rank``.  Returns a position in the candidate arrays."""
    bound = values + tol
    bound /= pivots
    near = (values / pivots <= bound.min()).nonzero()[0]
    if near.size > 1 and not bland:
        size = pivots[near]
        near = near[size == size.max()]
    if near.size > 1:
        return int(near[rank[near].argmin()])
    return int(near[0])


def _cap_reached(taken, cap) -> RuntimeError:
    return RuntimeError(
        f"simplex took {taken} iterations, reaching this solve's cap of "
        f"{cap}; the instance is likely degenerate beyond what this solver "
        "is meant for")


def _run_simplex(tableau, basis, n_cols, tol, cap, taken=0):
    """Primal simplex: iterate until the bottom row prices out, after
    ``taken`` pivots of the solve, which may take ``cap`` in all."""
    m = tableau.shape[0] - 1
    iterations = 0
    stalled = 0
    # views, which the pivots update in place
    reduced = tableau[-1, :n_cols]
    rhs = tableau[:m, -1]
    while True:
        bland = stalled >= _STALL_LIMIT
        if bland:
            improving = np.flatnonzero(reduced < -tol)
            if improving.size == 0:
                return "optimal", iterations
            enter = int(improving[0])
        else:
            enter = int(reduced.argmin())
            if reduced[enter] >= -tol:
                return "optimal", iterations
        column = tableau[:m, enter]
        rows = _pivotable(column)
        if rows.size == 0:
            return "unbounded", iterations
        leave = int(rows[_harris(rhs[rows], column[rows], basis[rows],
                                 tol, bland)])
        # a basic value Harris let dip below zero leaves at zero, so no
        # step goes backwards (a -0.0 is left as it is)
        if rhs[leave] < 0.0:
            rhs[leave] = 0.0
        step = rhs[leave] / column[leave]
        stalled = stalled + 1 if step <= tol else 0
        _pivot(tableau, leave, enter)
        basis[leave] = enter
        iterations += 1
        if taken + iterations >= cap:
            raise _cap_reached(taken + iterations, cap)


def _run_dual_simplex(tableau, basis, n_cols, tol, cap, scale):
    """Dual simplex from a dual-feasible tableau, the one way a solve,
    cold or warm, reaches a feasible basis: iterate until every basic
    value is above -tol.  A short row with no pivot proves the program
    infeasible when it misses by more than tol * scale, and is set to 0
    otherwise.  A pivot stalls unless it takes the total infeasibility
    (the sum of the negative basic values) to a new low by more than
    tol: a cycle never does, while the dual steps, all 0 under the zero
    objective, cannot tell progress.  Its pivots count towards ``cap``
    from zero."""
    m = tableau.shape[0] - 1
    if m == 0:
        return "feasible", 0
    iterations = 0
    stalled = 0
    lowest = np.inf
    # views, which the pivots update in place
    values = tableau[:m, -1]
    reduced = tableau[-1, :n_cols]
    while True:
        bland = stalled >= _STALL_LIMIT
        if bland:
            short = (values < -tol).nonzero()[0]
            if short.size == 0:
                return "feasible", iterations
            leave = int(short[basis[short].argmin()])
        else:
            leave = int(values.argmin())
            if values[leave] >= -tol:
                return "feasible", iterations
        row = -tableau[leave, :n_cols]
        cols = _pivotable(row)
        if cols.size == 0:
            if values[leave] < -tol * scale:
                return "infeasible", iterations
            tableau[leave, -1] = 0.0  # no pivot lifts it; close enough
            continue
        enter = int(cols[_harris(reduced[cols], row[cols], cols,
                                 tol, bland)])
        if reduced[enter] < 0.0:
            reduced[enter] = 0.0
        _pivot(tableau, leave, enter)
        basis[leave] = enter
        iterations += 1
        if iterations >= cap:
            raise _cap_reached(iterations, cap)
        infeasibility = -float(np.minimum(values, 0.0).sum())
        if infeasibility < lowest - tol:
            lowest, stalled = infeasibility, 0
        else:
            stalled += 1


def _cap(rows: int, cols: int) -> int:
    """The most pivots a solve over a tableau of ``rows`` constraint rows
    and ``cols`` columns may take before it is called degenerate."""
    return 200 + 25 * (rows + cols)


def solve_lp(lp: LinearProgram,
             tolerance: float = 1e-9,
             start: Optional[LpSolution] = None) -> LpSolution:
    """Solve the program.  Returns a status rather than raising:
    INFEASIBLE and UNBOUNDED are ordinary outcomes (``x`` is NaN for
    both).  Identical inputs produce bit-identical solutions.

    A cold solve crashes the equality rows into the basis, repairs it
    with the dual simplex on the zero objective, then optimizes with the
    primal simplex.  ``iterations`` counts the pivots of both passes,
    which the cap bounds together; crash pivots are not counted.
    ``tolerance`` is the one tolerance of the solve: on basic values
    (feasibility, the ratio test), on reduced costs (optimality) and on
    the shortfall that proves infeasibility, scaled there by 1 + the
    largest |rhs|.  A solve whose pivots reach its cap raises
    RuntimeError.

    ``start`` is an OPTIMAL solution of a program whose constraint rows
    ``lp`` keeps: ``start``'s inequality rows first and unchanged, then
    any new ones, and the same equality rows.  The objective and the
    right-hand sides may change.  ``start``'s basis, each new row on its
    own slack, is refactorized against ``lp``'s rows and priced on its
    objective; the dual simplex repairs it, on the zero objective when
    it is neither primal nor dual feasible, and the primal simplex
    finishes.  A basis singular on the rows falls back to a cold solve,
    as does a new ``b_eq`` when ``start`` dropped a dependent equality."""
    nvar = lp.n_variables
    m_ub, m_eq = lp.a_ub.shape[0], lp.a_eq.shape[0]
    m, n_cols = m_ub + m_eq, nvar + m_ub

    # the untouched system [A_ub | I | b_ub ; A_eq | 0 | b_eq], kept
    # apart from the tableau: long pivot runs smear roundoff across the
    # tableau, so the final vertex is recomputed from these rows once
    # the basis is known
    slacks = np.arange(m_ub)
    system = np.zeros((m, n_cols + 1))
    system[:m_ub, :nvar] = lp.a_ub
    system[m_ub:, :nvar] = lp.a_eq
    system[slacks, nvar + slacks] = 1.0
    system[:, -1] = np.concatenate([lp.b_ub, lp.b_eq])
    scale = 1.0 + float(np.abs(system[:, -1]).max(initial=0.0))
    c_ext = np.zeros(n_cols)
    c_ext[:nvar] = lp.objective

    restart = None if start is None else _refactorize(lp, start, system)
    if restart is None:
        # crash: each inequality starts on its slack, and each equality
        # row becomes basic in its last column of largest |entry|; a row
        # with no entry left is dependent on the ones before it and goes,
        # or contradicts them
        tableau = np.zeros((m + 1, n_cols + 1))
        tableau[:m] = system
        basis = nvar + np.arange(m)
        kept = np.ones(m, dtype=bool)
        for r in range(m_ub, m):
            size = np.abs(tableau[r, :nvar])
            enter = nvar - 1 - int(size[::-1].argmax())
            if size[enter] > _CRASH_TOL:
                _pivot(tableau, r, enter)
                basis[r] = enter
            elif abs(tableau[r, -1]) <= tolerance * scale:
                kept[r] = False
            else:
                return _no_solution(lp, LpStatus.INFEASIBLE, 0)
        if not kept.all():
            tableau, basis = tableau[np.append(kept, True)], basis[kept]
        priced = False
    else:
        tableau, basis, kept = restart
        _price(tableau, basis, c_ext)
        priced = tableau[:-1, -1].min(initial=0.0) >= -tolerance \
            or tableau[-1, :-1].min(initial=0.0) >= -tolerance
        if not priced:
            tableau[-1] = 0.0
    if not kept.all():
        system = system[kept]

    # the tableau is dual feasible: priced, or under the zero objective,
    # which prices every column at 0; the dual simplex repairs the rows
    # it leaves negative
    cap = _cap(basis.size, n_cols)
    outcome, iterations = _run_dual_simplex(tableau, basis, n_cols, tolerance,
                                            cap, scale)
    if outcome == "infeasible":
        return _no_solution(lp, LpStatus.INFEASIBLE, iterations)
    if not priced:
        _price(tableau, basis, c_ext)
    return _finish(lp, tableau, basis, kept[m_ub:], system, iterations,
                   tolerance, cap, scale)


def _refactorize(lp, start, system):
    """The tableau of ``start``'s basis over ``system``, ``lp``'s
    untouched rows, each row ``start`` lacks on its own slack: B^-1
    times the rows the basis keeps, from one factorization of their
    basic columns B, with a zero bottom row.  Returns it with the basis
    and which rows it keeps, or None, for a cold solve, when B is
    singular or when the equalities' rhs changed although the start's
    crash dropped one of them as dependent."""
    prev = start.basis
    if prev is None:
        raise ValueError("a warm start needs an OPTIMAL solution of solve_lp")
    k = prev.lp.a_ub.shape[0]
    m_ub = lp.a_ub.shape[0]
    if m_ub < k or not (np.array_equal(lp.a_ub[:k], prev.lp.a_ub)
                        and np.array_equal(lp.a_eq, prev.lp.a_eq)):
        raise ValueError("a warm start needs the start's constraint rows, "
                         "with inequality rows appended")
    if not (prev.kept.all() or np.array_equal(lp.b_eq, prev.lp.b_eq)):
        return None  # a dropped row may contradict the new rhs
    basis = np.concatenate([prev.columns[:k], lp.n_variables
                            + np.arange(k, m_ub), prev.columns[k:]])
    kept = np.concatenate([np.ones(m_ub, dtype=bool), prev.kept])
    rows = system if prev.kept.all() else system[kept]
    # B^-1 B is the unit matrix, written exactly, as pivoting keeps it;
    # only the other columns and the rhs are solved for
    other = np.ones(system.shape[1], dtype=bool)
    other[basis] = False
    tableau = np.zeros((basis.size + 1, system.shape[1]))
    try:
        tableau[:-1, other] = np.linalg.solve(rows[:, basis], rows[:, other])
    except np.linalg.LinAlgError:
        return None
    tableau[np.arange(basis.size), basis] = 1.0
    return tableau, basis, kept


def _price(tableau, basis, c_ext) -> None:
    """Write the reduced costs of ``c_ext`` in ``basis`` into the
    tableau's bottom row, and the objective value into its corner."""
    tableau[-1] = c_ext[basis] @ tableau[:-1]
    tableau[-1, :-1] -= c_ext


def _no_solution(lp, status, iterations) -> LpSolution:
    """INFEASIBLE or UNBOUNDED: x is NaN, the value NaN or +inf."""
    value = float("inf") if status is LpStatus.UNBOUNDED else float("nan")
    return LpSolution(status, np.full(lp.n_variables, np.nan), value,
                      iterations)


def _finish(lp, tableau, basis, kept, system, iterations, tol, cap,
            scale) -> LpSolution:
    """The tail of every solve: the primal simplex from the primal
    feasible ``tableau``, after ``iterations`` pivots of the solve.
    Read the vertex off the optimal tableau, refined against
    ``system``, the untouched rows the basis keeps.  ``scale`` is the
    solve's 1 + the largest |rhs|."""
    m = basis.size
    n_cols = tableau.shape[1] - 1
    outcome, used = _run_simplex(tableau, basis, n_cols, tol, cap, iterations)
    iterations += used
    if outcome == "unbounded":
        return _no_solution(lp, LpStatus.UNBOUNDED, iterations)
    basic_values = np.maximum(tableau[:m, -1], 0.0)
    if m:
        # long pivot runs smear roundoff across the tableau; re-solving
        # the final basis against the untouched rows usually fits them
        # orders of magnitude better, so keep whichever reconstruction
        # has the smaller residual
        def residual(values):
            full = np.zeros(n_cols)
            full[basis] = values
            return float(np.abs(system[:, :-1] @ full - system[:, -1]).max())

        refined = None
        try:
            refined = np.linalg.solve(system[:, basis], system[:, -1])
        except np.linalg.LinAlgError:
            pass
        if refined is not None and np.isfinite(refined).all() \
                and refined.min() > -tol * scale:
            candidate = np.maximum(refined, 0.0)
            if residual(candidate) < residual(basic_values):
                basic_values = candidate
    y = np.zeros(n_cols)
    y[basis] = basic_values
    x = y[:lp.n_variables]
    value = float(lp.objective @ x)
    return LpSolution(LpStatus.OPTIMAL, x, value, iterations,
                      _Basis(lp, kept, basis))


def check_feasible(lp: LinearProgram, x, tolerance: float = 1e-9) -> list:
    """All constraints a point violates, as (kind, index, amount) triples
    with amount > 0.  Empty list means feasible within tolerance."""
    point = np.asarray(x, dtype=float).ravel()
    if point.shape != (lp.n_variables,):
        raise ValueError("point has the wrong number of variables")
    violations = []
    for j in np.flatnonzero(point < -tolerance):
        violations.append(("lower-bound", int(j), float(-point[j])))
    if lp.a_ub.shape[0]:
        resid = lp.a_ub @ point - lp.b_ub
        for k in np.flatnonzero(resid > tolerance):
            violations.append(("inequality", int(k), float(resid[k])))
    if lp.a_eq.shape[0]:
        resid = np.abs(lp.a_eq @ point - lp.b_eq)
        for k in np.flatnonzero(resid > tolerance):
            violations.append(("equality", int(k), float(resid[k])))
    return violations
