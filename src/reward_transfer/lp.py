"""A small, deterministic linear program solver.

Dense tableau simplex.  This is deliberately not a high-performance LP
code: problems in this package have at most a few hundred active rows,
and what matters is that repeated solves of the same program give
bit-identical answers (fixed pivoting order, no randomization, no
degeneracy perturbation).

Conventions: ``maximize c @ x`` subject to ``a_ub @ x <= b_ub``,
``a_eq @ x == b_eq`` and x >= 0 (standard form).  Any other bound is
written as an inequality row, or as a shift of its variable.

Pivoting.  A cold solve runs phase 1 on artificial variables, then
phase 2.  The entering column has the most negative reduced cost.  The
leaving row comes from Harris's two-pass ratio test: pass 1 finds the
longest step that keeps every basic value above ``-tolerance``, pass 2
takes the largest pivot among the rows whose own step fits in it, then
the lowest basis index.  No pivot smaller than ``_PIVOT_TOL`` times the
largest positive entry of its column (or of its row in the dual), or
than ``_PIVOT_TOL`` itself when that entry is below 1, is taken; that
bound only narrows the choice, so a column is called unbounded (a dual
row infeasible) only when none of its entries exceeds it.  A pivot
whose step is below ``tolerance`` is degenerate; after
``_STALL_LIMIT`` of them in a row Bland's smallest-index rule takes
over until a step moves the vertex, so degenerate stretches cannot
cycle.

One ``tolerance`` serves every test of a solve: basic values and
steps (the primal side), reduced costs (optimality, the dual side),
and the phase-1 residual, which may reach tolerance * (1 + the largest
|rhs|).  A solve whose pivots reach 200 + 25 * (rows + columns)
(``_cap``) raises RuntimeError naming that cap and its pivot count.

Warm starts.  ``solve_lp(lp, start=previous)`` re-optimizes the optimal
tableau of ``previous`` when ``lp`` is its program with inequality rows
appended.  The new rows are written in the current basis, each with its
own basic slack.  Adding rows leaves the basis dual feasible, so the
dual simplex (same ratio test, on the row) restores primal feasibility
and a primal pass cleans up; no phase 1 is run again.  This is the
re-optimization step of cutting-plane methods (Kelley 1960).

Every solve ends by re-solving the final basis against the untouched
rows, appended ones included, and keeps that vertex when it fits the
rows better than the pivoted tableau does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# smallest ratio-test pivot, relative to the largest positive entry of
# its column (or row), or absolute when that entry is below 1
_PIVOT_TOL = 1e-9
# smallest entry that drives a leftover artificial out after phase 1
_DRIVE_TOL = 1e-10
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
class _Tableau:
    """An optimal tableau with what a warm start needs to extend it."""

    lp: LinearProgram      # the program it is optimal for
    table: np.ndarray      # constraint rows, then reduced costs; rhs last
    basis: np.ndarray
    rows0: np.ndarray      # the rows [A | slack] before pivoting
    rhs0: np.ndarray


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    x: np.ndarray
    objective_value: float
    iterations: int
    # the final tableau of an OPTIMAL solve, for ``solve_lp(start=...)``
    tableau: Optional[_Tableau] = field(default=None, repr=False,
                                        compare=False)


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
    """Dual simplex from a dual-feasible tableau: iterate until every
    basic value is above -tol, or a row proves the program infeasible
    by more than tol * scale, the residual a cold phase 1 accepts."""
    m = tableau.shape[0] - 1
    if m == 0:
        return "feasible", 0
    iterations = 0
    stalled = 0
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
        step = reduced[enter] / row[enter]
        stalled = stalled + 1 if step <= tol else 0
        _pivot(tableau, leave, enter)
        basis[leave] = enter
        iterations += 1
        if iterations >= cap:
            raise _cap_reached(iterations, cap)


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

    ``tolerance`` is the one tolerance of the solve: on basic values
    (feasibility, the ratio test), on reduced costs (optimality) and on
    the phase-1 residual, scaled there by 1 + the largest |rhs|.  A
    solve whose pivots reach its iteration cap raises RuntimeError.

    ``start`` is an OPTIMAL solution of a program that ``lp`` extends:
    the same objective and equalities, with ``start``'s
    inequality rows first and unchanged, then new ones.  Its tableau is
    re-optimized over the new rows instead of solving from scratch;
    ``iterations`` then counts only the pivots of this solve."""
    if start is not None:
        return _resolve(lp, start, tolerance)
    nvar = lp.n_variables
    m_ub, m_eq = lp.a_ub.shape[0], lp.a_eq.shape[0]
    m = m_ub + m_eq

    # assemble [A | slack | artificial | rhs] with all rhs >= 0; a row
    # negated for that, and every equality, starts on an artificial, and
    # every other inequality on its slack
    rows = np.vstack([lp.a_ub, lp.a_eq])
    rhs = np.concatenate([lp.b_ub, lp.b_eq])
    negate = rhs < 0
    rows[negate] *= -1.0
    rhs[negate] = -rhs[negate]
    art_rows = np.flatnonzero(np.concatenate([negate[:m_ub],
                                              np.ones(m_eq, dtype=bool)]))
    n_art = art_rows.size
    first_art = nvar + m_ub
    n_total = first_art + n_art
    slacks = np.arange(m_ub)
    arts = first_art + np.arange(n_art)

    tableau = np.zeros((m + 1, n_total + 1))
    tableau[:m, :nvar] = rows
    tableau[slacks, nvar + slacks] = np.where(negate[:m_ub], -1.0, 1.0)
    tableau[art_rows, arts] = 1.0
    tableau[:m, -1] = rhs
    basis = np.empty(m, dtype=int)
    basis[:m_ub] = nvar + slacks
    basis[art_rows] = arts

    # untouched copy of the system; long pivot runs smear roundoff
    # across the tableau, so the final vertex is recomputed from these
    # rows once the basis is known
    rows0 = tableau[:m, :first_art].copy()
    rhs0 = tableau[:m, -1].copy()

    cap = _cap(m, n_total)
    iterations = 0
    scale = 1.0 + (float(np.abs(rhs).max()) if m else 0.0)

    if n_art:
        # phase 1: maximize minus the artificial total; each artificial
        # column holds one 1, so its reduced cost comes out exactly 0
        tableau[-1, first_art:n_total] = 1.0
        tableau[-1] -= tableau[art_rows].sum(axis=0)
        outcome, used = _run_simplex(tableau, basis, n_total, tolerance, cap)
        iterations += used
        if outcome == "unbounded":
            raise RuntimeError("phase 1 reported unbounded; cannot happen")
        # summed one row at a time, in row order
        residual = sum(tableau[:m, -1][basis >= first_art])
        if residual > tolerance * scale:
            return _no_solution(lp, LpStatus.INFEASIBLE, iterations)
        # drive leftover (zero-valued) artificials out of the basis; a
        # row with no entry to pivot on is redundant and goes
        for r in np.flatnonzero(basis >= first_art):
            candidates = np.flatnonzero(np.abs(tableau[r, :first_art]) > _DRIVE_TOL)
            if candidates.size:
                _pivot(tableau, r, int(candidates[0]))
                basis[r] = candidates[0]
        kept = basis < first_art
        if not kept.all():
            tableau = tableau[np.append(kept, True)]
            basis, rows0, rhs0 = basis[kept], rows0[kept], rhs0[kept]
            m = basis.size
        tableau = np.hstack([tableau[:, :first_art], tableau[:, -1:]])
        tableau[-1, :] = 0.0

    # phase 2
    n_cols = tableau.shape[1] - 1
    c_ext = np.zeros(n_cols)
    c_ext[:nvar] = lp.objective
    tableau[-1, :n_cols] = -c_ext
    for r in np.flatnonzero(c_ext[basis]):
        tableau[-1] += c_ext[basis[r]] * tableau[r]
    outcome, used = _run_simplex(tableau, basis, n_cols, tolerance, cap,
                                 iterations)
    iterations += used
    if outcome == "unbounded":
        return _no_solution(lp, LpStatus.UNBOUNDED, iterations)
    return _finish(_Tableau(lp, tableau, basis, rows0, rhs0), iterations,
                   tolerance)


def _resolve(lp, start, tol) -> LpSolution:
    """Warm solve: append ``lp``'s new inequality rows to ``start``'s
    optimal tableau, then run the dual simplex and a primal pass."""
    prev = start.tableau
    if prev is None:
        raise ValueError("a warm start needs an OPTIMAL solution of solve_lp")
    old = prev.lp
    k = old.a_ub.shape[0]
    pairs = ((lp.a_ub[:k], old.a_ub), (lp.b_ub[:k], old.b_ub),
             (lp.a_eq, old.a_eq), (lp.b_eq, old.b_eq),
             (lp.objective, old.objective))
    if lp.a_ub.shape[0] < k or not all(np.array_equal(p, q) for p, q in pairs):
        raise ValueError("a warm start needs the start's program with "
                         "inequality rows appended")

    m, width = prev.basis.size, prev.table.shape[1] - 1
    new = lp.a_ub[k:]
    add = new.shape[0]
    n_cols = width + add
    nvar = lp.n_variables
    table = np.zeros((m + add + 1, n_cols + 1))
    table[:m, :width] = prev.table[:m, :width]
    table[:m, -1] = prev.table[:m, -1]
    table[-1, :width] = prev.table[-1, :width]
    # row a @ x + s = b, less the multiples of the rows its basic
    # columns are basic in; each new slack starts basic
    fresh = table[m:m + add]
    fresh[:, :nvar] = new
    fresh[:, width:n_cols] = np.eye(add)
    fresh[:, -1] = lp.b_ub[k:]
    rows0 = np.zeros((m + add, n_cols))
    rows0[:m, :width] = prev.rows0
    rows0[m:] = fresh[:, :-1]
    rhs0 = np.concatenate([prev.rhs0, fresh[:, -1]])
    structural = np.flatnonzero(prev.basis < nvar)
    fresh -= new[:, prev.basis[structural]] @ table[structural]
    fresh[:, prev.basis] = 0.0
    basis = np.concatenate([prev.basis, width + np.arange(add)])

    cap = _cap(m + add, n_cols)
    scale = 1.0 + (float(np.abs(rhs0).max()) if rhs0.size else 0.0)
    outcome, iterations = _run_dual_simplex(table, basis, n_cols, tol, cap,
                                            scale)
    if outcome == "infeasible":
        return _no_solution(lp, LpStatus.INFEASIBLE, iterations)
    outcome, used = _run_simplex(table, basis, n_cols, tol, cap, iterations)
    iterations += used
    if outcome == "unbounded":
        return _no_solution(lp, LpStatus.UNBOUNDED, iterations)
    return _finish(_Tableau(lp, table, basis, rows0, rhs0), iterations, tol)


def _no_solution(lp, status, iterations) -> LpSolution:
    """INFEASIBLE or UNBOUNDED: x is NaN, the value NaN or +inf."""
    value = float("inf") if status is LpStatus.UNBOUNDED else float("nan")
    return LpSolution(status, np.full(lp.n_variables, np.nan), value,
                      iterations)


def _finish(tab: _Tableau, iterations: int, tol: float) -> LpSolution:
    """Read the vertex off an optimal tableau, refined against the
    untouched rows, and store it back as the tableau's basic values."""
    table, basis, rows0, rhs0 = tab.table, tab.basis, tab.rows0, tab.rhs0
    m = basis.size
    n_cols = table.shape[1] - 1
    basic_values = np.maximum(table[:m, -1], 0.0)
    if m:
        # long pivot runs smear roundoff across the tableau; re-solving
        # the final basis against the untouched rows usually fits them
        # orders of magnitude better, so keep whichever reconstruction
        # has the smaller residual
        def residual(values):
            full = np.zeros(n_cols)
            full[basis] = values
            return float(np.abs(rows0 @ full - rhs0).max())

        refined = None
        try:
            refined = np.linalg.solve(rows0[:, basis], rhs0)
        except np.linalg.LinAlgError:
            pass
        scale = 1.0 + float(np.abs(rhs0).max())
        if refined is not None and np.isfinite(refined).all() \
                and refined.min() > -tol * scale:
            candidate = np.maximum(refined, 0.0)
            if residual(candidate) < residual(basic_values):
                basic_values = candidate
    table[:m, -1] = basic_values
    y = np.zeros(n_cols)
    y[basis] = basic_values
    x = y[:tab.lp.n_variables]
    value = float(tab.lp.objective @ x)
    return LpSolution(LpStatus.OPTIMAL, x, value, iterations, tab)


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
