"""A small, deterministic linear program solver.

Dense tableau simplex.  This is deliberately not a high-performance LP
code: problems in this package have at most a few hundred active rows,
and what matters is that repeated solves of the same program give
bit-identical answers (fixed pivoting order, no randomization, no
degeneracy perturbation).

Conventions: ``maximize c @ x`` subject to ``a_ub @ x <= b_ub``,
``a_eq @ x == b_eq`` and ``x >= lower``, a finite bound that defaults to
0.  The tableau holds y = x - lower >= 0, so the rows are the caller's
rows with ``b - A @ lower`` on the right.  A bound from above, or any
other side of a box, is written as an inequality row.

Pivoting.  A cold solve runs phase 1 on artificial variables, then
phase 2.  The entering column has the most negative reduced cost.  The
leaving row comes from Harris's two-pass ratio test: pass 1 finds the
longest step that keeps every basic value above ``-feas_tol``, pass 2
takes the largest pivot among the rows whose own step fits in it, then
the lowest basis index.  No pivot smaller than ``_PIVOT_TOL`` times the
largest positive entry of its column (or of its row in the dual), or
than ``_PIVOT_TOL`` itself when that entry is below 1, is taken; the
tolerance only narrows the choice, so a column is called unbounded (a
dual row infeasible) only when none of its entries exceeds it.  A
pivot whose step is below the tolerance is degenerate; after
``_STALL_LIMIT`` of them in a row Bland's smallest-index rule takes
over until a step moves the vertex, so degenerate stretches cannot
cycle.

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
import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

log = logging.getLogger(__name__)

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

    def __init__(self, objective, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                 lower=None):
        c = np.array(objective, dtype=float).ravel()
        if c.size == 0:
            raise ValueError("objective must have at least one variable")
        if not np.isfinite(c).all():
            raise ValueError("objective coefficients must be finite")
        nvar = c.size

        self.a_ub, self.b_ub = self._check_system(a_ub, b_ub, nvar, "a_ub")
        self.a_eq, self.b_eq = self._check_system(a_eq, b_eq, nvar, "a_eq")

        lo = np.zeros(nvar) if lower is None else np.array(lower, dtype=float).ravel()
        if lo.shape != (nvar,):
            raise ValueError("bounds must have one entry per variable")
        if not np.isfinite(lo).all():
            raise ValueError("lower bounds must be finite")

        for arr in (c, lo):
            arr.setflags(write=False)
        self.objective = c
        self.lower = lo
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
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    # keep the unit column exact; accumulated drift here breaks Bland's rule
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0


def _pivotable(entries: np.ndarray) -> np.ndarray:
    """Positions of the entries large enough to pivot on: above
    _PIVOT_TOL times the largest entry, or times 1 when that is
    smaller.  Negative entries do not raise the bar, so the set is
    empty only when no entry is above _PIVOT_TOL."""
    top = max(entries.max(), 1.0) if entries.size else 1.0
    return (entries > _PIVOT_TOL * top).nonzero()[0]


def _harris(values, pivots, rank, tol, bland) -> int:
    """Two-pass ratio test over candidates with positive ``pivots``.
    Pass 1 bounds the step by the smallest (value + tol) / pivot; pass 2
    takes, among candidates whose own step value / pivot is within that
    bound, the largest pivot (any of them under Bland's rule), then the
    lowest ``rank``.  Returns a position in the candidate arrays."""
    near = (values / pivots <= ((values + tol) / pivots).min()).nonzero()[0]
    if near.size > 1 and not bland:
        size = pivots[near]
        near = near[size == size.max()]
    if near.size > 1:
        return int(near[rank[near].argmin()])
    return int(near[0])


def _run_simplex(tableau, basis, n_cols, feas_tol, opt_tol, cap):
    """Primal simplex: iterate until the bottom row prices out."""
    m = tableau.shape[0] - 1
    iterations = 0
    stalled = 0
    while True:
        reduced = tableau[-1, :n_cols]
        bland = stalled >= _STALL_LIMIT
        if bland:
            improving = np.flatnonzero(reduced < -opt_tol)
            if improving.size == 0:
                return "optimal", iterations
            enter = int(improving[0])
        else:
            enter = int(np.argmin(reduced))
            if reduced[enter] >= -opt_tol:
                return "optimal", iterations
        column = tableau[:m, enter]
        rows = _pivotable(column)
        if rows.size == 0:
            return "unbounded", iterations
        leave = int(rows[_harris(tableau[rows, -1], column[rows], basis[rows],
                                 feas_tol, bland)])
        # a basic value Harris let dip below zero leaves at zero, so no
        # step goes backwards
        tableau[leave, -1] = max(tableau[leave, -1], 0.0)
        step = tableau[leave, -1] / column[leave]
        stalled = stalled + 1 if step <= feas_tol else 0
        _pivot(tableau, leave, enter)
        basis[leave] = enter
        iterations += 1
        if iterations >= cap:
            raise RuntimeError(
                f"simplex exceeded {cap} iterations; the instance is likely "
                "degenerate beyond what this solver is meant for")


def _run_dual_simplex(tableau, basis, n_cols, feas_tol, opt_tol, cap, scale):
    """Dual simplex from a dual-feasible tableau: iterate until every
    basic value is above -feas_tol, or a row proves the program
    infeasible by more than feas_tol * scale, the residual a cold
    phase 1 accepts."""
    m = tableau.shape[0] - 1
    if m == 0:
        return "feasible", 0
    iterations = 0
    stalled = 0
    while True:
        values = tableau[:m, -1]
        bland = stalled >= _STALL_LIMIT
        if bland:
            short = (values < -feas_tol).nonzero()[0]
            if short.size == 0:
                return "feasible", iterations
            leave = int(short[basis[short].argmin()])
        else:
            leave = int(values.argmin())
            if values[leave] >= -feas_tol:
                return "feasible", iterations
        row = -tableau[leave, :n_cols]
        cols = _pivotable(row)
        if cols.size == 0:
            if values[leave] < -feas_tol * scale:
                return "infeasible", iterations
            tableau[leave, -1] = 0.0  # no pivot lifts it; close enough
            continue
        enter = int(cols[_harris(tableau[-1, cols], row[cols], cols,
                                 opt_tol, bland)])
        tableau[-1, enter] = max(tableau[-1, enter], 0.0)
        step = tableau[-1, enter] / row[enter]
        stalled = stalled + 1 if step <= opt_tol else 0
        _pivot(tableau, leave, enter)
        basis[leave] = enter
        iterations += 1
        if iterations >= cap:
            raise RuntimeError(
                f"simplex exceeded {cap} iterations; the instance is likely "
                "degenerate beyond what this solver is meant for")


def solve_lp(lp: LinearProgram,
             feas_tol: float = 1e-9,
             opt_tol: float = 1e-9,
             max_iterations: Optional[int] = None,
             start: Optional[LpSolution] = None) -> LpSolution:
    """Solve the program.  Returns a status rather than raising:
    INFEASIBLE and UNBOUNDED are ordinary outcomes (``x`` is NaN for
    both).  Identical inputs produce bit-identical solutions.

    ``start`` is an OPTIMAL solution of a program that ``lp`` extends:
    the same objective, bounds and equalities, with ``start``'s
    inequality rows first and unchanged, then new ones.  Its tableau is
    re-optimized over the new rows instead of solving from scratch;
    ``iterations`` then counts only the pivots of this solve."""
    if start is not None:
        return _resolve(lp, start, feas_tol, opt_tol, max_iterations)
    nvar = lp.n_variables
    m_ub, m_eq = lp.a_ub.shape[0], lp.a_eq.shape[0]
    m = m_ub + m_eq

    # assemble [A | slack | artificial | rhs] in y = x - lower, with all
    # rhs >= 0
    rows = np.vstack([lp.a_ub, lp.a_eq])
    rhs = np.concatenate([lp.b_ub - lp.a_ub @ lp.lower,
                          lp.b_eq - lp.a_eq @ lp.lower])
    slack_sign = np.zeros(m)
    slack_sign[:m_ub] = 1.0
    negate = rhs < 0
    rows[negate] *= -1.0
    rhs[negate] = -rhs[negate]
    slack_sign[negate[:m_ub].nonzero()[0]] = -1.0

    needs_artificial = np.ones(m, dtype=bool)
    needs_artificial[:m_ub] = slack_sign[:m_ub] < 0
    art_rows = np.flatnonzero(needs_artificial)
    n_art = art_rows.size

    slack_block = np.zeros((m, m_ub))
    for k in range(m_ub):
        slack_block[k, k] = slack_sign[k]
    art_block = np.zeros((m, n_art))
    for a, r in enumerate(art_rows):
        art_block[r, a] = 1.0

    first_art = nvar + m_ub
    n_total = first_art + n_art
    tableau = np.zeros((m + 1, n_total + 1))
    if m:
        tableau[:m, :nvar] = rows
        tableau[:m, nvar:first_art] = slack_block
        tableau[:m, first_art:n_total] = art_block
        tableau[:m, -1] = rhs

    basis = np.zeros(m, dtype=int)
    for k in range(m_ub):
        basis[k] = nvar + k if slack_sign[k] > 0 else 0
    next_art = first_art
    for r in art_rows:
        basis[r] = next_art
        next_art += 1

    # untouched copy of the system; long pivot runs smear roundoff
    # across the tableau, so the final vertex is recomputed from these
    # rows once the basis is known
    rows0 = tableau[:m, :first_art].copy()
    rhs0 = tableau[:m, -1].copy()

    log.debug("LP: %d structural, %d slack, %d artificial, %d rows",
              nvar, m_ub, n_art, m)

    cap = max_iterations or (200 + 25 * (m + n_total))
    iterations = 0
    scale = 1.0 + (float(np.abs(rhs).max()) if m else 0.0)

    if n_art:
        # phase 1: maximize minus the artificial total
        tableau[-1, first_art:n_total] = 1.0
        for r in art_rows:
            tableau[-1] -= tableau[r]
        outcome, used = _run_simplex(tableau, basis, n_total, feas_tol,
                                     opt_tol, cap)
        iterations += used
        if outcome == "unbounded":
            raise RuntimeError("phase 1 reported unbounded; cannot happen")
        residual = sum(tableau[r, -1] for r in range(m) if basis[r] >= first_art)
        if residual > feas_tol * scale:
            log.debug("phase 1 residual %.3e, infeasible", residual)
            bad = np.full(lp.n_variables, np.nan)
            return LpSolution(LpStatus.INFEASIBLE, bad, float("nan"), iterations)
        # drive leftover (zero-valued) artificials out of the basis
        drop = []
        for r in range(m):
            if basis[r] < first_art:
                continue
            candidates = np.flatnonzero(np.abs(tableau[r, :first_art]) > _DRIVE_TOL)
            if candidates.size:
                _pivot(tableau, r, int(candidates[0]))
                basis[r] = int(candidates[0])
            else:
                drop.append(r)  # redundant row
        if drop:
            keep = [r for r in range(m) if r not in set(drop)]
            tableau = tableau[keep + [m]]
            basis = basis[keep]
            rows0 = rows0[keep]
            rhs0 = rhs0[keep]
            m = len(keep)
        tableau = np.hstack([tableau[:, :first_art], tableau[:, -1:]])
        tableau[-1, :] = 0.0

    # phase 2
    n_cols = tableau.shape[1] - 1
    c_ext = np.zeros(n_cols)
    c_ext[:nvar] = lp.objective
    tableau[-1, :n_cols] = -c_ext
    tableau[-1, -1] = 0.0
    for r in range(m):
        cb = c_ext[basis[r]]
        if cb != 0.0:
            tableau[-1] += cb * tableau[r]
    outcome, used = _run_simplex(tableau, basis, n_cols, feas_tol, opt_tol,
                                 cap)
    iterations += used
    if outcome == "unbounded":
        bad = np.full(lp.n_variables, np.nan)
        return LpSolution(LpStatus.UNBOUNDED, bad, float("inf"), iterations)
    return _finish(_Tableau(lp, tableau, basis, rows0, rhs0), iterations,
                   feas_tol)


def _resolve(lp, start, feas_tol, opt_tol, max_iterations) -> LpSolution:
    """Warm solve: append ``lp``'s new inequality rows to ``start``'s
    optimal tableau, then run the dual simplex and a primal pass."""
    prev = start.tableau
    if prev is None:
        raise ValueError("a warm start needs an OPTIMAL solution of solve_lp")
    old = prev.lp
    k = old.a_ub.shape[0]
    pairs = ((lp.a_ub[:k], old.a_ub), (lp.b_ub[:k], old.b_ub),
             (lp.a_eq, old.a_eq), (lp.b_eq, old.b_eq),
             (lp.objective, old.objective), (lp.lower, old.lower))
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
    # row a @ y + s = b, less the multiples of the rows its basic
    # columns are basic in; each new slack starts basic
    fresh = table[m:m + add]
    fresh[:, :nvar] = new
    fresh[:, width:n_cols] = np.eye(add)
    fresh[:, -1] = lp.b_ub[k:] - new @ lp.lower
    rows0 = np.zeros((m + add, n_cols))
    rows0[:m, :width] = prev.rows0
    rows0[m:] = fresh[:, :-1]
    rhs0 = np.concatenate([prev.rhs0, fresh[:, -1]])
    structural = np.flatnonzero(prev.basis < nvar)
    fresh -= new[:, prev.basis[structural]] @ table[structural]
    fresh[:, prev.basis] = 0.0
    basis = np.concatenate([prev.basis, width + np.arange(add)])
    log.debug("warm start: %d rows appended to %d", add, m)

    cap = max_iterations or (200 + 25 * (m + add + n_cols))
    scale = 1.0 + (float(np.abs(rhs0).max()) if rhs0.size else 0.0)
    outcome, iterations = _run_dual_simplex(
        table, basis, n_cols, feas_tol, opt_tol, cap, scale)
    if outcome == "infeasible":
        bad = np.full(lp.n_variables, np.nan)
        return LpSolution(LpStatus.INFEASIBLE, bad, float("nan"), iterations)
    outcome, used = _run_simplex(table, basis, n_cols, feas_tol, opt_tol,
                                 cap - iterations)
    iterations += used
    if outcome == "unbounded":
        bad = np.full(lp.n_variables, np.nan)
        return LpSolution(LpStatus.UNBOUNDED, bad, float("inf"), iterations)
    return _finish(_Tableau(lp, table, basis, rows0, rhs0), iterations,
                   feas_tol)


def _finish(tab: _Tableau, iterations: int, feas_tol: float) -> LpSolution:
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
                and refined.min() > -feas_tol * scale:
            candidate = np.maximum(refined, 0.0)
            if residual(candidate) < residual(basic_values):
                basic_values = candidate
    table[:m, -1] = basic_values
    y = np.zeros(n_cols)
    y[basis] = basic_values
    x = y[:tab.lp.n_variables] + tab.lp.lower
    value = float(tab.lp.objective @ x)
    log.debug("optimal after %d iterations, objective %.12g",
              iterations, value)
    return LpSolution(LpStatus.OPTIMAL, x, value, iterations, tab)


def check_feasible(lp: LinearProgram, x, feas_tol: float = 1e-9) -> list:
    """All constraints a point violates, as (kind, index, amount) triples
    with amount > 0.  Empty list means feasible within tolerance."""
    point = np.asarray(x, dtype=float).ravel()
    if point.shape != (lp.n_variables,):
        raise ValueError("point has the wrong number of variables")
    violations = []
    for j in np.flatnonzero(point < lp.lower - feas_tol):
        violations.append(("lower-bound", int(j), float(lp.lower[j] - point[j])))
    if lp.a_ub.shape[0]:
        resid = lp.a_ub @ point - lp.b_ub
        for k in np.flatnonzero(resid > feas_tol):
            violations.append(("inequality", int(k), float(resid[k])))
    if lp.a_eq.shape[0]:
        resid = np.abs(lp.a_eq @ point - lp.b_eq)
        for k in np.flatnonzero(resid > feas_tol):
            violations.append(("equality", int(k), float(resid[k])))
    return violations
