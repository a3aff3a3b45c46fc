"""A small, deterministic linear program solver.

Dense two-phase simplex with Bland's rule.  This is deliberately not a
high-performance LP code: problems in this package have at most a few
hundred active rows, and what matters is that repeated solves of the
same program give bit-identical answers (fixed pivoting order, no
randomization, no degeneracy perturbation).

Conventions: ``maximize c @ x`` subject to ``a_ub @ x <= b_ub``,
``a_eq @ x == b_eq`` and ``lower <= x <= upper``.  Default bounds are
``0 <= x`` with no upper limit.  Infinities in the bounds are handled by
shifting, mirroring, or splitting variables before the tableau is built.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

log = logging.getLogger(__name__)

_PIVOT_TOL = 1e-10


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LinearProgram:
    """An immutable LP instance (maximization form)."""

    def __init__(self, objective, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                 lower=None, upper=None):
        c = np.array(objective, dtype=float).ravel()
        if c.size == 0:
            raise ValueError("objective must have at least one variable")
        if not np.isfinite(c).all():
            raise ValueError("objective coefficients must be finite")
        nvar = c.size

        self.a_ub, self.b_ub = self._check_system(a_ub, b_ub, nvar, "a_ub")
        self.a_eq, self.b_eq = self._check_system(a_eq, b_eq, nvar, "a_eq")

        lo = np.zeros(nvar) if lower is None else np.array(lower, dtype=float).ravel()
        hi = np.full(nvar, np.inf) if upper is None else np.array(upper, dtype=float).ravel()
        if lo.shape != (nvar,) or hi.shape != (nvar,):
            raise ValueError("bounds must have one entry per variable")
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("bounds may not be NaN")
        if (lo == np.inf).any() or (hi == -np.inf).any():
            raise ValueError("lower bounds must be < +inf and upper bounds > -inf")
        if (lo > hi).any():
            j = int(np.argmax(lo > hi))
            raise ValueError(f"empty bound interval for variable {j}: "
                             f"[{lo[j]}, {hi[j]}]")

        for arr in (c, lo, hi):
            arr.setflags(write=False)
        self.objective = c
        self.lower = lo
        self.upper = hi
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
class LpSolution:
    status: LpStatus
    x: np.ndarray
    objective_value: float
    iterations: int


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    # keep the unit column exact; accumulated drift here breaks Bland's rule
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0


def _run_simplex(tableau, basis, n_cols, opt_tol, cap):
    """Iterate until the bottom row prices out.

    The entering variable is the most negative reduced cost (first such
    column on ties), which converges quickly but can cycle on degenerate
    vertices; after a stretch of pivots with no objective movement the
    rule switches to Bland's smallest index, which cannot cycle.  Ratio
    ties go to the lowest-index basic variable either way."""
    m = tableau.shape[0] - 1
    iterations = 0
    stalled = 0
    bland = False
    while True:
        reduced = tableau[-1, :n_cols]
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
        eligible = np.flatnonzero(column > _PIVOT_TOL)
        if eligible.size == 0:
            return "unbounded", iterations
        ratios = tableau[eligible, -1] / column[eligible]
        best = ratios.min()
        tied = eligible[ratios <= best + 1e-10 * (1.0 + abs(best))]
        leave = int(tied[np.argmin(basis[tied])])
        before = tableau[-1, -1]
        _pivot(tableau, leave, enter)
        basis[leave] = enter
        iterations += 1
        if not bland:
            if abs(tableau[-1, -1] - before) <= 1e-14 * (1.0 + abs(before)):
                stalled += 1
                if stalled > 50:
                    bland = True
            else:
                stalled = 0
        if iterations >= cap:
            raise RuntimeError(
                f"simplex exceeded {cap} iterations; the instance is likely "
                "degenerate beyond what this solver is meant for")


def _standardize(lp: LinearProgram):
    """Rewrite general bounds into y >= 0 variables.

    Returns (var_map M, offset o, rows_ub, rhs_ub, rows_eq, rhs_eq,
    c_std) with x = M @ y + o.
    """
    nvar = lp.n_variables
    columns = []
    offsets = np.zeros(nvar)
    extra_rows = []  # (structural column, upper rhs) for two-sided bounds
    n_std = 0
    for j in range(nvar):
        lo, hi = lp.lower[j], lp.upper[j]
        if np.isfinite(lo):
            col = np.zeros(nvar)
            col[j] = 1.0
            columns.append(col)
            offsets[j] = lo
            if np.isfinite(hi):
                extra_rows.append((n_std, hi - lo))
            n_std += 1
        elif np.isfinite(hi):
            col = np.zeros(nvar)
            col[j] = -1.0
            columns.append(col)
            offsets[j] = hi
            n_std += 1
        else:
            pos = np.zeros(nvar)
            pos[j] = 1.0
            neg = np.zeros(nvar)
            neg[j] = -1.0
            columns.append(pos)
            columns.append(neg)
            n_std += 2
    var_map = np.column_stack(columns)  # nvar x n_std

    a_ub = lp.a_ub @ var_map
    b_ub = lp.b_ub - lp.a_ub @ offsets
    if extra_rows:
        bound_rows = np.zeros((len(extra_rows), n_std))
        bound_rhs = np.zeros(len(extra_rows))
        for k, (col, rhs) in enumerate(extra_rows):
            bound_rows[k, col] = 1.0
            bound_rhs[k] = rhs
        a_ub = np.vstack([a_ub, bound_rows])
        b_ub = np.concatenate([b_ub, bound_rhs])
    a_eq = lp.a_eq @ var_map
    b_eq = lp.b_eq - lp.a_eq @ offsets
    c_std = lp.objective @ var_map
    return var_map, offsets, a_ub, b_ub, a_eq, b_eq, c_std


def solve_lp(lp: LinearProgram,
             feas_tol: float = 1e-9,
             opt_tol: float = 1e-9,
             max_iterations: Optional[int] = None) -> LpSolution:
    """Solve the program.  Returns a status rather than raising:
    INFEASIBLE and UNBOUNDED are ordinary outcomes (``x`` is NaN for
    both).  Identical inputs produce bit-identical solutions."""
    var_map, offsets, a_ub, b_ub, a_eq, b_eq, c_std = _standardize(lp)
    n_std = var_map.shape[1]
    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq

    # assemble [A | slack | artificial | rhs] with all rhs >= 0
    rows = np.vstack([a_ub, a_eq]) if m else np.zeros((0, n_std))
    rhs = np.concatenate([b_ub, b_eq])
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

    first_art = n_std + m_ub
    n_total = first_art + n_art
    tableau = np.zeros((m + 1, n_total + 1))
    if m:
        tableau[:m, :n_std] = rows
        tableau[:m, n_std:first_art] = slack_block
        tableau[:m, first_art:n_total] = art_block
        tableau[:m, -1] = rhs

    basis = np.zeros(m, dtype=int)
    for k in range(m_ub):
        basis[k] = n_std + k if slack_sign[k] > 0 else 0
    next_art = first_art
    for r in art_rows:
        basis[r] = next_art
        next_art += 1

    # untouched copy of the standardized system; long pivot runs smear
    # roundoff across the tableau, so the final vertex is recomputed
    # from these rows once the basis is known
    rows0 = tableau[:m, :first_art].copy()
    rhs0 = tableau[:m, -1].copy()

    log.debug("standardized LP: %d structural, %d slack, %d artificial, "
              "%d rows", n_std, m_ub, n_art, m)

    cap = max_iterations or (200 + 25 * (m + n_total))
    iterations = 0
    scale = 1.0 + (float(np.abs(rhs).max()) if m else 0.0)

    if n_art:
        # phase 1: maximize minus the artificial total
        tableau[-1, first_art:n_total] = 1.0
        for r in art_rows:
            tableau[-1] -= tableau[r]
        outcome, used = _run_simplex(tableau, basis, n_total, opt_tol, cap)
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
            candidates = np.flatnonzero(np.abs(tableau[r, :first_art]) > _PIVOT_TOL)
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
    c_ext[:n_std] = c_std
    tableau[-1, :n_cols] = -c_ext
    tableau[-1, -1] = 0.0
    for r in range(m):
        cb = c_ext[basis[r]]
        if cb != 0.0:
            tableau[-1] += cb * tableau[r]
    outcome, used = _run_simplex(tableau, basis, n_cols, opt_tol, cap)
    iterations += used
    if outcome == "unbounded":
        bad = np.full(lp.n_variables, np.nan)
        return LpSolution(LpStatus.UNBOUNDED, bad, float("inf"), iterations)

    y = np.zeros(n_cols)
    basic_values = np.maximum(tableau[:m, -1], 0.0)
    if m:
        # long pivot runs smear roundoff across the tableau; re-solving
        # the final basis against the untouched rows usually fits them
        # orders of magnitude better, so keep whichever reconstruction
        # has the smaller residual
        def residual(values):
            full = np.zeros(n_cols)
            full[basis[:m]] = values
            return float(np.abs(rows0 @ full - rhs0).max())

        refined = None
        try:
            refined = np.linalg.solve(rows0[:, basis[:m]], rhs0)
        except np.linalg.LinAlgError:
            pass
        if refined is not None and np.isfinite(refined).all() \
                and refined.min() > -feas_tol * scale:
            candidate = np.maximum(refined, 0.0)
            if residual(candidate) < residual(basic_values):
                basic_values = candidate
    y[basis[:m]] = basic_values
    x = var_map @ y[:n_std] + offsets
    value = float(lp.objective @ x)
    log.debug("optimal after %d iterations, objective %.12g",
              iterations, value)
    return LpSolution(LpStatus.OPTIMAL, x, value, iterations)


def check_feasible(lp: LinearProgram, x, feas_tol: float = 1e-9) -> list:
    """All constraints a point violates, as (kind, index, amount) triples
    with amount > 0.  Empty list means feasible within tolerance."""
    point = np.asarray(x, dtype=float).ravel()
    if point.shape != (lp.n_variables,):
        raise ValueError("point has the wrong number of variables")
    violations = []
    for j in range(lp.n_variables):
        if point[j] < lp.lower[j] - feas_tol:
            violations.append(("lower-bound", j, float(lp.lower[j] - point[j])))
        if point[j] > lp.upper[j] + feas_tol:
            violations.append(("upper-bound", j, float(point[j] - lp.upper[j])))
    if lp.a_ub.shape[0]:
        resid = lp.a_ub @ point - lp.b_ub
        for k in np.flatnonzero(resid > feas_tol):
            violations.append(("inequality", int(k), float(resid[k])))
    if lp.a_eq.shape[0]:
        resid = np.abs(lp.a_eq @ point - lp.b_eq)
        for k in np.flatnonzero(resid > feas_tol):
            violations.append(("equality", int(k), float(resid[k])))
    return violations
