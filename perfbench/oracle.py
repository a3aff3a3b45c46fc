"""Correctness oracles that share no code with the solver path.

* ``check_contract``: the benchmark's own dominance check of a returned
  matrix, by one matrix product over the whole payoff table.
* ``analytic_level`` from the package's closed forms, where they are
  exact: the symmetric mode of every graphical family, and the general
  mode of the cyclical, symmetrical and tycoon families.
* Elsewhere, reference levels from scipy's HiGHS, found by the
  benchmark's own cutting-plane loop.  scipy is not a dependency of the
  package; references for the default seed are stored in
  ``references.json`` (``run.py --regen-references`` rewrites it), and
  those of other seeds are computed after the timed loop.  HiGHS never
  runs inside a timed region or inside set-up.
"""

from __future__ import annotations

import json
import os

import numpy as np

from reward_transfer import dilemmas
from reward_transfer.levels import SolveMode

from workloads import GRAPHICAL, GameSpec, Op, Search

LEVEL_TOL = 1e-6        # reference vs returned level
DOMINANCE_TOL = 1e-7    # scaled by 1 + max |payoff|
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "references.json")


def pair_rows(n: int, player: int, action: int):
    """(target rows, deviation rows) for ``player``, indexed by the
    co-players' mask: the player plays ``action`` in the first, the
    other action in the second."""
    masks = np.arange(1 << (n - 1), dtype=np.int64)
    low = masks & ((1 << player) - 1)
    high = (masks >> player) << (player + 1)
    with_c = high | low
    with_d = with_c | (1 << player)
    return (with_c, with_d) if action == 0 else (with_d, with_c)


def _target_bits(target: str) -> int:
    return sum(1 << k for k, ch in enumerate(target) if ch == "D")


def check_contract(payoffs, matrix, target: str, level: float,
                   conserving: bool):
    """None when the matrix is an admissible contract at ``level`` that
    makes the target weakly dominant, else the first reason it is not."""
    p = np.asarray(payoffs, dtype=float)
    t = np.asarray(matrix, dtype=float)
    n = p.shape[1]
    if t.shape != (n, n) or not np.isfinite(t).all():
        return "matrix shape"
    if t.min() < -1e-12 or t.max() > 1 + 1e-12:
        return "share outside [0, 1]"
    sums = t.sum(axis=1)
    if sums.max() > 1 + 1e-9 or (conserving and sums.min() < 1 - 1e-9):
        return "row sums"
    if t.diagonal().min() < level - 1e-9:
        return "diagonal below the reported level"
    after = p @ t
    tol = DOMINANCE_TOL * (1.0 + float(np.abs(p).max()))
    bits = _target_bits(target)
    for i in range(n):
        keep, deviate = pair_rows(n, i, (bits >> i) & 1)
        if (after[deviate, i] - after[keep, i]).max() > tol:
            return f"player {i + 1} gains by deviating"
    return None


def analytic_reference(spec: GameSpec, search: Search, target: str):
    """The closed-form level when it is exact here, else None."""
    if spec.family not in GRAPHICAL or search.allow_excess or "D" in target:
        return None
    graph, base = GRAPHICAL[spec.family]
    params = dilemmas.BaseGameParams(base, spec.c, spec.d)
    if search.mode == "symmetric":
        return dilemmas.analytic_level(graph, params, spec.n, SolveMode.SYMMETRIC).value
    if graph is dilemmas.GraphKind.CIRCULAR:
        return None
    return dilemmas.analytic_level(graph, params, spec.n, SolveMode.GENERAL).value


def _linprog():
    try:
        from scipy.optimize import linprog
    except ImportError:
        raise RuntimeError("scipy is needed for reference levels of seeds "
                           "without stored references") from None
    return linprog


def highs_general(payoffs, target: str, allow_excess: bool):
    """Best level over all contracts, or None when no contract resolves
    the game.  Maximize z subject to z <= T_ii, row sums = 1 (<= 1 with
    burning), 0 <= T <= 1 and no profitable deviation, adding violated
    deviation rows until none is left."""
    linprog = _linprog()
    p = np.asarray(payoffs, dtype=float)
    n = p.shape[1]
    nv = n * n + 1
    bits = _target_bits(target)
    rows = [pair_rows(n, i, (bits >> i) & 1) for i in range(n)]
    half = 1 << (n - 1)
    working = [set(range(half)) if n * half <= 2048 else {0, half - 1}
               for _ in range(n)]
    tol = 1e-9 * (1.0 + float(np.abs(p).max()))
    cost = np.zeros(nv)
    cost[-1] = -1.0
    level_rows = np.zeros((n, nv))
    level_rows[:, -1] = 1.0
    level_rows[np.arange(n), np.arange(n) * (n + 1)] = -1.0
    sum_rows = np.zeros((n, nv))
    for i in range(n):
        sum_rows[i, i * n:(i + 1) * n] = 1.0
    bounds = [(0.0, 1.0)] * (n * n) + [(None, 1.0)]
    for _ in range(1000):
        blocks = [level_rows]
        for i in range(n):
            masks = np.array(sorted(working[i]), dtype=np.int64)
            block = np.zeros((masks.size, nv))
            block[:, np.arange(n) * n + i] = p[rows[i][1][masks]] - p[rows[i][0][masks]]
            blocks.append(block)
        if allow_excess:
            blocks.append(sum_rows)
        a_ub = np.vstack(blocks)
        b_ub = np.zeros(a_ub.shape[0])
        if allow_excess:
            b_ub[-n:] = 1.0
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub,
                      A_eq=None if allow_excess else sum_rows,
                      b_eq=None if allow_excess else np.ones(n),
                      bounds=bounds, method="highs")
        if res.status == 2:
            return None
        if res.status != 0:
            raise RuntimeError(f"HiGHS: {res.message}")
        after = p @ res.x[:-1].reshape(n, n)
        added = 0
        for i in range(n):
            gap = after[rows[i][1], i] - after[rows[i][0], i]
            fresh = [int(m) for m in np.argsort(-gap)[:4 * n]
                     if gap[m] > tol and int(m) not in working[i]]
            working[i].update(fresh)
            added += len(fresh)
        if not added:
            return float(-res.fun)
    raise RuntimeError("reference cutting-plane loop did not converge")


def highs_symmetric(payoffs, target: str):
    """Best kept share s of the even-split contract, or None."""
    linprog = _linprog()
    p = np.asarray(payoffs, dtype=float)
    n = p.shape[1]
    bits = _target_bits(target)
    coef, rhs = [], []
    for i in range(n):
        keep, deviate = pair_rows(n, i, (bits >> i) & 1)
        delta = p[deviate] - p[keep]
        own = delta[:, i]
        others = (delta.sum(axis=1) - own) / (n - 1)
        # s * own + (1 - s) * others <= 0
        coef.append(own - others)
        rhs.append(-others)
    res = linprog([-1.0], A_ub=np.concatenate(coef)[:, None],
                  b_ub=np.concatenate(rhs), bounds=[(0.0, 1.0)], method="highs")
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return float(res.x[0])


def reference_key(op: Op, search: Search) -> str:
    # fastpath and refine_diagonal search for the general level
    problem = "symmetric" if search.mode == "symmetric" else \
        "general" + ("+excess" if search.allow_excess else "")
    return f"{op.game.key}|{problem}@{op.target}"


def highs_reference(payoffs, op: Op, search: Search):
    if search.mode == "symmetric":
        return highs_symmetric(payoffs, op.target)
    return highs_general(payoffs, op.target, search.allow_excess)


def load_store(path: str = REFERENCE_FILE) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["levels"]


class References:
    """Expected level per (op, search): a float, or None when no
    contract of that mode resolves the game."""

    def __init__(self, store: dict):
        self.levels = dict(store)

    def expected(self, op: Op, search: Search, payoffs_of):
        exact = analytic_reference(op.game, search, op.target)
        if exact is not None:
            return exact
        key = reference_key(op, search)
        if key not in self.levels:
            self.levels[key] = highs_reference(payoffs_of(op.game), op, search)
        return self.levels[key]


def regenerate(ops_by_workload: dict, payoffs_of, path: str = REFERENCE_FILE) -> int:
    """Write every non-analytic reference of the given ops to ``path``."""
    levels = {}
    for ops in ops_by_workload.values():
        for op in ops:
            for search in op.searches:
                if analytic_reference(op.game, search, op.target) is not None:
                    continue
                key = reference_key(op, search)
                if key not in levels:
                    levels[key] = highs_reference(payoffs_of(op.game), op, search)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"comment": "HiGHS reference levels for the default seed; "
                              "null means no contract of that mode resolves "
                              "the game. Rewrite with run.py --regen-references.",
                   "levels": dict(sorted(levels.items()))}, handle, indent=1)
        handle.write("\n")
    return len(levels)


def judge_inprocess(op: Op, outcomes, refs: References, payoffs_of):
    """None when every search of the op answered correctly, else why
    not.  Reasons starting with ``wrong:`` are incorrect answers; the
    others are exception class names."""
    for search, out in zip(op.searches, outcomes):
        expected = refs.expected(op, search, payoffs_of)
        if out.error == "NotResolvableError" and expected is None:
            continue
        if out.error is not None:
            return out.error
        if expected is None:
            return "wrong: resolved a game its reference cannot"
        if abs(out.level - expected) > LEVEL_TOL:
            return f"wrong: level {out.level!r}, reference {expected!r}"
        if not out.verified:
            return "wrong: verify_resolution rejects the contract"
        reason = check_contract(payoffs_of(op.game), out.matrix, op.target,
                                out.level, out.conserving)
        if reason is not None:
            return f"wrong: {reason}"
    return None


def judge_cli_result(op: Op, path: str, refs: References, payoffs_of):
    """Check a ``solve`` result file against the reference level and the
    benchmark's own dominance check."""
    search = op.searches[0]
    with open(path, encoding="utf-8") as handle:
        result = json.load(handle)
    expected = refs.expected(op, search, payoffs_of)
    if expected is None:
        return "wrong: resolved a game its reference cannot"
    if result.get("target") != op.target:
        return "wrong: target"
    if abs(result["level"] - expected) > LEVEL_TOL:
        return f"wrong: level {result['level']!r}, reference {expected!r}"
    reason = check_contract(payoffs_of(op.game), result["matrix"], op.target,
                            result["level"], True)
    return None if reason is None else f"wrong: {reason}"
