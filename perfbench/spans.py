"""Spans recorded from outside the package, and the layer metrics built
from them.

Tracing re-binds public functions in the module namespaces that look
them up (``reward_transfer.levels.solve_lp``, ``reward_transfer.cli.
parse_game`` and so on) to wrappers that record a span per call.  No
file of the package changes; ``Tracer.uninstall`` puts every original
back.  Spans stay in memory until the run ends.

A span is ``(span_id, parent_id, name, start, end, counters, error)``
with times in seconds from ``time.perf_counter``.  A layer's self time
is its span's duration minus the part of that interval its child spans
cover.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


# --- what each wrapper counts -------------------------------------------------

def _lp_counts(args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    return {"pivots": result.iterations, "rows": lp.a_ub.shape[0] + lp.a_eq.shape[0],
            "rows_ub": lp.a_ub.shape[0]}


def _lp_size(args, kwargs):
    lp = args[0] if args else kwargs["lp"]
    return {"rows": lp.a_ub.shape[0] + lp.a_eq.shape[0], "rows_ub": lp.a_ub.shape[0]}


def _parse_counts(args, kwargs, result):
    return {"bytes": len(args[0]) if args else len(kwargs["text"])}


def _dump_counts(args, kwargs, result):
    res = args[0] if args else kwargs["result"]
    return {"bytes": len(result), "binding_rows": len(res.binding)}


def _deltas_counts(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _search_counts(args, kwargs, result):
    return {"n": (args[0] if args else kwargs["game"]).n,
            "allow_excess": bool(kwargs.get("allow_excess", False))}


def _search_args(args, kwargs):
    return _search_counts(args, kwargs, None)


def _exit_counts(args, kwargs, result):
    return {"exit": int(result)}


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    span: str
    counts: Optional[Callable] = None     # (args, kwargs, result) -> dict
    on_error: Optional[Callable] = None   # (args, kwargs) -> dict


_BUILD = "dilemmas.build"
_GENERAL = "levels.general_level"
_SYMMETRIC = "levels.symmetrical_level"
_FASTPATH = "levels.fastpath"

# Every public call site the layer metrics need.  A function looked up in
# several namespaces is re-bound in each of them.
TARGETS = (
    Target("reward_transfer.cli", "main", "cli.main", _exit_counts),
    Target("reward_transfer.cli", "parse_game", "serialize.parse_game", _parse_counts),
    Target("reward_transfer.cli", "dumps_result", "serialize.dumps_result", _dump_counts),
    Target("reward_transfer.cli", "classify_dilemma", "game.classify_dilemma"),
    Target("reward_transfer.cli", "general_level", _GENERAL, _search_counts, _search_args),
    Target("reward_transfer.cli", "symmetrical_level", _SYMMETRIC, _search_counts, _search_args),
    Target("reward_transfer.cli", "general_level_symmetric_fastpath", _FASTPATH,
           _search_counts, _search_args),
    Target("reward_transfer.cli", "verify_resolution", "transfer.verify_resolution"),
    Target("reward_transfer.cli", "apply_transfers", "transfer.apply_transfers"),
    Target("reward_transfer.cli", "build_graphical", _BUILD),
    Target("reward_transfer.cli", "build_functional", _BUILD),
    Target("reward_transfer.cli", "scaled_prisoners_dilemma", _BUILD),
    Target("reward_transfer.levels", "general_level", _GENERAL, _search_counts, _search_args),
    Target("reward_transfer.levels", "symmetrical_level", _SYMMETRIC, _search_counts, _search_args),
    Target("reward_transfer.levels", "general_level_symmetric_fastpath", _FASTPATH,
           _search_counts, _search_args),
    Target("reward_transfer.levels", "solve_lp", "lp.solve_lp", _lp_counts, _lp_size),
    Target("reward_transfer.levels", "deviation_deltas", "levels.deviation_deltas", _deltas_counts),
    Target("reward_transfer.levels", "classify_dilemma", "game.classify_dilemma"),
    Target("reward_transfer.levels", "social_optima", "game.social_optima"),
    Target("reward_transfer.transfer", "verify_resolution", "transfer.verify_resolution"),
    Target("reward_transfer.transfer", "apply_transfers", "transfer.apply_transfers"),
    Target("reward_transfer.transfer", "social_optima", "game.social_optima"),
    Target("reward_transfer.transfer", "check_dominance", "game.check_dominance"),
    Target("reward_transfer.game", "classify_dilemma", "game.classify_dilemma"),
    Target("reward_transfer.dilemmas", "build_graphical", _BUILD),
    Target("reward_transfer.dilemmas", "build_functional", _BUILD),
    Target("reward_transfer.dilemmas", "too_many_cooks", _BUILD),
    Target("reward_transfer.dilemmas", "scaled_prisoners_dilemma", _BUILD),
)


class Tracer:
    """Records spans while installed.  Not thread-safe: the benchmark
    runs one client."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._next_id = 0
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start, end, counters, error):
        self._stack.pop()
        self.spans.append((span_id, parent, name, start, end, counters, error))

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark opens itself."""
        span_id, parent = self._open(name)
        start = time.perf_counter()
        error = None
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self._close(span_id, parent, name, start, time.perf_counter(), {}, error)

    def _wrap(self, target: Target, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id, parent = tracer._open(target.span)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                counters = target.on_error(args, kwargs) if target.on_error else {}
                tracer._close(span_id, parent, target.span, start, end, counters,
                              type(exc).__name__)
                raise
            end = time.perf_counter()
            counters = target.counts(args, kwargs, result) if target.counts else {}
            tracer._close(span_id, parent, target.span, start, end, counters, None)
            return result

        return wrapper

    # -- re-binding --------------------------------------------------------

    def install(self):
        """Re-bind every target whose module is already imported."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for target in TARGETS:
            module = sys.modules.get(target.module)
            if module is None:
                continue
            original = getattr(module, target.attr)
            self._saved.append((module, target.attr, original))
            setattr(module, target.attr, self._wrap(target, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self) -> list:
        """Hand over the spans recorded so far and start a new list."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans


# --- self time ------------------------------------------------------------------

def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    result = {}
    for span_id, _, _, start, end, _, _ in spans:
        covered = 0.0
        reach = start
        for child in sorted(children.get(span_id, ()), key=lambda s: s[3]):
            lo, hi = max(child[3], reach), min(child[4], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span_id] = (end - start) - covered
    return result


def _outermost(spans, name) -> list:
    """Spans called ``name`` with no ancestor of the same name."""
    by_id = {s[0]: s for s in spans}
    found = []
    for span in spans:
        if span[2] != name:
            continue
        parent = span[1]
        while parent is not None and by_id[parent][2] != name:
            parent = by_id[parent][1]
        if parent is None:
            found.append(span)
    return found


def _descendants(spans, root_id) -> list:
    kids: dict = {}
    for span in spans:
        kids.setdefault(span[1], []).append(span)
    out, todo = [], [root_id]
    while todo:
        for child in kids.get(todo.pop(), ()):
            out.append(child)
            todo.append(child[0])
    return out


# --- layer metrics per op -----------------------------------------------------------

# (metric, span name, how): "incl" sums the outermost spans' durations,
# "self" sums self times.  Each time metric is also reported as a share.
TIME_METRICS = (
    ("cli.process_ms", "cli.process", "incl"),
    ("cli.import_ms", "cli.import", "incl"),
    ("cli.self_ms", "cli.main", "self"),
    ("serialize.parse_game_ms", "serialize.parse_game", "incl"),
    ("serialize.dumps_result_ms", "serialize.dumps_result", "incl"),
    ("game.classify_dilemma_ms", "game.classify_dilemma", "incl"),
    ("game.social_optima_ms", "game.social_optima", "incl"),
    ("game.check_dominance_ms", "game.check_dominance", "incl"),
    ("dilemmas.build_ms", _BUILD, "incl"),
    ("transfer.verify_resolution_self_ms", "transfer.verify_resolution", "self"),
    ("transfer.apply_transfers_ms", "transfer.apply_transfers", "incl"),
    ("levels.deviation_deltas_ms", "levels.deviation_deltas", "incl"),
    ("levels.general_level_self_ms", _GENERAL, "self"),
    ("levels.symmetrical_level_self_ms", _SYMMETRIC, "self"),
    ("levels.fastpath_self_ms", _FASTPATH, "self"),
    ("lp.solve_lp_ms", "lp.solve_lp", "incl"),
)

# counts that are rates over all ops rather than medians over the ops
# that reached the layer
RATE_METRICS = ("cli.exit_nonzero", "lp.failed")

COUNT_METRICS = (
    ("cli.exit_nonzero", "count"),
    ("serialize.bytes_in", "bytes"),
    ("serialize.bytes_out", "bytes"),
    ("serialize.binding_rows", "count"),
    ("levels.deviation_bytes", "bytes"),
    ("levels.lazy_rounds", "count"),
    ("levels.working_rows", "count"),
    ("levels.working_fraction", "ratio"),
    ("lp.calls", "count"),
    ("lp.pivots", "count"),
    ("lp.pivots_per_round", "count"),
    ("lp.rows", "count"),
    ("lp.failed", "count"),
)

TRACE_METRICS = (("trace.overhead_ms", "ms"), ("trace.coverage_pct", "%"))


def share_name(metric: str) -> str:
    return metric[:-len("_ms")] + "_pct"


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for metric, _, _ in TIME_METRICS:
        units[metric] = "ms"
        units[share_name(metric)] = "%"
    units.update(dict(COUNT_METRICS))
    units.update(dict(TRACE_METRICS))
    return units


def op_metrics(spans) -> dict:
    """Layer metrics of one op; a metric is absent when its layer did
    not run in the op."""
    out: dict = {}
    selfs = self_times(spans)
    names = {s[2] for s in spans}
    for metric, name, how in TIME_METRICS:
        if name not in names:
            continue
        if how == "self":
            total = sum(selfs[s[0]] for s in spans if s[2] == name)
        else:
            total = sum(s[4] - s[3] for s in _outermost(spans, name))
        out[metric] = total * 1e3

    if "cli.main" in names:
        codes = [s[5].get("exit", 1) if s[6] is None else 1
                 for s in spans if s[2] == "cli.main"]
        out["cli.exit_nonzero"] = sum(1 for code in codes if code != 0)
    parses = [s for s in spans if s[2] == "serialize.parse_game"]
    if parses:
        out["serialize.bytes_in"] = sum(s[5].get("bytes", 0) for s in parses)
    dumps = [s for s in spans if s[2] == "serialize.dumps_result"]
    if dumps:
        out["serialize.bytes_out"] = sum(s[5].get("bytes", 0) for s in dumps)
        out["serialize.binding_rows"] = sum(s[5].get("binding_rows", 0) for s in dumps)

    searches = [s for s in spans if s[2] in (_GENERAL, _SYMMETRIC, _FASTPATH)]
    deviation_bytes, rounds, working, fractions = [], 0, [], []
    for search in searches:
        below = _descendants(spans, search[0])
        deviation_bytes.append(sum(s[5].get("bytes", 0) for s in below
                                   if s[2] == "levels.deviation_deltas"))
        lps = [s for s in below if s[2] == "lp.solve_lp"]
        if not lps:
            continue
        rounds += len(lps)
        last = max(lps, key=lambda s: s[3])[5]
        n = search[5].get("n")
        if n is None or "rows_ub" not in last:
            continue
        # the general LP's inequality rows are n level rows, the working
        # deviation rows and, when burning is allowed, n row-sum rows;
        # the fastpath LP holds only deviation rows
        fixed = 0 if search[2] == _FASTPATH else n * (2 if search[5].get("allow_excess") else 1)
        rows = last["rows_ub"] - fixed
        working.append(rows)
        fractions.append(rows / (n << (n - 1)))
    if searches:
        out["levels.deviation_bytes"] = max(deviation_bytes)
    if rounds:
        out["levels.lazy_rounds"] = rounds
    if working:
        out["levels.working_rows"] = statistics.fmean(working)
        out["levels.working_fraction"] = statistics.fmean(fractions)

    lps = [s for s in spans if s[2] == "lp.solve_lp"]
    if lps:
        done = [s for s in lps if s[6] is None]
        out["lp.calls"] = len(lps)
        out["lp.failed"] = len(lps) - len(done)
        pivots = sum(s[5]["pivots"] for s in done)
        out["lp.pivots"] = pivots
        if done:
            out["lp.pivots_per_round"] = pivots / len(done)
        out["lp.rows"] = statistics.fmean(s[5].get("rows", 0) for s in lps)
    return out


def root_time(spans) -> float:
    """Sum of the root spans' durations, which equals the sum of every
    span's self time."""
    return sum(s[4] - s[3] for s in spans if s[1] is None)


def self_by_name(spans) -> dict:
    selfs = self_times(spans)
    out: dict = {}
    for span in spans:
        out[span[2]] = out.get(span[2], 0.0) + selfs[span[0]]
    return out


def aggregate(ops, untraced_p50_ms: float, traced_p50_ms: float) -> dict:
    """Per-layer metrics over the traced ops.

    ``ops`` is a list of ``(wall_seconds, spans)``.  Time and count
    metrics are medians over the ops whose layer ran (zero when none
    did), except the failure counts in RATE_METRICS, which are averaged
    over every op.  ``*_pct`` is the metric's total over all ops as a
    share of the summed op wall time.
    """
    per_op = [op_metrics(spans) for _, spans in ops]
    wall = sum(w for w, _ in ops)
    units = per_layer_units()
    out = {}
    for name in units:
        if name in RATE_METRICS:
            out[name] = sum(m.get(name, 0) for m in per_op) / max(1, len(per_op))
            continue
        values = [m[name] for m in per_op if name in m]
        out[name] = statistics.median(values) if values else 0.0
    for metric, _, _ in TIME_METRICS:
        total = sum(m.get(metric, 0.0) for m in per_op) / 1e3
        out[share_name(metric)] = 100.0 * total / wall if wall > 0 else 0.0
    out["trace.overhead_ms"] = traced_p50_ms - untraced_p50_ms
    coverage = [100.0 * root_time(spans) / w for w, spans in ops if w > 0]
    out["trace.coverage_pct"] = statistics.median(coverage) if coverage else 0.0
    return out
