"""End-to-end metrics of one run."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10
TAIL_PERCENTILE = 99.0
BLOCK_SAMPLES = 1000    # enough for TAIL_PERCENTILE with MIN_BEYOND beyond

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ops_per_s": "1/s",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def tail_of(values):
    """(value, percentile, samples beyond) for the highest percentile,
    at most TAIL_PERCENTILE, with at least MIN_BEYOND samples strictly
    above it.  The cap keeps a run of thousands of ops from reporting
    its ten slowest, which a shared machine's stalls decide; below the
    cap the rule is that of a tail with ten samples beyond it.  With
    too few samples there is no such percentile and the maximum is
    returned with nothing beyond it."""
    ordered = sorted(values)
    count = len(ordered)
    # 1-based rank of the tail sample: nearest rank of the cap, or lower
    rank = min(count - MIN_BEYOND, math.ceil(TAIL_PERCENTILE * count / 100.0))
    while rank >= 1:
        value = ordered[rank - 1]
        beyond = sum(1 for v in ordered if v > value)
        if beyond >= MIN_BEYOND:
            return value, 100.0 * rank / count, beyond
        rank -= 1
    return ordered[-1], 100.0, 0


def tail(values, group: int = 1):
    """(value, percentile, samples beyond, blocks).  ``values`` are in
    run order, in groups of ``group`` (one pass each).  A run long
    enough is cut into blocks of whole groups, of about BLOCK_SAMPLES
    samples or more, and its tail is the median block's
    ``tail_of``: a burst of stalls on a shared machine then moves one
    block's tail, not the run's.  A run of fewer than
    2 * BLOCK_SAMPLES samples is one block."""
    groups = len(values) // group
    blocks = max(1, min(groups, groups * group // BLOCK_SAMPLES))
    cuts = [round(k * groups / blocks) * group for k in range(blocks)] + [len(values)]
    tails = sorted(tail_of(values[a:b]) for a, b in zip(cuts, cuts[1:]))
    return tails[(blocks - 1) // 2] + (blocks,)


def end_to_end(latencies, failed: int, peak_rss_mb: float, setup_s: float,
               group: int = 1) -> dict:
    """``latencies`` holds every attempted op's wall time in seconds, in
    run order, ``group`` to a pass.
    Throughput is successful ops per second of the client's time in ops;
    the benchmark's own checking between ops is not counted."""
    attempted = len(latencies)
    value, percentile, beyond, blocks = tail(latencies, group)
    busy = sum(latencies)
    return {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": value * 1e3,
        "ops_per_s": (attempted - failed) / busy,
        "success_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
        # reported alongside, not part of the JSON metrics
        "fail_ratio": failed / attempted,
        "tail_percentile": percentile,
        "tail_beyond": beyond,
        "tail_blocks": blocks,
        "samples": attempted,
    }
