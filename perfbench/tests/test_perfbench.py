"""Self-tests of the benchmark harness.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import measure  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from reward_transfer import levels  # noqa: E402


def span(span_id, parent, name, start, end, **counters):
    return (span_id, parent, name, start, end, counters, None)


def test_self_time_of_nested_spans():
    tree = [
        span(0, None, "cli.main", 0.0, 10.0),
        span(1, 0, "levels.general_level", 1.0, 4.0, n=3),
        span(2, 1, "lp.solve_lp", 2.0, 3.0, pivots=7, rows=9, rows_ub=8),
        span(3, 0, "serialize.dumps_result", 5.0, 7.0, bytes=10, binding_rows=2),
        # a child running past its parent only counts where they overlap
        span(4, 3, "game.social_optima", 6.5, 7.5),
    ]
    selfs = spans.self_times(tree)
    assert selfs == {0: 5.0, 1: 2.0, 2: 1.0, 3: 1.5, 4: 1.0}
    assert spans.root_time(tree) == 10.0
    metrics = spans.op_metrics(tree)
    assert metrics["cli.self_ms"] == 5000.0
    assert metrics["levels.general_level_self_ms"] == 2000.0
    assert metrics["lp.solve_lp_ms"] == 1000.0
    assert metrics["lp.pivots"] == 7
    # 8 inequality rows less the 3 level rows
    assert metrics["levels.working_rows"] == 5
    assert metrics["levels.working_fraction"] == 5 / 12
    assert metrics["serialize.binding_rows"] == 2


def test_same_name_nesting_counts_once():
    tree = [span(0, None, "dilemmas.build", 0.0, 4.0),
            span(1, 0, "dilemmas.build", 1.0, 3.0)]
    assert spans.op_metrics(tree)["dilemmas.build_ms"] == 4000.0


def test_tail_percentile_rule():
    assert measure.tail_of(list(range(1, 101))) == (90, 90.0, 10)
    value, percentile, beyond = measure.tail_of(list(range(11)))
    assert (value, beyond) == (0, 10)
    assert percentile == pytest.approx(100 / 11)
    # ten samples leave no percentile with ten beyond it
    assert measure.tail_of(list(range(10))) == (9, 100.0, 0)
    # ties at the top push the tail down to the last distinct value
    assert measure.tail_of([1.0] * 5 + [2.0] * 20) == (1.0, 20.0, 20)
    # past 1000 samples the tail stays at p99, with more than ten beyond
    assert measure.tail_of(list(range(1, 1001))) == (990, 99.0, 10)
    assert measure.tail_of(list(range(1, 2001))) == (1980, 99.0, 20)


def test_tail_is_the_median_block():
    # under 2000 samples the run is one block
    assert measure.tail(list(range(1, 101)), group=10) == (90, 90.0, 10, 1)
    assert measure.tail(list(range(1, 1991)), group=10)[3] == 1
    # three blocks of ten passes of 100; a burst slows the whole first
    # block and the fastest block is the last
    block = list(range(1, 1001))
    values = [v + 5000 for v in block] + block + [v - 0.5 for v in block]
    assert measure.tail(values, group=100) == (990, 99.0, 10, 3)
    # two passes of 1250 are two blocks; of an even count the lower
    # middle block is taken
    values = list(range(1, 1251)) + list(range(2001, 3251))
    assert measure.tail(values, group=1250) == (1238, 99.04, 12, 2)
    # one pass longer than a block stays one block
    assert measure.tail(list(range(1, 2501)), group=2500)[3] == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    first, tables = workloads.make_ops(workload, 7)
    again, tables_again = workloads.make_ops(workload, 7)
    assert first == again
    assert tables.keys() == tables_again.keys()
    for key in tables:
        assert np.array_equal(tables[key], tables_again[key])
    other, _ = workloads.make_ops(workload, 8)
    assert [op.key for op in other] != [op.key for op in first]


def test_same_seed_byte_identical_game_files(tmp_path):
    a = workloads.prepare("cli-solve", 7, str(tmp_path / "a"))
    b = workloads.prepare("cli-solve", 7, str(tmp_path / "b"))
    assert len(a.files) == 8
    for key, path in a.files.items():
        with open(path, "rb") as left, open(b.files[key], "rb") as right:
            assert left.read() == right.read()


def test_traced_run_leaves_no_wrappers():
    originals = {(t.module, t.attr): getattr(sys.modules[t.module], t.attr)
                 for t in spans.TARGETS if t.module in sys.modules}
    inputs = workloads.prepare("sweep-small", 7, None)
    inputs.ops = inputs.ops[:4]
    runner = run.InprocessRunner(inputs)
    records = run.run_passes(runner, len(inputs.ops), 1, 1)
    assert [r.traced for r in records] == [False, True, True, False] * 2
    assert all(r.spans for r in records if r.traced)
    for (module, attr), original in originals.items():
        assert getattr(sys.modules[module], attr) is original
    after = run.run_passes(runner, len(inputs.ops), 1, 0)
    assert all(r.spans is None and not r.traced for r in after)


def test_oracle_matches_closed_form_and_rejects_bad_contracts():
    op = workloads.Op(workloads.GameSpec("cyclical-chicken", 5, 3.0, 1.0),
                      (workloads.GENERAL,), "CCCCC")
    game = workloads.build_game(op.game, {})
    exact = oracle.analytic_reference(op.game, workloads.GENERAL, op.target)
    assert oracle.highs_general(game.payoffs, op.target, False) == \
        pytest.approx(exact, abs=1e-7)
    result = levels.general_level(game)
    assert oracle.check_contract(game.payoffs, result.matrix.entries, op.target,
                                 result.level, True) is None
    assert oracle.check_contract(game.payoffs, np.eye(5), op.target, 1.0, True) \
        == "player 1 gains by deviating"
