"""Benchmark of the reward-transfer solver: three workloads, six
end-to-end metrics each, and a traced run that times every layer.

    python3 perfbench/run.py --workload cli-solve --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload
    python3 perfbench/run.py --regen-references             # needs scipy

Run from the root of a checkout; the package is imported from ``src/``
there and nowhere else.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a
result file with the environment stamp goes to ``perfbench/out/``.
See perfbench/README.md for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()   # set-up is timed from here, so imports count

import argparse  # noqa: E402
import concurrent.futures  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

import measure  # noqa: E402
import spans  # noqa: E402

# workloads and oracle import numpy and the package: they are imported
# only after main() has checked the checkout and set the BLAS threads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "cli_child.py")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("cli-solve", "sweep-lazy", "sweep-small")
# one pass, untraced, on the reference machine (2 vCPUs; see README.md)
NOMINAL_PASS_S = {"cli-solve": 11.0, "sweep-lazy": 13.0, "sweep-small": 0.88}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure about this long: sets the pass count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--regen-references", action="store_true",
                        help="rewrite references.json for the default seed")
    args = parser.parse_args(argv)
    if args.workload is None and not args.regen_references:
        parser.error("--workload is required")
    return args


# --- environment ---------------------------------------------------------------

def _git_commit():
    """HEAD of the checkout, read from .git without leaving it; None when
    the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _blas():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version"),
                "config": blas.get("openblas configuration")}
    except Exception as exc:  # noqa: BLE001 - older numpy; record why
        return {"error": repr(exc)}


def environment(seed, counts) -> dict:
    import numpy as np
    return {
        "git_commit": _git_commit(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": NPROC,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "ops": counts,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


# --- passes ------------------------------------------------------------------------

class Record:
    __slots__ = ("op", "traced", "seconds", "outcome", "spans", "rss_kb", "verdict")

    def __init__(self, op, traced, seconds, outcome, spans=None, rss_kb=None):
        self.op, self.traced, self.seconds = op, traced, seconds
        self.outcome, self.spans, self.rss_kb = outcome, spans, rss_kb
        self.verdict = None


class InprocessRunner:
    def __init__(self, inputs):
        self.inputs = inputs
        self.tracer = None

    def warm_up(self):
        import workloads
        # sweep-small: one op of each kind
        ops = list({op.kind: op for op in self.inputs.ops}.values()) \
            if self.inputs.workload == "sweep-small" else \
            [op for op in self.inputs.ops
             if op.game.n == 12 and op.game.family != "random"]
        for op in ops:
            workloads.run_inprocess_op(op, self.inputs)

    def begin(self, traced):
        if traced:
            self.tracer = spans.Tracer()
            self.tracer.install()

    def end(self):
        if self.tracer is not None:
            self.tracer.uninstall()
            self.tracer = None

    def run_op(self, index):
        import workloads
        op = self.inputs.ops[index]
        start = time.perf_counter()
        outcome = workloads.run_inprocess_op(op, self.inputs)
        seconds = time.perf_counter() - start
        recorded = self.tracer.take() if self.tracer is not None else None
        return Record(index, recorded is not None, seconds, outcome, recorded)


class CliRunner:
    def __init__(self, inputs, workdir):
        self.inputs = inputs
        self.workdir = workdir
        self.env = child_env()
        self.traced = False
        self.kept = {}          # (op index, digest) -> kept result file

    def _cmd(self, op, out_path, spans_path=None):
        argv = ["solve", self.inputs.files[op.game.key], "--mode", op.searches[0].mode,
                "-o", out_path] + (["--force"] if op.force else [])
        if spans_path is None:
            return [sys.executable, "-m", "reward_transfer", *argv]
        return [sys.executable, CHILD, spans_path, *argv]

    def warm_up(self):
        import workloads
        op = min(self.inputs.ops, key=lambda o: o.game.n)
        out = os.path.join(self.workdir, "warm-up.json")
        workloads.run_cli_process(self._cmd(op, out), self.env, out)

    def begin(self, traced):
        self.traced = traced

    def end(self):
        self.traced = False

    def run_op(self, index):
        import workloads
        op = self.inputs.ops[index]
        out = os.path.join(self.workdir, "result.json")
        spans_path = os.path.join(self.workdir, "spans.json") if self.traced else None
        if spans_path and os.path.exists(spans_path):
            os.remove(spans_path)
        outcome = workloads.run_cli_process(self._cmd(op, out, spans_path), self.env, out)
        spans = None
        if spans_path:
            spans = []
            if os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as handle:
                    recorded = json.load(handle)
                spans = recorded["spans"]
                # interpreter start-up and exit, timed from outside
                spans.append([-1, None, "cli.process", outcome.start, recorded["first"], {}, None])
                spans.append([-2, None, "cli.process", recorded["last"], outcome.end, {}, None])
        if outcome.digest is not None and (index, outcome.digest) not in self.kept:
            kept = os.path.join(self.workdir, f"kept-{index}-{outcome.digest[:16]}.json")
            os.replace(out, kept)
            self.kept[(index, outcome.digest)] = kept
        return Record(index, self.traced, outcome.end - outcome.start, outcome, spans,
                      outcome.max_rss_kb)


def run_passes(runner, n_ops, passes, trace):
    """Run whole passes.  A traced run measures every op twice per pass,
    untraced and traced, alternating which goes first, so both see the
    same machine state and their difference is the tracing overhead."""
    records = []
    for _ in range(passes):
        for index in range(n_ops):
            modes = ((False, True) if index % 2 == 0 else (True, False)) if trace \
                else (False,)
            for traced in modes:
                runner.begin(traced)
                try:
                    records.append(runner.run_op(index))
                finally:
                    runner.end()
    return records


def planned_passes(workload, seconds, trace) -> int:
    """Passes for about ``seconds`` on the reference machine.  The count
    depends on the seconds asked for and not on how fast this commit
    runs, so two commits compared at the same setting measure the same
    op multiset, and the tail percentile stays at the same rank."""
    per_pass = NOMINAL_PASS_S[workload] * (2 if trace else 1)
    return max(1, round(seconds / per_pass))


# --- checking ----------------------------------------------------------------------

def payoff_source(inputs):
    import workloads
    cache = {}

    def payoffs_of(spec):
        if spec.key not in cache:
            game = inputs.games.get(spec.key) or workloads.build_game(spec, inputs.tables)
            cache[spec.key] = game.payoffs
        return cache[spec.key]

    return payoffs_of


def judge(records, runner, inputs):
    """Give every record a verdict: None for a correct op, else the
    exception class, exit code or ``wrong: ...`` reason."""
    import oracle
    refs = oracle.References(oracle.load_store())
    payoffs_of = payoff_source(inputs)
    if inputs.workload == "cli-solve":
        env = child_env()

        def verify_exit(item):
            (index, _), path = item
            return subprocess.run(
                [sys.executable, "-m", "reward_transfer", "verify",
                 inputs.files[inputs.ops[index].game.key], path],
                env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, check=False).returncode

        # one verify process per distinct output, as many at once as CPUs
        with concurrent.futures.ThreadPoolExecutor(max_workers=NPROC) as pool:
            exits = dict(zip(runner.kept, pool.map(verify_exit, runner.kept.items())))
        checked = {}
        for (index, digest), path in runner.kept.items():
            reason = oracle.judge_cli_result(inputs.ops[index], path, refs, payoffs_of)
            if exits[index, digest] != 0:
                reason = f"wrong: verify exits {exits[index, digest]}"
            checked[(index, digest)] = reason
        for rec in records:
            if rec.outcome.exit_code != 0:
                rec.verdict = f"exit {rec.outcome.exit_code}"
            elif rec.outcome.digest is None:
                rec.verdict = "no result file"
            else:
                rec.verdict = checked[(rec.op, rec.outcome.digest)]
        return
    checked = {}
    for rec in records:
        key = (rec.op, tuple((o.error, o.level, o.verified,
                              None if o.matrix is None else o.matrix.tobytes())
                             for o in rec.outcome))
        if key not in checked:
            checked[key] = oracle.judge_inprocess(inputs.ops[rec.op], rec.outcome,
                                                  refs, payoffs_of)
        rec.verdict = checked[key]


# --- reporting ----------------------------------------------------------------------

def setup_repeats(args) -> list:
    """Set-up time of fresh processes doing this run's set-up again."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def breakdown(records, inputs):
    """Per op type: median wall time, coverage and self time by span."""
    groups = {}
    for rec in records:
        if rec.traced:
            groups.setdefault(inputs.ops[rec.op].kind, []).append(rec)
    out = {}
    for kind, recs in sorted(groups.items()):
        names = sorted({s[2] for r in recs for s in r.spans})
        selfs = [spans.self_by_name(r.spans) for r in recs]
        out[kind] = {
            "ops": len(recs),
            "wall_ms": statistics.median(r.seconds for r in recs) * 1e3,
            "coverage_pct": statistics.median(
                100.0 * spans.root_time(r.spans) / r.seconds for r in recs),
            "self_ms": {name: statistics.median(s.get(name, 0.0) for s in selfs) * 1e3
                        for name in names},
        }
    return out


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(args) -> int:
    import workloads

    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        inputs = workloads.prepare(args.workload, args.seed, workdir)
        runner = CliRunner(inputs, workdir) if args.workload == "cli-solve" \
            else InprocessRunner(inputs)
        runner.warm_up()
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        passes = planned_passes(args.workload, args.seconds, args.trace)
        records = run_passes(runner, len(inputs.ops), passes, args.trace)
        if args.workload == "cli-solve":
            peak_kb = max(r.rss_kb for r in records if not r.traced)
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setups = [setup_s] + ([] if args.trace else setup_repeats(args))
        judge(records, runner, inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r.verdict is not None]
    correct = not any(r.verdict.startswith("wrong") for r in failed)
    plain = [r for r in records if not r.traced]
    summary = measure.end_to_end([r.seconds for r in plain],
                                 sum(1 for r in plain if r.verdict is not None),
                                 peak_kb / 1024.0, statistics.median(setups),
                                 len(inputs.ops))
    if args.trace:
        traced = [r for r in records if r.traced]
        layer = spans.aggregate(
            [(r.seconds, r.spans) for r in traced], summary["latency_p50_ms"],
            statistics.median(r.seconds for r in traced) * 1e3)
        units = spans.per_layer_units()
        metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
    else:
        metrics = {name: {"value": summary[name], "unit": unit}
                   for name, unit in measure.END_TO_END_UNITS.items()}

    by_kind = {}
    for rec in plain:
        by_kind.setdefault(inputs.ops[rec.op].kind, []).append(rec.seconds * 1e3)
    latency_by_kind = {kind: statistics.median(v) for kind, v in sorted(by_kind.items())}
    counts = {"workload": args.workload, "ops_per_pass": len(inputs.ops),
              "passes": passes, "attempted": len(records), "failed": len(failed),
              "by_kind": {}}
    for rec in records:
        kind = inputs.ops[rec.op].kind
        counts["by_kind"][kind] = counts["by_kind"].get(kind, 0) + 1
    failures = {}
    for rec in failed:
        key = f"{inputs.ops[rec.op].key}: {rec.verdict}"
        failures[key] = failures.get(key, 0) + 1
    report = {
        "environment": environment(args.seed, counts),
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "summary": summary, "setup_samples_s": setups, "metrics": metrics,
        "latency_by_kind_ms": latency_by_kind,
        "failures": failures,
        "breakdown": breakdown(records, inputs) if args.trace else {},
    }
    os.makedirs(OUT, exist_ok=True)
    result_path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)

    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  passes {passes}  "
          f"ops {len(records)}  failed {len(failed)}  correct {correct}")
    for name, metric in metrics.items():
        print(f"  {name:<38} {_fmt(metric['value']):>14} {metric['unit']}")
    if not args.trace:
        print(f"  tail is p{summary['tail_percentile']:.1f}, {summary['tail_beyond']} "
              f"beyond, in the median of {summary['tail_blocks']} block(s) of "
              f"{summary['samples']} samples; fail_ratio "
              f"{summary['fail_ratio']:.4g}; set-up samples "
              + ", ".join(f"{s:.3f}" for s in setups))
    for key, count in sorted(failures.items()):
        print(f"  failed x{count}: {key}")
    print(f"  result file {os.path.relpath(result_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def regenerate_references() -> int:
    import oracle
    import workloads

    ops_by_workload, tables = {}, {}
    for name in WORKLOAD_NAMES:
        ops, more = workloads.make_ops(name, workloads.DEFAULT_SEED)
        ops_by_workload[name] = ops
        tables.update(more)
    count = oracle.regenerate(
        ops_by_workload, lambda spec: workloads.build_game(spec, tables).payoffs)
    print(f"wrote {count} reference levels to {os.path.relpath(oracle.REFERENCE_FILE, ROOT)}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "reward_transfer", "__init__.py")):
        print(f"error: no package at {os.path.relpath(SRC, os.getcwd())}/reward_transfer; "
              "run from the root of a reward-transfer checkout", file=sys.stderr)
        return 2
    # BLAS reads these once, when numpy loads: set them before any import
    # of numpy, here and in every child process
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    sys.path.insert(0, SRC)
    import reward_transfer
    if os.path.dirname(os.path.abspath(reward_transfer.__file__)) != \
            os.path.join(SRC, "reward_transfer"):
        print("error: reward_transfer was not imported from this checkout",
              file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")
    if args.regen_references:
        return regenerate_references()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
