"""The three workloads: their inputs, made from the seed, and one op each.

* ``cli-solve``: each op is one fresh ``python -m reward_transfer solve``
  process on a game file written during set-up.
* ``sweep-lazy``: in-process ops at n = 12..16, every one on the lazy
  constraint-generation path; each op builds its game with the library
  builder, runs one level search and ``verify_resolution``.
* ``sweep-small``: in-process ops at n = 2..6, every LP on the dense
  path; each op classifies, runs every search mode that applies and
  verifies each contract.  A pass holds SMALL_VARIANTS draws of the op
  list.

A pass is one op list; a run repeats whole passes.  The seed picks the
stakes of every family game, the random strict dilemmas of
``sweep-small`` and the order of each pass.  ``sweep-lazy``'s random dilemmas come from
a fixed stream instead: half of them stop at the simplex iteration cap,
and drawing new ones per seed would swing the failure count, and with
it every end-to-end metric, from seed to seed.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from reward_transfer import dilemmas, game as rt_game, levels, serialize, transfer
from reward_transfer.dilemmas import BaseGame, GraphKind

DEFAULT_SEED = 1
WORKLOADS = ("cli-solve", "sweep-lazy", "sweep-small")
POOL_SEED = 20231019

GRAPHICAL = {
    "circular-pd": (GraphKind.CIRCULAR, BaseGame.PRISONERS_DILEMMA),
    "cyclical-chicken": (GraphKind.CYCLICAL, BaseGame.CHICKEN),
    "symmetrical-staghunt": (GraphKind.SYMMETRICAL, BaseGame.STAG_HUNT),
    "tycoon-pd": (GraphKind.TYCOON, BaseGame.PRISONERS_DILEMMA),
    # the two-player base games, as the one-edge cyclical game
    "base-pd": (GraphKind.CYCLICAL, BaseGame.PRISONERS_DILEMMA),
    "base-chicken": (GraphKind.CYCLICAL, BaseGame.CHICKEN),
    "base-staghunt": (GraphKind.CYCLICAL, BaseGame.STAG_HUNT),
}
FAMILIES = ("circular-pd", "cyclical-chicken", "symmetrical-staghunt",
            "tycoon-pd", "functional")
# families whose payoff table is invariant under the cyclic shift
CYCLIC = ("circular-pd", "cyclical-chicken", "symmetrical-staghunt")


@dataclass(frozen=True)
class GameSpec:
    family: str
    n: int
    c: float = 0.0       # stake; epsilon for scaled-pd
    d: float = 0.0
    tag: str = ""        # which random instance

    @property
    def key(self) -> str:
        if self.family in GRAPHICAL:
            return f"{self.family}/n{self.n}/c{self.c!r}/d{self.d!r}"
        if self.family in ("functional", "scaled-pd"):
            return f"{self.family}/n{self.n}/c{self.c!r}"
        if self.family == "random":
            return f"random/n{self.n}/{self.tag}"
        return f"{self.family}/n{self.n}"


@dataclass(frozen=True)
class Search:
    mode: str                    # general, symmetric or fastpath
    allow_excess: bool = False
    refine_diagonal: bool = False

    @property
    def key(self) -> str:
        return (self.mode + ("+excess" if self.allow_excess else "")
                + ("+refine" if self.refine_diagonal else ""))


@dataclass(frozen=True)
class Op:
    game: GameSpec
    searches: tuple
    target: str
    force: bool = False
    classify: bool = False

    @property
    def key(self) -> str:
        return f"{self.game.key}|{'+'.join(s.key for s in self.searches)}@{self.target}"

    @property
    def kind(self) -> str:
        """Op type without stakes, for grouping."""
        return f"{self.game.family}/n{self.game.n}/{'+'.join(s.key for s in self.searches)}"


@dataclass
class Inputs:
    workload: str
    seed: int
    ops: list                    # one pass, in run order
    tables: dict                 # game key -> payoff table, random games
    games: dict                  # game key -> NormalFormGame, built in set-up
    files: dict                  # game key -> game file, cli-solve


GENERAL = Search("general")
SYMMETRIC = Search("symmetric")
FASTPATH = Search("fastpath")
EXCESS = Search("general", allow_excess=True)
REFINE = Search("general", refine_diagonal=True)
_BY_NAME = {"general": GENERAL, "symmetric": SYMMETRIC, "fastpath": FASTPATH}

# cli-solve, cheapest to dearest: two n = 6 ops; four n = 13 ops; the
# three cyclical n = 14 ops, whose outputs are a quarter of the full
# size; five n = 14 ops that write all 114,688 deviation rows as binding.
# The median falls inside the cyclical group, clear of its neighbours.
CLI_PASS = (
    (14, "circular-pd", "general"), (14, "circular-pd", "fastpath"),
    (14, "circular-pd", "symmetric"),
    (14, "tycoon-pd", "general"), (14, "tycoon-pd", "symmetric"),
    (14, "cyclical-chicken", "general"), (14, "cyclical-chicken", "symmetric"),
    (14, "cyclical-chicken", "fastpath"),
    (13, "symmetrical-staghunt", "general"), (13, "symmetrical-staghunt", "symmetric"),
    (13, "functional", "general"), (13, "tycoon-pd", "symmetric"),
    (6, "circular-pd", "general"), (6, "cyclical-chicken", "general"),
)
LAZY_SIZES = range(12, 17)
LAZY_MODES = {
    "circular-pd": (GENERAL, FASTPATH, SYMMETRIC),
    "cyclical-chicken": (GENERAL, FASTPATH, SYMMETRIC),
    "symmetrical-staghunt": (GENERAL, SYMMETRIC),
    "tycoon-pd": (GENERAL, SYMMETRIC),
    "functional": (GENERAL, EXCESS, REFINE),
}
LAZY_RANDOM = ((12, 0), (13, 0), (14, 0))
SMALL_SIZES = range(3, 7)
SMALL_RANDOM_PER_SIZE = 2
# Stake draws of one family game at n = 6 differ by over a third in LP
# pivots, and the slowest of them sets the tail.  A sweep-small pass
# holds this many draws of its op list, so a run's figures average over
# draws instead of following one seed's luck.
SMALL_VARIANTS = 8
JITTER = 0.05


def draw_spec(rng, family, n) -> GameSpec:
    """A family game with its stakes jittered by up to JITTER around the
    canonical c = 3, d = 1.  Small enough to keep each family's
    structure (which constraints bind), though not the pivot count."""
    c = round(float(3.0 * rng.uniform(1 - JITTER, 1 + JITTER)), 4)
    if family == "functional":
        return GameSpec(family, n, c)
    d = round(float(rng.uniform(1 - JITTER, 1 + JITTER)), 4)
    return GameSpec(family, n, c, d)


def _action_bits(n):
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)


def is_strict_dilemma(table, tol=1e-9) -> bool:
    """The three strict dilemma conditions, checked with the benchmark's
    own code."""
    n = table.shape[1]
    profiles = np.arange(1 << n)
    welfare = table.sum(axis=1)
    for i in range(n):
        coop = profiles[(profiles >> i) & 1 == 0]
        defect = coop | (1 << i)
        if not (table[defect, i] - table[coop, i] > tol).all():
            return False
        if not (welfare[coop] - welfare[defect] > tol).all():
            return False
    return bool((table[0] - table[-1] > tol).all())


def random_strict_dilemma(rng, n) -> np.ndarray:
    """Additive core plus noise: player i earns u_i for defecting and
    b_ij for each cooperating co-player j, with u below the row and
    column sums of b so all three conditions are strict.  Resampled on
    the rare draw the noise spoils."""
    defect = _action_bits(n)
    for _ in range(50):
        b = rng.uniform(0.2, 1.2, size=(n, n))
        np.fill_diagonal(b, 0.0)
        headroom = np.minimum(b.sum(axis=0), b.sum(axis=1))
        u = rng.uniform(0.1, 0.9) * headroom * rng.uniform(0.3, 1.0, size=n)
        table = defect * u + (1.0 - defect) @ b
        table += rng.uniform(-1e-3, 1e-3, size=table.shape)
        if is_strict_dilemma(table):
            return table
    raise RuntimeError(f"no strict dilemma drawn for n={n}")


def make_ops(workload: str, seed: int):
    """One pass of ops and the random tables it needs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    tables = {}
    if workload == "cli-solve":
        # the modes of one family and size share a game file
        specs = {}
        for n, f, _ in CLI_PASS:
            if (f, n) not in specs:
                specs[f, n] = draw_spec(rng, f, n)
        ops = [Op(specs[f, n], (_BY_NAME[m],), "C" * n, force=f == "functional")
               for n, f, m in CLI_PASS]
    elif workload == "sweep-lazy":
        ops = [Op(draw_spec(rng, f, n), (search,), "C" * n,
                  force=f == "functional")
               for n in LAZY_SIZES for f, modes in LAZY_MODES.items()
               for search in modes]
        for n, k in LAZY_RANDOM:
            spec = GameSpec("random", n, tag=f"pool{k}")
            tables[spec.key] = random_strict_dilemma(
                np.random.default_rng([POOL_SEED, n, k]), n)
            ops += [Op(spec, (search,), "C" * n) for search in (GENERAL, EXCESS)]
    elif workload == "sweep-small":
        ops = []
        for variant in range(SMALL_VARIANTS):
            ops += [Op(draw_spec(rng, f, 2), (SYMMETRIC, GENERAL, FASTPATH),
                       "CC", classify=True)
                    for f in ("base-pd", "base-chicken", "base-staghunt")]
            if variant == 0:
                # one epsilon per seed, shared by the variants and drawn
                # where a pass of one draw drew it, so each seed keeps
                # its epsilon and meets the scaled-pd defect (README.md)
                # exactly when it did before
                epsilon = float("%.3g" % 10 ** rng.uniform(-7.0, -5.0))
            ops.append(Op(GameSpec("too-many-cooks", 3), (SYMMETRIC, GENERAL),
                          "DCC", force=True, classify=True))
            ops.append(Op(GameSpec("scaled-pd", 2, epsilon),
                          (SYMMETRIC, GENERAL, EXCESS), "CC", force=True,
                          classify=True))
            for n in SMALL_SIZES:
                for f in FAMILIES:
                    searches = (SYMMETRIC, GENERAL) + ((FASTPATH,) if f in CYCLIC else ())
                    ops.append(Op(draw_spec(rng, f, n), searches, "C" * n,
                                  force=f == "functional", classify=True))
                for k in range(variant * SMALL_RANDOM_PER_SIZE,
                               (variant + 1) * SMALL_RANDOM_PER_SIZE):
                    spec = GameSpec("random", n, tag=f"s{seed}-{k}")
                    tables[spec.key] = random_strict_dilemma(
                        np.random.default_rng([seed, n, k]), n)
                    ops.append(Op(spec, (SYMMETRIC, GENERAL), "C" * n, classify=True))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = rng.permutation(len(ops))
    return [ops[i] for i in order], tables


def build_game(spec: GameSpec, tables):
    """Build through the library, looked up on its module so that a
    tracer's re-binding sees the call."""
    if spec.family == "functional":
        return dilemmas.build_functional(dilemmas.FunctionalParams(spec.n, spec.c))
    if spec.family == "too-many-cooks":
        return dilemmas.too_many_cooks()
    if spec.family == "scaled-pd":
        return dilemmas.scaled_prisoners_dilemma(spec.c)
    if spec.family == "random":
        return rt_game.NormalFormGame(tables[spec.key])
    graph, base = GRAPHICAL[spec.family]
    return dilemmas.build_graphical(graph, dilemmas.BaseGameParams(base, spec.c, spec.d),
                                    spec.n)


def prepare(workload: str, seed: int, workdir: Optional[str]) -> Inputs:
    """Everything a run needs before its first timed op: the op list,
    prebuilt games for sweep-small and game files for cli-solve."""
    ops, tables = make_ops(workload, seed)
    games, files = {}, {}
    if workload == "sweep-small":
        for op in ops:
            games[op.game.key] = build_game(op.game, tables)
    if workload == "cli-solve":
        gamedir = os.path.join(workdir, "games")
        os.makedirs(gamedir, exist_ok=True)
        for op in ops:
            if op.game.key in files:
                continue
            path = os.path.join(gamedir, f"{op.game.family}-n{op.game.n}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(serialize.dumps_game(build_game(op.game, tables)))
            files[op.game.key] = path
    return Inputs(workload, seed, ops, tables, games, files)


# --- running one op ---------------------------------------------------------------

@dataclass
class SearchOutcome:
    error: Optional[str]         # exception class name, None on success
    level: Optional[float] = None
    matrix: Optional[np.ndarray] = None
    conserving: bool = True
    verified: Optional[bool] = None   # verify_resolution's verdict


def run_inprocess_op(op: Op, inputs: Inputs) -> list:
    """Build (sweep-lazy) or fetch (sweep-small) the game, run each
    search and verify each contract.  Exceptions are the outcome being
    measured, so they are recorded, not raised."""
    game = inputs.games.get(op.game.key)
    if game is None:
        game = build_game(op.game, inputs.tables)
    target = rt_game.ActionProfile.from_string(op.target)
    if op.classify:
        rt_game.classify_dilemma(game)
    outcomes = []
    for search in op.searches:
        try:
            if search.mode == "symmetric":
                result = levels.symmetrical_level(game, target, force=op.force)
            elif search.mode == "fastpath":
                result = levels.general_level_symmetric_fastpath(game, force=op.force)
            else:
                result = levels.general_level(
                    game, target, allow_excess=search.allow_excess,
                    force=op.force, refine_diagonal=search.refine_diagonal)
        except Exception as exc:  # noqa: BLE001 - recorded per op
            outcomes.append(SearchOutcome(type(exc).__name__))
            continue
        report = transfer.verify_resolution(game, result.matrix, target)
        outcomes.append(SearchOutcome(None, result.level, result.matrix.entries,
                                      not search.allow_excess,
                                      report.weakly_dominant))
    return outcomes


@dataclass
class CliOutcome:
    exit_code: int
    start: float                 # perf_counter readings around the process
    end: float
    max_rss_kb: int
    digest: Optional[str]        # sha256 of the result file, when written


def run_cli_process(cmd: list, env: dict, out_path: str) -> CliOutcome:
    """One closed-loop op: start the process, wait for it, time it from
    here.  ``wait4`` gives this child's own peak resident memory."""
    if os.path.exists(out_path):
        os.remove(out_path)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    digest = None
    if os.path.exists(out_path):
        with open(out_path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
    return CliOutcome(proc.returncode, start, end, usage.ru_maxrss, digest)
