"""Output-identity check: record what every level search of the benchmark
workloads returns, and compare two recordings.

    python tools/compare_outputs.py record --seeds 1 2 3 before.json
    python tools/compare_outputs.py diff before.json after.json

``record`` runs in process every distinct search in the op lists of the
three benchmark workloads (``perfbench/workloads.py``, imported and not
changed) at each seed.  For each search it stores the result's mode and
level, the matrix bytes, the binding mask (its count of set entries and
a digest), whether ``binding_constraints`` recomputes that mask, and
``verify_resolution``'s verdict on the matrix (weakly dominant, strictly
dominant, violation count), or the type and message of the exception
the search raised.  A search with a second stage also stores the value
that stage optimizes (``stage2``): the excess total of an
``allow_excess`` search, the diagonal sum of a ``refine_diagonal`` one.
For each game an op classifies, it stores ``classify_dilemma``'s kind
and witnesses under the mode ``classify``.  The cli-solve workload
writes its games and results as files, so for it ``record`` also
stores the sha256 of ``dumps_game`` of each game, under the mode
``game``, and of ``dumps_result`` of each search's result.
``--workloads`` narrows the recording to some of the workloads.

``diff`` prints, per mode, how many entries are identical and how many
differ; of those that differ and both recordings hold, how many moved
their level, matrix, binding set, verdict, error type or error message
(so a reworded refusal reads apart from a changed one); and the largest
|change| of the level and of the stage-2 value, over the entries that
hold it on both sides.  It exits 1 on any difference, including an
entry that only one recording holds.

Run it from the root of a checkout: the package is imported from
``src/`` there.  It records with one BLAS thread whatever the
environment says, so that two recordings of one tree are the same
bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
# BLAS reads these once, when numpy loads.  The bytes of a dense solve
# (the simplex's reinversion and final re-solve) move with the thread
# count, so every recording is made with one thread
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from reward_transfer import (game as rt_game, levels, serialize,  # noqa: E402
                             transfer)

# the mode column of ``diff``, by perfbench search key (or ``classify``,
# ``game``)
MODES = {"general": "general", "general+excess": "excess",
         "general+refine": "refine", "symmetric": "symmetric",
         "fastpath": "fastpath", "classify": "classify", "game": "game"}
# the columns of ``diff`` that count what moved, by the entry field
# each one compares
MOVED = {"level": "level", "matrix": "matrix", "binding": "binding",
         "verdict": "verified", "error": "error", "message": "message"}
# the columns of ``diff`` that give the largest |change| of a value, by
# the entry field that holds it
SHIFTS = {"level": "max|dlevel|", "stage2": "max|dstage2|"}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(game, target, search, force):
    if search.mode == "symmetric":
        return levels.symmetrical_level(game, target, force=force)
    if search.mode == "fastpath":
        return levels.general_level_symmetric_fastpath(game, force=force)
    return levels.general_level(game, target, allow_excess=search.allow_excess,
                                force=force,
                                refine_diagonal=search.refine_diagonal)


def _outcome(game, target, search, force, written) -> dict:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = _run(game, target, search, force)
            report = transfer.verify_resolution(game, result.matrix, target)
    except Exception as exc:  # noqa: BLE001 - the outcome being recorded
        return {"error": type(exc).__name__, "message": str(exc)}
    mask = result.binding_mask
    entry = {"mode": result.mode.value,
             "level": float(result.level).hex(),
             "matrix": result.matrix.entries.tobytes().hex(),
             "binding": [int(mask.sum()),
                         hashlib.sha256(np.packbits(mask)).hexdigest()],
             "binding_agrees": np.array_equal(
                 levels.binding_constraints(game, result), mask),
             "verified": [report.weakly_dominant, report.strictly_dominant,
                          report.violation_count]}
    if search.allow_excess:
        entry["stage2"] = float(result.excess.total).hex()
    elif search.refine_diagonal:
        entry["stage2"] = float(np.trace(result.matrix.entries)).hex()
    if written:
        entry["result"] = _sha256(serialize.dumps_result(result))
    return entry


def _classification(game) -> dict:
    found = rt_game.classify_dilemma(game)
    return {"search": "classify", "kind": found.kind.value,
            "witnesses": [[w.condition, w.player, w.coplayers]
                          for w in found.witnesses]}


def record(names, seeds) -> dict:
    """Every distinct search of the named workloads' op lists at each
    seed, keyed by game, search, target and force, the classification
    of every game an op classifies, and the game document of every game
    cli-solve writes, both keyed by game."""
    searches = {}
    for name in names:
        # cli-solve writes its games and results as documents
        written = name == "cli-solve"
        for seed in seeds:
            ops, tables = workloads.make_ops(name, seed)
            for op in ops:
                keys = [f"{op.game.key}|{search.key}@{op.target}"
                        + ("|force" if op.force else "")
                        for search in op.searches]
                classify = [f"{op.game.key}|classify"] if op.classify else []
                document = [f"{op.game.key}|game"] if written else []
                if all(key in searches
                       for key in keys + classify + document):
                    continue
                game = workloads.build_game(op.game, tables)
                for key in classify:
                    if key not in searches:
                        searches[key] = _classification(game)
                for key in document:
                    if key not in searches:
                        searches[key] = {"search": "game", "sha256": _sha256(
                            serialize.dumps_game(game))}
                target = rt_game.ActionProfile.from_string(op.target)
                for key, search in zip(keys, op.searches):
                    if key not in searches:
                        searches[key] = dict(
                            _outcome(game, target, search, op.force,
                                     written),
                            search=search.key)
    return searches


def diff(first: dict, second: dict) -> int:
    """Print per-mode counts of identical and differing searches, of
    the differing ones whose level, matrix, binding set, verdict, error
    type or error message moved, and the largest |change| of the level
    and of the stage-2 value; return the number of searches that differ
    or that one side lacks."""
    same, differ = Counter(), Counter()
    moved = {column: Counter() for column in MOVED}
    shift = {field: {} for field in SHIFTS}
    for key in sorted(first.keys() | second.keys()):
        old, new = first.get(key), second.get(key)
        mode = MODES[(old or new)["search"]]
        for field, largest in shift.items():
            if old and new and field in old and field in new:
                step = abs(float.fromhex(new[field])
                           - float.fromhex(old[field]))
                largest[mode] = max(largest.get(mode, 0.0), step)
        if old == new:
            same[mode] += 1
            continue
        differ[mode] += 1
        print(f"differs: {key}")
        if old and new:
            for column, field in MOVED.items():
                if old.get(field) != new.get(field):
                    moved[column][mode] += 1
    print(f"{'mode':<10} {'identical':>9} {'differing':>9} "
          + " ".join(f"{column:>7}" for column in MOVED)
          + "".join(f" {title:>12}" for title in SHIFTS.values()))
    for mode in sorted(same.keys() | differ.keys()):
        largest = [f"{shift[field][mode]:.3g}" if mode in shift[field]
                   else "-" for field in SHIFTS]
        print(f"{mode:<10} {same[mode]:>9} {differ[mode]:>9} "
              + " ".join(f"{moved[column][mode]:>7}" for column in MOVED)
              + "".join(f" {text:>12}" for text in largest))
    return sum(differ.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    rec = commands.add_parser("record", help="record every search's output")
    rec.add_argument("--seeds", nargs="+", metavar="SEED",
                     default=[str(workloads.DEFAULT_SEED)])
    rec.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS,
                     default=list(workloads.WORKLOADS))
    rec.add_argument("out", nargs="?", help="recording to write (JSON)")
    cmp = commands.add_parser("diff", help="compare two recordings")
    cmp.add_argument("first")
    cmp.add_argument("second")
    args = parser.parse_args(argv)

    if args.command == "record":
        if args.out is None and len(args.seeds) > 1:
            # ``--seeds 1 2 3 OUT`` hands the file name to --seeds
            *args.seeds, args.out = args.seeds
        if args.out is None:
            parser.error("record needs a file to write")
        try:
            seeds = [int(seed) for seed in args.seeds]
        except ValueError:
            parser.error(f"seeds must be integers: {' '.join(args.seeds)}")
        searches = record(args.workloads, seeds)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workloads": args.workloads, "seeds": seeds,
                       "searches": searches}, handle, sort_keys=True)
        print(f"{len(searches)} entries recorded to {args.out}")
        return 0
    loaded = []
    for path in (args.first, args.second):
        with open(path, encoding="utf-8") as handle:
            loaded.append(json.load(handle)["searches"])
    return 1 if diff(*loaded) else 0


if __name__ == "__main__":
    sys.exit(main())
