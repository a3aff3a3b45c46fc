"""Output-identity check: record what every level search of the benchmark
workloads returns, and compare two recordings.

    python tools/compare_outputs.py record --seeds 1 2 3 before.json
    python tools/compare_outputs.py diff before.json after.json

``record`` runs in process every distinct search in the op lists of the
three benchmark workloads (``perfbench/workloads.py``, imported and not
changed) at each seed.  For each search it stores the result's mode and
level, the matrix bytes, the binding mask (its count of set entries and
a digest) and ``verify_resolution``'s verdict on the matrix (weakly
dominant, strictly dominant, violation count), or the type and message
of the exception the search raised.  For each game an op classifies, it
stores ``classify_dilemma``'s kind and witnesses under the mode
``classify``.  ``--workloads`` narrows the recording to some of the
workloads.

``diff`` prints, per mode, how many entries are identical and how many
differ, and exits 1 on any difference, including an entry that only one
recording holds.

Run it from the root of a checkout: the package is imported from
``src/`` there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from reward_transfer import game as rt_game, levels, transfer  # noqa: E402

# the mode column of ``diff``, by perfbench search key (or ``classify``)
MODES = {"general": "general", "general+excess": "excess",
         "general+refine": "refine", "symmetric": "symmetric",
         "fastpath": "fastpath", "classify": "classify"}


def _run(game, target, search, force):
    if search.mode == "symmetric":
        return levels.symmetrical_level(game, target, force=force)
    if search.mode == "fastpath":
        return levels.general_level_symmetric_fastpath(game, force=force)
    return levels.general_level(game, target, allow_excess=search.allow_excess,
                                force=force,
                                refine_diagonal=search.refine_diagonal)


def _outcome(game, target, search, force) -> dict:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = _run(game, target, search, force)
            report = transfer.verify_resolution(game, result.matrix, target)
    except Exception as exc:  # noqa: BLE001 - the outcome being recorded
        return {"error": type(exc).__name__, "message": str(exc)}
    mask = result.binding_mask
    return {"mode": result.mode.value,
            "level": float(result.level).hex(),
            "matrix": result.matrix.entries.tobytes().hex(),
            "binding": [int(mask.sum()),
                        hashlib.sha256(np.packbits(mask)).hexdigest()],
            "verified": [report.weakly_dominant, report.strictly_dominant,
                         len(report.violations)]}


def _classification(game) -> dict:
    found = rt_game.classify_dilemma(game)
    return {"search": "classify", "kind": found.kind.value,
            "witnesses": [[w.condition, w.player, w.coplayers]
                          for w in found.witnesses]}


def record(names, seeds) -> dict:
    """Every distinct search of the named workloads' op lists at each
    seed, keyed by game, search, target and force, and the classification
    of every game an op classifies, keyed by game."""
    searches = {}
    for name in names:
        for seed in seeds:
            ops, tables = workloads.make_ops(name, seed)
            for op in ops:
                keys = [f"{op.game.key}|{search.key}@{op.target}"
                        + ("|force" if op.force else "")
                        for search in op.searches]
                classify = [f"{op.game.key}|classify"] if op.classify else []
                if all(key in searches for key in keys + classify):
                    continue
                game = workloads.build_game(op.game, tables)
                for key in classify:
                    if key not in searches:
                        searches[key] = _classification(game)
                target = rt_game.ActionProfile.from_string(op.target)
                for key, search in zip(keys, op.searches):
                    if key not in searches:
                        searches[key] = dict(
                            _outcome(game, target, search, op.force),
                            search=search.key)
    return searches


def diff(first: dict, second: dict) -> int:
    """Print per-mode counts of identical and differing searches; the
    number of searches that differ or that one side lacks."""
    same, differ = Counter(), Counter()
    for key in sorted(first.keys() | second.keys()):
        mode = MODES[(first.get(key) or second.get(key))["search"]]
        if first.get(key) == second.get(key):
            same[mode] += 1
        else:
            differ[mode] += 1
            print(f"differs: {key}")
    print(f"{'mode':<10} {'identical':>9} {'differing':>9}")
    for mode in sorted(same.keys() | differ.keys()):
        print(f"{mode:<10} {same[mode]:>9} {differ[mode]:>9}")
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
