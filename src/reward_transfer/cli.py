"""Command line front end.

Subcommands: classify, solve, generate, transform, verify, analytic.
Games, matrices and results travel as the canonical JSON
documents from the serialize module, so outputs feed back in as inputs
(solve's result file works directly as verify's matrix argument).

Exit codes: 0 success, 1 the game is not a social dilemma, 2 no
contract achieves the goal (or verification failed), 3 malformed input
or arguments.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from typing import Iterable, Optional

from .dilemmas import (AnalyticLevel, BaseGame, BaseGameParams,
                       FunctionalParams, GraphKind, analytic_level,
                       analytic_matrix, build_functional, build_graphical,
                       scaled_prisoners_dilemma)
from .game import ActionProfile, DilemmaKind, classify_dilemma, coplayer_string
from .levels import (NotADilemmaError, NotResolvableError, SolveMode,
                     general_level, general_level_symmetric_fastpath,
                     symmetrical_level)
# solve streams result_lines and never calls dumps_result; the name stays
# importable here because perfbench/spans.py re-binds cli.dumps_result by
# name when it traces a run
from .serialize import (FormatError, dumps_matrix, dumps_result,  # noqa: F401
                        extract_matrix, game_blocks, parse_game, result_lines)
from .transfer import apply_transfers, verify_resolution

EXIT_OK = 0
EXIT_NOT_DILEMMA = 1
EXIT_UNRESOLVABLE = 2
EXIT_INPUT = 3

_WITNESS_CAP = 10

_BASES = {b.value: b for b in BaseGame}
_GRAPHS = {g.value: g for g in GraphKind}
# the generate flags of the families that are not graphical
_FLAGS_OF = {"functional": "-n and -c", "scaledpd": "--epsilon"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _read_game(path: str):
    return parse_game(_read_text(path))


def _write_output(chunks: Iterable[str], path: Optional[str]) -> None:
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)


def _parse_target(game, text: Optional[str]):
    if text is None:
        return None
    target = ActionProfile.from_string(text)
    if target.n != game.n:
        raise FormatError(
            f"target {text!r} has {target.n} players, the game has {game.n}")
    return target


def _print_capped(items, count, describe) -> None:
    for item in itertools.islice(items, _WITNESS_CAP):
        print("  " + describe(item))
    if count > _WITNESS_CAP:
        print(f"  ... and {count - _WITNESS_CAP} more")


def cmd_classify(args) -> int:
    game = _read_game(args.game)
    result = classify_dilemma(game, tolerance=args.tolerance)
    if result.kind is DilemmaKind.STRICT:
        print("strict dilemma")
        return EXIT_OK
    if result.kind is DilemmaKind.PARTIAL:
        print("partial dilemma (defection pays only against some co-profiles)")
        return EXIT_OK
    print("not a dilemma")
    _print_capped(result.iter_witnesses(), result.witness_count,
                  lambda witness: witness.describe(game.n))
    return EXIT_NOT_DILEMMA


def cmd_solve(args) -> int:
    game = _read_game(args.game)
    target = _parse_target(game, args.target)
    if args.allow_excess and args.mode != "general":
        raise _UsageError("--allow-excess requires --mode general")
    if args.refine_diagonal and args.mode != "general":
        raise _UsageError("--refine-diagonal requires --mode general")
    if args.mode == "symmetric":
        result = symmetrical_level(game, target, force=args.force)
    elif args.mode == "fastpath":
        if target is not None and target.bits != 0:
            raise _UsageError("fastpath only supports the all-C target")
        result = general_level_symmetric_fastpath(game, force=args.force)
    else:
        result = general_level(game, target, allow_excess=args.allow_excess,
                               force=args.force,
                               refine_diagonal=args.refine_diagonal)
    _write_output(result_lines(result), args.output)
    return EXIT_OK


def cmd_generate(args) -> int:
    kind = args.kind
    stray = [args.base, args.d] + ([args.n, args.c] if kind == "scaledpd" else [])
    if kind in _FLAGS_OF and any(flag is not None for flag in stray):
        raise _UsageError(f"{kind} games take only {_FLAGS_OF[kind]}")
    if kind != "scaledpd" and args.epsilon is not None:
        raise _UsageError(f"{kind} games do not take --epsilon")
    n = 3 if args.n is None else args.n
    c = 3.0 if args.c is None else args.c
    if kind == "functional":
        game = build_functional(FunctionalParams(n, c))
    elif kind == "scaledpd":
        game = scaled_prisoners_dilemma(
            1e-6 if args.epsilon is None else args.epsilon)
    else:
        base = _BASES[args.base or "pd"]
        params = BaseGameParams(base, c, 1.0 if args.d is None else args.d)
        game = build_graphical(_GRAPHS[kind], params, n)
    _write_output(game_blocks(game), args.output)
    return EXIT_OK


def cmd_transform(args) -> int:
    game = _read_game(args.game)
    matrix, _ = extract_matrix(_read_text(args.matrix))
    _write_output(game_blocks(apply_transfers(game, matrix)), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    game = _read_game(args.game)
    matrix, embedded_target = extract_matrix(_read_text(args.matrix))
    target = _parse_target(game, args.target or embedded_target)
    report = verify_resolution(game, matrix, target, tolerance=args.tolerance)
    name = str(report.target)
    if report.weakly_dominant:
        kind = "strictly" if report.strictly_dominant else "weakly"
        print(f"target {name} is {kind} dominant after transfers")
        return EXIT_OK
    print(f"target {name} is NOT weakly dominant after transfers")

    def describe(violation):
        player, mask, gap = violation
        return (f"player {player + 1} gains {gap:.6g} by deviating against "
                f"co-players {coplayer_string(mask, game.n, player)}")
    _print_capped(report.iter_violations(), report.violation_count, describe)
    return EXIT_UNRESOLVABLE


def cmd_analytic(args) -> int:
    graph = _GRAPHS[args.graph]
    params = BaseGameParams(_BASES[args.base or "pd"], args.c,
                            1.0 if args.d is None else args.d)
    mode = SolveMode.SYMMETRIC if args.mode == "symmetric" else SolveMode.GENERAL
    if args.matrix and mode is not SolveMode.GENERAL:
        raise _UsageError("--matrix goes with --mode general")
    level: AnalyticLevel = analytic_level(graph, params, args.n, mode)
    # the matrix is built before anything is printed, so that a refused
    # call writes nothing to stdout
    matrix = (analytic_matrix(graph, params, args.n, allow_limit=level.is_limit)
              if args.matrix else None)
    note = " (large-n limit)" if level.is_limit else ""
    print(f"{args.mode} level: {level.value:.17g}{note}")
    if matrix is not None:
        if level.is_limit:
            print("matrix below is the large-n limit; not optimal at small n")
        sys.stdout.write(dumps_matrix(matrix))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="reward-transfer",
                     description="Resolve binary-action social dilemmas "
                                 "with reward transfer contracts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="test the social dilemma conditions")
    p.add_argument("game", help="game JSON file")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("solve", help="find the most self-interested "
                                     "resolving contract")
    p.add_argument("game", help="game JSON file")
    p.add_argument("--mode", choices=["symmetric", "general", "fastpath"],
                   default="general")
    p.add_argument("--target", help="target profile, e.g. CCD (default all C)")
    p.add_argument("--allow-excess", action="store_true",
                   help="let rows sum below one (burn reward)")
    p.add_argument("--refine-diagonal", action="store_true",
                   help="second pass maximizing the diagonal sum")
    p.add_argument("--force", action="store_true",
                   help="search even if the game is not a dilemma")
    p.add_argument("-o", "--output", help="write the result JSON here")
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("generate", help="emit a game from a named family")
    p.add_argument("kind", choices=sorted(_GRAPHS) + ["functional", "scaledpd"])
    p.add_argument("--base", choices=sorted(_BASES))
    p.add_argument("-n", type=int, default=None,
                   help="number of players (default 3)")
    p.add_argument("-c", type=float, default=None,
                   help="cooperation stake (default 3)")
    p.add_argument("-d", type=float, default=None, help="defection stake")
    p.add_argument("--epsilon", type=float, default=None,
                   help="offset for the scaledpd family (default 1e-6)")
    p.add_argument("-o", "--output", help="write the game JSON here")
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("transform", help="apply a transfer matrix to a game")
    p.add_argument("game")
    p.add_argument("matrix", help="matrix JSON (or a result JSON)")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=cmd_transform)

    p = sub.add_parser("verify", help="check that a matrix makes the "
                                      "target weakly dominant")
    p.add_argument("game")
    p.add_argument("matrix", help="matrix JSON (or a result JSON)")
    p.add_argument("--target", help="overrides a result file's target")
    p.add_argument("--tolerance", type=float, default=1e-9,
                   help="largest deviation gain still accepted, relative to "
                        "the game's reward scale (default 1e-9)")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("analytic", help="closed-form level for a "
                                        "graphical family")
    p.add_argument("graph", choices=sorted(_GRAPHS))
    p.add_argument("--base", choices=sorted(_BASES))
    p.add_argument("-n", type=int, default=3)
    p.add_argument("-c", type=float, default=3.0)
    p.add_argument("-d", type=float, default=None)
    p.add_argument("--mode", choices=["symmetric", "general"],
                   default="general")
    p.add_argument("--matrix", action="store_true",
                   help="also print the closed-form matrix")
    p.set_defaults(handler=cmd_analytic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NotADilemmaError as exc:
        print(f"error: {exc}".replace("force=True", "--force"), file=sys.stderr)
        return EXIT_NOT_DILEMMA
    except NotResolvableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNRESOLVABLE
    except (FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
