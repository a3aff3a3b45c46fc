"""Canonical JSON for games, transfer matrices, and solver results.

Emitters are hand-rolled so the byte layout is stable: keys sorted,
two-space indent, floats printed with %.17g (shortest form that still
round-trips binary64), one trailing newline.  Serializing a parsed
document reproduces it byte for byte.

Formats:

* game: ``{"payoffs": {"CC": [3, 3], ...}, "players": 2}`` with one
  entry per profile string (player order, C/D).
* matrix: a plain n-by-n nested array of shares.
* result: object with binding, excess, level, matrix, mode, status and
  target; players in binding entries are 1-based and co-players are
  profile strings over everyone but that player.
"""

from __future__ import annotations

import json
import math
from typing import Iterator, Optional

import numpy as np

from .game import ActionProfile, NormalFormGame, coplayer_string
from .levels import SelfInterestResult
from .transfer import TransferMatrix

_MAX_PLAYERS = 20


class FormatError(ValueError):
    """Malformed input document."""


def _num(x: float) -> str:
    return "%.17g" % (float(x) + 0.0)


def _row(values) -> str:
    return "[" + ", ".join(_num(v) for v in values) + "]"


def dumps_game(game: NormalFormGame) -> str:
    lines = ["{", '  "payoffs": {']
    keys = sorted(str(p) for p in game.profiles())
    for pos, key in enumerate(keys):
        bits = ActionProfile.from_string(key).bits
        comma = "," if pos < len(keys) - 1 else ""
        lines.append(f'    "{key}": {_row(game.payoffs[bits])}{comma}')
    lines.append("  },")
    lines.append(f'  "players": {game.n}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _load(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from None


def _check_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{where} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise FormatError(f"{where} must be finite, got {value!r}")
    return float(value)


def parse_game(text: str) -> NormalFormGame:
    data = _load(text)
    if not isinstance(data, dict):
        raise FormatError("a game document must be a JSON object")
    unknown = sorted(set(data) - {"players", "payoffs"})
    if unknown:
        raise FormatError(f"unexpected key {unknown[0]!r} in game document")
    for key in ("players", "payoffs"):
        if key not in data:
            raise FormatError(f"game document is missing {key!r}")
    players = data["players"]
    if isinstance(players, bool) or not isinstance(players, int):
        raise FormatError(f"'players' must be an integer, got {players!r}")
    if not 2 <= players <= _MAX_PLAYERS:
        raise FormatError(
            f"'players' must be between 2 and {_MAX_PLAYERS}, got {players}")
    payoffs = data["payoffs"]
    if not isinstance(payoffs, dict):
        raise FormatError("'payoffs' must be an object keyed by profiles")

    table = np.zeros((1 << players, players))
    seen = set()
    for key, row in payoffs.items():
        if len(key) != players or any(ch not in "CD" for ch in key):
            raise FormatError(
                f"profile key {key!r} is not a {players}-character C/D string")
        if not isinstance(row, list) or len(row) != players:
            raise FormatError(
                f"payoffs for {key!r} must be a list of {players} numbers")
        bits = ActionProfile.from_string(key).bits
        table[bits] = [_check_number(v, f"payoff {key!r}[{k}]")
                       for k, v in enumerate(row)]
        seen.add(bits)
    if len(seen) != 1 << players:
        missing = next(
            str(ActionProfile(b, players))
            for b in range(1 << players) if b not in seen)
        raise FormatError(f"missing profile {missing!r} in payoffs")
    return NormalFormGame(table)


def dumps_matrix(matrix: TransferMatrix) -> str:
    lines = ["["]
    for i in range(matrix.n):
        comma = "," if i < matrix.n - 1 else ""
        lines.append(f"  {_row(matrix.entries[i])}{comma}")
    lines.append("]")
    return "\n".join(lines) + "\n"


def _matrix_from_rows(rows, where: str = "matrix") -> TransferMatrix:
    if not isinstance(rows, list) or not rows:
        raise FormatError(f"{where} must be a non-empty array of rows")
    n = len(rows)
    values = np.zeros((n, n))
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise FormatError(
                f"{where} row {i + 1} must be a list of {n} numbers")
        values[i] = [_check_number(v, f"{where}[{i + 1}][{k + 1}]")
                     for k, v in enumerate(row)]
    try:
        return TransferMatrix(values)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def parse_matrix(text: str) -> TransferMatrix:
    return _matrix_from_rows(_load(text))


def extract_matrix(text: str) -> tuple[TransferMatrix, Optional[str]]:
    """Read a matrix from either a bare matrix document or a result
    document (in which case the result's target tags along)."""
    data = _load(text)
    if isinstance(data, list):
        return _matrix_from_rows(data), None
    if isinstance(data, dict) and "matrix" in data:
        target = data.get("target")
        if target is not None and not isinstance(target, str):
            raise FormatError("result 'target' must be a profile string")
        return _matrix_from_rows(data["matrix"]), target
    raise FormatError(
        "expected a matrix array or a result object with a 'matrix' key")


def result_lines(result: SelfInterestResult) -> Iterator[str]:
    """The canonical result document, one newline-terminated line at a
    time, so a large binding list can be written without holding the
    whole text."""
    n = result.target.n
    yield "{\n"
    if result.binding:
        yield '  "binding": [\n'
        last = len(result.binding) - 1
        for pos, (player, mask) in enumerate(result.binding):
            comma = "," if pos < last else ""
            coplayers = coplayer_string(mask, n, player)
            yield f'    {{"coplayers": "{coplayers}", "player": {player + 1}}}{comma}\n'
        yield "  ],\n"
    else:
        yield '  "binding": [],\n'
    yield f'  "excess": {_row(result.excess.slack)},\n'
    yield f'  "level": {_num(result.level)},\n'
    yield '  "matrix": [\n'
    for i in range(result.matrix.n):
        comma = "," if i < result.matrix.n - 1 else ""
        yield f"    {_row(result.matrix.entries[i])}{comma}\n"
    yield "  ],\n"
    yield f'  "mode": "{result.mode.value}",\n'
    yield '  "status": "optimal",\n'
    yield f'  "target": "{result.target}"\n'
    yield "}\n"


def dumps_result(result: SelfInterestResult) -> str:
    return "".join(result_lines(result))
