"""Canonical JSON for games, transfer matrices, and solver results.

Emitters are hand-rolled so the byte layout is stable: keys sorted,
two-space indent, one trailing newline.  Every number is written with
%.17g, which round-trips binary64, and -0.0 is written as 0.  An array
of numbers (a block of payoff rows, a matrix, the excess shares) is
written with each of its distinct values formatted once: a payoff
table repeats a few values many times.  Serializing a parsed document
reproduces it byte for byte.

Formats:

* game: ``{"payoffs": {"CC": [3, 3], ...}, "players": 2}`` with one
  entry per profile string (player order, C/D).
* matrix: a plain n-by-n nested array of shares.
* result: object with binding, excess, level, matrix, mode, status and
  target; players in binding entries are 1-based and co-players are
  profile strings over everyone but that player.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Iterator, Optional

import numpy as np

from .game import _MAX_PLAYERS, ActionProfile, NormalFormGame
from .levels import SelfInterestResult
from .transfer import TransferMatrix


class FormatError(ValueError):
    """Malformed input document."""


def _num(x: float) -> str:
    return "%.17g" % (float(x) + 0.0)


def _texts(values: np.ndarray) -> np.ndarray:
    """``_num`` of every value, as an object array of the values' shape.
    The values are sorted, each run of equal ones is formatted once, and
    the texts are gathered back to the values' places."""
    flat = values.ravel() + 0.0
    order = flat.argsort()
    flat = flat[order]
    first = np.empty(flat.size, dtype=bool)
    first[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=first[1:])
    ids = np.empty(flat.size, dtype=np.intp)
    ids[order] = first.cumsum() - 1
    flat = flat[first]
    # freed before the texts, the largest part of the memory, are made
    del order, first
    texts = np.fromiter(map("%.17g".__mod__, memoryview(flat)),
                        dtype=object, count=flat.size)
    return texts[ids].reshape(values.shape)


def _rows(heads, values: np.ndarray, last: bool) -> str:
    """The rows of a 2-D array as JSON arrays, one line each after its
    head (one string for every row, or one per row; each ends in "[").
    Every line ends in a comma but the last one when ``last``."""
    texts = _texts(values)
    rows, n = values.shape
    pieces = np.empty((rows, 2 * n + 1), dtype=object)
    pieces[:, 1::2] = texts
    del texts
    pieces[:, 0] = heads
    pieces[:, 2:-1:2] = ", "
    pieces[:, -1] = "],\n"
    if last:
        pieces[-1, -1] = "]\n"
    # the array goes before the join, leaving one reference per piece
    pieces = pieces.ravel().tolist()
    return "".join(pieces)


# game_blocks renders the payoff rows this many at a time
_DUMP_ROWS = 1 << 10


def game_blocks(game: NormalFormGame) -> Iterator[str]:
    """The canonical game document in pieces of at most ``_DUMP_ROWS``
    payoff rows, so that a large game can be written without holding
    the whole text."""
    n = game.n
    # key position p names player 0 first, in its highest bit, so its
    # profile is p's n bits reversed; a block's positions differ from
    # its start only in the bits below _DUMP_ROWS, so its profiles are
    # the first block's with the start's reversed bits set
    pos = np.arange(min(1 << n, _DUMP_ROWS))
    profiles = np.zeros_like(pos)
    for k in range(n):
        profiles |= ((pos >> (n - 1 - k)) & 1) << k
    # product over "CD" yields the keys already in sorted order
    heads = map('    "{}": ['.format,
                map("".join, itertools.product("CD", repeat=n)))
    yield '{\n  "payoffs": {\n'
    for start in range(0, 1 << n, _DUMP_ROWS):
        offset = int(f"{start:0{n}b}"[::-1], 2)
        yield _rows(list(itertools.islice(heads, pos.size)),
                    game.payoffs[profiles | offset],
                    start + _DUMP_ROWS >= 1 << n)
    yield f'  }},\n  "players": {n}\n}}\n'


def dumps_game(game: NormalFormGame) -> str:
    return "".join(game_blocks(game))


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a key that appears twice
    (``json`` would silently keep the last value)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise FormatError(f"duplicate key {key!r} in a JSON object")
            seen.add(key)
    return obj


class _FloatMemo(dict):
    """Number text -> float, parsed on first sight.  A payoff table
    repeats a few values many times, so one float per distinct text
    serves every occurrence."""

    def __missing__(self, text: str) -> float:
        value = self[text] = float(text)
        return value


def _load(text: str):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys,
                          parse_float=_FloatMemo().__getitem__)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from None


def _check_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise FormatError(
            f"{where} is an integer beyond the float range") from None
    if not math.isfinite(number):
        raise FormatError(f"{where} must be finite, got {value!r}")
    return number


def _table_at_once(payoffs: dict, n: int) -> Optional[np.ndarray]:
    """The payoff table, with every key and number checked by array
    operations; None when any check fails, so that ``_refuse_payoffs``
    can word the error.  The only reader that builds a table."""
    if len(payoffs) != 1 << n or set(map(len, payoffs)) != {n}:
        return None
    # "replace" keeps one byte per character; "?" then fails the C/D test
    chars = np.frombuffer("".join(payoffs).encode("ascii", "replace"),
                          dtype=np.uint8).reshape(-1, n)
    defect = chars == ord("D")
    if not (defect | (chars == ord("C"))).all():
        return None
    rows = list(payoffs.values())
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {n}:
        return None
    # exact types: bool is an int subclass and must stay refused
    if not set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
        return None
    # 2**n distinct keys of n C/D characters name every profile once, so
    # the rows are put in profile order first and read into the table
    # once, column-major as a game holds it
    bits = np.zeros(len(rows), dtype=np.int64)
    for k in range(n):
        bits[defect[:, k]] |= 1 << k
    try:
        table = np.array([rows[i] for i in np.argsort(bits).tolist()],
                         dtype=float, order="F")
    except OverflowError:
        return None
    if not np.isfinite(table).all():
        return None
    return table


def _refuse_payoffs(payoffs: dict, n: int) -> None:
    """Raise FormatError naming what ``_table_at_once`` refused: the
    first wrong key, row or number in document order, and failing that,
    the first missing profile.  Words the error only; builds no
    table."""
    seen = set()
    for key, row in payoffs.items():
        if len(key) != n or any(ch not in "CD" for ch in key):
            raise FormatError(
                f"profile key {key!r} is not a {n}-character C/D string")
        if not isinstance(row, list) or len(row) != n:
            raise FormatError(
                f"payoffs for {key!r} must be a list of {n} numbers")
        for k, v in enumerate(row):
            _check_number(v, f"payoff {key!r}[{k}]")
        seen.add(ActionProfile.from_string(key).bits)
    missing = next(
        str(ActionProfile(b, n)) for b in range(1 << n) if b not in seen)
    raise FormatError(f"missing profile {missing!r} in payoffs")


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
    table = _table_at_once(payoffs, players)
    if table is None:
        _refuse_payoffs(payoffs, players)
    return NormalFormGame._adopt(table)


def dumps_matrix(matrix: TransferMatrix) -> str:
    return "[\n" + _rows("  [", matrix.entries, True) + "]\n"


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


def _coplayer_table(n: int) -> np.ndarray:
    """Row m holds the C/D characters of co-profile mask m over n - 1
    co-players, as ASCII codes."""
    masks = np.arange(1 << (n - 1))
    table = np.empty((masks.size, n - 1), dtype=np.uint8)
    for k in range(n - 1):
        table[:, k] = ord("C") + ((masks >> k) & 1)   # "D" is "C" + 1
    return table


def _binding_chunks(mask: np.ndarray) -> Iterator[str]:
    """The binding rows of a result document, one string per player who
    has any, each row a fixed-width block of bytes; the last row carries
    no comma."""
    n = mask.shape[0]
    table = _coplayer_table(n)
    head = np.frombuffer(b'    {"coplayers": "', dtype=np.uint8)
    players = np.flatnonzero(mask.any(axis=1)).tolist()
    for player in players:
        masks = np.flatnonzero(mask[player])
        tail = np.frombuffer(f'", "player": {player + 1}}},\n'.encode(),
                             dtype=np.uint8)
        block = np.empty((masks.size, head.size + n - 1 + tail.size),
                         dtype=np.uint8)
        block[:, :head.size] = head
        block[:, head.size:head.size + n - 1] = table[masks]
        block[:, head.size + n - 1:] = tail
        text = block.tobytes().decode("ascii")
        yield text if player != players[-1] else text[:-2] + "\n"


def result_lines(result: SelfInterestResult) -> Iterator[str]:
    """The canonical result document in newline-terminated pieces, the
    binding rows one player at a time, so a large binding list can be
    written without holding the whole text."""
    yield "{\n"
    if result.binding_mask.any():
        yield '  "binding": [\n'
        yield from _binding_chunks(result.binding_mask)
        yield "  ],\n"
    else:
        yield '  "binding": [],\n'
    yield _rows('  "excess": [', result.excess.slack.reshape(1, -1), False)
    yield f'  "level": {_num(result.level)},\n'
    yield '  "matrix": [\n'
    yield _rows("    [", result.matrix.entries, True)
    yield "  ],\n"
    yield f'  "mode": "{result.mode.value}",\n'
    yield '  "status": "optimal",\n'
    yield f'  "target": "{result.target}"\n'
    yield "}\n"


def dumps_result(result: SelfInterestResult) -> str:
    return "".join(result_lines(result))
