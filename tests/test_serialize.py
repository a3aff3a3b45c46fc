import json
import random

import numpy as np
import pytest

from reward_transfer import (ActionProfile, BaseGame, BaseGameParams,
                             GraphKind, NormalFormGame,
                             SelfInterestResult, SolveMode, TransferMatrix,
                             build_graphical, exchange_matrix, excess_report,
                             general_level, general_level_symmetric_fastpath,
                             symmetrical_level)
from reward_transfer.game import coplayer_string, insert_bit
from reward_transfer.serialize import (FormatError, _table_by_item,
                                       dumps_game, dumps_matrix,
                                       dumps_result, extract_matrix,
                                       parse_game, parse_matrix, result_lines)

PD_JSON = (
    '{\n'
    '  "payoffs": {\n'
    '    "CC": [3, 3],\n'
    '    "CD": [0, 4],\n'
    '    "DC": [4, 0],\n'
    '    "DD": [1, 1]\n'
    '  },\n'
    '  "players": 2\n'
    '}\n'
)

EXCHANGE_JSON = (
    '[\n'
    '  [0.75, 0.25],\n'
    '  [0.25, 0.75]\n'
    ']\n'
)


@pytest.fixture
def pd_json_game(pd_game):
    return pd_game


class TestGameFormat:
    def test_golden_bytes(self, pd_game):
        assert dumps_game(pd_game) == PD_JSON

    def test_round_trip(self, pd_game):
        again = parse_game(dumps_game(pd_game))
        assert again == pd_game

    def test_round_trip_is_byte_stable(self, arbitrary_game):
        text = dumps_game(arbitrary_game)
        assert dumps_game(parse_game(text)) == text

    def test_awkward_floats_survive(self):
        table = np.full((8, 3), 1.0 / 3.0)
        table[0] = [0.1, 1e-6, 1e300]
        game = NormalFormGame(table)
        again = parse_game(dumps_game(game))
        assert np.array_equal(again.payoffs, game.payoffs)

    def test_negative_zero_is_normalized(self):
        game = NormalFormGame([[-0.0, 0.0]] * 4)
        assert '"CC": [0, 0]' in dumps_game(game)

    def test_parse_rejects_missing_profile(self):
        broken = json.loads(PD_JSON)
        del broken["payoffs"]["DC"]
        with pytest.raises(FormatError, match="DC"):
            parse_game(json.dumps(broken))

    def test_parse_rejects_unknown_key(self):
        broken = json.loads(PD_JSON)
        broken["novel"] = 1
        with pytest.raises(FormatError, match="novel"):
            parse_game(json.dumps(broken))

    def test_parse_rejects_bad_profile_key(self):
        broken = json.loads(PD_JSON)
        broken["payoffs"]["CX"] = [0, 0]
        with pytest.raises(FormatError, match="CX"):
            parse_game(json.dumps(broken))

    def test_parse_rejects_wrong_row_length(self):
        broken = json.loads(PD_JSON)
        broken["payoffs"]["CC"] = [3]
        with pytest.raises(FormatError, match="CC"):
            parse_game(json.dumps(broken))

    def test_parse_rejects_missing_players(self):
        broken = json.loads(PD_JSON)
        del broken["players"]
        with pytest.raises(FormatError, match="players"):
            parse_game(json.dumps(broken))

    def test_parse_rejects_player_count_range(self):
        with pytest.raises(FormatError, match="players"):
            parse_game('{"payoffs": {}, "players": 1}')
        with pytest.raises(FormatError, match="players"):
            parse_game('{"payoffs": {}, "players": 21}')

    def test_parse_rejects_non_json(self):
        with pytest.raises(FormatError):
            parse_game("not json at all{")

    def test_parse_rejects_non_object(self):
        with pytest.raises(FormatError, match="object"):
            parse_game("[1, 2, 3]")

    def test_parse_rejects_nonfinite(self):
        broken = json.loads(PD_JSON)
        broken["payoffs"]["CC"] = [1e999, 0]
        with pytest.raises(FormatError):
            parse_game(json.dumps(broken))

    def test_parse_rejects_huge_integer(self):
        text = PD_JSON.replace("[1, 1]", "[1, 1" + "0" * 400 + "]")
        with pytest.raises(FormatError, match=r"'DD'\[1\] is an integer "
                                              "beyond the float range"):
            parse_game(text)

    def test_parse_rejects_repeated_profile_key(self):
        text = PD_JSON.replace('"DD": [1, 1]', '"DD": [1, 1],\n    "CC": [9, 9]')
        with pytest.raises(FormatError, match="duplicate key 'CC'"):
            parse_game(text)

    def test_parse_rejects_repeated_players_key(self):
        text = PD_JSON.replace('"players": 2', '"players": 2, "players": 3')
        with pytest.raises(FormatError, match="duplicate key 'players'"):
            parse_game(text)

    def test_matrix_rejects_repeated_key_in_result(self):
        text = '{"matrix": [[1, 0], [0, 1]], "matrix": [[0, 1], [1, 0]]}'
        with pytest.raises(FormatError, match="duplicate key 'matrix'"):
            extract_matrix(text)

    def test_shuffled_keys_parse_to_the_same_table(self):
        game = build_graphical(GraphKind.CIRCULAR,
                               BaseGameParams(BaseGame.CHICKEN, 3.1, 0.9), 6)
        doc = json.loads(dumps_game(game))
        items = list(doc["payoffs"].items())
        random.Random(7).shuffle(items)
        doc["payoffs"] = dict(items)
        assert np.array_equal(parse_game(json.dumps(doc)).payoffs,
                              game.payoffs)

    def test_array_reading_matches_item_reading(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 7):
            table = rng.uniform(-1e3, 1e3, size=(1 << n, n))
            table[::3] = np.round(table[::3])
            doc = json.loads(dumps_game(NormalFormGame(table)))
            # integers both small and past 2**53 take the array path too
            doc["payoffs"]["C" * n][0] = 2**60 + 1
            parsed = parse_game(json.dumps(doc))
            assert np.array_equal(parsed.payoffs,
                                  _table_by_item(doc["payoffs"], n))


def _pd_with(change):
    """PD_JSON's text after ``change`` edits its payoffs object."""
    doc = json.loads(PD_JSON)
    change(doc["payoffs"])
    return json.dumps(doc)


def _rename(old, new):
    def change(payoffs):
        payoffs[new] = payoffs.pop(old)
    return change


def _set(key, row):
    def change(payoffs):
        payoffs[key] = row
    return change


# every reason the array reading gives way to the per-item one, with the
# message the per-item reading has always given
MALFORMED_PAYOFFS = [
    (_set("CD", [True, 4]), "payoff 'CD'[0] must be a number, got True"),
    (_set("DC", [4, "0"]), "payoff 'DC'[1] must be a number, got '0'"),
    (_set("CC", [[3], 3]), "payoff 'CC'[0] must be a number, got [3]"),
    (_set("CC", None), "payoffs for 'CC' must be a list of 2 numbers"),
    (_set("DD", [1, 1, 1]), "payoffs for 'DD' must be a list of 2 numbers"),
    (_rename("CD", "CDC"),
     "profile key 'CDC' is not a 2-character C/D string"),
    (_set("CCC", [0, 0]), "profile key 'CCC' is not a 2-character C/D string"),
    (_rename("DC", "DX"), "profile key 'DX' is not a 2-character C/D string"),
    (_rename("DC", "dc"), "profile key 'dc' is not a 2-character C/D string"),
    (_rename("DC", "D\u00c7"),
     "profile key 'D\u00c7' is not a 2-character C/D string"),
    (lambda payoffs: payoffs.pop("DC"), "missing profile 'DC' in payoffs"),
    (lambda payoffs: payoffs.clear(), "missing profile 'CC' in payoffs"),
    (_set("CD", [float("nan"), 4]), "payoff 'CD'[0] must be finite, got nan"),
    (_set("DD", [1, float("inf")]), "payoff 'DD'[1] must be finite, got inf"),
    (_set("CC", [3, 10**400]),
     "payoff 'CC'[1] is an integer beyond the float range"),
]


@pytest.mark.parametrize("change, message", MALFORMED_PAYOFFS)
def test_malformed_payoffs_keep_their_message(change, message):
    with pytest.raises(FormatError) as caught:
        parse_game(_pd_with(change))
    assert str(caught.value) == message


def test_first_malformed_entry_in_document_order_is_named():
    doc = json.loads(PD_JSON)
    doc["payoffs"]["DC"] = [4, "x"]
    doc["payoffs"]["DD"] = [1, None]
    with pytest.raises(FormatError, match=r"'DC'\[1\]"):
        parse_game(json.dumps(doc))


class TestMatrixFormat:
    def test_golden_bytes(self):
        m = TransferMatrix([[0.75, 0.25], [0.25, 0.75]])
        assert dumps_matrix(m) == EXCHANGE_JSON

    def test_round_trip(self):
        m = TransferMatrix([[0.5, 0.2, 0.3], [0.1, 0.9, 0.0],
                            [1 / 3, 1 / 3, 1 / 3]])
        again = parse_matrix(dumps_matrix(m))
        assert np.allclose(again.entries, m.entries, atol=0)

    def test_byte_stable(self):
        text = dumps_matrix(TransferMatrix([[1 / 3, 2 / 3], [0.1, 0.9]]))
        assert dumps_matrix(parse_matrix(text)) == text

    def test_parse_rejects_ragged(self):
        with pytest.raises(FormatError):
            parse_matrix("[[0.5, 0.5], [1.0]]")

    def test_parse_rejects_bad_shares(self):
        with pytest.raises(FormatError, match="row"):
            parse_matrix("[[0.9, 0.9], [0.5, 0.5]]")
        with pytest.raises(FormatError):
            parse_matrix("[[1.5, -0.5], [0.5, 0.5]]")

    def test_parse_rejects_scalars(self):
        with pytest.raises(FormatError):
            parse_matrix("0.5")
        with pytest.raises(FormatError):
            parse_matrix("[0.5, 0.5]")

    def test_parse_rejects_huge_integer(self):
        with pytest.raises(FormatError, match=r"matrix\[2\]\[1\] is an "
                                              "integer beyond the float range"):
            parse_matrix("[[1, 0], [1" + "0" * 400 + ", 0]]")


class TestResultFormat:
    def test_golden_bytes(self, pd_game):
        result = general_level(pd_game, refine_diagonal=True)
        text = dumps_result(result)
        assert text == (
            '{\n'
            '  "binding": [\n'
            '    {"coplayers": "C", "player": 1},\n'
            '    {"coplayers": "D", "player": 1},\n'
            '    {"coplayers": "C", "player": 2},\n'
            '    {"coplayers": "D", "player": 2}\n'
            '  ],\n'
            '  "excess": [0, 0],\n'
            '  "level": 0.75,\n'
            '  "matrix": [\n'
            '    [0.75, 0.25],\n'
            '    [0.25, 0.75]\n'
            '  ],\n'
            '  "mode": "general",\n'
            '  "status": "optimal",\n'
            '  "target": "CC"\n'
            '}\n'
        )

    def test_structure(self, arbitrary_game):
        result = symmetrical_level(arbitrary_game)
        doc = json.loads(dumps_result(result))
        assert set(doc) == {"binding", "excess", "level", "matrix", "mode",
                            "status", "target"}
        assert doc["mode"] == "symmetric"
        assert doc["status"] == "optimal"
        assert doc["target"] == "CCC"
        assert len(doc["matrix"]) == 3
        # players are 1-based in the serialized form
        assert all(1 <= entry["player"] <= 3 for entry in doc["binding"])
        assert all(len(entry["coplayers"]) == 2 for entry in doc["binding"])

    def test_result_matrix_parses_back(self, arbitrary_game):
        result = general_level(arbitrary_game)
        doc = dumps_result(result)
        m = parse_matrix(json.dumps(json.loads(doc)["matrix"]))
        assert np.allclose(m.entries, result.matrix.entries, atol=1e-15)


def reference_result_text(result):
    """The result document written the plain way: one f-string and one
    coplayer_string call per binding row."""
    n = result.target.n
    lines = ["{"]
    if result.binding:
        lines.append('  "binding": [')
        last = len(result.binding) - 1
        for pos, (player, mask) in enumerate(result.binding):
            comma = "," if pos < last else ""
            coplayers = coplayer_string(mask, n, player)
            lines.append(f'    {{"coplayers": "{coplayers}", '
                         f'"player": {player + 1}}}{comma}')
        lines.append("  ],")
    else:
        lines.append('  "binding": [],')
    text = dumps_result(result)
    return "\n".join(lines) + text[text.index("\n  \"excess\""):]


def result_with_mask(mask):
    n = mask.shape[0]
    matrix = exchange_matrix(n, 0.5)
    return SelfInterestResult(level=0.5, matrix=matrix,
                              target=ActionProfile.all_cooperate(n),
                              binding_mask=mask, excess=excess_report(matrix),
                              mode=SolveMode.GENERAL)


class TestResultLines:
    @pytest.mark.parametrize("n", [2, 3, 10, 11])
    @pytest.mark.parametrize("fill", ["empty", "single", "last", "all",
                                      "random"])
    def test_matches_reference_writer(self, n, fill):
        shape = (n, 1 << (n - 1))
        mask = np.zeros(shape, dtype=bool)
        if fill == "single":
            mask[n // 2, shape[1] // 3] = True
        elif fill == "last":
            mask[-1, -1] = True
        elif fill == "all":
            mask[:] = True
        elif fill == "random":
            mask = np.random.default_rng(n).uniform(size=shape) < 0.3
            mask[1] = False   # a player with no binding row
        result = result_with_mask(mask)
        text = "".join(result_lines(result))
        assert text == reference_result_text(result)
        json.loads(text)

    def test_one_piece_per_binding_player(self):
        mask = np.zeros((4, 8), dtype=bool)
        mask[0, :3] = mask[2, 5] = True
        pieces = list(result_lines(result_with_mask(mask)))
        assert pieces[2] == ('    {"coplayers": "CCC", "player": 1},\n'
                             '    {"coplayers": "DCC", "player": 1},\n'
                             '    {"coplayers": "CDC", "player": 1},\n')
        assert pieces[3] == '    {"coplayers": "DCD", "player": 3}\n'
        assert pieces[4] == "  ],\n"


def brute_force_binding(game, result, tolerance):
    """(player, mask) pairs, player by player and masks ascending, of the
    deviations whose gain after transfers is within ``tolerance`` of 0,
    one profile pair at a time."""
    n = game.n
    rewards = game.payoffs @ result.matrix.entries
    pairs = []
    for player in range(n):
        action = result.target.action(player)
        for mask in range(1 << (n - 1)):
            keep = insert_bit(mask, player, action)
            leave = insert_bit(mask, player, 1 - action)
            gain = rewards[leave, player] - rewards[keep, player]
            if abs(gain) <= tolerance:
                pairs.append((player, mask))
    return tuple(pairs)


class TestBindingMask:
    def test_general_and_fastpath(self):
        game = build_graphical(GraphKind.CYCLICAL,
                               BaseGameParams(BaseGame.CHICKEN, 3.0, 1.0), 5)
        for result in (general_level(game),
                       general_level_symmetric_fastpath(game)):
            expected = brute_force_binding(game, result, 1e-7)
            assert expected
            assert result.binding == expected
            assert all(type(p) is int and type(m) is int
                       for p, m in result.binding)

    def test_general_with_target(self, arbitrary_game):
        result = general_level(arbitrary_game, ActionProfile.from_string("CCC"))
        assert result.binding == brute_force_binding(arbitrary_game, result,
                                                     1e-7)

    def test_symmetric(self, arbitrary_game):
        result = symmetrical_level(arbitrary_game)
        mask = result.binding_mask
        assert mask.shape == (3, 4) and mask.dtype == bool
        assert result.binding == tuple(
            (i, m) for i in range(3) for m in range(4) if mask[i, m])
        assert result.binding

    def test_mask_is_read_only_and_copied(self):
        mask = np.ones((2, 2), dtype=bool)
        result = result_with_mask(mask)
        mask[0, 0] = False
        assert result.binding == ((0, 0), (0, 1), (1, 0), (1, 1))
        with pytest.raises(ValueError):
            result.binding_mask[0, 0] = False


class TestExtractMatrix:
    def test_bare_matrix(self):
        m, target = extract_matrix(EXCHANGE_JSON)
        assert target is None
        assert np.allclose(m.entries, [[0.75, 0.25], [0.25, 0.75]], atol=0)

    def test_result_object(self, pd_game):
        result = general_level(pd_game, refine_diagonal=True)
        m, target = extract_matrix(dumps_result(result))
        assert target == "CC"
        assert np.allclose(m.entries, result.matrix.entries, atol=0)

    def test_rejects_objects_without_matrix(self):
        with pytest.raises(FormatError, match="matrix"):
            extract_matrix('{"level": 0.5}')

    def test_rejects_garbage(self):
        with pytest.raises(FormatError):
            extract_matrix("{{{{")
