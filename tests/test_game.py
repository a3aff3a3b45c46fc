import itertools
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reward_transfer import game as game_module, levels
from reward_transfer.game import (MUTUAL_CONDITION, TEMPTATION_CONDITION,
                                  _is_social_optimum,
                                  WELFARE_CONDITION, ActionProfile,
                                  ConditionWitness, DilemmaKind, NormalFormGame,
                                  check_dominance, classify_dilemma,
                                  coplayer_string, deviation_gains,
                                  deviation_pairs,
                                  drop_bit, insert_bit, pure_nash_equilibria,
                                  social_optima, transferred_payoffs)
from reward_transfer import (BaseGame, BaseGameParams, FunctionalParams,
                             GraphKind, TransferMatrix, apply_transfers,
                             build_functional, build_graphical, dumps_game,
                             NotResolvableError, parse_game,
                             scaled_prisoners_dilemma, symmetrical_level,
                             too_many_cooks, verify_resolution)


class TestActionProfile:
    def test_string_round_trip(self):
        for text, bits in [("CC", 0), ("DC", 1), ("CD", 2), ("DD", 3),
                           ("DCC", 1), ("CDD", 6), ("CCCCD", 16)]:
            profile = ActionProfile.from_string(text)
            assert profile.bits == bits
            assert str(profile) == text

    def test_from_actions(self):
        profile = ActionProfile.from_actions([1, 0, 1])
        assert profile.bits == 0b101
        assert profile.actions() == (1, 0, 1)
        assert profile.action(0) == 1
        assert profile.action(1) == 0

    def test_flip(self):
        profile = ActionProfile.from_string("CDC")
        assert str(profile.flip(0)) == "DDC"
        assert str(profile.flip(1)) == "CCC"
        assert profile.flip(1).flip(1) == profile

    def test_all_cooperate_all_defect(self):
        assert str(ActionProfile.all_cooperate(4)) == "CCCC"
        assert str(ActionProfile.all_defect(4)) == "DDDD"

    def test_coplayers(self):
        profile = ActionProfile.from_string("DCD")
        assert profile.coplayers(0) == 0b10  # CD read over players 2, 3
        assert profile.coplayers(1) == 0b11
        assert profile.coplayers(2) == 0b01

    def test_validation(self):
        with pytest.raises(ValueError):
            ActionProfile(4, 2)
        with pytest.raises(ValueError):
            ActionProfile(-1, 2)
        with pytest.raises(ValueError):
            ActionProfile(0, 0)
        with pytest.raises(ValueError):
            ActionProfile.from_string("CX")
        with pytest.raises(ValueError):
            ActionProfile.from_actions([0, 2])
        with pytest.raises(ValueError):
            ActionProfile.from_string("CCC").action(3)

    @given(st.integers(min_value=1, max_value=16), st.data())
    def test_bits_round_trip(self, n, data):
        bits = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        profile = ActionProfile(bits, n)
        assert ActionProfile.from_string(str(profile)) == profile
        assert ActionProfile.from_actions(profile.actions()).bits == bits

    @given(st.integers(min_value=1, max_value=12), st.data())
    def test_insert_drop_inverse(self, n, data):
        player = data.draw(st.integers(min_value=0, max_value=n - 1))
        mask = data.draw(st.integers(min_value=0, max_value=(1 << (n - 1)) - 1))
        action = data.draw(st.integers(min_value=0, max_value=1))
        bits = insert_bit(mask, player, action)
        assert (bits >> player) & 1 == action
        assert drop_bit(bits, player) == mask


def test_coplayer_string():
    assert coplayer_string(0b10, 3, 0) == "CD"
    assert coplayer_string(0b01, 3, 2) == "DC"
    with pytest.raises(ValueError):
        coplayer_string(4, 3, 0)


def test_deviation_indices_structure():
    for n in range(2, 6):
        for player in range(n):
            rows_c, rows_d = (rows.ravel() for rows in deviation_pairs(
                np.arange(1 << n), ActionProfile.all_cooperate(n), player))
            assert rows_c.shape == rows_d.shape == (1 << (n - 1),)
            for mask in range(1 << (n - 1)):
                assert rows_d[mask] == rows_c[mask] | (1 << player)
                assert (rows_c[mask] >> player) & 1 == 0
                assert drop_bit(int(rows_c[mask]), player) == mask


@pytest.mark.parametrize("n", [2, 5, 9, 10, 11, 12])
def test_deviation_gains_are_the_indexed_pairs(n):
    # players 0-2 pair their profiles in runs of 1-4 values and, from
    # n = 9-11 on, are passed over run position by run position; each
    # entry is still table[leave, i] - table[keep, i], bit for bit
    rng = np.random.default_rng(n)
    table = np.asfortranarray(rng.normal(size=(1 << n, n)))
    target = ActionProfile(int(rng.integers(1 << n)), n)
    gains = deviation_gains(table, target)
    masks = np.arange(1 << (n - 1))
    for i in range(n):
        keep = insert_bit(masks, i, target.action(i))
        leave = keep ^ (1 << i)
        expected = table[leave, i] - table[keep, i]
        assert gains[i].tobytes() == expected.tobytes(), i


def _reassembled(table, target, entries=None):
    """The pieces of ``_gain_blocks`` written into one (n, 2**(n-1))
    array, each entry exactly once."""
    n = target.n
    whole = np.full((n, 1 << (n - 1)), np.nan)
    written = np.zeros(whole.shape, dtype=int)
    for players, masks, gains in game_module._gain_blocks(table, target,
                                                          entries):
        whole[players, masks] = gains
        written[players, masks] += 1
    assert (written == 1).all()
    return whole


def _contracts(rng, n):
    """A dense conserving contract, a sparse one (each row keeps its
    diagonal and a few other shares) and one that burns reward."""
    dense = rng.uniform(size=(n, n))
    dense /= dense.sum(axis=1, keepdims=True)
    sparse = np.where(rng.uniform(size=(n, n)) < 2.0 / n,
                      rng.uniform(size=(n, n)), 0.0)
    np.fill_diagonal(sparse, rng.uniform(0.2, 1.0, size=n))
    sparse /= sparse.sum(axis=1, keepdims=True)
    burning = dense * rng.uniform(0.2, 0.9, size=(n, 1))
    return {"dense": dense, "sparse": sparse, "burning": burning}


class TestGainBlocks:
    """The gain passes read a table's whole player columns, or its
    product with a contract a block of 2**13 profiles at a time; put
    back together, the pieces are the whole arrays bit for bit."""

    @pytest.mark.parametrize("n", range(2, 17))
    def test_pieces_are_the_whole_gains_bit_for_bit(self, n):
        rng = np.random.default_rng(30 + n)
        table = np.asfortranarray(
            rng.normal(size=(1 << n, n)) * rng.uniform(0.1, 50.0, size=n))
        for _ in range(2):
            target = ActionProfile(int(rng.integers(1 << n)), n)
            expected = deviation_gains(table, target)
            assert _reassembled(table, target).tobytes() == expected.tobytes()
            # the welfare column broadcast over the players, as the
            # classification and the even split read it
            welfare = np.broadcast_to(table.sum(axis=1)[:, None], table.shape)
            expected = deviation_gains(welfare, target)
            assert _reassembled(welfare, target).tobytes() == expected.tobytes()
            for kind, entries in _contracts(rng, n).items():
                expected = deviation_gains(transferred_payoffs(table, entries),
                                           target)
                got = _reassembled(table, target, entries)
                assert got.tobytes() == expected.tobytes(), kind

    @pytest.mark.parametrize("n, sizes", [
        (2, [2]), (13, [13]), (14, [6, 6, 2]), (15, [3] * 5), (16, [1] * 16)])
    def test_without_a_contract_pieces_are_whole_columns(self, n, sizes):
        # as many players to a piece as fit in one block's gains
        table = np.zeros((1 << n, n), order="F")
        target = ActionProfile.all_cooperate(n)
        pieces = [(players, masks, gains.shape) for players, masks, gains in
                  game_module._gain_blocks(table, target)]
        assert [p.stop - p.start for p, _, _ in pieces] == sizes
        assert [p.start for p, _, _ in pieces] == np.cumsum([0] + sizes[:-1]).tolist()
        for players, masks, shape in pieces:
            assert masks == slice(0, 1 << (n - 1))
            assert shape == (players.stop - players.start, 1 << (n - 1))
            assert shape[0] * shape[1] <= 13 << 12

    @pytest.mark.parametrize("n, pieces", [(2, 1), (13, 1), (14, 3), (16, 11)])
    def test_a_game_of_up_to_13_players_is_one_piece(self, n, pieces):
        # past 13 players: one piece per block of the low-bit players,
        # then one per top-bit player
        table = np.zeros((1 << n, n), order="F")
        target = ActionProfile.all_cooperate(n)
        shapes = [gains.shape for _, _, gains in
                  game_module._gain_blocks(table, target, np.eye(n))]
        assert len(shapes) == pieces
        low = min(n, 13)
        assert shapes[0] == (low, 1 << (low - 1))
        assert shapes[pieces - 1] == (
            (n, 1 << (n - 1)) if n <= 13 else (1, 1 << (n - 1)))

    @pytest.mark.parametrize("n, profile, column", [
        (3, 5, 0), (14, 5, 0), (14, 12345, 0), (14, 12345, 13)])
    def test_an_overflowing_product_raises_verify_resolutions_error(
            self, n, profile, column):
        # at one profile the players earn +-1e308 by turns, so its
        # welfare stays finite, and ``column`` collects every positive
        # one, which sums past the largest double; profile 12345 lies in
        # the second block of a 14-player table, and player 14 is a
        # top-bit player, whose gains come last
        table = np.zeros((1 << n, n))
        table[profile] = 1e308 * (-1.0) ** np.arange(n)
        game = NormalFormGame(table)
        assert np.isfinite(game._welfare_column).all()
        shares = np.zeros((n, n))
        shares[::2, column] = 1.0
        matrix = TransferMatrix(shares)
        target = ActionProfile.all_cooperate(n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match="^payoffs must be finite$"):
                verify_resolution(game, matrix, target)
            with pytest.raises(ValueError, match="^payoffs must be finite$"):
                apply_transfers(game, matrix)


def _cut_and_reordered(order):
    """A stand-in for ``_gain_blocks`` whose pieces without a contract
    come cut to one player and half of their masks each, copied, in the
    order ``order(count)`` gives them.  It depends only on the count, so
    the two passes the even split zips arrive alike."""
    whole = game_module._gain_blocks

    def cut(table, target, entries=None):
        if entries is not None:
            return whole(table, target, entries)
        pieces = []
        for players, masks, gains in whole(table, target):
            half = max(1, (masks.stop - masks.start) // 2)
            for row, player in enumerate(range(players.start, players.stop)):
                for first in range(0, masks.stop - masks.start, half):
                    pieces.append((
                        slice(player, player + 1),
                        slice(masks.start + first, masks.start + first + half),
                        gains[row:row + 1, first:first + half].copy()))
        return iter([pieces[k] for k in order(len(pieces))])
    return cut


def _even_split_outcome(game):
    try:
        result = symmetrical_level(game, force=True)
    except NotResolvableError as exc:
        return str(exc)
    return result.level, result.binding_mask.tobytes()


@pytest.mark.filterwarnings("ignore")
class TestPieceOrder:
    """Classification, the even split and the dominance check give the
    same answers whichever order, and in whatever cuts, the pieces of a
    pass without a contract arrive."""

    ORDERS = {
        "reversed": lambda count: range(count - 1, -1, -1),
        "shuffled": lambda count: np.random.default_rng(count).permutation(count),
    }

    @pytest.mark.parametrize("order", sorted(ORDERS))
    @pytest.mark.parametrize("n", [2, 5, 14])
    def test_answers_do_not_depend_on_the_order(self, n, order, monkeypatch):
        rng = np.random.default_rng(800 + n)
        tables = [
            build_graphical(GraphKind.CIRCULAR,
                            BaseGameParams(BaseGame.PRISONERS_DILEMMA, 3.0, 1.0),
                            n).payoffs,
            build_graphical(GraphKind.SYMMETRICAL,
                            BaseGameParams(BaseGame.CHICKEN, 3.05, 0.98),
                            n).payoffs,
            rng.integers(0, 3, size=(1 << n, n)).astype(float),
        ]
        targets = [ActionProfile.all_cooperate(n),
                   ActionProfile(int(rng.integers(1 << n)), n)]

        def answers():
            found = []
            for table in tables:
                found.append(game_module._classify(NormalFormGame(table), 1e-9))
                found.append(_even_split_outcome(NormalFormGame(table)))
                found += [check_dominance(NormalFormGame(table), target)
                          for target in targets]
            return found

        expected = answers()
        cut = _cut_and_reordered(self.ORDERS[order])
        monkeypatch.setattr(game_module, "_gain_blocks", cut)
        monkeypatch.setattr(levels, "_gain_blocks", cut)
        assert answers() == expected
        # the verdicts are not all alike
        kinds = {answer.kind for answer in expected[::4]}
        assert DilemmaKind.NOT_DILEMMA in kinds and len(kinds) > 1


class TestNormalFormGame:
    def test_validation(self):
        with pytest.raises(ValueError):
            NormalFormGame([[1.0, 2.0]])  # 1 profile for 2 players
        with pytest.raises(ValueError):
            NormalFormGame([[1.0], [2.0]])  # single player
        with pytest.raises(ValueError):
            NormalFormGame(np.full((4, 2), np.nan))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_one_value_that_is_not_finite_is_refused(self, value):
        # the check reads each column's max and min, which NaN and the
        # infinities reach wherever they sit
        table = np.random.default_rng(1).normal(size=(32, 5))
        for profile, player in [(0, 0), (17, 2), (31, 4)]:
            spoiled = table.copy()
            spoiled[profile, player] = value
            with pytest.raises(ValueError, match="^payoffs must be finite$"):
                NormalFormGame(spoiled)

    def test_players_have_no_labels(self, pd_game):
        with pytest.raises(TypeError):
            NormalFormGame(np.zeros((4, 2)), labels=["a", "b"])
        assert not hasattr(pd_game, "labels")

    def test_table_is_frozen(self, pd_game):
        with pytest.raises(ValueError):
            pd_game.payoffs[0, 0] = 99.0

    def test_rewards(self, arbitrary_game):
        profile = ActionProfile.from_string("DCC")
        assert arbitrary_game.rewards(profile).tolist() == [8, 4, 8]
        assert arbitrary_game.reward(profile, 2) == 8
        assert arbitrary_game.welfare(ActionProfile.from_string("CCD")) == 19

    def test_profiles_enumeration(self, pd_game):
        names = [str(p) for p in pd_game.profiles()]
        assert names == ["CC", "DC", "CD", "DD"]


def _row_major_graphical(graph, params, n):
    """The graphical payoff formula on a row-major (profiles, players)
    action table, as the builder evaluated it before it went
    player-major."""
    from reward_transfer.dilemmas import _graph_weights
    w = _graph_weights(graph, n)
    actions = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
    deg = w.sum(axis=1)
    facing = actions @ w.T
    table = actions * deg
    if params.kind is not BaseGame.PRISONERS_DILEMMA:
        table += facing * (1.0 - 2.0 * actions)
        if params.kind is BaseGame.STAG_HUNT:
            table = deg - table
    return params.d * table + params.c * (deg - facing)


def _row_major_functional(n, c):
    defect = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
    cooperators = n - defect.sum(axis=1)
    pot = -(c / n) * cooperators ** 2 + 2.0 * c * cooperators
    weights = (1.0 + defect) * np.arange(1, n + 1)
    return weights / weights.sum(axis=1)[:, None] * pot[:, None]


class TestLayout:
    """Every way of making a game stores its payoffs column-major (each
    player's rewards contiguous), read-only, with the values it was
    given, in an array of its own."""

    @staticmethod
    def assert_layout(game, expected):
        table = game.payoffs
        assert table.flags.f_contiguous
        assert not table.flags.writeable
        assert table.dtype == np.float64
        assert table.shape == np.shape(expected)
        assert np.array_equal(table, expected)

    def test_list_input(self):
        rows = [[3.0, 3.0], [4.0, 0.0], [0.0, 4.0], [1.0, 1.0]]
        self.assert_layout(NormalFormGame(rows), rows)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_array_input_is_copied(self, order):
        rng = np.random.default_rng(3)
        given = np.array(rng.normal(size=(32, 5)), order=order)
        kept = given.copy()
        game = NormalFormGame(given)
        self.assert_layout(game, kept)
        assert not np.shares_memory(game.payoffs, given)
        given[:] = 0.0
        assert np.array_equal(game.payoffs, kept)

    def test_transposed_input_is_copied(self):
        # a player-major array's transpose is already column-major
        rng = np.random.default_rng(4)
        player_major = rng.normal(size=(4, 16))
        game = NormalFormGame(player_major.T)
        self.assert_layout(game, player_major.T)
        assert not np.shares_memory(game.payoffs, player_major)

    def test_parse_game(self):
        rng = np.random.default_rng(5)
        table = rng.normal(size=(64, 6))
        self.assert_layout(parse_game(dumps_game(NormalFormGame(table))), table)

    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    def test_graphical_builder(self, n):
        for graph in GraphKind:
            for kind in BaseGame:
                params = BaseGameParams(kind, 3.1, 0.9)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    game = build_graphical(graph, params, n)
                self.assert_layout(
                    game, _row_major_graphical(graph, params, n))

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_functional_builder(self, n):
        for c in (1.0, 2.93):
            self.assert_layout(build_functional(FunctionalParams(n, c)),
                               _row_major_functional(n, c))

    def test_apply_transfers(self, arbitrary_game):
        t = np.array([[0.5, 0.25, 0.25], [0.2, 0.6, 0.2], [0.0, 0.3, 0.7]])
        moved = apply_transfers(arbitrary_game, TransferMatrix(t))
        expected = arbitrary_game.payoffs @ t
        assert moved.payoffs.flags.f_contiguous
        assert not moved.payoffs.flags.writeable
        assert np.abs(moved.payoffs - expected).max() <= 1e-12

    def test_named_games(self):
        params = BaseGameParams(BaseGame.PRISONERS_DILEMMA, 3.0, 1.0)
        expected = _row_major_graphical(GraphKind.SYMMETRICAL, params, 3)
        expected[[0, -1]] -= 1.0
        self.assert_layout(too_many_cooks(), expected)
        self.assert_layout(scaled_prisoners_dilemma(1e-6),
                           [[9.0, 3.0], [12.0 - 1e-6, 0.0], [0.0, 4.0],
                            [3.0, 1.0]])


class TestClassify:
    def test_pd_strict(self, pd_game):
        result = classify_dilemma(pd_game)
        assert result.kind is DilemmaKind.STRICT
        assert result.is_dilemma
        assert result.witnesses == ()

    def test_chicken_partial(self, chicken_game):
        # defecting against a defector costs, so temptation is not universal
        assert classify_dilemma(chicken_game).kind is DilemmaKind.PARTIAL

    def test_staghunt_partial(self, staghunt_game):
        assert classify_dilemma(staghunt_game).kind is DilemmaKind.PARTIAL

    def test_arbitrary_partial(self, arbitrary_game):
        assert classify_dilemma(arbitrary_game).kind is DilemmaKind.PARTIAL

    def test_tmc_welfare_failure(self, tmc_game):
        result = classify_dilemma(tmc_game)
        assert result.kind is DilemmaKind.NOT_DILEMMA
        assert not result.is_dilemma
        # cooperating into a full-cooperation profile wastes welfare,
        # for every player, and only there
        found = {(w.condition, w.player, w.coplayers) for w in result.witnesses}
        assert found == {(WELFARE_CONDITION, i, 0) for i in range(3)}

    def test_scaled_pd_welfare_tie(self):
        result = classify_dilemma(scaled_prisoners_dilemma())
        assert result.kind is DilemmaKind.NOT_DILEMMA
        found = {(w.condition, w.player, w.coplayers) for w in result.witnesses}
        assert found == {(WELFARE_CONDITION, 0, 1)}

    def test_constant_game(self):
        result = classify_dilemma(NormalFormGame(np.ones((4, 2))))
        assert result.kind is DilemmaKind.NOT_DILEMMA
        conditions = {w.condition for w in result.witnesses}
        assert conditions == {WELFARE_CONDITION, TEMPTATION_CONDITION,
                              MUTUAL_CONDITION}

    def test_witness_description(self, tmc_game):
        witness = classify_dilemma(tmc_game).witnesses[0]
        text = witness.describe(3)
        assert "player 1" in text and "CC" in text

    def test_welfare_is_utilitarian(self, pd_game):
        # the sum of rewards is the only aggregate; a worst-off one
        # (under which the PD is no dilemma) cannot be passed in
        with pytest.raises(TypeError):
            classify_dilemma(pd_game, welfare=lambda r: float(min(r)))
        assert classify_dilemma(pd_game).kind is DilemmaKind.STRICT

    def test_tolerance_counts_near_ties(self, pd_game):
        # with a huge tolerance every strict gain collapses into a tie
        assert classify_dilemma(pd_game, tolerance=10.0).kind is \
            DilemmaKind.NOT_DILEMMA

    @settings(max_examples=60)
    @given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                    min_size=8, max_size=8),
           st.sampled_from([0.5, 2.0, 3.75]),
           st.integers(-3, 3))
    def test_affine_invariance(self, rows, a, b):
        # the conditions compare reward differences, so a positive
        # affine rescale never changes the verdict
        table = np.array(rows, dtype=float)
        game = NormalFormGame(table)
        scaled = NormalFormGame(a * table + b)
        assert classify_dilemma(game).kind is classify_dilemma(scaled).kind


def _per_player_welfare_witnesses(game, tolerance=1e-9):
    """The welfare witnesses as classify_dilemma found them one player
    at a time, from the welfare pairs of ``deviation_pairs``."""
    sw = game.payoffs.sum(axis=1)
    everyone_cooperates = ActionProfile.all_cooperate(game.n)
    witnesses = []
    for i in range(game.n):
        cooperate, defect = deviation_pairs(sw, everyone_cooperates, i)
        for mask in np.flatnonzero((cooperate - defect).ravel() <= tolerance):
            witnesses.append(ConditionWitness(WELFARE_CONDITION, i, int(mask)))
    return witnesses


class TestWelfareWitnessesInOnePass:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_equal_the_per_player_loop(self, n):
        rng = np.random.default_rng(700 + n)
        for draw in range(6):
            # small integers make exact welfare ties; a coarse tolerance
            # also counts near ties
            table = rng.integers(-3, 4, size=(1 << n, n)).astype(float)
            if draw % 2:
                table += rng.normal(scale=1e-3, size=table.shape)
            game = NormalFormGame(table)
            for tolerance in (0.0, 1e-9, 0.5):
                found = classify_dilemma(game, tolerance)
                assert found.kind is DilemmaKind.NOT_DILEMMA
                welfare = [w for w in found.witnesses
                           if w.condition == WELFARE_CONDITION]
                expected = _per_player_welfare_witnesses(game, tolerance)
                assert expected and welfare == expected
                # the welfare witnesses come first
                assert found.witnesses[:len(welfare)] == tuple(welfare)


class TestFactsOncePerGame:
    """A game's welfare column and its classification at each tolerance
    are computed on first use, never at construction, and kept."""

    def test_nothing_is_computed_at_construction(self, pd_game):
        game = NormalFormGame(pd_game.payoffs)
        assert game._classified == {}
        assert "_welfare_column" not in vars(game)
        # the reward scale alone is kept, from the finite check's extremes
        assert game._stakes == 1.0 + np.ptp(game.payoffs, axis=0).max()

    def test_repeated_classification_is_the_same_object(self, pd_game,
                                                        monkeypatch):
        computed = []
        classify = game_module._classify
        monkeypatch.setattr(game_module, "_classify",
                            lambda game, tolerance: computed.append(tolerance)
                            or classify(game, tolerance))
        first = classify_dilemma(pd_game)
        assert classify_dilemma(pd_game) is first
        assert classify_dilemma(pd_game, 1e-9) is first
        # another tolerance computes its own verdict, once
        coarse = classify_dilemma(pd_game, 10.0)
        assert coarse.kind is DilemmaKind.NOT_DILEMMA
        assert first.kind is DilemmaKind.STRICT
        assert classify_dilemma(pd_game, 10.0) is coarse
        assert computed == [1e-9, 10.0]
        # an equal game computes an equal verdict of its own
        assert classify_dilemma(NormalFormGame(pd_game.payoffs)) == first
        assert len(computed) == 3

    def test_welfare_column(self, arbitrary_game):
        column = arbitrary_game._welfare_column
        assert column is arbitrary_game._welfare_column
        assert np.array_equal(column, arbitrary_game.payoffs.sum(axis=1))
        assert not column.flags.writeable
        # the public per-profile welfare stays a method
        for profile in arbitrary_game.profiles():
            assert arbitrary_game.welfare(profile) == column[profile.bits]


class TestWitnessesOnDemand:
    """A non-dilemma keeps its failures compactly and builds the
    witnesses, in order, when they are read."""

    def test_constant_game_in_order(self):
        found = classify_dilemma(NormalFormGame(np.ones((8, 3))))
        expected = ([ConditionWitness(WELFARE_CONDITION, i, mask)
                     for i in range(3) for mask in range(4)]
                    + [ConditionWitness(TEMPTATION_CONDITION, i)
                       for i in range(3)]
                    + [ConditionWitness(MUTUAL_CONDITION, i)
                       for i in range(3)])
        assert found.witnesses == tuple(expected)
        assert found.witness_count == 18
        assert list(itertools.islice(found.iter_witnesses(), 5)) == \
            expected[:5]
        # built on each read, so nothing keeps the tuple alive
        assert found.witnesses is not found.witnesses

    def test_only_the_read_witnesses_are_built(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(ConditionWitness(*args))
            return built[-1]

        monkeypatch.setattr(game_module, "ConditionWitness", counted)
        found = classify_dilemma(NormalFormGame(np.ones((1 << 8, 8))))
        assert built == []
        assert found.witness_count == 8 * 128 + 8 + 8
        first = list(itertools.islice(found.iter_witnesses(), 3))
        assert built == first

    def test_dilemma_keeps_no_failures(self, pd_game, chicken_game):
        for game in (pd_game, chicken_game):
            found = classify_dilemma(game)
            assert found.welfare_fails == ()
            assert found.witness_count == 0 and found.witnesses == ()

    def test_failures_without_a_welfare_one(self, pd_game):
        # every welfare switch still pays under this tolerance, but no
        # defection tempts by more than it
        found = classify_dilemma(pd_game, 1.5)
        assert found.welfare_fails == ()
        assert found.witnesses == tuple(
            ConditionWitness(TEMPTATION_CONDITION, i) for i in range(2))


class TestDominance:
    def test_pd_all_defect_strict(self, pd_game):
        report = check_dominance(pd_game, ActionProfile.all_defect(2))
        assert report.strictly_dominant
        assert report.weakly_dominant
        assert report.violations == ()

    def test_pd_all_cooperate_fails(self, pd_game):
        report = check_dominance(pd_game, ActionProfile.all_cooperate(2))
        assert not report.weakly_dominant
        assert not report.strictly_dominant
        # both players tempted against both co-actions
        assert len(report.violations) == 4
        assert report.violations[0][2] == pytest.approx(1.0)

    def test_strict_implies_weak(self, strict_dilemma_factory):
        rng = np.random.default_rng(7)
        for _ in range(10):
            game = strict_dilemma_factory(rng, int(rng.integers(2, 5)))
            for target in (ActionProfile.all_defect(game.n),
                           ActionProfile.all_cooperate(game.n)):
                report = check_dominance(game, target)
                if report.strictly_dominant:
                    assert report.weakly_dominant

    def test_against_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 4))
            game = NormalFormGame(rng.integers(-4, 5, size=(1 << n, n)))
            target = ActionProfile(int(rng.integers(0, 1 << n)), n)
            report = check_dominance(game, target)
            weak = True
            strict = True
            for i in range(n):
                for bits in range(1 << n):
                    profile = ActionProfile(bits, n)
                    if profile.action(i) != target.action(i):
                        continue
                    other = profile.flip(i)
                    gain = game.reward(other, i) - game.reward(profile, i)
                    if gain > 1e-9:
                        weak = False
                    if gain >= -1e-9:
                        strict = False
            assert report.weakly_dominant == weak
            assert report.strictly_dominant == strict

    def test_size_mismatch(self, pd_game):
        with pytest.raises(ValueError):
            check_dominance(pd_game, ActionProfile.all_cooperate(3))

    @pytest.mark.parametrize("factor, weak, strict", [
        (2.0, False, False), (0.5, True, False),
        (-0.5, True, False), (-2.0, True, True)])
    def test_gains_are_read_against_the_scale(self, factor, weak, strict):
        # check_dominance and verify_resolution (through the identity,
        # whose product is exact) read the one rule the searches read
        game = _planted_gain_game(factor)
        target = ActionProfile.all_cooperate(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = [check_dominance(game, target),
                       verify_resolution(game, TransferMatrix.identity(2))]
        gain = game.payoffs[1, 0] - game.payoffs[0, 0]
        for report in reports:
            assert report.weakly_dominant is weak
            assert report.strictly_dominant is strict
            assert report.violations == (() if weak else ((0, 0, gain),))


def _planted_gain_game(factor, tolerance=1e-9):
    """A two-player game at x1e7 stakes whose largest deviation gain
    from CC, player 1 defecting against C, is ``factor`` * tolerance * s;
    every other gain is -1.  s is about 1e7, so the gain is far above
    the tolerance unscaled."""
    table = np.array([[1e7, 1e7], [1e7, 1.0], [1.0, 1e7 - 1.0], [0.0, 0.0]])
    table[1, 0] += factor * tolerance * NormalFormGame(table)._stakes
    game = NormalFormGame(table)
    gain = game.payoffs[1, 0] - game.payoffs[0, 0]
    assert gain == pytest.approx(factor * tolerance * game._stakes, rel=1e-6)
    return game


def test_a_range_that_overflows_leaves_the_tests_finite():
    # player 1's column spans -1e308 to 1e308, a range past the largest
    # float, though no one-bit change is; the scale is capped there, so
    # tolerance * s stays finite and both gains of 1e308 still violate
    table = np.zeros((8, 3))
    table[0, 0], table[7, 0] = -1e308, 1e308
    game = NormalFormGame(table)
    assert game._stakes == sys.float_info.max
    target = ActionProfile.all_cooperate(3)
    expected = ((0, 0, 1e308), (0, 3, 1e308))
    assert check_dominance(game, target).violations == expected
    with pytest.warns(UserWarning, match="not a social optimum"):
        report = verify_resolution(game, TransferMatrix.identity(3))
    assert report.violations == expected and not report.weakly_dominant


def test_pure_nash_pd(pd_game):
    assert pure_nash_equilibria(pd_game) == \
        frozenset({ActionProfile.from_string("DD")})


def test_pure_nash_chicken(chicken_game):
    names = {str(p) for p in pure_nash_equilibria(chicken_game)}
    assert names == {"DC", "CD"}


def test_pure_nash_constant():
    game = NormalFormGame(np.zeros((8, 3)))
    assert len(pure_nash_equilibria(game)) == 8


def _brute_force_nash(game, limit):
    return frozenset(
        profile for profile in game.profiles()
        if all(game.reward(profile.flip(i), i)
               - game.reward(profile, i) <= limit for i in range(game.n)))


@pytest.mark.parametrize("n", range(2, 9))
def test_pure_nash_against_brute_force(n):
    # small integer payoffs make ties, which count as stable; at x1e7
    # stakes a tie that player 1's defection breaks by 0.5 * tolerance * s
    # still counts as one
    rng = np.random.default_rng(n)
    moved_by_s = 0
    for _ in range(4):
        table = rng.integers(0, 3, size=(1 << n, n)).astype(float)
        game = NormalFormGame(table)
        assert pure_nash_equilibria(game) == _brute_force_nash(game, 1e-9)

        table *= 1e7
        defects = np.arange(1 << n) & 1 == 1
        table[defects, 0] += 0.5e-9 * NormalFormGame(table)._stakes
        game = NormalFormGame(table)
        limit = 1e-9 * game._stakes
        assert pure_nash_equilibria(game) == _brute_force_nash(game, limit)
        moved_by_s += (_brute_force_nash(game, limit)
                       != _brute_force_nash(game, 1e-9))
    assert moved_by_s


def test_social_optima_pd(pd_game):
    assert social_optima(pd_game) == \
        frozenset({ActionProfile.all_cooperate(2)})


def test_social_optima_tmc(tmc_game):
    names = {str(p) for p in social_optima(tmc_game)}
    assert names == {"DCC", "CDC", "CCD"}


def test_social_optima_tolerance(pd_game):
    # welfare(CC) = 6; DC and CD sit at 4, inside a tolerance of 2.5
    assert len(social_optima(pd_game, tolerance=2.5)) == 3


def test_social_optima_welfare_is_utilitarian(pd_game):
    with pytest.raises(TypeError):
        social_optima(pd_game, welfare=lambda r: -float(np.sum(r)))
    assert social_optima(pd_game) == frozenset({ActionProfile.all_cooperate(2)})


@pytest.mark.parametrize("tolerance", [0.0, 1e-9, 0.5, 2.5])
def test_is_social_optimum_agrees_with_the_set(tolerance):
    # integer payoffs in a narrow range tie often
    rng = np.random.default_rng(3)
    for n in range(2, 6):
        for _ in range(4):
            game = NormalFormGame(rng.integers(0, 3, size=(1 << n, n)))
            optima = social_optima(game, tolerance)
            for bits in range(1 << n):
                target = ActionProfile(bits, n)
                assert _is_social_optimum(game, target, tolerance) == \
                    (target in optima)


# a tolerance no test can read: every comparison with NaN is false, so a
# NaN tolerance would pass every check
BAD_TOLERANCES = [float("nan"), float("inf"), -float("inf"), -1.0]


@pytest.mark.parametrize("tolerance", BAD_TOLERANCES)
def test_unreadable_tolerances_are_refused(pd_game, tolerance):
    target = ActionProfile.all_cooperate(2)
    for call in (lambda: classify_dilemma(pd_game, tolerance),
                 lambda: check_dominance(pd_game, target, tolerance),
                 lambda: pure_nash_equilibria(pd_game, tolerance),
                 lambda: social_optima(pd_game, tolerance)):
        with pytest.raises(ValueError, match="tolerance"):
            call()


def test_zero_tolerance_is_read(pd_game):
    assert classify_dilemma(pd_game, 0.0).kind is DilemmaKind.STRICT
    assert check_dominance(pd_game, ActionProfile.all_defect(2),
                           0.0).strictly_dominant
    assert social_optima(pd_game, 0.0) == {ActionProfile.all_cooperate(2)}
