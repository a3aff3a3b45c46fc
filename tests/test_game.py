import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reward_transfer import game as game_module
from reward_transfer.game import (MUTUAL_CONDITION, TEMPTATION_CONDITION,
                                  _is_social_optimum,
                                  WELFARE_CONDITION, ActionProfile,
                                  ConditionWitness, DilemmaKind, NormalFormGame,
                                  check_dominance, classify_dilemma,
                                  coplayer_string, deviation_gains,
                                  deviation_pairs,
                                  drop_bit, insert_bit, pure_nash_equilibria,
                                  social_optima)
from reward_transfer import (BaseGame, BaseGameParams, FunctionalParams,
                             GraphKind, TransferMatrix, apply_transfers,
                             build_functional, build_graphical, dumps_game,
                             parse_game, scaled_prisoners_dilemma,
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


class TestNormalFormGame:
    def test_validation(self):
        with pytest.raises(ValueError):
            NormalFormGame([[1.0, 2.0]])  # 1 profile for 2 players
        with pytest.raises(ValueError):
            NormalFormGame([[1.0], [2.0]])  # single player
        with pytest.raises(ValueError):
            NormalFormGame(np.full((4, 2), np.nan))

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
        assert "_gain_scale" not in vars(game)

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
    table[1, 0] += factor * tolerance * game_module._scale(table)
    game = NormalFormGame(table)
    gain = game.payoffs[1, 0] - game.payoffs[0, 0]
    assert gain == pytest.approx(
        factor * tolerance * game_module._scale(game.payoffs), rel=1e-6)
    return game


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
    read_by_scale = 0
    for _ in range(4):
        table = rng.integers(0, 3, size=(1 << n, n)).astype(float)
        game = NormalFormGame(table)
        assert pure_nash_equilibria(game) == _brute_force_nash(game, 1e-9)

        table *= 1e7
        defects = np.arange(1 << n) & 1 == 1
        table[defects, 0] += 0.5e-9 * game_module._scale(table)
        game = NormalFormGame(table)
        limit = 1e-9 * game_module._scale(game.payoffs)
        assert pure_nash_equilibria(game) == _brute_force_nash(game, limit)
        read_by_scale += (_brute_force_nash(game, limit)
                          != _brute_force_nash(game, 1e-9))
    assert read_by_scale


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
