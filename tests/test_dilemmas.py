import tracemalloc
import warnings

import numpy as np
import pytest

from reward_transfer import (ActionProfile, BaseGame, BaseGameParams,
                             DilemmaKind, FunctionalParams, GraphKind,
                             SolveMode, analytic_level, analytic_matrix,
                             base_payoff, build_functional, build_graphical,
                             classify_dilemma, exchange_matrix, general_level,
                             scaled_prisoners_dilemma, symmetrical_level,
                             too_many_cooks, verify_resolution)

PD = BaseGameParams(BaseGame.PRISONERS_DILEMMA, 4.0, 1.0)
CHICKEN = BaseGameParams(BaseGame.CHICKEN, 4.0, 1.0)
STAGHUNT = BaseGameParams(BaseGame.STAG_HUNT, 4.0, 1.0)


class TestParams:
    def test_pd_needs_c_above_d(self):
        with pytest.raises(ValueError, match="c > d"):
            BaseGameParams(BaseGame.PRISONERS_DILEMMA, 1.0, 1.0)

    def test_others_need_c_above_2d(self):
        BaseGameParams(BaseGame.CHICKEN, 2.1, 1.0)
        with pytest.raises(ValueError, match="c > 2d"):
            BaseGameParams(BaseGame.CHICKEN, 2.0, 1.0)
        with pytest.raises(ValueError, match="c > 2d"):
            BaseGameParams(BaseGame.STAG_HUNT, 1.9, 1.0)

    def test_d_positive(self):
        with pytest.raises(ValueError, match="d > 0"):
            BaseGameParams(BaseGame.PRISONERS_DILEMMA, 4.0, 0.0)

    def test_functional_params(self):
        with pytest.raises(ValueError, match="two players"):
            FunctionalParams(1, 3.0)
        with pytest.raises(ValueError, match="c > 0"):
            FunctionalParams(3, -1.0)


class TestBasePayoff:
    def test_pd(self):
        vals = [base_payoff(PD, own, opp)
                for own, opp in ((0, 0), (1, 0), (0, 1), (1, 1))]
        assert vals == [4.0, 5.0, 0.0, 1.0]

    def test_chicken(self):
        # the mismatch bonus d rewards swerving against a defector too
        vals = [base_payoff(CHICKEN, own, opp)
                for own, opp in ((0, 0), (1, 0), (0, 1), (1, 1))]
        assert vals == [4.0, 5.0, 1.0, 0.0]

    def test_staghunt(self):
        # the matching bonus d pays for joining the hunt or the mutiny
        vals = [base_payoff(STAGHUNT, own, opp)
                for own, opp in ((0, 0), (1, 0), (0, 1), (1, 1))]
        assert vals == [5.0, 4.0, 0.0, 1.0]


def reference_weight(graph: GraphKind, n: int, i: int, j: int) -> float:
    """How much player i's base game against j counts."""
    if i == j:
        return 0.0
    if graph is GraphKind.CYCLICAL:
        return 1.0 if j == (i + 1) % n else 0.0
    if graph is GraphKind.SYMMETRICAL:
        return 1.0 / (n - 1)
    if graph is GraphKind.CIRCULAR:
        return 0.5 ** min(abs(i - j), n - abs(i - j))
    assert graph is GraphKind.TYCOON
    return 1.0 if 0 in (i, j) else 0.0


class TestGraphicalTables:
    @pytest.mark.parametrize("graph", list(GraphKind))
    @pytest.mark.parametrize("kind", list(BaseGame))
    def test_matches_brute_force(self, graph, kind):
        # every entry is a weighted sum of scalar base payoffs, edge by
        # edge; non-integer stakes keep rounding in play
        params = BaseGameParams(kind, 3.04, 0.97)
        for n in range(2, 7):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # tycoon at n = 2
                game = build_graphical(graph, params, n)
            expected = np.zeros((1 << n, n))
            for bits in range(1 << n):
                a = ActionProfile(bits, n).actions()
                for i in range(n):
                    expected[bits, i] = sum(
                        reference_weight(graph, n, i, j)
                        * base_payoff(params, a[i], a[j]) for j in range(n))
            tol = 1e-12 * (1.0 + np.abs(expected).max())
            assert np.abs(game.payoffs - expected).max() <= tol, n

    def test_cyclical_three(self):
        # each player faces the next around the circle
        game = build_graphical(GraphKind.CYCLICAL, PD, 3)
        expected = [
            [4, 4, 4],  # CCC
            [5, 4, 0],  # DCC: defector gains, their predecessor pays
            [0, 5, 4],  # CDC
            [1, 5, 0],  # DDC
            [4, 0, 5],  # CCD
            [5, 0, 1],  # DCD
            [0, 1, 5],  # CDD
            [1, 1, 1],  # DDD
        ]
        assert game.payoffs.tolist() == expected

    def test_symmetrical_three(self):
        # everyone faces everyone, payoffs averaged
        game = build_graphical(GraphKind.SYMMETRICAL, PD, 3)
        expected = [
            [4, 4, 4],
            [5, 2, 2],
            [2, 5, 2],
            [3, 3, 0],
            [2, 2, 5],
            [3, 0, 3],
            [0, 3, 3],
            [1, 1, 1],
        ]
        assert game.payoffs.tolist() == expected

    def test_circular_three_equals_symmetrical(self):
        # on three players the ring is the complete graph
        a = build_graphical(GraphKind.CIRCULAR, PD, 3)
        b = build_graphical(GraphKind.SYMMETRICAL, PD, 3)
        assert np.array_equal(a.payoffs, b.payoffs)

    def test_circular_four_weights(self):
        # neighbours weigh 1/2, the far player 1/4
        game = build_graphical(GraphKind.CIRCULAR, PD, 4)
        assert game.payoffs[0].tolist() == [5.0, 5.0, 5.0, 5.0]
        assert game.payoffs[1].tolist() == [6.25, 3.0, 4.0, 3.0]

    def test_tycoon_three(self):
        # player 1 plays everyone at full stakes, the rest only them
        game = build_graphical(GraphKind.TYCOON, PD, 3)
        assert game.payoffs[0].tolist() == [8.0, 4.0, 4.0]
        assert game.payoffs[1].tolist() == [10.0, 0.0, 0.0]
        assert game.payoffs[2].tolist() == [4.0, 5.0, 4.0]

    def test_two_players_reduce_to_base(self):
        for graph in (GraphKind.CYCLICAL, GraphKind.SYMMETRICAL):
            game = build_graphical(graph, PD, 2)
            assert game.payoffs.tolist() == [[4, 4], [5, 0], [0, 5], [1, 1]]
        # circular still weighs the lone co-player by distance, halving
        # the stakes; the structure is unchanged
        game = build_graphical(GraphKind.CIRCULAR, PD, 2)
        assert game.payoffs.tolist() == [[2, 2], [2.5, 0], [0, 2.5],
                                         [0.5, 0.5]]

    def test_tycoon_two_warns(self):
        with pytest.warns(UserWarning, match="degenerates"):
            build_graphical(GraphKind.TYCOON, PD, 2)

    def test_needs_two_players(self):
        with pytest.raises(ValueError, match="two players"):
            build_graphical(GraphKind.CYCLICAL, PD, 1)

    @pytest.mark.parametrize("n", [21, 40])
    def test_refuses_more_players_than_the_parser_before_allocating(self, n):
        # 2**40 * 40 floats would be 350 TB; the refusal must come first
        tracemalloc.start()
        try:
            for graph in GraphKind:
                with pytest.raises(ValueError, match="at most 20 players"):
                    build_graphical(graph, PD, n)
            with pytest.raises(ValueError, match="at most 20 players"):
                build_functional(FunctionalParams(n, 3.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_dilemma_kinds(self):
        # defection always pays in the base PD; in Chicken and Stag Hunt
        # it only pays against some co-actions, so those stay partial
        for graph in GraphKind:
            for params, expected in ((PD, DilemmaKind.STRICT),
                                     (CHICKEN, DilemmaKind.PARTIAL),
                                     (STAGHUNT, DilemmaKind.PARTIAL)):
                game = build_graphical(graph, params, 4)
                kind = classify_dilemma(game).kind
                assert kind is expected, (graph, params.kind)

    def test_labels(self):
        # players are numbered, not labelled
        with pytest.raises(TypeError):
            build_graphical(GraphKind.CYCLICAL, PD, 3, labels=["a", "b", "c"])


class TestFunctional:
    def test_five_player_anchors(self):
        game = build_functional(FunctionalParams(5, 3.0))
        assert game.payoffs[0].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert np.allclose(game.payoffs[1], [1.8, 1.8, 2.7, 3.6, 4.5],
                           atol=1e-12)
        assert game.payoffs[-1].tolist() == [0.0] * 5
        assert game.rewards(ActionProfile.all_cooperate(5)).sum() == \
            pytest.approx(15.0)

    def test_every_profile_against_the_formula(self):
        # pot c * (2k - k^2 / n) over k cooperators, split by the weights
        # (i + 1) * (1 + defect_i)
        for n, c in ((3, 3.0), (6, 1.7), (9, 0.4)):
            game = build_functional(FunctionalParams(n, c))
            for p in range(1 << n):
                defect = [(p >> i) & 1 for i in range(n)]
                k = n - sum(defect)
                pot = -(c / n) * k ** 2 + 2.0 * c * k
                weights = [(i + 1) * (1.0 + d) for i, d in enumerate(defect)]
                expected = [pot * (w / sum(weights)) for w in weights]
                assert np.allclose(game.payoffs[p], expected,
                                   rtol=1e-14, atol=1e-14)

    def test_partial_dilemma_at_three_plus(self):
        assert classify_dilemma(
            build_functional(FunctionalParams(3, 3.0))).kind \
            is DilemmaKind.PARTIAL
        assert classify_dilemma(
            build_functional(FunctionalParams(5, 3.0))).kind \
            is DilemmaKind.PARTIAL

    def test_two_player_degenerate(self):
        game = build_functional(FunctionalParams(2, 3.0))
        assert classify_dilemma(game).kind is DilemmaKind.NOT_DILEMMA


class TestNamedGames:
    def test_scaled_pd_table(self):
        eps = 1e-6
        game = scaled_prisoners_dilemma(eps)
        assert game.payoffs.tolist() == [[9.0, 3.0], [12.0 - eps, 0.0],
                                         [0.0, 4.0], [3.0, 1.0]]

    def test_scaled_pd_is_not_quite_a_dilemma(self):
        # a lone cooperator adds nothing to group welfare, so the strict
        # welfare test fails on a tie
        report = classify_dilemma(scaled_prisoners_dilemma())
        assert report.kind is DilemmaKind.NOT_DILEMMA

    def test_too_many_cooks_table(self):
        game = too_many_cooks()
        assert game.payoffs[0].tolist() == [2.0, 2.0, 2.0]
        assert game.payoffs[1].tolist() == [4.0, 1.5, 1.5]
        assert game.payoffs[-1].tolist() == [0.0, 0.0, 0.0]

    def test_too_many_cooks_optimum_is_one_defector(self):
        from reward_transfer import social_optima
        game = too_many_cooks()
        best = {str(p) for p in social_optima(game)}
        assert best == {"DCC", "CDC", "CCD"}


class TestAnalyticLevel:
    def test_symmetric_formulas(self):
        for graph in GraphKind:
            got = analytic_level(graph, PD, 5, SolveMode.SYMMETRIC)
            assert got.value == pytest.approx(4.0 / 8.0)
            assert not got.is_limit
            got = analytic_level(graph, CHICKEN, 5, SolveMode.SYMMETRIC)
            assert got.value == pytest.approx(3.0 / 7.0)

    def test_general_formulas(self):
        assert analytic_level(GraphKind.CYCLICAL, PD, 6).value \
            == pytest.approx(4.0 / 5.0)
        assert analytic_level(GraphKind.CYCLICAL, STAGHUNT, 6).value \
            == pytest.approx(3.0 / 4.0)
        # fully connected graphs gain nothing from asymmetric contracts
        assert analytic_level(GraphKind.SYMMETRICAL, PD, 5).value \
            == pytest.approx(0.5)
        assert analytic_level(GraphKind.TYCOON, PD, 5).value \
            == pytest.approx(0.5)

    def test_circular_is_limit_only(self):
        got = analytic_level(GraphKind.CIRCULAR, PD, 12)
        assert got.value == pytest.approx(0.5)
        assert got.is_limit
        got = analytic_level(GraphKind.CIRCULAR, CHICKEN, 12)
        assert got.value == pytest.approx(3.0 / 7.0)

    def test_matches_solver(self):
        for graph in (GraphKind.CYCLICAL, GraphKind.SYMMETRICAL,
                      GraphKind.TYCOON):
            for params in (PD, CHICKEN, STAGHUNT):
                game = build_graphical(graph, params, 4)
                predicted = analytic_level(graph, params, 4).value
                solved = general_level(game).level
                assert solved == pytest.approx(predicted, abs=1e-9), \
                    (graph, params.kind)
                sym = symmetrical_level(game).level
                sym_pred = analytic_level(graph, params, 4,
                                          SolveMode.SYMMETRIC).value
                assert sym == pytest.approx(sym_pred, abs=1e-9)

    def test_circular_limit_bounds_finite_n(self):
        limit = analytic_level(GraphKind.CIRCULAR, PD, 8).value
        game = build_graphical(GraphKind.CIRCULAR, PD, 8)
        finite = general_level(game).level
        assert finite >= limit - 1e-9

    def test_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            analytic_level(GraphKind.CYCLICAL, PD, 1)
        with pytest.raises(ValueError, match="symmetric and general"):
            analytic_level(GraphKind.CYCLICAL, PD, 3,
                           SolveMode.GENERAL_WITH_EXCESS)


class TestAnalyticMatrix:
    def test_cyclical_pays_the_next_player(self):
        m = analytic_matrix(GraphKind.CYCLICAL, PD, 3)
        assert np.allclose(m.entries, [[0.8, 0.2, 0.0],
                                       [0.0, 0.8, 0.2],
                                       [0.2, 0.0, 0.8]], atol=1e-12)

    def test_symmetrical_is_exchange(self):
        m = analytic_matrix(GraphKind.SYMMETRICAL, PD, 4)
        assert m == exchange_matrix(4, 4.0 / 7.0)

    def test_rows_conserve(self):
        for graph in (GraphKind.CYCLICAL, GraphKind.SYMMETRICAL,
                      GraphKind.TYCOON):
            m = analytic_matrix(graph, CHICKEN, 5)
            assert m.is_conserving()

    def test_circular_needs_opt_in(self):
        with pytest.raises(ValueError, match="allow_limit"):
            analytic_matrix(GraphKind.CIRCULAR, PD, 6)
        m = analytic_matrix(GraphKind.CIRCULAR, PD, 6, allow_limit=True)
        assert m.is_conserving()
        assert np.allclose(np.diag(m.entries), 0.5, atol=1e-12)
        # each row splits the rest between the two ring neighbours
        assert m.entries[0, 1] == pytest.approx(0.25)
        assert m.entries[0, 5] == pytest.approx(0.25)

    def test_circular_limit_needs_three(self):
        with pytest.raises(ValueError, match="n >= 3"):
            analytic_matrix(GraphKind.CIRCULAR, PD, 2, allow_limit=True)

    def test_matrices_resolve_their_games(self):
        for graph in (GraphKind.CYCLICAL, GraphKind.SYMMETRICAL,
                      GraphKind.TYCOON):
            for params in (PD, CHICKEN, STAGHUNT):
                game = build_graphical(graph, params, 5)
                m = analytic_matrix(graph, params, 5)
                report = verify_resolution(game, m, tolerance=1e-9)
                assert report.weakly_dominant, (graph, params.kind)

    def test_circular_limit_resolves_finite_games(self):
        # the limiting matrix keeps less than the finite-n optimum, so
        # it still resolves small rings even though it is conservative
        for n in (4, 6, 8):
            game = build_graphical(GraphKind.CIRCULAR, PD, n)
            m = analytic_matrix(GraphKind.CIRCULAR, PD, n, allow_limit=True)
            assert verify_resolution(game, m, tolerance=1e-9).weakly_dominant
