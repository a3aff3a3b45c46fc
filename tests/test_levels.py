import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reward_transfer import (ActionProfile, DilemmaKind, NormalFormGame,
                             NotADilemmaError, NotResolvableError, SolveMode,
                             TransferMatrix, apply_transfers, classify_dilemma,
                             deviation_deltas, exchange_matrix, general_level,
                             general_level_symmetric_fastpath,
                             symmetrical_level, verify_resolution)
from reward_transfer.game import deviation_gains
from reward_transfer.levels import binding_constraints

# regression anchors, frozen from solver output that was cross-checked
# against an independent implementation before being pinned
ARBITRARY_GENERAL_LEVEL = 0.4869565217391304
FUNCTIONAL_5_3_LEVEL = 0.26107022577023814


class TestDeviationDeltas:
    def test_pd_values(self, pd_game):
        # defecting against a cooperator: own 4-3, theirs 0-3;
        # against a defector: own 1-0, theirs 1-4
        deltas = deviation_deltas(pd_game, ActionProfile.all_cooperate(2), 0)
        assert deltas.shape == (2, 2)
        assert deltas[0].tolist() == [1.0, -3.0]  # co-player cooperates
        assert deltas[1].tolist() == [1.0, -3.0]  # co-player defects

    def test_defect_target_swaps_sign(self, pd_game):
        toward = deviation_deltas(pd_game, ActionProfile.all_cooperate(2), 1)
        away = deviation_deltas(pd_game, ActionProfile.all_defect(2), 1)
        assert np.allclose(away, -toward, atol=1e-12)

    def test_size_mismatch(self, pd_game):
        with pytest.raises(ValueError, match="size"):
            deviation_deltas(pd_game, ActionProfile.all_cooperate(3), 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.data())
    def test_gains_after_transfers_match_deltas(self, n, data):
        # a deviation's gain under the transferred rewards P @ T equals
        # the untransferred reward changes weighted by T's column
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        rng = np.random.default_rng(seed)
        game = NormalFormGame(rng.uniform(-10.0, 10.0, size=(1 << n, n)))
        target = ActionProfile(
            data.draw(st.integers(min_value=0, max_value=(1 << n) - 1)), n)
        t = rng.uniform(0.0, 1.0, size=(n, n))
        t /= t.sum(axis=1, keepdims=True)
        gains = deviation_gains(game.payoffs @ t, target)
        assert gains.shape == (n, 1 << (n - 1))
        scale = 1.0 + float(np.abs(game.payoffs).max())
        for i in range(n):
            expected = deviation_deltas(game, target, i) @ t[:, i]
            assert np.abs(gains[i] - expected).max() <= 1e-12 * scale


class TestTwoPlayerAnchors:
    """For n = 2 the symmetric contract is already fully general, so
    both solvers must agree exactly."""

    CASES = [("pd_game", 0.75), ("chicken_game", 2.0 / 3.0),
             ("staghunt_game", 0.75)]

    @pytest.mark.parametrize("fixture,expected", CASES)
    def test_levels(self, fixture, expected, request):
        game = request.getfixturevalue(fixture)
        sym = symmetrical_level(game)
        gen = general_level(game)
        assert sym.level == pytest.approx(expected, abs=1e-9)
        assert gen.level == pytest.approx(expected, abs=1e-9)
        assert gen.level == pytest.approx(sym.level, abs=1e-9)

    def test_pd_symmetric_matrix_is_exchange(self, pd_game):
        result = symmetrical_level(pd_game)
        assert result.matrix == exchange_matrix(2, 0.75)
        assert result.mode is SolveMode.SYMMETRIC

    def test_pd_binding_set(self, pd_game):
        result = symmetrical_level(pd_game)
        # the deltas are identical against either co-action here, so all
        # four temptation constraints bind at once
        assert set(result.binding) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert binding_constraints(pd_game, result) == sorted(result.binding)

    @pytest.mark.parametrize("search", [general_level,
                                        general_level_symmetric_fastpath])
    def test_seven_player_binding_set(self, search):
        from reward_transfer import (BaseGame, BaseGameParams, GraphKind,
                                     build_graphical)
        game = build_graphical(
            GraphKind.CIRCULAR,
            BaseGameParams(BaseGame.PRISONERS_DILEMMA, 3.0, 1.0), 7)
        result = search(game)
        assert result.binding
        assert binding_constraints(game, result) == sorted(result.binding)

    def test_pd_general_refined_matrix(self, pd_game):
        result = general_level(pd_game, refine_diagonal=True)
        assert np.allclose(result.matrix.entries,
                           exchange_matrix(2, 0.75).entries, atol=1e-9)

    def test_resolved_game_is_no_longer_tempting(self, pd_game):
        result = general_level(pd_game)
        report = verify_resolution(pd_game, result.matrix)
        assert report.weakly_dominant


class TestDilemmaGate:
    def test_tmc_needs_force(self, tmc_game):
        # a third cook hurts group welfare, so the welfare condition
        # fails and the game is not a dilemma at all without force
        with pytest.raises(NotADilemmaError) as info:
            general_level(tmc_game)
        assert info.value.classification.kind is DilemmaKind.NOT_DILEMMA

    def test_constant_game_fails_even_forced(self):
        game = NormalFormGame(np.ones((4, 2)))
        with pytest.raises(NotADilemmaError):
            symmetrical_level(game)
        # forced, the LP runs; with no strict temptation anywhere the
        # identity contract works and the level is 1
        result = general_level(game, force=True)
        assert result.level == pytest.approx(1.0)

    def test_anti_dilemma_not_resolvable(self):
        # cooperation lowers welfare here, so no contract can help; the
        # all-cooperate default target also draws the optimality warning
        table = [[0.0, 0.0], [1.0, 5.0], [5.0, 1.0], [3.0, 3.0]]
        game = NormalFormGame(table)
        with pytest.warns(UserWarning, match="social optimum"):
            with pytest.raises(NotResolvableError):
                symmetrical_level(game, force=True)
        with pytest.warns(UserWarning, match="social optimum"):
            with pytest.raises(NotResolvableError):
                general_level(game, force=True)

    def test_suboptimal_target_warns(self, pd_game):
        with pytest.warns(UserWarning, match="social optimum"):
            general_level(pd_game, ActionProfile.from_string("DD"),
                          force=True)


class TestTooManyCooks:
    """One defector is optimal here, so the target is asymmetric and
    only an asymmetric contract can price the defector's temptation."""

    def test_general_level(self, tmc_game):
        result = general_level(tmc_game, ActionProfile.from_string("DCC"),
                               force=True)
        assert result.level == pytest.approx(3.0 / 11.0, abs=1e-9)
        expected = [[3 / 11, 4 / 11, 4 / 11],
                    [0.0, 3 / 11, 8 / 11],
                    [0.0, 8 / 11, 3 / 11]]
        assert np.allclose(result.matrix.entries, expected, atol=1e-7)
        assert result.binding

    def test_symmetric_contract_cannot_do_it(self, tmc_game):
        with pytest.raises(NotResolvableError, match="interval"):
            symmetrical_level(tmc_game, ActionProfile.from_string("DCC"),
                              force=True)

    def test_verifies(self, tmc_game):
        result = general_level(tmc_game, ActionProfile.from_string("DCC"),
                               force=True)
        report = verify_resolution(tmc_game, result.matrix, result.target)
        assert report.weakly_dominant


class TestFrozenRegressions:
    def test_arbitrary_game(self, arbitrary_game):
        result = general_level(arbitrary_game)
        assert result.level == pytest.approx(ARBITRARY_GENERAL_LEVEL,
                                             abs=1e-9)
        assert result.matrix.is_conserving()
        # every player has at least one binding temptation at the optimum
        assert {player for player, _ in result.binding} == {0, 1, 2}

    def test_arbitrary_symmetric(self, arbitrary_game):
        result = symmetrical_level(arbitrary_game)
        assert result.level == pytest.approx(4.0 / 11.0, abs=1e-9)

    def test_functional_game(self):
        from reward_transfer import FunctionalParams, build_functional
        game = build_functional(FunctionalParams(n=5, c=3.0))
        result = general_level(game, force=True)
        assert result.level == pytest.approx(FUNCTIONAL_5_3_LEVEL, abs=1e-9)
        report = verify_resolution(game, result.matrix)
        assert report.weakly_dominant


class TestExcessMode:
    def test_scaled_pd(self):
        from reward_transfer import scaled_prisoners_dilemma
        eps = 1e-6
        game = scaled_prisoners_dilemma(eps)
        result = general_level(game, allow_excess=True, force=True)
        assert result.mode is SolveMode.GENERAL_WITH_EXCESS
        assert result.level == pytest.approx(0.5, abs=1e-6)
        # player 1 burns what the scale difference makes untransferable
        assert result.excess.slack[0] == pytest.approx(8.0 / 18.0, abs=1e-3)
        assert result.excess.slack[1] == pytest.approx(0.0, abs=1e-6)
        expected = [[0.5, 1.0 / (2.0 * (9.0 - eps))], [0.5, 0.5]]
        assert np.allclose(result.matrix.entries, expected, atol=1e-9)

    def test_scaled_pd_burning_replaces_paying(self):
        # burning does not raise the level here, but it lets player 1
        # destroy most of their stake instead of handing it over
        from reward_transfer import scaled_prisoners_dilemma
        game = scaled_prisoners_dilemma()
        burn = general_level(game, allow_excess=True, force=True)
        keep = general_level(game, force=True)
        assert burn.level == pytest.approx(keep.level, abs=1e-9)
        assert keep.excess.total == pytest.approx(0.0, abs=1e-9)
        assert burn.excess.total > 0.4

    def test_excess_never_hurts(self, arbitrary_game):
        strict = general_level(arbitrary_game)
        loose = general_level(arbitrary_game, allow_excess=True)
        assert loose.level >= strict.level - 1e-9

    def test_conserving_result_reports_zero_slack(self, pd_game):
        result = general_level(pd_game)
        assert result.excess.total == pytest.approx(0.0, abs=1e-9)


class TestSymmetricFastpath:
    def test_matches_general_on_cycles(self):
        from reward_transfer import (BaseGame, BaseGameParams, GraphKind,
                                     build_graphical)
        params = BaseGameParams(BaseGame.PRISONERS_DILEMMA, c=4.0, d=1.0)
        for n in range(2, 8):
            game = build_graphical(GraphKind.CYCLICAL, params, n)
            fast = general_level_symmetric_fastpath(game)
            slow = general_level(game)
            assert fast.level == pytest.approx(slow.level, abs=1e-9), n
            report = verify_resolution(game, fast.matrix)
            assert report.weakly_dominant

    def test_alternate_generator(self):
        from reward_transfer import (BaseGame, BaseGameParams, GraphKind,
                                     build_graphical)
        params = BaseGameParams(BaseGame.PRISONERS_DILEMMA, c=4.0, d=1.0)
        game = build_graphical(GraphKind.SYMMETRICAL, params, 3)
        default = general_level_symmetric_fastpath(game)
        other = general_level_symmetric_fastpath(game, generator=[2, 0, 1])
        assert other.level == pytest.approx(default.level, abs=1e-9)

    def test_rejects_asymmetric_game(self, arbitrary_game):
        with pytest.raises(ValueError, match="symmetri"):
            general_level_symmetric_fastpath(arbitrary_game)

    def test_rejects_non_cycle_generator(self, tmc_game):
        with pytest.raises(ValueError, match="cycle"):
            general_level_symmetric_fastpath(tmc_game, generator=[0, 2, 1])
        with pytest.raises(ValueError, match="permutation"):
            general_level_symmetric_fastpath(tmc_game, generator=[1, 1, 2])

    def test_tmc_is_cyclic_but_gated(self, tmc_game):
        # adjusting only the all-same rows preserves the rotation
        # symmetry, so the fastpath accepts the game; the dilemma gate
        # still fires first
        with pytest.raises(NotADilemmaError):
            general_level_symmetric_fastpath(tmc_game)
        with pytest.warns(UserWarning, match="social optimum"):
            fast = general_level_symmetric_fastpath(tmc_game, force=True)
        with pytest.warns(UserWarning, match="social optimum"):
            slow = general_level(tmc_game, ActionProfile.from_string("CCC"),
                                 force=True)
        assert fast.level == pytest.approx(slow.level, abs=1e-9)
        assert fast.level == pytest.approx(0.2, abs=1e-9)


class TestMaximality:
    """The reported level must be the largest that works: nudging every
    diagonal entry up and renormalizing must reintroduce a temptation."""

    @pytest.mark.parametrize("fixture", ["arbitrary_game"])
    def test_perturbed_matrix_fails(self, fixture, request):
        game = request.getfixturevalue(fixture)
        result = general_level(game)
        bumped = result.matrix.entries.copy()
        np.fill_diagonal(bumped, np.diag(bumped) + 1e-4)
        bumped /= bumped.sum(axis=1, keepdims=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = verify_resolution(game, TransferMatrix(bumped),
                                       result.target, tolerance=1e-9)
        assert not report.weakly_dominant

    def test_cyclical_perturbation_fails(self):
        from reward_transfer import (BaseGame, BaseGameParams, GraphKind,
                                     build_graphical)
        game = build_graphical(
            GraphKind.CYCLICAL, BaseGameParams(BaseGame.PRISONERS_DILEMMA, 4.0, 1.0), 3)
        result = general_level(game)
        bumped = result.matrix.entries.copy()
        np.fill_diagonal(bumped, np.diag(bumped) + 1e-4)
        bumped /= bumped.sum(axis=1, keepdims=True)
        report = verify_resolution(game, TransferMatrix(bumped),
                                   result.target, tolerance=1e-9)
        assert not report.weakly_dominant


class TestRandomStrictDilemmas:
    def test_invariants(self, strict_dilemma_factory):
        rng = np.random.default_rng(99)
        for trial in range(40):
            n = int(rng.integers(2, 5))
            game = strict_dilemma_factory(rng, n)
            assert classify_dilemma(game).kind is DilemmaKind.STRICT

            sym = symmetrical_level(game)
            gen = general_level(game)
            # an even split always resolves a strict dilemma, so the
            # symmetric level is at least 1/n; freedom can only help
            assert sym.level >= 1.0 / n - 1e-9, trial
            assert gen.level >= sym.level - 1e-9, trial
            # LP output carries ~1e-8 residue, so verify a notch looser
            assert verify_resolution(game, sym.matrix,
                                     tolerance=1e-6).weakly_dominant
            assert verify_resolution(game, gen.matrix,
                                     tolerance=1e-6).weakly_dominant
            assert gen.matrix.is_conserving()

    def test_affine_invariance(self, strict_dilemma_factory):
        # levels are scale- and shift-free in the payoffs
        rng = np.random.default_rng(5)
        for _ in range(10):
            game = strict_dilemma_factory(rng, 3)
            scaled = NormalFormGame(2.5 * game.payoffs - 7.0)
            base = general_level(game)
            moved = general_level(scaled)
            assert moved.level == pytest.approx(base.level, abs=1e-6)
            sym_base = symmetrical_level(game)
            sym_moved = symmetrical_level(scaled)
            assert sym_moved.level == pytest.approx(sym_base.level, abs=1e-6)
