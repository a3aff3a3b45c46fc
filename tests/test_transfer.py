import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reward_transfer import (ActionProfile, NormalFormGame, TransferMatrix,
                             apply_transfers, conservation_check,
                             exchange_matrix, excess_report,
                             verify_resolution)


class TestTransferMatrix:
    def test_basic(self):
        m = TransferMatrix([[0.75, 0.25], [0.25, 0.75]])
        assert m.n == 2
        assert m.min_retained() == 0.75
        assert m.is_conserving()
        assert m.row_sums().tolist() == [1.0, 1.0]

    def test_identity(self):
        assert TransferMatrix.identity(3) == TransferMatrix(np.eye(3))

    def test_clamps_tolerable_overshoot(self):
        m = TransferMatrix([[1.0 + 1e-13, 0.0], [-5e-13, 1.0]])
        assert m.entries[0, 0] == 1.0
        assert m.entries[1, 0] == 0.0

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError, match="outside"):
            TransferMatrix([[1.2, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="outside"):
            TransferMatrix([[-0.1, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            TransferMatrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_overfull_row(self):
        with pytest.raises(ValueError, match="row 1"):
            TransferMatrix([[0.6, 0.6], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            TransferMatrix([[0.5, 0.5]])
        with pytest.raises(ValueError):
            TransferMatrix([[1.0]])

    def test_entries_frozen(self):
        m = TransferMatrix.identity(2)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 0.5

    def test_under_full_rows_allowed(self):
        m = TransferMatrix([[0.5, 0.25], [0.0, 0.9]])
        assert not m.is_conserving()


class TestExchange:
    def test_three_player_values(self):
        m = exchange_matrix(3, 0.6)
        expected = [[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]]
        assert np.allclose(m.entries, expected, atol=1e-15)
        assert m.is_conserving()

    def test_keep_all_is_identity(self):
        assert exchange_matrix(4, 1.0) == TransferMatrix.identity(4)

    def test_equal_split(self):
        m = exchange_matrix(4, 0.25)
        assert np.allclose(m.entries, 0.25, atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            exchange_matrix(3, -0.01)
        with pytest.raises(ValueError):
            exchange_matrix(3, 1.01)
        with pytest.raises(ValueError):
            exchange_matrix(1, 0.5)


class TestApplyTransfers:
    def test_pd_exchange(self, pd_game):
        transformed = apply_transfers(pd_game, exchange_matrix(2, 0.75))
        assert np.allclose(transformed.payoffs,
                           [[3, 3], [3, 1], [1, 3], [1, 1]], atol=1e-12)

    def test_tmc_cell(self, tmc_game):
        matrix = TransferMatrix([[3 / 11, 4 / 11, 4 / 11],
                                 [0.0, 3 / 11, 8 / 11],
                                 [0.0, 8 / 11, 3 / 11]])
        transformed = apply_transfers(tmc_game, matrix)
        dcc = transformed.rewards(ActionProfile.from_string("DCC"))
        assert np.allclose(dcc, [12 / 11, 65 / 22, 65 / 22], atol=1e-12)

    def test_size_mismatch(self, pd_game):
        with pytest.raises(ValueError):
            apply_transfers(pd_game, TransferMatrix.identity(3))

    def test_labels_preserved(self):
        game = NormalFormGame(np.zeros((4, 2)), labels=("a", "b"))
        assert apply_transfers(game, exchange_matrix(2, 0.5)).labels == ("a", "b")


class TestConservation:
    def test_exchange_conserves(self, arbitrary_game):
        assert conservation_check(arbitrary_game, exchange_matrix(3, 0.37))

    def test_rejects_burning_matrix(self, pd_game):
        burner = TransferMatrix([[0.5, 0.2], [0.0, 1.0]])
        with pytest.raises(ValueError, match="burns"):
            conservation_check(pd_game, burner)

    @settings(max_examples=40)
    @given(st.lists(st.floats(0.05, 1.0), min_size=9, max_size=9),
           st.lists(st.integers(-9, 9), min_size=24, max_size=24))
    def test_random_conserving_matrices(self, shares, payoffs):
        rows = np.array(shares).reshape(3, 3)
        rows /= rows.sum(axis=1, keepdims=True)
        game = NormalFormGame(np.array(payoffs, float).reshape(8, 3))
        assert conservation_check(game, TransferMatrix(rows))


class TestExcessReport:
    def test_slack_values(self):
        m = TransferMatrix([[0.5, 0.25, 0.25], [0.2, 0.6, 0.0],
                            [0.3, 0.0, 0.7]])
        report = excess_report(m)
        assert np.allclose(report.slack, [0.0, 0.2, 0.0], atol=1e-12)
        assert report.total == pytest.approx(0.2)

    def test_conserving_is_zero(self):
        report = excess_report(exchange_matrix(4, 0.3))
        assert np.allclose(report.slack, 0.0, atol=1e-12)
        assert report.total == pytest.approx(0.0, abs=1e-12)


class TestVerifyResolution:
    def test_pd_at_optimum(self, pd_game):
        report = verify_resolution(pd_game, exchange_matrix(2, 0.75))
        assert report.weakly_dominant
        assert not report.strictly_dominant  # ties exactly at the optimum

    def test_pd_below_optimum(self, pd_game):
        report = verify_resolution(pd_game, exchange_matrix(2, 0.8))
        assert not report.weakly_dominant
        assert report.violations

    def test_pd_above_optimum_strict(self, pd_game):
        report = verify_resolution(pd_game, exchange_matrix(2, 0.5))
        assert report.strictly_dominant

    def test_default_target_all_cooperate(self, pd_game):
        report = verify_resolution(pd_game, exchange_matrix(2, 0.75))
        assert str(report.target) == "CC"

    def test_warns_on_suboptimal_target(self, pd_game):
        with pytest.warns(UserWarning, match="social optimum"):
            verify_resolution(pd_game, exchange_matrix(2, 0.0),
                              ActionProfile.from_string("DD"))

    def test_tied_optimum_does_not_warn(self):
        # every profile of a constant table is a social optimum
        game = NormalFormGame(np.full((1 << 10, 10), 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_resolution(game, exchange_matrix(10, 0.5),
                                       ActionProfile.from_string("CDCDCDCDCD"))
        assert report.weakly_dominant

    def test_target_below_a_tie_warns(self):
        # CC and DD tie for the best welfare; DC falls 1e-6 short
        game = NormalFormGame([[2.0, 2.0], [3.0, 1.0 - 1e-6],
                               [1.0, 1.0], [2.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verify_resolution(game, exchange_matrix(2, 0.5))
            verify_resolution(game, exchange_matrix(2, 0.5),
                              ActionProfile.from_string("DD"))
        with pytest.warns(UserWarning, match="social optimum"):
            verify_resolution(game, exchange_matrix(2, 0.5),
                              ActionProfile.from_string("DC"))

    def test_full_split_resolves_any_strict_dilemma(self, strict_dilemma_factory):
        # at s = 1/n rewards are pooled evenly, so own action only
        # matters through group welfare, which cooperation always helps
        rng = np.random.default_rng(3)
        for _ in range(8):
            game = strict_dilemma_factory(rng, int(rng.integers(2, 5)))
            report = verify_resolution(game, exchange_matrix(game.n, 1.0 / game.n))
            assert report.weakly_dominant
