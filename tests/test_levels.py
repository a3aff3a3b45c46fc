import functools
import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reward_transfer import (ActionProfile, DilemmaKind, NormalFormGame,
                             NotADilemmaError, NotResolvableError, SolveMode,
                             TransferMatrix, apply_transfers, check_dominance,
                             classify_dilemma, deviation_deltas,
                             exchange_matrix, excess_report, general_level,
                             general_level_symmetric_fastpath,
                             pure_nash_equilibria, social_optima,
                             symmetrical_level, verify_resolution)
from reward_transfer import game as game_module, levels, lp as lp_module
from reward_transfer.dilemmas import (BaseGame, BaseGameParams,
                                      FunctionalParams, GraphKind,
                                      build_functional, build_graphical,
                                      scaled_prisoners_dilemma, too_many_cooks)
from reward_transfer.game import (deviation_gains, deviation_pairs,
                                  insert_bit, transferred_payoffs)
from reward_transfer.levels import binding_constraints
from reward_transfer.transfer import conservation_check

from conftest import make_strict_dilemma, pool_dilemma

# regression anchors, frozen from solver output that was cross-checked
# against an independent implementation before being pinned
ARBITRARY_GENERAL_LEVEL = 0.4869565217391304
FUNCTIONAL_5_3_LEVEL = 0.26107022577023814
PD = BaseGameParams(BaseGame.PRISONERS_DILEMMA, 3.0, 1.0)


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


def _random_magnitude_game(rng, n):
    """Payoffs whose magnitudes span 1e-3 to 1e6, entry by entry."""
    size = (1 << n, n)
    return NormalFormGame(rng.normal(size=size)
                          * 10.0 ** rng.uniform(-3.0, 6.0, size=size))


class TestRewardScale:
    """The scale s of every tolerance test on a reward change is 1 + the
    widest column range, fixed when the game is made; the per-player
    deltas, whose largest |value| m is a one-bit change, bound it."""

    @pytest.mark.parametrize("n", range(2, 15))
    def test_is_the_widest_range_within_n_times_the_deltas(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            game = _random_magnitude_game(rng, n)
            s = game._stakes
            assert s == 1 + np.ptp(game.payoffs, axis=0).max()
            for bits in {0, (1 << n) - 1, int(rng.integers(0, 1 << n))}:
                target = ActionProfile(bits, n)
                m = max(float(np.abs(deviation_deltas(game, target, i)).max())
                        for i in range(n))
                assert 1 + m <= s <= n * (1 + m)

    @staticmethod
    def library_games(n):
        """Every built family at size n, and a game after transfer."""
        games = [build_graphical(graph, BaseGameParams(base, 3.0, 1.0), n)
                 for graph in GraphKind for base in BaseGame]
        games.append(build_functional(FunctionalParams(n, 3.0)))
        if n >= 3:
            games.append(pool_dilemma(n))
        games.append(apply_transfers(games[0], exchange_matrix(n, 0.4)))
        return games

    @pytest.mark.filterwarnings("ignore:a two-player tycoon")
    @pytest.mark.parametrize("n", range(2, 11))
    def test_bounds_hold_bit_for_bit(self, n):
        # builders and transfers adopt their table and the constructor
        # copies it; either way the scale is the same fact of the table
        for game in self.library_games(n):
            s = game._stakes
            assert s == 1 + np.ptp(game.payoffs, axis=0).max()
            assert NormalFormGame(game.payoffs)._stakes == s
            for target in (ActionProfile.all_cooperate(n),
                           ActionProfile.all_defect(n)):
                m = max(float(np.abs(deviation_deltas(game, target, i)).max())
                        for i in range(n))
                assert 1 + m <= s <= n * (1 + m)

    @staticmethod
    def planted_gain_game(gain):
        """Three players, zeros but for player 2's 4 at CCC and player 0's
        ``gain`` for defecting alone: s = 5 while gain <= 4, and CCC is
        the welfare optimum that only player 0 may want to leave."""
        table = np.zeros((8, 3))
        table[0, 2] = 4.0
        table[ActionProfile.from_string("DCC").bits, 0] = gain
        return NormalFormGame(table)

    @pytest.mark.parametrize("tolerance", [1e-9, 1e-6, 0.1])
    @pytest.mark.parametrize("check", [
        "check_dominance", "verify_resolution", "pure_nash_equilibria"])
    def test_a_gain_of_tolerance_times_s_is_allowed(self, check, tolerance):
        # the threshold is the float product tolerance * s itself: a gain
        # on it passes, and one a single step above it does not
        cooperate = ActionProfile.all_cooperate(3)
        limit = tolerance * 5.0
        for gain, allowed in ((limit, True),
                              (np.nextafter(limit, np.inf), False)):
            game = self.planted_gain_game(gain)
            assert game._stakes == 5.0
            if check == "pure_nash_equilibria":
                stable = pure_nash_equilibria(game, tolerance)
                assert (cooperate in stable) is allowed
                continue
            if check == "check_dominance":
                report = check_dominance(game, cooperate, tolerance)
            else:
                report = verify_resolution(game, TransferMatrix.identity(3),
                                           cooperate, tolerance)
            assert report.weakly_dominant is allowed
            assert report.violations == (() if allowed else ((0, 0, gain),))
            assert not report.strictly_dominant


_GENERAL =functools.partial(general_level, force=True)
_EXCESS = functools.partial(general_level, force=True, allow_excess=True)
_REFINE = functools.partial(general_level, force=True, refine_diagonal=True)
_SYMMETRIC = functools.partial(symmetrical_level, force=True)
_FASTPATH = functools.partial(general_level_symmetric_fastpath, force=True)
_EVERY_SEARCH = (_GENERAL, _EXCESS, _REFINE, _SYMMETRIC)


@pytest.mark.filterwarnings("ignore")
class TestSearchesReadOneScale:
    """Every search reads its tests against the one scale s, taken here
    from the table alone: the contract it returns leaves no gain above
    tolerance * s, and its binding mask and level are those of the
    whole-array passes at that s."""

    @staticmethod
    def agree(game, searches):
        s = 1 + np.ptp(game.payoffs, axis=0).max()
        assert game._stakes == s
        for search in searches:
            target = ActionProfile.all_cooperate(game.n)
            if search is _SYMMETRIC:
                level, binding, refusal = _whole_even_split(game, target)
                if refusal is not None:
                    words, player = refusal
                    with pytest.raises(NotResolvableError,
                                       match=words.format(player + 1)):
                        search(game)
                    continue
            result = search(game)
            gains = deviation_gains(
                transferred_payoffs(game.payoffs, result.matrix.entries),
                result.target)
            assert gains.max() <= 1e-9 * s, search
            if search is _SYMMETRIC:
                assert result.level == level
                assert np.array_equal(result.binding_mask, binding)
            else:
                assert np.array_equal(result.binding_mask,
                                      np.abs(gains) <= 1e-9 * s), search

    @pytest.mark.parametrize("graph", list(GraphKind))
    @pytest.mark.parametrize("base", list(BaseGame))
    def test_graphical(self, graph, base):
        searches = (_GENERAL, _SYMMETRIC)
        if graph is not GraphKind.TYCOON:
            searches += (_FASTPATH,)
        for n in range(3, 11):
            self.agree(build_graphical(graph, BaseGameParams(base, 3.0, 1.0),
                                       n), searches)

    def test_functional_and_too_many_cooks(self):
        for n in range(2, 8):
            self.agree(build_functional(FunctionalParams(n, 3.0)),
                       _EVERY_SEARCH)
        self.agree(too_many_cooks(), _EVERY_SEARCH)

    def test_scaled_pd(self):
        for eps in (1e-7, 3e-7, 1e-6, 3e-6, 1e-5):
            self.agree(scaled_prisoners_dilemma(eps), _EVERY_SEARCH)

    def test_random_strict_dilemmas(self):
        rng = np.random.default_rng(11)
        games = [make_strict_dilemma(rng, n) for n in (2, 3, 4, 5, 6) * 2]
        games += [pool_dilemma(n) for n in range(3, 11)] + [pool_dilemma(11, 1)]
        games.append(NormalFormGame(1e7 * pool_dilemma(4).payoffs))
        for game in games:
            self.agree(game, (_GENERAL, _EXCESS, _SYMMETRIC))

    @pytest.mark.parametrize("game, fastpath", [
        (build_graphical(GraphKind.CIRCULAR, PD, 8), True),
        (build_functional(FunctionalParams(6, 3.0)), False),
    ], ids=["circular-8", "functional-6"])
    def test_searches_make_no_scale_of_their_own(self, game, fastpath,
                                                monkeypatch):
        # s is fixed when a game is made; a search that made a game of
        # its own would read its tests against that game's scale instead
        made = []
        hold = NormalFormGame._hold
        monkeypatch.setattr(NormalFormGame, "_hold",
                            lambda game, table: made.append(table)
                            or hold(game, table))
        for search in _EVERY_SEARCH + ((_FASTPATH,) if fastpath else ()):
            search(game)
        assert made == []


def _old_mismatch(game, perm):
    """The symmetry check's mismatch, by gathering the permuted table."""
    n = game.n
    bits = np.arange(1 << n)
    mapped = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        mapped |= ((bits >> i) & 1) << int(perm[i])
    table = game.payoffs
    return np.abs(table[mapped][:, perm] - table).max()


def _check_symmetry(game, perm, tolerance=1e-9):
    levels._check_symmetry(game, perm, tolerance)


class TestCheckSymmetry:
    def cyclic_game(self):
        params = BaseGameParams(BaseGame.PRISONERS_DILEMMA, 3.0, 1.0)
        return build_graphical(GraphKind.CIRCULAR, params, 5)

    def test_rejects_one_entry_moved_by_ten_tolerances(self):
        game = self.cyclic_game()
        perm = np.roll(np.arange(5), -1)
        tolerance = 1e-9
        _check_symmetry(game, perm, tolerance)
        scale = game._stakes
        table = game.payoffs.copy()
        table[11, 3] += 10 * tolerance * scale
        with pytest.raises(ValueError,
                           match="not symmetric under the generator"):
            _check_symmetry(NormalFormGame(table), perm, tolerance)
        # within the tolerance the game still counts as symmetric
        table[11, 3] = game.payoffs[11, 3] + 0.5 * tolerance * scale
        _check_symmetry(NormalFormGame(table), perm, tolerance)

    def test_mismatch_is_read_against_the_widest_range(self):
        # this game's widest column range is 6 and its largest one-bit
        # change 1.5: a mismatch of twice tolerance * 2.5 lies within
        # tolerance * s, s = 7, and one of twice tolerance * s does not
        game = self.cyclic_game()
        perm = np.roll(np.arange(5), -1)
        assert game._stakes == 7.0
        table = game.payoffs.copy()
        table[11, 3] += 2 * 1e-9 * 2.5
        _check_symmetry(NormalFormGame(table), perm)
        table[11, 3] = game.payoffs[11, 3] + 2 * 1e-9 * 7.0
        with pytest.raises(ValueError, match="not symmetric"):
            _check_symmetry(NormalFormGame(table), perm)

    def test_mismatch_matches_the_permuted_table(self):
        rng = np.random.default_rng(8)
        for n in range(2, 8):
            game = NormalFormGame(rng.normal(size=(1 << n, n)))
            for _ in range(3):
                perm = rng.permutation(n)
                expected = _old_mismatch(game, perm)
                if expected == 0.0:  # the identity permutation
                    _check_symmetry(game, perm)
                    continue
                with pytest.raises(ValueError, match=f"{expected:.3g}"):
                    _check_symmetry(game, perm)


def _old_symmetrical_level(game, target, tolerance=1e-9):
    """symmetrical_level's interval from per-player deltas, as it was
    computed before it read the welfare vector, read against the game's
    reward scale: (level, binding mask), or None when no share works."""
    n = game.n
    own = deviation_gains(game.payoffs, target)
    others = np.empty_like(own)
    for i in range(n):
        others[i] = deviation_deltas(game, target, i).sum(axis=1) - own[i]
    scale = game._stakes
    tiny = 1e-12 * scale
    coef = own - others / (n - 1)
    base = -others / (n - 1)
    if ((np.abs(coef) <= tiny) & (base < -tiny)).any():
        return None
    above, below = coef > tiny, coef < -tiny
    hi = float(np.min(base[above] / coef[above], initial=1.0))
    lo = float(np.max(base[below] / coef[below], initial=0.0))
    if lo > hi + tiny:
        return None
    resid = hi * own + (1.0 - hi) / (n - 1) * others
    return hi, np.abs(resid) <= tolerance * scale


class TestSymmetricalLevelFromWelfare:
    """The even split against its per-player reference, and its binding
    set against the one ``binding_constraints`` recomputes from the
    returned matrix."""

    @staticmethod
    def check(game):
        target = ActionProfile.all_cooperate(game.n)
        expected = _old_symmetrical_level(game, target)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if expected is None:
                with pytest.raises(NotResolvableError):
                    symmetrical_level(game, force=True)
                return
            result = symmetrical_level(game, force=True)
        assert abs(result.level - expected[0]) <= 1e-12
        assert np.array_equal(result.binding_mask, expected[1])
        assert np.array_equal(binding_constraints(game, result),
                              result.binding_mask)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_graphical(self, n):
        for graph in GraphKind:
            for kind in BaseGame:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    game = build_graphical(graph,
                                           BaseGameParams(kind, 3.05, 0.98), n)
                self.check(game)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_pool_dilemmas(self, n):
        for k in range(2):
            self.check(pool_dilemma(n, k))


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
        assert np.array_equal(binding_constraints(pd_game, result),
                              result.binding_mask)

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
        assert np.array_equal(binding_constraints(game, result),
                              result.binding_mask)

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

    def test_social_optimum_warning_names_the_caller(self, pd_game):
        # the searches and the check admit their target through one gate,
        # whose warning points at the line that called them
        target = ActionProfile.from_string("DD")
        identity = TransferMatrix.identity(2)
        for call in (lambda: symmetrical_level(pd_game, target, force=True),
                     lambda: general_level(pd_game, target, force=True),
                     lambda: verify_resolution(pd_game, identity, target)):
            with pytest.warns(UserWarning, match="social optimum") as caught:
                try:
                    call()
                except NotResolvableError:
                    pass
            assert [w.filename for w in caught] == [__file__]

    def test_tied_optimum_does_not_warn(self):
        # every profile of a constant table is a social optimum
        game = NormalFormGame(np.ones((1 << 6, 6)))
        target = ActionProfile.from_string("DDCDCC")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert general_level(game, target, force=True).level == 1.0
            assert symmetrical_level(game, target, force=True).level == 1.0


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


class TestEvenSplitAtItsLargestShare:
    """The even split takes the least upper bound on the share and
    checks the contract at that share: whatever it returns resolves the
    game, and a refusal names a player who still gains there."""

    def test_every_returned_contract_verifies(self):
        rng = np.random.default_rng(29)
        outcomes = []
        for n in range(2, 7):
            for _ in range(60):
                game = NormalFormGame(rng.normal(size=(1 << n, n)))
                target = ActionProfile(int(rng.integers(0, 1 << n)), n)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    try:
                        result = symmetrical_level(game, target, force=True)
                    except NotResolvableError:
                        outcomes.append(False)
                        continue
                    report = verify_resolution(game, result.matrix,
                                               result.target)
                outcomes.append(True)
                assert 0.0 <= result.level <= 1.0
                assert report.weakly_dominant, (n, target, result.level)
        assert 0 < sum(outcomes) < len(outcomes)

    def test_bounds_that_meet_resolve_at_their_share(self):
        # player 1 leaving CC gains 1 and costs player 2 one (s <= 1/2);
        # leaving CD loses 1 and gives player 2 one (s >= 1/2), and player
        # 2 leaving DC gains 2 and costs player 1 two (s <= 1/2); player 2
        # leaving CC changes nothing, which binds at every share
        rows = {"CC": [0.0, 0.0], "DC": [1.0, -1.0], "CD": [0.0, 0.0],
                "DD": [-1.0, 1.0]}
        table = np.empty((4, 2))
        for profile, rewards in rows.items():
            table[ActionProfile.from_string(profile).bits] = rewards
        game = NormalFormGame(table)
        result = symmetrical_level(game, force=True)
        assert result.level == 0.5
        assert verify_resolution(game, result.matrix).weakly_dominant
        assert set(result.binding) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_too_many_cooks_refusal_names_player_and_share(self, tmc_game):
        # the two cooks' temptation to leave holds the share to s <= 0.2,
        # while the defector's return to the kitchen needs s >= 0.6 or 1
        # against three of its four co-profiles
        with pytest.raises(NotResolvableError) as info:
            symmetrical_level(tmc_game, ActionProfile.from_string("DCC"),
                              force=True)
        assert str(info.value) == (
            "no exchange share makes DCC weakly dominant: player 1 still "
            "gains at 0.2, the largest share the upper bounds allow (the "
            "feasible interval is empty)")


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

    def test_every_generator_gives_an_invariant_matrix(self):
        # the matrix commutes with every power of the shift i -> i + 1
        params = BaseGameParams(BaseGame.PRISONERS_DILEMMA, c=4.0, d=1.0)
        game = build_graphical(GraphKind.SYMMETRICAL, params, 4)
        t = general_level_symmetric_fastpath(game).matrix.entries
        for step in range(4):
            g = np.roll(np.arange(4), -step)
            assert np.array_equal(t[g][:, g], t), step

    def test_takes_no_generator(self, pd_game):
        with pytest.raises(TypeError, match="generator"):
            general_level_symmetric_fastpath(pd_game, generator=[1, 0])

    def test_rejects_asymmetric_game(self, arbitrary_game):
        with pytest.raises(ValueError, match="symmetri"):
            general_level_symmetric_fastpath(arbitrary_game)

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


class TestSimplexBreakdownInstances:
    """Random dilemmas on which the simplex used to break down: tiny
    pivots grew the tableau until it hit its iteration cap and raised
    RuntimeError (n = 13 with excess, n = 14 in both modes).  The
    levels are HiGHS's, on the whole LP."""

    @pytest.mark.parametrize("n, allow_excess, expected", [
        (13, False, 0.2561338276829215),
        (13, True, 0.2561338276829215),
        (14, False, 0.6299580935382478),
        (14, True, 0.6299580935382479),
    ])
    def test_level_and_contract(self, n, allow_excess, expected):
        game = pool_dilemma(n)
        assert classify_dilemma(game).kind is DilemmaKind.STRICT
        result = general_level(game, allow_excess=allow_excess)
        assert abs(result.level - expected) <= 1e-9
        assert verify_resolution(game, result.matrix,
                                 result.target).weakly_dominant


@pytest.mark.filterwarnings("ignore")
class TestOneTolerance:
    """Every test a search makes reads its one ``tolerance``: the binding
    test is |gain after transfer| <= tolerance * s in every mode, with s
    the game's deviation scale, and ``binding_constraints`` recomputes
    exactly that."""

    SCALED_PD = (1e-7, 1.53e-7, 1e-6, 1e-5)

    @staticmethod
    def agrees(game, result, label):
        assert np.array_equal(binding_constraints(game, result),
                              result.binding_mask), label
        # the search's own scan checked the very matrix it returns: no
        # deviation gains more than tolerance * s after transfer
        gains = deviation_gains(
            transferred_payoffs(game.payoffs, result.matrix.entries),
            result.target)
        assert gains.max() <= 1e-9 * game._stakes, label

    def test_binding_constraints_agree_with_every_mode(self):
        for eps in self.SCALED_PD:
            game = scaled_prisoners_dilemma(eps)
            for search in _EVERY_SEARCH:
                self.agrees(game, search(game), (eps, search))
        for graph in GraphKind:
            searches = _EVERY_SEARCH
            if graph is not GraphKind.TYCOON:
                searches += (_FASTPATH,)
            for base in BaseGame:
                for n in range(3, 8):
                    game = build_graphical(graph, BaseGameParams(base, 3.0, 1.0), n)
                    for search in searches:
                        self.agrees(game, search(game), (graph, base, n, search))

    def test_general_and_even_split_agree_on_scaled_pd(self):
        # the two searches return the same matrix here; row (0, 0)'s gain
        # after transfer, -7.65e-8 at eps = 1.53e-7, lies between 1e-9 * s
        # (s = 10) and 1e-7, so one rule for both is what makes them agree
        for eps in (1e-7, 1.53e-7):
            game = scaled_prisoners_dilemma(eps)
            general, even = _GENERAL(game), _SYMMETRIC(game)
            assert np.array_equal(general.matrix.entries, even.matrix.entries)
            assert general.binding == even.binding == ((0, 1),)

    def test_the_gate_reads_the_tolerance(self):
        # a prisoner's dilemma whose smallest welfare gain, player 1
        # turning to C against a cooperator, is 5e-7: between 1e-9 and 1e-6
        game = NormalFormGame([[3.0, 3.0], [6.0 - 5e-7, 0.0],
                               [0.0, 4.0], [1.0, 1.0]])
        assert classify_dilemma(game).kind is DilemmaKind.STRICT
        symmetrical_level(game)
        general_level(game)
        for search in (symmetrical_level, general_level):
            with pytest.raises(NotADilemmaError) as info:
                search(game, tolerance=1e-6)
            assert info.value.classification == \
                classify_dilemma(game, tolerance=1e-6)

    @pytest.mark.parametrize("tolerance", [1e-9, 1e-6])
    def test_general_binding_mask_is_the_scaled_rule(self, tolerance):
        rng = np.random.default_rng(15)
        for n in (2, 3, 4, 5, 6) * 3:
            game = make_strict_dilemma(rng, n)
            result = general_level(game, tolerance=tolerance)
            gains = deviation_gains(
                transferred_payoffs(game.payoffs, result.matrix.entries),
                result.target)
            expected = np.abs(gains) <= tolerance * game._stakes
            assert np.array_equal(result.binding_mask, expected)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
    def test_unreadable_tolerances_are_refused(self, pd_game, tolerance):
        result = general_level(pd_game)
        for call in (lambda: symmetrical_level(pd_game, tolerance=tolerance),
                     lambda: general_level(pd_game, tolerance=tolerance),
                     lambda: general_level_symmetric_fastpath(
                         pd_game, tolerance=tolerance),
                     lambda: binding_constraints(pd_game, result, tolerance)):
            with pytest.raises(ValueError, match="tolerance"):
                call()

    def test_refine_diagonal_refuses_excess(self, pd_game):
        with pytest.raises(ValueError, match="refine_diagonal"):
            general_level(pd_game, allow_excess=True, refine_diagonal=True)


def _per_player_block(table, target, mask, var, width):
    """The per-player builder the one gather replaced: each player's rows
    sliced from ``deviation_pairs`` and filled by assignment, which is
    exact only while no variable repeats within a column of ``var``."""
    blocks = []
    for i in range(target.n):
        keep, leave = deviation_pairs(table, target, i)
        picked = np.flatnonzero(mask[i])
        at = (picked >> i, picked & ((1 << i) - 1))
        block = np.zeros((picked.size, width))
        block[:, var[:, i]] = leave[at] - keep[at]
        blocks.append(block)
    return np.vstack(blocks)


def _circulant_map(n):
    # the fastpath's map for the default generator i -> i + 1
    return (np.arange(n)[None, :] - np.arange(n)[:, None]) % n


def _even_split_map(n):
    # every player keeps variable 0 and hands each other player variable 1
    return 1 - np.eye(n, dtype=int)


def _random_block_case(rng, n):
    game = NormalFormGame(rng.uniform(-10.0, 10.0, size=(1 << n, n)))
    target = ActionProfile(int(rng.integers(1 << n)), n)
    mask = rng.random((n, 1 << (n - 1))) < 0.3
    mask[:, 0] = True
    return game, target, mask


class TestRowBuilders:
    """The deviation rows and row sums of the level LP, for any variable
    map: a variable that holds several entries of T collects the
    coefficient of each."""

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("make_map", [
        lambda n: np.arange(n * n).reshape(n, n), _circulant_map],
        ids=["general", "circulant"])
    def test_gather_equals_the_per_player_loop(self, n, make_map):
        rng = np.random.default_rng(n)
        var = make_map(n)
        width = int(var.max()) + 2
        for _ in range(3):
            game, target, mask = _random_block_case(rng, n)
            rows = levels._deviation_block(game.payoffs, target,
                                           *np.nonzero(mask), var, width)
            reference = _per_player_block(game.payoffs, target, mask, var,
                                          width)
            assert rows.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_repeated_variables_collect_every_coefficient(self, n):
        rng = np.random.default_rng(100 + n)
        maps = [_even_split_map(n)] + [rng.integers(0, 3, size=(n, n))
                                       for _ in range(3)]
        for var in maps:
            width = int(var.max()) + 2
            game, target, mask = _random_block_case(rng, n)
            rows = levels._deviation_block(game.payoffs, target,
                                           *np.nonzero(mask), var, width)
            expected = []
            for i in range(n):
                spread = np.zeros((n, width))
                np.add.at(spread, (np.arange(n), var[:, i]), 1.0)
                delta = deviation_deltas(game, target, i)
                expected.append(delta[mask[i]] @ spread)
            expected = np.vstack(expected)
            assert rows.shape == expected.shape
            assert np.abs(rows - expected).max() <= \
                1e-12 * max(1.0, np.abs(expected).max())

    @pytest.mark.parametrize("allow_excess", [False, True])
    def test_even_split_row_sum_counts_each_entry(self, allow_excess):
        n = 5
        game = build_graphical(GraphKind.CIRCULAR, PD, n)
        working = np.zeros((n, 1 << (n - 1)), dtype=bool)
        working[:, [0, -1]] = True
        lp = levels._level_lp(game.payoffs, ActionProfile.all_cooperate(n),
                              _even_split_map(n), *np.nonzero(working),
                              allow_excess)
        # v0 + (n - 1) v1 = 1 (at most 1 with excess); z is not in it.
        # Each row of T writes its own, and the solver's crash keeps one
        row = lp.a_ub[-1] if allow_excess else lp.a_eq[0]
        assert row.tolist() == [1.0, n - 1.0, 0.0]
        if not allow_excess:
            assert lp.a_eq.tolist() == [[1.0, n - 1.0, 0.0]] * n
            assert lp.b_eq.tolist() == [1.0] * n

    @staticmethod
    def _even_split_games():
        for n in range(3, 9):
            for graph in GraphKind:
                for base in BaseGame:
                    yield build_graphical(graph, BaseGameParams(base, 3.0, 1.0),
                                          n)
            yield make_strict_dilemma(np.random.default_rng(n), n)
            yield build_functional(FunctionalParams(n, 3.0))

    @pytest.mark.filterwarnings("ignore")
    def test_search_over_the_even_split_map_is_the_closed_form(self):
        games = list(self._even_split_games())
        assert len(games) == 84
        for k, game in enumerate(games):
            closed = symmetrical_level(game, force=True)
            searched = levels._search(game, None, _even_split_map(game.n),
                                      force=True, tolerance=1e-9)
            assert abs(searched.level - closed.level) <= 1e-12, k
            assert np.array_equal(searched.binding_mask,
                                  closed.binding_mask), k


class TestForcedSearchSkipsTheGate:
    """A forced search never reads the dilemma classification, so it does
    not compute one; an unforced search still refuses a non-dilemma."""

    @pytest.mark.filterwarnings("ignore")
    def test_force_never_classifies(self, tmc_game, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("classify_dilemma called")

        monkeypatch.setattr(levels, "classify_dilemma", refuse)
        symmetrical_level(tmc_game, force=True)
        general_level(tmc_game, force=True)
        general_level(tmc_game, force=True, allow_excess=True)
        general_level_symmetric_fastpath(tmc_game, force=True)

    def test_unforced_non_dilemma_is_refused_as_before(self, tmc_game):
        classification = classify_dilemma(tmc_game)
        first = classification.witnesses[0].describe(tmc_game.n)
        for search in (symmetrical_level, general_level,
                       general_level_symmetric_fastpath):
            with pytest.raises(NotADilemmaError) as info:
                search(tmc_game)
            assert str(info.value) == (
                f"not a social dilemma ({first}); pass force=True to search "
                "anyway")
            assert info.value.classification == classification


# a finite prisoner's dilemma whose welfare at CC overflows: read through
# NaN comparisons it classified as strict, and the even split returned
# share 1, whose contract verification rejects
OVERFLOWING_PD = np.array([[3.0, 3.0], [5.0, 0.0], [0.0, 5.0], [1.0, 1.0]]) \
    * (1.7e308 / 5)


@pytest.mark.filterwarnings("ignore")
class TestWelfareOverflow:
    def test_the_welfare_fact_names_the_overflow(self):
        game = NormalFormGame(OVERFLOWING_PD)
        with pytest.raises(ValueError, match="group welfare overflows: the "
                           "rewards at profile CC sum past the largest float"):
            classify_dilemma(game)

    def test_welfare_reads_the_welfare_fact(self):
        # a profile's welfare is the kept column's entry: it raises the
        # overflow too, and agrees with social_optima bit for bit
        game = NormalFormGame(OVERFLOWING_PD)
        with pytest.raises(ValueError, match="group welfare overflows"):
            game.welfare(ActionProfile.all_cooperate(2))
        game = NormalFormGame(np.random.default_rng(17).normal(size=(64, 6)))
        welfare = {profile: game.welfare(profile)
                   for profile in game.profiles()}
        best = max(welfare.values())
        for tolerance in (0.0, 0.5):
            assert social_optima(game, tolerance) == frozenset(
                profile for profile, value in welfare.items()
                if value >= best - tolerance)

    @pytest.mark.parametrize("search", [
        symmetrical_level, general_level, *_EVERY_SEARCH, _FASTPATH])
    def test_every_search_raises_or_returns_a_contract_that_verifies(
            self, search):
        game = NormalFormGame(OVERFLOWING_PD)
        try:
            result = search(game)
        except (ValueError, NotResolvableError) as exc:
            # the welfare is read by the dilemma gate or, when forced,
            # by the social-optimum warning, so every search raises here
            assert "group welfare overflows" in str(exc)
            return
        assert verify_resolution(game, result.matrix,
                                 result.target).weakly_dominant


@pytest.mark.filterwarnings("ignore")
class TestVerifyReadsTheSearchScale:
    """``verify_resolution`` reads gains against tolerance * s with the
    scale the search read, so it accepts every contract a search returns,
    whatever the stakes."""

    @pytest.mark.parametrize("stakes", [1.0, 1e4, 1e7])
    def test_every_contract_verifies(self, stakes):
        for graph in GraphKind:
            for base in BaseGame:
                for n in (4, 6, 8, 10):
                    built = build_graphical(
                        graph, BaseGameParams(base, 3.0, 1.0), n)
                    game = NormalFormGame(stakes * built.payoffs)
                    for search in (_GENERAL, _EXCESS, _SYMMETRIC):
                        result = search(game)
                        report = verify_resolution(game, result.matrix,
                                                   result.target)
                        assert report.weakly_dominant, \
                            (graph, base, n, search, report.violations)

    def test_verify_builds_no_game_of_its_own(self, monkeypatch):
        # the transformed game would hold a scale of its own; verification
        # reads the rewards after transfer against the original game's
        game = pool_dilemma(11, 1)
        result = general_level(game)
        made = []
        hold = NormalFormGame._hold
        monkeypatch.setattr(NormalFormGame, "_hold",
                            lambda game, table: made.append(table)
                            or hold(game, table))
        assert verify_resolution(game, result.matrix).weakly_dominant
        assert made == []

    def test_even_split_share_is_clamped_into_the_unit_interval(self):
        # the interval's upper end comes out -1.37e-16 here: zero up to
        # roundoff, which exchange_matrix refused as a negative share
        game = NormalFormGame([[0.6340699793474432, 0.496571693798853],
                               [1.4447691385613266, 0.496571693798853],
                               [0.318017387845798, 0.7108798632659449],
                               [0.4603553288673248, 0.5074698605445271]])
        result = symmetrical_level(game, force=True)
        assert result.level == 0.0
        assert verify_resolution(game, result.matrix).weakly_dominant


class TestFactsOncePerGame:
    """Every search and check reads the game's facts, computed once per
    game: its classification at the gate's tolerance and its welfare
    column, none of which refers back to the game, and the scale fixed
    when the game is made."""

    @staticmethod
    def every_search(game):
        return [symmetrical_level(game), general_level(game),
                general_level(game, allow_excess=True),
                general_level(game, refine_diagonal=True),
                general_level_symmetric_fastpath(game)]

    def test_search_on_a_classified_game_makes_no_classification_pass(
            self, monkeypatch):
        game = build_graphical(GraphKind.CYCLICAL, PD, 4)
        calls = []
        gains = game_module._gain_blocks

        def counted(*args):
            calls.append(args)
            return gains(*args)

        # classify_dilemma reads the gains through the game module, one
        # pass over the welfare and one over the payoffs
        monkeypatch.setattr(game_module, "_gain_blocks", counted)
        classify_dilemma(game)
        assert len(calls) == 2
        self.every_search(game)
        assert len(calls) == 2

    @pytest.mark.filterwarnings("ignore")
    def test_games_leave_no_reference_cycle(self):
        game = build_graphical(GraphKind.CYCLICAL, PD, 4)
        classify_dilemma(game)
        results = self.every_search(game)
        for result in results:
            verify_resolution(game, result.matrix)
            binding_constraints(game, result)
        conservation_check(game, results[1].matrix)
        assert "_welfare_column" in vars(game) and game._classified
        alive = weakref.ref(game)
        gc.disable()
        try:
            del game
            assert alive() is None
        finally:
            gc.enable()

    def test_gate_builds_only_the_witness_it_prints(self):
        # a constant game fails every condition: 114,716 witnesses at
        # n = 14, of which the message reads the first
        n = 14
        game = NormalFormGame(np.ones((1 << n, n)))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            with pytest.raises(NotADilemmaError) as info:
                general_level(game)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(info.value) == (
            "not a social dilemma (player 1: cooperation-raises-welfare "
            f"fails against co-players {'C' * (n - 1)}); pass force=True "
            "to search anyway")
        assert peak - before < game.payoffs.nbytes
        assert info.value.classification.witness_count == \
            n * (1 << (n - 1)) + 2 * n


_STAGE_TWO_GAMES = (
    [pytest.param(functools.partial(build_graphical, graph,
                                    BaseGameParams(base, 3.0, 1.0), n),
                  id=f"{graph.value}-{base.value}-{n}")
     for graph in GraphKind for base in BaseGame for n in range(3, 8)]
    + [pytest.param(functools.partial(build_functional,
                                      FunctionalParams(n, 3.0)),
                    id=f"functional-{n}") for n in range(3, 8)]
    + [pytest.param(functools.partial(scaled_prisoners_dilemma, eps),
                    id=f"scaled-pd-{eps:g}") for eps in (1e-7, 1e-6, 1e-5)])


@pytest.mark.filterwarnings("ignore")
class TestStageTwoHoldsTheLevel:
    """The second pass (burning with ``allow_excess``, the diagonal with
    ``refine_diagonal``) holds the level z at stage 1's optimum through a
    shift of the level rows' right-hand sides: its matrix keeps every
    diagonal share at the level, and refining only raises the trace."""

    @pytest.mark.parametrize("build", _STAGE_TWO_GAMES)
    def test_second_pass_keeps_the_level(self, build):
        game = build()
        excess = _EXCESS(game)
        assert excess.level - excess.matrix.min_retained() <= 1e-12
        try:
            plain = _GENERAL(game)
        except NotResolvableError:
            return  # no conserving contract, so nothing to refine
        refined = _REFINE(game)
        assert refined.level == plain.level
        assert refined.level - refined.matrix.min_retained() <= 1e-12
        assert np.trace(refined.matrix.entries) >= \
            np.trace(plain.matrix.entries) - 1e-9

    @pytest.mark.parametrize("build", _STAGE_TWO_GAMES)
    def test_second_pass_starts_where_the_first_ended(self, monkeypatch,
                                                      build):
        # stage 1's optimal vertex is feasible for stage 2, so stage 2's
        # first solve restarts from stage 1's final basis and takes no
        # dual pivot
        solves, dual = [], []
        solve, run = levels.solve_lp, lp_module._run_dual_simplex

        def counted_dual(*args):
            outcome, pivots = run(*args)
            dual.append(pivots)
            return outcome, pivots

        def counted_solve(lp, tolerance, start=None):
            dual.clear()
            solution = solve(lp, tolerance, start=start)
            # stage 2 puts no cost on the level, the last variable
            solves.append((lp.objective[-1] == 0, start, sum(dual)))
            return solution

        monkeypatch.setattr(levels, "solve_lp", counted_solve)
        monkeypatch.setattr(lp_module, "_run_dual_simplex", counted_dual)
        game = build()
        for search in (_EXCESS, _REFINE):
            solves.clear()
            try:
                search(game)
            except NotResolvableError:
                continue  # no conserving contract to refine
            first = [stage_two for stage_two, _, _ in solves].index(True)
            _, start, pivots = solves[first]
            assert start is not None and pivots == 0


_CYCLIC_GAMES = {
    "circular-pd-6": functools.partial(build_graphical, GraphKind.CIRCULAR,
                                       PD, 6),
    "cyclical-chicken-5": functools.partial(
        build_graphical, GraphKind.CYCLICAL,
        BaseGameParams(BaseGame.CHICKEN, 3.0, 1.0), 5)}
_OTHER_GAMES = {
    "tycoon-pd-5": functools.partial(build_graphical, GraphKind.TYCOON, PD, 5),
    "functional-5": functools.partial(build_functional,
                                      FunctionalParams(5, 3.0)),
    "pool-8": functools.partial(pool_dilemma, 8),
    # not a dilemma: the conserving searches end on an infeasible round
    "normal-6": lambda: NormalFormGame(
        np.random.default_rng(3).normal(size=(64, 6)))}
_PRODUCT_CASES = (
    [pytest.param(build, search, id=f"{game}-{mode}")
     for game, build in {**_CYCLIC_GAMES, **_OTHER_GAMES}.items()
     for mode, search in (("general", _GENERAL), ("excess", _EXCESS),
                          ("refine", _REFINE))]
    + [pytest.param(build, _FASTPATH, id=f"{game}-fastpath")
       for game, build in _CYCLIC_GAMES.items()])


@pytest.mark.filterwarnings("ignore")
class TestOneProductPerSolve:
    """A search forms the transferred table once for each optimal solve
    (a block at a time, in one pass of ``_gain_blocks`` over the contract),
    to scan the contract read off it, and takes the returned matrix and
    binding mask from the last scan: no product follows it."""

    @pytest.mark.parametrize("build, search", _PRODUCT_CASES)
    def test_one_product_per_optimal_solve(self, monkeypatch, build, search):
        events = []
        solve_lp, blocks = levels.solve_lp, levels._gain_blocks

        def counted_solve(*args, **kwargs):
            solution = solve_lp(*args, **kwargs)
            events.append(solution.status.value)
            return solution

        def counted_product(table, target, entries=None):
            if entries is not None:
                events.append("product")
            return blocks(table, target, entries)

        monkeypatch.setattr(levels, "solve_lp", counted_solve)
        monkeypatch.setattr(levels, "_gain_blocks", counted_product)
        try:
            search(build())
        except NotResolvableError:
            pass  # a conserving search of normal-6
        assert "optimal" in events
        # each product comes right after its optimal solve, and only then
        for before, event in zip(["start"] + events, events):
            assert (event == "product") == (before == "optimal"), events


class TestBindingConstraintsChecksSizes:
    def test_returns_a_read_only_mask_of_the_results_form(self):
        game = build_graphical(GraphKind.CYCLICAL, PD, 4)
        mask = binding_constraints(game, general_level(game))
        assert mask.dtype == bool and mask.shape == (4, 8)
        assert not mask.flags.writeable

    def test_result_for_another_game_is_refused(self):
        small = build_graphical(GraphKind.CYCLICAL, PD, 3)
        large = build_graphical(GraphKind.CYCLICAL, PD, 4)
        result = general_level(small)
        with pytest.raises(ValueError,
                           match="^result size does not match the game$"):
            binding_constraints(large, result)

    def test_target_for_another_game_is_refused(self):
        game = build_graphical(GraphKind.CYCLICAL, PD, 3)
        result = general_level(game)
        other = levels.SelfInterestResult(
            level=result.level, matrix=result.matrix,
            target=ActionProfile.all_cooperate(4),
            binding_mask=result.binding_mask, excess=result.excess,
            mode=result.mode)
        with pytest.raises(ValueError,
                           match="^result size does not match the game$"):
            binding_constraints(game, other)


class TestCrashedStart:
    """A cold solve crashes each row sum of T onto its last variable,
    which holds the row's diagonal entry, so every search starts from
    the identity contract: nobody pays anyone.  That contract leaves a
    dilemma's temptations in place, so the dual simplex repairs the
    deviation rows it violates before the primal pass optimizes."""

    def test_dual_pivots_of_the_first_solve(self, monkeypatch):
        taken, rules = [], []
        run, harris = lp_module._run_dual_simplex, lp_module._harris

        def counted(*args):
            outcome, pivots = run(*args)
            taken.append(pivots)
            return outcome, pivots

        def recorded(values, pivots, rank, tol, bland):
            rules.append(bland)
            return harris(values, pivots, rank, tol, bland)

        monkeypatch.setattr(lp_module, "_run_dual_simplex", counted)
        monkeypatch.setattr(lp_module, "_harris", recorded)
        rng = np.random.default_rng(21)
        games = [build_graphical(graph, BaseGameParams(base, 3.0, 1.0), n)
                 for graph in GraphKind for base in BaseGame for n in (3, 5)]
        games += [make_strict_dilemma(rng, n) for n in range(2, 6)]
        for k, game in enumerate(games):
            taken.clear()
            rules.clear()
            with warnings.catch_warnings():
                # all-C is a social optimum of each, or this would raise
                warnings.simplefilter("error")
                result = general_level(game)
            assert taken[0] > 0, k
            assert rules and not any(rules), k
            # variable j*n + i for T[j, i], whose crash put every row sum
            # on the last player's entry, finds the same level
            n = game.n
            other = levels._search(game, None, np.arange(n * n).reshape(n, n),
                                   force=False, tolerance=1e-9)
            assert abs(result.level - other.level) <= 1e-12, k
        # one defector is optimal in too many cooks, so all-C is not
        taken.clear()
        with pytest.warns(UserWarning, match="not a social optimum"):
            result = general_level(too_many_cooks(), force=True)
        assert taken[0] > 0
        assert result.level == pytest.approx(0.2, abs=1e-9)

    @pytest.mark.filterwarnings("ignore")
    def test_dual_pivots_of_the_fastpath_crash(self, monkeypatch):
        # the fastpath's one row sum crashes onto the diagonal's
        # variable, the identity: on random tables a cyclic shift leaves
        # unchanged, the dual simplex repairs it where it tempts, and the
        # search lands where the general one does
        taken = []
        run = lp_module._run_dual_simplex

        def counted(*args):
            outcome, pivots = run(*args)
            taken.append(pivots)
            return outcome, pivots

        monkeypatch.setattr(lp_module, "_run_dual_simplex", counted)
        rng = np.random.default_rng(34)
        repaired = solved = 0
        for n in range(2, 7):
            for _ in range(30):
                game = _shift_invariant(rng, n)
                taken.clear()
                try:
                    fast = _FASTPATH(game)
                except NotResolvableError:
                    with pytest.raises(NotResolvableError):
                        _GENERAL(game)
                    continue
                repaired += taken[0] > 0
                solved += 1
                assert abs(fast.level - _GENERAL(game).level) <= 1e-12
                assert verify_resolution(game, fast.matrix).weakly_dominant
        assert repaired > 0 and solved > 10

    def test_fastpath_row_sums_reach_the_crash(self, monkeypatch):
        # the fastpath's n rows of T each sum the same n shares; the first
        # LP holds all n row sums, and its cold solve's crash keeps one
        solves = []
        solve = levels.solve_lp

        def recorded(lp, *args, **kwargs):
            sol = solve(lp, *args, **kwargs)
            solves.append((lp, sol))
            return sol

        monkeypatch.setattr(levels, "solve_lp", recorded)
        n = 5
        general_level_symmetric_fastpath(
            build_graphical(GraphKind.CIRCULAR, PD, n))
        lp, sol = solves[0]
        assert lp.a_eq.tolist() == [[1.0] * n + [0.0]] * n
        assert lp.b_eq.tolist() == [1.0] * n
        assert sol.basis.kept.tolist() == [True] + [False] * (n - 1)


def _shift_invariant(rng, n):
    """A random game that relabelling player i as i + 1 (mod n) leaves
    unchanged: player k earns at profile b what player 0 earns at b with
    its bits moved k places down, a random reward per profile."""
    bits = np.arange(1 << n)
    reward = rng.normal(size=1 << n)
    table = np.empty((1 << n, n))
    for k in range(n):
        moved = ((bits >> k) | (bits << (n - k))) & (bits.size - 1)
        table[:, k] = reward[moved]
    return NormalFormGame(table)


def _relabelled(game, perm):
    """The game with player i renamed perm[i]."""
    n = game.n
    bits = np.arange(1 << n)
    mapped = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        mapped |= ((bits >> i) & 1) << int(perm[i])
    table = np.empty_like(game.payoffs)
    table[mapped[:, None], perm] = game.payoffs
    return NormalFormGame(table)


@pytest.mark.filterwarnings("ignore")
class TestRelabelling:
    """Renaming the players renames the answer: the level stays, the
    renamed game's contract resolves it, and so does the first game's
    contract with its rows and columns renamed."""

    @staticmethod
    def games():
        rng = np.random.default_rng(17)
        for n in (3, 4, 5):
            yield make_strict_dilemma(rng, n)
            for graph in GraphKind:
                for base in BaseGame:
                    yield build_graphical(graph, BaseGameParams(base, 3.0, 1.0),
                                          n)

    @pytest.mark.parametrize("search", [general_level, symmetrical_level])
    def test_level_and_contract_follow_the_names(self, search):
        rng = np.random.default_rng(4)
        for game in self.games():
            n = game.n
            perm = np.arange(n)
            while (perm == np.arange(n)).all():
                perm = rng.permutation(n)
            renamed = _relabelled(game, perm)
            try:
                first = search(game, force=True)
            except NotResolvableError:
                with pytest.raises(NotResolvableError):
                    search(renamed, force=True)
                continue
            result = search(renamed, force=True)
            assert abs(result.level - first.level) <= 1e-9
            assert verify_resolution(renamed, result.matrix,
                                     result.target).weakly_dominant
            entries = np.empty((n, n))
            entries[np.ix_(perm, perm)] = first.matrix.entries
            assert verify_resolution(renamed, TransferMatrix(entries),
                                     result.target).weakly_dominant


# the passes as they read whole arrays before they went by blocks of
# profiles: the references the blocked passes must equal bit for bit

def _whole_scan(table, target, entries, working, limit):
    gains = deviation_gains(transferred_payoffs(table, entries), target)
    fresh = (gains > limit) & ~working
    if not fresh.any():
        return None, np.abs(gains) <= limit
    for i in np.flatnonzero(fresh.sum(axis=1) > levels._ROWS_PER_ROUND):
        picked = np.flatnonzero(fresh[i])
        order = np.argsort(-gains[i, picked], kind="stable")
        fresh[i, picked[order[levels._ROWS_PER_ROUND:]]] = False
    return np.nonzero(fresh), None


def _whole_even_split(game, target, tolerance=1e-9):
    """(level, binding mask, refusal): the refusal is None, or the
    message's words and the player it names."""
    n = game.n
    table = game.payoffs
    guard = 1e-12 * game._stakes
    coef = deviation_gains(table, target)
    base = deviation_gains(
        np.broadcast_to(game._welfare_column[:, None], table.shape), target)
    base -= coef
    base /= 1 - n
    coef += base
    above = coef > guard
    gain = np.full_like(coef, np.inf)
    np.divide(base, coef, out=gain, where=above)
    level = min(max(float(gain.min()), 0.0), 1.0)
    np.multiply(coef, level, out=gain)
    gain -= base
    tempted = gain > guard
    refusal = None
    if tempted.any():
        immune = tempted & (np.abs(coef) <= guard)
        refusal = ((r"immune to symmetrical transfers \(player {}\)",
                    np.nonzero(immune)[0][0]) if immune.any() else
                   ("player {} still gains", np.nonzero(tempted)[0][0]))
    return level, np.abs(gain) <= tolerance * game._stakes, refusal


def _tied_game(rng, n):
    """Payoffs of 0, 1 and 2 only: many deviations gain exactly as much."""
    return NormalFormGame(rng.integers(0, 3, size=(1 << n, n)).astype(float))


@pytest.mark.filterwarnings("ignore")
class TestBlockedPassesEqualWholeArrays:
    """Past 13 players every gain pass reads pieces (``_gain_blocks``):
    the scan, the even split, the binding set and the dominance check
    must come out as the whole-array passes did."""

    @pytest.mark.parametrize("n", [5, 14, 15])
    def test_scan_keeps_the_whole_arrays_rows(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(3):
            game = _tied_game(rng, n)
            target = ActionProfile(int(rng.integers(1 << n)), n)
            entries = _random_contract(rng, n)
            working = rng.uniform(size=(n, 1 << (n - 1))) < 0.3
            limit = 1e-9 * game._stakes
            (players, masks), binding = levels._scan(
                game.payoffs, target, entries, working.copy(), limit)
            expected, _ = _whole_scan(game.payoffs, target, entries, working,
                                      limit)
            assert binding is None
            assert players.tolist() == expected[0].tolist()
            assert masks.tolist() == expected[1].tolist()
            # with every violation already in the working set, the scan
            # gives the binding mask instead
            working[:] = True
            fresh, binding = levels._scan(game.payoffs, target, entries,
                                          working, limit)
            assert fresh is None
            _, expected = _whole_scan(game.payoffs, target, entries, working,
                                      limit)
            assert binding.any() and np.array_equal(binding, expected)

    def test_scan_keeps_the_eight_lowest_of_ties_across_blocks(self):
        # player 1 (of 14) gains 1 against twelve masks, six in each of
        # the two blocks, player 14 (a top-bit player, one piece of its
        # own) against ten, and player 2 gains 2 once, in the second
        # block, and 1 against nine lower masks
        n = 14
        table = np.zeros((1 << n, n))
        target = ActionProfile.all_cooperate(n)

        def tempt(player, masks, gain=1.0):
            for mask in masks:
                table[insert_bit(mask, player, 1), player] = gain

        tied = list(range(4090, 4102))
        tempt(0, tied)
        top = [3, 500, 4000, 4100, 6000, 7000, 7001, 8000, 8190, 8191]
        tempt(13, top)
        tempt(1, range(100, 109))
        tempt(1, [5000], 2.0)
        game = NormalFormGame(table)
        working = np.zeros((n, 1 << (n - 1)), dtype=bool)
        (players, masks), binding = levels._scan(
            game.payoffs, target, np.eye(n), working, 1e-9 * game._stakes)
        assert binding is None
        picked = {int(i): masks[players == i].tolist() for i in set(players)}
        assert picked == {0: tied[:8], 1: list(range(100, 107)) + [5000],
                          13: top[:8]}
        assert players.tolist() == sorted(players.tolist())

    @pytest.mark.parametrize("n", [14, 15])
    def test_even_split_level_and_binding_set(self, n):
        rng = np.random.default_rng(400 + n)
        games = [build_graphical(graph, BaseGameParams(kind, 3.05, 0.98), n)
                 for graph, kind in [(GraphKind.CIRCULAR, BaseGame.PRISONERS_DILEMMA),
                                     (GraphKind.TYCOON, BaseGame.CHICKEN),
                                     (GraphKind.SYMMETRICAL, BaseGame.STAG_HUNT)]]
        games.append(_tied_game(rng, n))
        for game in games:
            target = ActionProfile.all_cooperate(n)
            level, binding, refusal = _whole_even_split(game, target)
            if refusal is not None:
                words, player = refusal
                with pytest.raises(NotResolvableError,
                                   match=words.format(player + 1)):
                    symmetrical_level(game, force=True)
                continue
            result = symmetrical_level(game, force=True)
            assert result.level == level
            assert np.array_equal(result.binding_mask, binding)

    @pytest.mark.parametrize("n", [14, 15])
    def test_binding_and_dominance_on_contracts(self, n):
        rng = np.random.default_rng(500 + n)
        game = pool_dilemma(14, 0) if n == 14 else _tied_game(rng, n)
        target = ActionProfile(int(rng.integers(1 << n)), n)
        limit = 1e-9 * game._stakes
        for _ in range(2):
            entries = _random_contract(rng, n)
            matrix = TransferMatrix(entries)
            gains = deviation_gains(transferred_payoffs(game.payoffs, entries),
                                    target)
            report = verify_resolution(game, matrix, target)
            players, masks = np.nonzero(gains > limit)
            assert report.violations == tuple(zip(
                players.tolist(), masks.tolist(),
                gains[players, masks].tolist()))
            assert report.strictly_dominant == (gains.max() < -limit)
            result = levels.SelfInterestResult(
                level=matrix.min_retained(), matrix=matrix, target=target,
                binding_mask=np.zeros(gains.shape, dtype=bool),
                excess=excess_report(matrix), mode=SolveMode.GENERAL)
            expected = np.abs(gains) <= limit
            assert np.array_equal(binding_constraints(game, result), expected)


def _table_of_gains(gains, target):
    """A table whose deviation gains at ``target`` are ``gains``: each
    player earns 0 where they keep their target action and the gain
    where they leave it."""
    n = target.n
    table = np.zeros((1 << n, n), order="F")
    for i in range(n):
        _, leave = deviation_pairs(table[:, i], target, i)
        leave[...] = gains[i].reshape(leave.shape)
    return table


class TestLinearPick:
    """The scan keeps each player's worst violations by a linear pick:
    the rows it adds are the old pick's, a stable sort of the
    violations."""

    @pytest.mark.parametrize("count", [1, 3, 8])
    def test_largest_is_the_stable_sorts_head(self, count):
        rng = np.random.default_rng(count)
        for size in range(count, 60):
            values = rng.integers(0, 4, size=size) * 0.25
            head = np.argsort(-values, kind="stable")[:count]
            picked = levels._largest(values, count)
            assert np.flatnonzero(picked).tolist() == sorted(head.tolist())

    @pytest.mark.parametrize("n", [6, 14])
    def test_kept_rows_are_the_exact_picks(self, n):
        # gains on a grid of quarters, so many tie at each player's 8th
        # place; player i's reach up to (i mod 5 + 2) / 4.  The widest
        # column range is 1.5, so s is 2.5, and at tolerance 0.25 the
        # violations are the gains from 0.75 up
        rng = np.random.default_rng(600 + n)
        target = ActionProfile.all_cooperate(n)
        for _ in range(4):
            reach = np.arange(n) % 5 + 3
            gains = (rng.integers(0, 1 << 20, size=(n, 1 << (n - 1)))
                     % reach[:, None]) * 0.25
            table = _table_of_gains(gains, target)
            working = rng.uniform(size=gains.shape) < 0.3
            scale = NormalFormGame(table)._stakes
            assert scale == 2.5
            fresh, binding = levels._scan(table, target, np.eye(n),
                                          working.copy(), 0.25 * scale)
            expected, whole_binding = _whole_scan(
                table, target, np.eye(n), working, 0.25 * scale)
            if expected is None:
                assert fresh is None
                assert np.array_equal(binding, whole_binding)
                continue
            assert binding is None
            assert [a.tolist() for a in fresh] == [a.tolist() for a in expected]


def _random_contract(rng, n):
    """Each player keeps half and hands half to another: on payoffs of
    0, 1 and 2 the gains are exact halves, so many tie and many are 0."""
    entries = np.eye(n) / 2
    entries[np.arange(n), (np.arange(n) + rng.integers(1, n, size=n)) % n] += 0.5
    return entries
