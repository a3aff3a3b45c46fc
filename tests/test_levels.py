import functools
import itertools
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
from reward_transfer import levels
from reward_transfer.dilemmas import (BaseGame, BaseGameParams,
                                      FunctionalParams, GraphKind,
                                      build_functional, build_graphical,
                                      scaled_prisoners_dilemma, too_many_cooks)
from reward_transfer.game import deviation_gains
from reward_transfer.levels import binding_constraints

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


class TestScale:
    """``_scale`` takes the largest reward change of any deviation in one
    pass over the table; the per-player deltas are its reference."""

    @staticmethod
    def reference(game, target):
        return 1.0 + max(float(np.abs(deviation_deltas(game, target, i)).max())
                         for i in range(game.n))

    @pytest.mark.parametrize("n", range(2, 15))
    def test_equals_per_player_deltas_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            game = _random_magnitude_game(rng, n)
            targets = {0, (1 << n) - 1, int(rng.integers(0, 1 << n))}
            for bits in targets:
                assert levels._scale(game) == \
                    self.reference(game, ActionProfile(bits, n))


# The searches' scaled tests, each as a (threshold, test) pair of
# functions of the scale s: the test of a value v at scale s, and the
# value on its threshold, written in the searches' own floating-point
# form.  "empty" is symmetrical_level's lo > hi + tiny with hi = 0.25.
SCALED_TESTS = {
    "scan": (lambda s: 1e-9 * s, lambda v, s: v > 1e-9 * s),
    "immune-flat": (lambda s: 1e-12 * s, lambda v, s: np.abs(v) <= 1e-12 * s),
    "immune-base": (lambda s: -1e-12 * s, lambda v, s: v < -1e-12 * s),
    "above": (lambda s: 1e-12 * s, lambda v, s: v > 1e-12 * s),
    "below": (lambda s: -1e-12 * s, lambda v, s: v < -1e-12 * s),
    "empty": (lambda s: 0.25 + 1e-12 * s, lambda v, s: v > 0.25 + 1e-12 * s),
    "binding": (lambda s: 1e-7 * s, lambda v, s: np.abs(v) <= 1e-7 * s),
}


def _refuse_exact_scale(game):
    raise AssertionError("the exact scale was computed")


class TestScaleBounds:
    """``_Scale`` decides scaled tests from [1, 1 + widest column range]
    and falls back to ``_scale`` only between them; every decision must
    be the one the exact scale gives."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_bounds_hold_bit_for_bit(self, n):
        rng = np.random.default_rng(100 + n)
        for game in (_random_magnitude_game(rng, n),
                     build_graphical(GraphKind.CIRCULAR, PD, n)):
            bounds = levels._Scale(game)
            assert bounds.lo <= levels._scale(game) <= bounds.hi

    @pytest.mark.parametrize("name", sorted(SCALED_TESTS))
    def test_planted_values_decide_as_the_exact_scale(self, name, monkeypatch):
        threshold, test = SCALED_TESTS[name]
        game = build_graphical(GraphKind.CIRCULAR, PD, 6)
        exact = levels._scale(game)
        bounds = levels._Scale(game)
        lo, hi = bounds.lo, bounds.hi
        assert lo < exact < hi
        # thresholds at scales in (lo, hi], and at scales outside it
        inside = [threshold(s) for s in
                  (np.nextafter(lo, 2.0), (lo + exact) / 2, exact,
                   np.nextafter(exact, 0.0), np.nextafter(exact, 2.0),
                   (exact + hi) / 2, hi)]
        outside = [threshold(s) for s in (0.25, 0.5, lo, 2 * hi, 10 * hi)]
        planted = inside + outside + [np.nextafter(v, side)
                                      for v in inside + outside
                                      for side in (-np.inf, np.inf)]
        for v in planted + [np.array(planted)]:
            decided = levels._Scale(game).decide(lambda s: test(v, s))
            assert np.array_equal(decided, test(v, exact))

        # the values outside the band never need the exact pass
        monkeypatch.setattr(levels, "_scale", _refuse_exact_scale)
        bounds = levels._Scale(game)
        for v in outside + [np.array(outside)]:
            assert np.array_equal(bounds.decide(lambda s: test(v, s)),
                                  test(v, exact))

    def test_fallback_collapses_the_bounds_once(self, monkeypatch):
        game = build_graphical(GraphKind.CIRCULAR, PD, 6)
        exact = levels._scale(game)
        calls = []
        monkeypatch.setattr(levels, "_scale",
                            lambda g: calls.append(g) or exact)
        bounds = levels._Scale(game)
        between = 1e-9 * (1.0 + exact) / 2
        assert bounds.decide(lambda s: between > 1e-9 * s) == \
            (between > 1e-9 * exact)
        assert bounds.lo == bounds.hi == exact
        bounds.decide(lambda s: between > 1e-9 * s)
        assert len(calls) == 1

    @pytest.mark.filterwarnings("ignore")
    @pytest.mark.parametrize("game, fastpath", [
        (build_graphical(GraphKind.CIRCULAR, PD, 8), True),
        (build_functional(FunctionalParams(6, 3.0)), False),
    ], ids=["circular-8", "functional-6"])
    def test_common_path_skips_the_exact_pass(self, game, fastpath,
                                              monkeypatch):
        monkeypatch.setattr(levels, "_scale", _refuse_exact_scale)
        general_level(game, force=True)
        general_level(game, force=True, allow_excess=True)
        general_level(game, force=True, refine_diagonal=True)
        symmetrical_level(game, force=True)
        if fastpath:
            general_level_symmetric_fastpath(game, force=True)


class _ExactScale(levels._Scale):
    """The bounds collapsed onto the exact scale from the start."""

    def __init__(self, game):
        super().__init__(game)
        self.lo = self.hi = levels._scale(game)


def _outcome(search, game):
    try:
        result = search(game)
    except (NotResolvableError, NotADilemmaError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return (result.level, result.matrix.entries.tobytes(),
            result.binding_mask.tobytes())


_GENERAL = functools.partial(general_level, force=True)
_EXCESS = functools.partial(general_level, force=True, allow_excess=True)
_REFINE = functools.partial(general_level, force=True, refine_diagonal=True)
_SYMMETRIC = functools.partial(symmetrical_level, force=True)
_FASTPATH = functools.partial(general_level_symmetric_fastpath, force=True)
_EVERY_SEARCH = (_GENERAL, _EXCESS, _REFINE, _SYMMETRIC)


@pytest.mark.filterwarnings("ignore")
class TestScaleFilterDifferential:
    """Every search gives the same level, matrix bytes and binding mask
    with the bounds as with the exact scale."""

    @staticmethod
    def fallbacks(monkeypatch, games, searches):
        """Assert the two agree on every game and search; return how
        many times the filtered runs computed the exact scale."""
        calls = []
        exact = levels._scale

        def counted(game):
            calls.append(game)
            return exact(game)

        with monkeypatch.context() as patch:
            patch.setattr(levels, "_scale", counted)
            filtered = [_outcome(s, g) for g in games for s in searches]
        with monkeypatch.context() as patch:
            patch.setattr(levels, "_Scale", _ExactScale)
            assert [_outcome(s, g) for g in games for s in searches] == filtered
        return len(calls)

    @pytest.mark.parametrize("graph", list(GraphKind))
    @pytest.mark.parametrize("base", list(BaseGame))
    def test_graphical(self, graph, base, monkeypatch):
        games = [build_graphical(graph, BaseGameParams(base, 3.0, 1.0), n)
                 for n in range(3, 11)]
        searches = (_GENERAL, _SYMMETRIC)
        if graph is not GraphKind.TYCOON:
            searches += (_FASTPATH,)
        self.fallbacks(monkeypatch, games, searches)

    def test_functional_and_too_many_cooks(self, monkeypatch):
        games = [build_functional(FunctionalParams(n, 3.0)) for n in range(2, 8)]
        self.fallbacks(monkeypatch, games + [too_many_cooks()], _EVERY_SEARCH)

    def test_scaled_pd(self, monkeypatch):
        games = [scaled_prisoners_dilemma(eps)
                 for eps in (1e-7, 3e-7, 1e-6, 3e-6, 1e-5)]
        self.fallbacks(monkeypatch, games, _EVERY_SEARCH)

    def test_random_strict_dilemmas(self, monkeypatch):
        # pool dilemma n = 11, k = 1 leaves a gain between the bounds'
        # thresholds after its first solve, so its searches fall back
        rng = np.random.default_rng(11)
        games = [make_strict_dilemma(rng, n) for n in (2, 3, 4, 5, 6) * 2]
        games += [pool_dilemma(n) for n in range(3, 11)] + [pool_dilemma(11, 1)]
        assert self.fallbacks(monkeypatch, games,
                              (_GENERAL, _EXCESS, _SYMMETRIC)) >= 1


def _old_mismatch(game, perm):
    """The symmetry check's mismatch, by gathering the permuted table."""
    n = game.n
    bits = np.arange(1 << n)
    mapped = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        mapped |= ((bits >> i) & 1) << int(perm[i])
    table = game.payoffs
    return np.abs(table[mapped][:, perm] - table).max()


class TestCheckSymmetry:
    def cyclic_game(self):
        params = BaseGameParams(BaseGame.PRISONERS_DILEMMA, 3.0, 1.0)
        return build_graphical(GraphKind.CIRCULAR, params, 5)

    def test_rejects_one_entry_moved_by_ten_tolerances(self):
        game = self.cyclic_game()
        perm = np.roll(np.arange(5), -1)
        tolerance = 1e-9
        levels._check_symmetry(game, perm, tolerance)
        scale = 1.0 + float(np.abs(game.payoffs).max())
        table = game.payoffs.copy()
        table[11, 3] += 10 * tolerance * scale
        with pytest.raises(ValueError,
                           match="not symmetric under the generator"):
            levels._check_symmetry(NormalFormGame(table), perm, tolerance)
        # within the tolerance the game still counts as symmetric
        table[11, 3] = game.payoffs[11, 3] + 0.5 * tolerance * scale
        levels._check_symmetry(NormalFormGame(table), perm, tolerance)

    def test_mismatch_matches_the_permuted_table(self):
        rng = np.random.default_rng(8)
        for n in range(2, 8):
            game = NormalFormGame(rng.normal(size=(1 << n, n)))
            for _ in range(3):
                perm = rng.permutation(n)
                expected = _old_mismatch(game, perm)
                if expected == 0.0:  # the identity permutation
                    levels._check_symmetry(game, perm)
                    continue
                with pytest.raises(ValueError, match=f"{expected:.3g}"):
                    levels._check_symmetry(game, perm)


def _old_symmetrical_level(game, target, tolerance=1e-9):
    """symmetrical_level's interval from per-player deltas, as it was
    computed before it read the welfare vector: (level, binding mask), or
    None when no share works."""
    n = game.n
    own = deviation_gains(game.payoffs, target)
    others = np.empty_like(own)
    reach = 0.0
    for i in range(n):
        deltas = deviation_deltas(game, target, i)
        others[i] = deltas.sum(axis=1) - own[i]
        reach = max(reach, float(np.abs(deltas).max()))
    scale = 1.0 + reach
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

    def test_every_generator_gives_an_invariant_matrix(self):
        params = BaseGameParams(BaseGame.PRISONERS_DILEMMA, c=4.0, d=1.0)
        game = build_graphical(GraphKind.SYMMETRICAL, params, 4)
        default = general_level_symmetric_fastpath(game)
        cycles = []
        for g in itertools.permutations(range(4)):
            orbit, at = [0], g[0]
            while at != 0:
                orbit.append(at)
                at = g[at]
            if len(orbit) == 4:
                cycles.append(g)
        assert len(cycles) == 6
        for g in cycles:
            result = general_level_symmetric_fastpath(game, generator=g)
            t = result.matrix.entries
            assert np.array_equal(t[list(g)][:, list(g)], t), g
            assert result.level == pytest.approx(default.level, abs=1e-12), g

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
