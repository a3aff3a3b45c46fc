"""Working memory of the whole-table passes, and the blocks and chunks
that bound it.

A pass over a game's payoff table keeps alive at most the table, one
transferred table and one gains array (half a table).  The bounds below
are peaks traced while one call runs at n = 14, above what was held
before it, in multiples of the payoff table's bytes.  The blocked
builder and the player-chunked even split must give the bits the
one-shot formulas give.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from reward_transfer import (BaseGame, BaseGameParams,
                             FunctionalParams, GraphKind, NormalFormGame,
                             NotResolvableError, apply_transfers,
                             build_functional, build_graphical,
                             exchange_matrix, general_level,
                             symmetrical_level, verify_resolution)
from reward_transfer import dilemmas, levels

from conftest import make_strict_dilemma

N = 14
TABLE_BYTES = N * (1 << N) * 8
# non-integer stakes keep rounding in play
STAKES = (3.04, 0.97)


def extra_tables(call) -> float:
    """The traced peak while ``call()`` runs, above what was held before
    it, in payoff tables of N players."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - before) / TABLE_BYTES


def circular_pd(n):
    return build_graphical(
        GraphKind.CIRCULAR, BaseGameParams(BaseGame.PRISONERS_DILEMMA, *STAKES), n)


class TestPeaks:
    @pytest.mark.parametrize("graph", list(GraphKind))
    def test_build_graphical_holds_at_most_one_table_beside_its_own(self, graph):
        params = BaseGameParams(BaseGame.CHICKEN, *STAKES)
        extra = extra_tables(lambda: build_graphical(graph, params, N)) - 1.0
        assert extra <= 1.0, f"build holds {extra:.2f} tables beside its own (bound 1.0)"

    def test_symmetrical_level_stays_under_1_9_tables(self):
        game = circular_pd(N)
        extra = extra_tables(lambda: symmetrical_level(game))
        assert extra <= 1.9, f"even split holds {extra:.2f} tables (bound 1.9)"

    def test_general_level_with_excess_stays_under_2_25_tables(self):
        # one transferred table and one gains array, plus the LP's
        # tableaux, which grow with the working rows (functional games
        # take several lazy rounds)
        game = build_functional(FunctionalParams(N, 3.0))
        extra = extra_tables(
            lambda: general_level(game, allow_excess=True, force=True))
        assert extra <= 2.25, f"excess search holds {extra:.2f} tables (bound 2.25)"

    def test_verify_resolution_stays_under_1_9_tables(self):
        game = circular_pd(N)
        matrix = general_level(game).matrix
        extra = extra_tables(lambda: verify_resolution(game, matrix))
        assert extra <= 1.9, f"verification holds {extra:.2f} tables (bound 1.9)"


def one_shot_graphical(graph, params, n):
    """The graphical payoff formula over the whole table at once, in the
    operation order the builder keeps within each block."""
    w = dilemmas._graph_weights(graph, n)
    actions = np.zeros((n, 1 << n))
    for i in range(n):
        actions[i].reshape(-1, 2, 1 << i)[:, 1] = 1.0
    deg = w.sum(axis=1)[:, None]
    facing = w @ actions
    table = actions * deg
    if params.kind is not BaseGame.PRISONERS_DILEMMA:
        actions *= -2.0
        actions += 1.0
        actions *= facing
        table += actions
        if params.kind is BaseGame.STAG_HUNT:
            np.subtract(deg, table, out=table)
    table *= params.d
    np.subtract(deg, facing, out=facing)
    facing *= params.c
    table += facing
    return table.T


class TestBlockedBuild:
    # n = 11, 12 and 13 are 1, 2 and 4 blocks of 2**11 profiles
    @pytest.mark.parametrize("n", [11, 12, 13])
    @pytest.mark.parametrize("graph", list(GraphKind))
    @pytest.mark.parametrize("kind", list(BaseGame))
    def test_equals_one_shot_formula_bit_for_bit(self, n, graph, kind):
        params = BaseGameParams(kind, *STAKES)
        built = build_graphical(graph, params, n).payoffs
        expected = one_shot_graphical(graph, params, n)
        assert built.tobytes(order="F") == expected.tobytes(order="F")

    def test_action_blocks_tile_the_action_table(self):
        whole = dilemmas._action_table(13)
        blocks = [dilemmas._action_table(13, start, start + 1024)
                  for start in range(0, 1 << 13, 1024)]
        assert np.array_equal(np.hstack(blocks), whole)

    def test_table_is_adopted_read_only_and_column_major(self):
        table = circular_pd(12).payoffs
        assert table.flags.f_contiguous and not table.flags.writeable
        assert table.dtype == np.float64


def _games_up_to_ten():
    rng = np.random.default_rng(13)
    for n in range(3, 11):
        for graph in GraphKind:
            for kind in BaseGame:
                yield build_graphical(graph, BaseGameParams(kind, *STAKES), n)
        yield make_strict_dilemma(rng, n)


def _outcome(game):
    try:
        result = symmetrical_level(game, force=True)
    except NotResolvableError as exc:
        return str(exc)
    return result.level, result.binding_mask.tobytes()


class TestChunkedEvenSplit:
    def test_one_player_per_chunk_gives_the_one_chunk_results(self, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            games = list(_games_up_to_ten())
            one_chunk = [_outcome(game) for game in games]
            monkeypatch.setattr(levels, "_CHUNK_FLOATS", 1)
            per_player = [_outcome(game) for game in games]
        assert per_player == one_chunk

    @pytest.mark.filterwarnings("ignore:target CCCCC is not a social optimum")
    def test_immune_error_names_the_lowest_immune_player(self, monkeypatch):
        # players 3 and 4 (of 5) gain g by leaving the target at one
        # co-profile each while everyone else gains g too, so their
        # gains are the same under every even split
        table = circular_pd(5).payoffs.copy()
        for player in (2, 3):
            keep = 0b00001
            table[keep | (1 << player)] = table[keep] + 1.0
        game = NormalFormGame(table)
        with pytest.raises(NotResolvableError, match=r"immune.*\(player 3\)") as whole:
            symmetrical_level(game, force=True)
        monkeypatch.setattr(levels, "_CHUNK_FLOATS", 1)
        with pytest.raises(NotResolvableError, match=r"\(player 3\)") as chunked:
            symmetrical_level(game, force=True)
        assert str(chunked.value) == str(whole.value)


class TestAdoptedTables:
    def test_apply_transfers_returns_a_fresh_read_only_column_major_game(self):
        game = circular_pd(6)
        transformed = apply_transfers(game, exchange_matrix(6, 0.5))
        table = transformed.payoffs
        assert table.flags.f_contiguous and not table.flags.writeable
        assert table.dtype == np.float64
        assert not np.shares_memory(table, game.payoffs)

    def test_the_public_constructor_still_copies(self):
        given = np.asfortranarray(np.random.default_rng(2).normal(size=(16, 4)))
        game = NormalFormGame(given)
        assert not np.shares_memory(game.payoffs, given)
        assert given.flags.writeable

    def test_adoption_validates(self):
        with pytest.raises(ValueError, match="finite"):
            NormalFormGame._adopt(np.full((4, 2), np.inf, order="F"))
        with pytest.raises(ValueError, match="expected 8 profiles"):
            NormalFormGame._adopt(np.zeros((4, 3), order="F"))
