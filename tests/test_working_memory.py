"""Working memory of the whole-table passes and of the game writer, and
the bits of the graphical builder.

A pass over a game's payoff table keeps alive at most the table, one
transferred table and one gains array (half a table); the even split
keeps two gains arrays and one buffer of the same size.  The graphical
builder holds its table and one row.  The bounds below are peaks traced
while one call runs at n = 14, above what was held before it, in
multiples of the payoff table's bytes; the writer's are in megabytes
and in multiples of the document's length.  The builder, which doubles
W @ A over the bits in its table and turns it into payoffs one player
at a time, must give the bits the one-shot formula gives.
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
from reward_transfer import dilemmas
from reward_transfer.serialize import dumps_game, game_blocks

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


class TestWriterPeaks:
    """The game writer on an all-distinct table, its worst case: every
    value of a block is its own text."""

    @pytest.fixture(scope="class")
    def game(self):
        return NormalFormGame(
            np.random.default_rng(N).uniform(-5.0, 5.0, size=(1 << N, N)))

    def test_streamed_blocks_stay_under_2_5_mb(self, game):
        def stream():
            for _ in game_blocks(game):
                pass
        peak = extra_tables(stream) * TABLE_BYTES / 1e6
        assert peak <= 2.5, f"streaming the game holds {peak:.2f} MB (bound 2.5)"

    def test_whole_document_stays_under_2_1_times_its_size(self, game):
        size = len(dumps_game(game))
        ratio = extra_tables(lambda: dumps_game(game)) * TABLE_BYTES / size
        assert ratio <= 2.1, f"dumps_game holds {ratio:.2f} documents (bound 2.1)"


def one_shot_graphical(graph, params, n):
    """The graphical payoff formula over the whole table at once: the
    facing W @ A as one product, then the formula's operations in the
    order the builder keeps for each player."""
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


class TestDoubledBuild:
    @pytest.mark.parametrize("n", range(2, 17))
    @pytest.mark.parametrize("graph", list(GraphKind))
    @pytest.mark.parametrize("kind", list(BaseGame))
    def test_equals_one_shot_formula_bit_for_bit(self, n, graph, kind):
        params = BaseGameParams(kind, *STAKES)
        with warnings.catch_warnings():
            # the two-player tycoon game warns that it is the base game
            warnings.simplefilter("ignore")
            built = build_graphical(graph, params, n).payoffs
        expected = one_shot_graphical(graph, params, n)
        assert built.tobytes(order="F") == expected.tobytes(order="F")

    def test_table_is_adopted_read_only_and_column_major(self):
        table = circular_pd(12).payoffs
        assert table.flags.f_contiguous and not table.flags.writeable
        assert table.dtype == np.float64


class TestEvenSplitErrors:
    @pytest.mark.filterwarnings("ignore:target CCCCC is not a social optimum")
    def test_immune_error_names_the_lowest_immune_player(self):
        # players 3 and 4 (of 5) gain g by leaving the target at one
        # co-profile each while everyone else gains g too, so their
        # gains are the same under every even split
        table = circular_pd(5).payoffs.copy()
        for player in (2, 3):
            keep = 0b00001
            table[keep | (1 << player)] = table[keep] + 1.0
        game = NormalFormGame(table)
        with pytest.raises(NotResolvableError, match=r"immune.*\(player 3\)"):
            symmetrical_level(game, force=True)


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
