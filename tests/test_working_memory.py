"""Working memory of the whole-table passes and of the game writer, and
the bits of the graphical builder.

Every gain pass (classification, the even split, the lazy scan, the
binding set and verification) reads a table's deviation gains in
pieces of at most a block's gains (``game._gain_blocks``; a block is
2**13 profiles).  Over a contract, past 13 players, it keeps alive one
transferred block and its gains, the top-bit players' columns of the
transferred table and masks of a byte per deviation, never a whole
transferred table or gains array; without one it reads a few whole
player columns at a time.  The even split forms its pieces twice
rather than keep them.  The graphical
builder holds its table and one row.  The bounds below are peaks traced
while one call runs at n = 14 and n = 16, above what was held before
it, in multiples of the payoff table's bytes (a block is half a table
at n = 14 and an eighth at n = 16); a whole op at n = 16, build
included, stays under 1.75 tables.  The writer's are in megabytes and
in multiples of the document's length.  The builder, which doubles
W @ A over the bits in its table and turns it into payoffs one player
at a time, must give the bits the one-shot formula gives.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from reward_transfer import (BaseGame, BaseGameParams,
                             FunctionalParams, GraphKind, NormalFormGame,
                             NotResolvableError, TransferMatrix,
                             apply_transfers, binding_constraints,
                             build_functional, build_graphical,
                             conservation_check, exchange_matrix,
                             general_level,
                             general_level_symmetric_fastpath,
                             symmetrical_level, verify_resolution)
from reward_transfer import dilemmas, game as game_module
from reward_transfer.serialize import dumps_game, game_blocks

N = 14
TABLE_BYTES = N * (1 << N) * 8
# non-integer stakes keep rounding in play
STAKES = (3.04, 0.97)


def extra_tables(call, n=N) -> float:
    """The traced peak while ``call()`` runs, above what was held before
    it, in payoff tables of n players."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - before) / (n * (1 << n) * 8)


def circular_pd(n):
    return build_graphical(
        GraphKind.CIRCULAR, BaseGameParams(BaseGame.PRISONERS_DILEMMA, *STAKES), n)


class TestPeaks:
    @pytest.mark.parametrize("graph", list(GraphKind))
    def test_build_graphical_holds_at_most_one_table_beside_its_own(self, graph):
        params = BaseGameParams(BaseGame.CHICKEN, *STAKES)
        extra = extra_tables(lambda: build_graphical(graph, params, N)) - 1.0
        assert extra <= 1.0, f"build holds {extra:.2f} tables beside its own (bound 1.0)"

    def test_symmetrical_level_stays_under_1_1_tables(self):
        # the game's welfare column (a fact kept on the game) included
        game = circular_pd(N)
        extra = extra_tables(lambda: symmetrical_level(game))
        assert extra <= 1.1, f"even split holds {extra:.2f} tables (bound 1.1)"

    def test_general_level_with_excess_stays_under_1_35_tables(self):
        # one transferred block and its gains, the top-bit column, plus
        # the LP's tableaux, which grow with the working rows
        # (functional games take several lazy rounds)
        game = build_functional(FunctionalParams(N, 3.0))
        extra = extra_tables(
            lambda: general_level(game, allow_excess=True, force=True))
        assert extra <= 1.35, f"excess search holds {extra:.2f} tables (bound 1.35)"

    def test_verify_resolution_stays_under_0_9_tables(self):
        game = circular_pd(N)
        matrix = general_level(game).matrix
        extra = extra_tables(lambda: verify_resolution(game, matrix))
        assert extra <= 0.9, f"verification holds {extra:.2f} tables (bound 0.9)"


BIG = 16


@pytest.mark.filterwarnings("ignore")
class TestPeaksAtSixteenPlayers:
    """At n = 16 a block is an eighth of the table, so no pass comes
    near a table beside the game's own."""

    @pytest.fixture(scope="class")
    def game(self):
        return circular_pd(BIG)

    @pytest.fixture(scope="class")
    def matrix(self, game):
        return general_level(game).matrix

    @pytest.mark.parametrize("name, call, bound", [
        # each pass on a fresh copy of the game, whose welfare column
        # (a sixteenth of a table) is formed within the pass
        ("classification", lambda g, m: game_module._classify(g, 1e-9), 0.15),
        ("even split", lambda g, m: symmetrical_level(g), 0.35),
        ("general search", lambda g, m: general_level(g), 0.65),
        ("verification", verify_resolution, 0.5),
    ], ids=["classify", "symmetric", "general", "verify"])
    def test_a_pass_stays_under_its_bound(self, game, matrix, name, call,
                                          bound):
        game = NormalFormGame(game.payoffs)
        extra = extra_tables(lambda: call(game, matrix), BIG)
        assert extra <= bound, f"{name} holds {extra:.2f} tables (bound {bound})"

    def test_binding_constraints_stays_under_0_6_tables(self, game):
        # the even split binds all 524,288 constraints; the mask holds a
        # byte for each
        result = symmetrical_level(game)
        assert result.binding_mask.all()
        extra = extra_tables(lambda: binding_constraints(game, result), BIG)
        assert extra <= 0.6, f"the binding set holds {extra:.2f} tables (bound 0.6)"

    def test_verifying_the_identity_stays_under_3_tables(self, game):
        # every deviation gains: the report holds a key and a gap for
        # each of the 524,288, and builds no triple until one is read
        identity = TransferMatrix.identity(BIG)
        reports = [verify_resolution(game, identity)]
        extra = extra_tables(
            lambda: reports.append(verify_resolution(game, identity)), BIG)
        assert extra <= 3.0, f"verification holds {extra:.2f} tables (bound 3.0)"
        assert reports[1].violation_count == BIG << (BIG - 1)

    def test_conservation_check_stays_under_0_25_tables(self, game):
        # the welfare drift is the table times each row's sum less one:
        # a column, not a transferred table
        game = NormalFormGame(game.payoffs)
        matrix = exchange_matrix(BIG, 0.4)
        checked = []
        extra = extra_tables(
            lambda: checked.append(conservation_check(game, matrix)), BIG)
        assert checked == [True]
        assert extra <= 0.25, f"the check holds {extra:.2f} tables (bound 0.25)"

    def test_excess_search_stays_under_0_75_tables(self):
        game = build_functional(FunctionalParams(BIG, 3.0))
        extra = extra_tables(
            lambda: general_level(game, allow_excess=True, force=True), BIG)
        assert extra <= 0.75, f"excess search holds {extra:.2f} tables (bound 0.75)"

    @pytest.mark.parametrize("family, search", [
        ("circular", symmetrical_level), ("circular", general_level),
        ("circular", general_level_symmetric_fastpath),
        ("functional", lambda g: general_level(g, force=True)),
        ("functional", lambda g: general_level(g, allow_excess=True,
                                               force=True)),
        ("functional", lambda g: general_level(g, refine_diagonal=True,
                                               force=True)),
    ], ids=["symmetric", "general", "fastpath", "functional-general",
            "functional-excess", "functional-refine"])
    def test_a_whole_op_stays_under_1_75_tables(self, family, search):
        # build, classify (through the search's dilemma gate), search and
        # verify, as one benchmark op does; the game's own table counts
        def op():
            game = (circular_pd(BIG) if family == "circular"
                    else build_functional(FunctionalParams(BIG, 3.0)))
            verify_resolution(game, search(game).matrix)
        extra = extra_tables(op, BIG)
        assert extra <= 1.75, f"the op holds {extra:.2f} tables (bound 1.75)"


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
