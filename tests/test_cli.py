"""End-to-end runs of the command line front end through main(argv).

One test shells out to ``python3 -m reward_transfer`` to prove the
entry point wiring; everything else stays in-process for speed.
"""

import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import ARBITRARY_MATRIX_3DP, ARBITRARY_TABLE, package_env
from reward_transfer import (BaseGame, BaseGameParams, FunctionalParams,
                             GraphKind, NormalFormGame, TransferMatrix,
                             apply_transfers, build_functional,
                             build_graphical)
from reward_transfer.cli import main
from reward_transfer.serialize import dumps_game, parse_game


@pytest.fixture
def pd_path(tmp_path, pd_game):
    path = tmp_path / "pd.json"
    path.write_text(dumps_game(pd_game))
    return str(path)


@pytest.fixture
def arbitrary_path(tmp_path, arbitrary_game):
    path = tmp_path / "arb.json"
    path.write_text(dumps_game(arbitrary_game))
    return str(path)


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestPipeline:
    def test_generate_solve_verify(self, tmp_path, capsys):
        game = str(tmp_path / "game.json")
        result = str(tmp_path / "result.json")
        assert main(["generate", "cyclical", "-n", "4", "-c", "4",
                     "-d", "1", "-o", game]) == 0
        assert main(["classify", game]) == 0
        assert capsys.readouterr().out.strip() == "strict dilemma"
        assert main(["solve", game, "-o", result]) == 0
        doc = json.loads(open(result).read())
        assert doc["level"] == pytest.approx(0.8)
        # the result file doubles as verify's matrix input
        assert main(["verify", game, result]) == 0
        assert "dominant after transfers" in capsys.readouterr().out

    def test_transform_then_classify(self, tmp_path, capsys):
        game = str(tmp_path / "game.json")
        result = str(tmp_path / "result.json")
        fixed = str(tmp_path / "fixed.json")
        assert main(["generate", "cyclical", "-o", game]) == 0
        assert main(["solve", game, "-o", result]) == 0
        assert main(["transform", game, result, "-o", fixed]) == 0
        capsys.readouterr()
        # after the transfers the temptation is priced in: no longer
        # a dilemma, so classify signals with exit code 1
        assert main(["classify", fixed]) == 1
        out = capsys.readouterr().out
        assert "not a dilemma" in out


class TestClassify:
    def test_strict(self, pd_path, capsys):
        assert main(["classify", pd_path]) == 0
        assert capsys.readouterr().out.strip() == "strict dilemma"

    def test_partial(self, tmp_path, capsys):
        game = str(tmp_path / "fn.json")
        main(["generate", "functional", "-n", "4", "-c", "3", "-o", game])
        assert main(["classify", game]) == 0
        assert "partial dilemma" in capsys.readouterr().out

    def test_not_dilemma_lists_witnesses(self, tmp_path, capsys):
        game = write_json(tmp_path, "flat.json", {
            "players": 2,
            "payoffs": {"CC": [1, 1], "CD": [1, 1],
                        "DC": [1, 1], "DD": [1, 1]},
        })
        assert main(["classify", game]) == 1
        out = capsys.readouterr().out
        assert "not a dilemma" in out
        assert "player 1" in out

    def test_not_dilemma_listing_is_capped(self, tmp_path, capsys):
        # a constant 3-player game fails 18 times: twelve welfare
        # switches, then every temptation and every all-C vs all-D
        game = tmp_path / "flat3.json"
        game.write_text(dumps_game(NormalFormGame(np.ones((8, 3)))))
        assert main(["classify", str(game)]) == 1
        welfare = [f"  player {i + 1}: cooperation-raises-welfare fails "
                   f"against co-players {others}"
                   for i in range(3) for others in ("CC", "DC", "CD", "DD")]
        assert capsys.readouterr().out.splitlines() == (
            ["not a dilemma"] + welfare[:10] + ["  ... and 8 more"])

    def test_tolerance_flag(self, pd_path, capsys):
        # an absurd tolerance flattens every strict inequality
        assert main(["classify", pd_path, "--tolerance", "10"]) == 1
        capsys.readouterr()


class TestSolve:
    def test_symmetric_mode(self, arbitrary_path, capsys):
        assert main(["solve", arbitrary_path, "--mode", "symmetric"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["level"] == pytest.approx(4.0 / 11.0)
        assert doc["mode"] == "symmetric"

    def test_general_mode_default(self, arbitrary_path, capsys):
        assert main(["solve", arbitrary_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["level"] == pytest.approx(0.4869565217391304, abs=1e-9)
        assert doc["mode"] == "general"

    def test_target_flag(self, tmp_path, capsys):
        game = str(tmp_path / "tmc.json")
        table = NormalFormGame(np.array([
            [2, 2, 2], [4, 1.5, 1.5], [1.5, 4, 1.5], [2.5, 2.5, 0],
            [1.5, 1.5, 4], [2.5, 0, 2.5], [0, 2.5, 2.5], [0, 0, 0]]))
        open(game, "w").write(dumps_game(table))
        assert main(["solve", game, "--target", "DCC", "--force"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["level"] == pytest.approx(3.0 / 11.0, abs=1e-9)
        assert doc["target"] == "DCC"

    def test_fastpath(self, tmp_path, capsys):
        game = str(tmp_path / "cyc.json")
        main(["generate", "cyclical", "-n", "5", "-o", game])
        capsys.readouterr()
        assert main(["solve", game, "--mode", "fastpath"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["level"] == pytest.approx(0.75, abs=1e-9)

    def test_fastpath_rejects_other_targets(self, tmp_path, capsys):
        game = str(tmp_path / "cyc.json")
        main(["generate", "cyclical", "-o", game])
        capsys.readouterr()
        assert main(["solve", game, "--mode", "fastpath",
                     "--target", "DCC"]) == 3

    def test_fastpath_rejects_asymmetric_games(self, arbitrary_path):
        assert main(["solve", arbitrary_path, "--mode", "fastpath"]) == 3

    def test_allow_excess(self, tmp_path, capsys):
        game = str(tmp_path / "spd.json")
        main(["generate", "scaledpd", "-o", game])
        capsys.readouterr()
        assert main(["solve", game, "--allow-excess", "--force"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "general-with-excess"
        assert doc["level"] == pytest.approx(0.5, abs=1e-6)
        assert doc["excess"][0] == pytest.approx(8.0 / 18.0, abs=1e-3)

    def test_excess_refuses_refine_diagonal(self, pd_path, capsys):
        # refining is for conserving searches only
        assert main(["solve", pd_path, "--allow-excess",
                     "--refine-diagonal"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "refine_diagonal" in captured.err

    def test_excess_requires_general(self, pd_path):
        assert main(["solve", pd_path, "--mode", "symmetric",
                     "--allow-excess"]) == 3

    def test_non_dilemma_needs_force(self, tmp_path, capsys):
        game = str(tmp_path / "spd.json")
        main(["generate", "scaledpd", "-o", game])
        capsys.readouterr()
        assert main(["solve", game]) == 1
        err = capsys.readouterr().err
        assert "--force" in err
        assert "force=True" not in err

    def test_unresolvable_exit(self, tmp_path, capsys):
        anti = write_json(tmp_path, "anti.json", {
            "players": 2,
            "payoffs": {"CC": [0, 0], "DC": [1, 5],
                        "CD": [5, 1], "DD": [3, 3]},
        })
        with pytest.warns(UserWarning):
            assert main(["solve", anti, "--force"]) == 2

    def test_even_split_roundoff_below_zero(self, tmp_path, capsys):
        # a valid table whose even-split upper end comes out a few ulps
        # below 0; the share is 0, and the contract verifies
        game = write_json(tmp_path, "ulps.json", {
            "players": 2,
            "payoffs": {"CC": [0.6340699793474432, 0.496571693798853],
                        "DC": [1.4447691385613266, 0.496571693798853],
                        "CD": [0.318017387845798, 0.7108798632659449],
                        "DD": [0.4603553288673248, 0.5074698605445271]},
        })
        result = str(tmp_path / "result.json")
        with pytest.warns(UserWarning, match="social optimum"):
            assert main(["solve", game, "--mode", "symmetric", "--force",
                         "-o", result]) == 0
            assert main(["verify", game, result]) == 0
        assert json.loads(open(result).read())["level"] == 0
        assert "weakly dominant" in capsys.readouterr().out

    def test_determinism(self, arbitrary_path, capsys):
        main(["solve", arbitrary_path])
        first = capsys.readouterr().out
        main(["solve", arbitrary_path])
        assert capsys.readouterr().out == first


class TestGenerate:
    def test_defaults(self, capsys):
        assert main(["generate", "cyclical"]) == 0
        game = parse_game(capsys.readouterr().out)
        assert game.n == 3
        assert game.payoffs[1].tolist() == [4.0, 3.0, 0.0]

    def test_base_selection(self, capsys):
        assert main(["generate", "symmetrical", "--base", "staghunt",
                     "-c", "4", "-d", "1", "-n", "2"]) == 0
        game = parse_game(capsys.readouterr().out)
        assert game.payoffs.tolist() == [[5, 5], [4, 0], [0, 4], [1, 1]]

    def test_functional_rejects_graph_flags(self, capsys):
        assert main(["generate", "functional", "--base", "pd"]) == 3
        assert main(["generate", "functional", "-d", "1"]) == 3

    def test_scaledpd_rejects_graph_flags(self, capsys):
        assert main(["generate", "scaledpd", "--base", "chicken"]) == 3
        assert main(["generate", "scaledpd", "-d", "2"]) == 3
        assert main(["generate", "scaledpd", "-n", "5"]) == 3
        assert main(["generate", "scaledpd", "-c", "9"]) == 3
        assert main(["generate", "scaledpd", "-n", "5", "-c", "9"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "scaledpd games take only --epsilon" in captured.err

    def test_only_scaledpd_takes_epsilon(self, capsys):
        assert main(["generate", "cyclical", "--epsilon", "5", "-n", "2"]) == 3
        assert main(["generate", "functional", "--epsilon", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cyclical games do not take --epsilon" in captured.err
        assert "functional games do not take --epsilon" in captured.err

    def test_defaults_fill_per_family(self, capsys):
        assert main(["generate", "scaledpd"]) == 0
        default = capsys.readouterr().out
        assert parse_game(default).n == 2
        assert main(["generate", "scaledpd", "--epsilon", "1e-6"]) == 0
        assert capsys.readouterr().out == default
        assert main(["generate", "functional"]) == 0
        assert parse_game(capsys.readouterr().out) == \
            build_functional(FunctionalParams(3, 3.0))
        assert main(["generate", "cyclical", "--base", "chicken"]) == 0
        assert parse_game(capsys.readouterr().out) == build_graphical(
            GraphKind.CYCLICAL, BaseGameParams(BaseGame.CHICKEN, 3.0, 1.0), 3)

    @pytest.mark.parametrize("n", ["21", "40"])
    def test_too_many_players_refused_before_allocating(self, n, capsys):
        tracemalloc.start()
        try:
            assert main(["generate", "cyclical", "-n", n]) == 3
            assert main(["generate", "functional", "-n", n]) == 3
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at most 20 players" in captured.err

    def test_bad_params_exit_code(self, capsys):
        assert main(["generate", "cyclical", "-c", "1", "-d", "2"]) == 3
        assert "c > d" in capsys.readouterr().err

    def test_unknown_kind(self):
        assert main(["generate", "mystery"]) == 3

    def test_byte_determinism(self, capsys):
        main(["generate", "circular", "-n", "5"])
        first = capsys.readouterr().out
        main(["generate", "circular", "-n", "5"])
        assert capsys.readouterr().out == first


class TestStreamedGameFiles:
    """generate and transform write the game document block by block;
    the bytes are dumps_game's."""

    @pytest.mark.parametrize("n", [2, 3, 5, 9, 14])
    def test_generate_writes_dumps_game(self, n, tmp_path):
        path = tmp_path / "g.json"
        assert main(["generate", "functional", "-n", str(n), "-c", "3.07",
                     "-o", str(path)]) == 0
        expected = dumps_game(build_functional(FunctionalParams(n, 3.07)))
        assert path.read_text() == expected

    @pytest.mark.parametrize("n", [2, 3, 5, 9, 14])
    def test_transform_writes_dumps_game(self, n, tmp_path):
        game = build_graphical(GraphKind.CIRCULAR,
                               BaseGameParams(BaseGame.PRISONERS_DILEMMA,
                                              2.9731, 1.0123), n)
        shares = np.full((n, n), 0.5 / (n - 1))
        np.fill_diagonal(shares, 0.5)
        game_path = tmp_path / "g.json"
        game_path.write_text(dumps_game(game))
        matrix = write_json(tmp_path, "m.json", shares.tolist())
        out = tmp_path / "t.json"
        assert main(["transform", str(game_path), matrix, "-o", str(out)]) == 0
        expected = dumps_game(apply_transfers(parse_game(dumps_game(game)),
                                              TransferMatrix(shares)))
        assert out.read_text() == expected


class TestTransform:
    def test_matches_library(self, arbitrary_path, tmp_path, capsys):
        matrix = write_json(tmp_path, "m.json", ARBITRARY_MATRIX_3DP)
        assert main(["transform", arbitrary_path, matrix]) == 0
        game = parse_game(capsys.readouterr().out)
        ccc = game.payoffs[0]
        # the rounded contract moves the all-C rewards toward even
        expected = np.array(ARBITRARY_TABLE[0], float) @ np.array(
            ARBITRARY_MATRIX_3DP)
        assert np.allclose(ccc, expected, atol=1e-12)

    def test_missing_file(self, arbitrary_path, tmp_path):
        assert main(["transform", arbitrary_path,
                     str(tmp_path / "nope.json")]) == 3


BAD_TOLERANCES = ["nan", "inf", "-1"]


class TestUnreadableTolerance:
    """Every comparison with a NaN tolerance is false, so no verdict
    read with it means anything: classify and verify refuse it, and
    infinite and negative ones, as an input error."""

    @pytest.mark.parametrize("tolerance", BAD_TOLERANCES)
    def test_classify(self, pd_path, tolerance, capsys):
        assert main(["classify", pd_path, "--tolerance", tolerance]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance" in captured.err

    @pytest.mark.parametrize("tolerance", BAD_TOLERANCES)
    def test_verify(self, tmp_path, tolerance, capsys):
        game = str(tmp_path / "g.json")
        main(["generate", "cyclical", "-o", game])
        identity = write_json(tmp_path, "id.json",
                              [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        capsys.readouterr()
        assert main(["verify", game, identity]) == 2
        capsys.readouterr()
        assert main(["verify", game, identity,
                     "--tolerance", tolerance]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance" in captured.err


class TestVerify:
    def test_good_matrix(self, arbitrary_path, tmp_path, capsys):
        result = str(tmp_path / "res.json")
        main(["solve", arbitrary_path, "-o", result])
        capsys.readouterr()
        assert main(["verify", arbitrary_path, result]) == 0
        assert "weakly dominant" in capsys.readouterr().out

    def test_bad_matrix_details(self, arbitrary_path, tmp_path, capsys):
        matrix = write_json(tmp_path, "selfish.json",
                            [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert main(["verify", arbitrary_path, matrix]) == 2
        out = capsys.readouterr().out
        assert "NOT weakly dominant" in out
        assert "gains" in out

    def test_rounded_matrix_needs_loose_tolerance(self, arbitrary_path,
                                                  tmp_path, capsys):
        # three decimals of rounding leave microscopic temptations
        matrix = write_json(tmp_path, "rounded.json", ARBITRARY_MATRIX_3DP)
        assert main(["verify", arbitrary_path, matrix]) == 2
        capsys.readouterr()
        assert main(["verify", arbitrary_path, matrix,
                     "--tolerance", "1e-2"]) == 0
        capsys.readouterr()

    def test_target_override(self, tmp_path, capsys):
        game = str(tmp_path / "pd.json")
        main(["generate", "cyclical", "-n", "2", "-c", "4", "-d", "1",
              "-o", game])
        matrix = write_json(tmp_path, "m.json", [[0.5, 0.5], [0.5, 0.5]])
        capsys.readouterr()
        with pytest.warns(UserWarning, match="social optimum"):
            code = main(["verify", game, matrix, "--target", "DD"])
        assert code == 2

    def test_wrong_sized_target(self, arbitrary_path, tmp_path):
        matrix = write_json(tmp_path, "m.json",
                            [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert main(["verify", arbitrary_path, matrix, "--target", "CC"]) == 3


class TestAnalytic:
    def test_level_line(self, capsys):
        assert main(["analytic", "cyclical", "-c", "4", "-d", "1"]) == 0
        out = capsys.readouterr().out
        assert "general level: 0.8" in out

    def test_limit_note(self, capsys):
        assert main(["analytic", "circular", "-n", "30"]) == 0
        assert "(large-n limit)" in capsys.readouterr().out

    def test_matrix_output(self, capsys):
        assert main(["analytic", "cyclical", "-c", "4", "-d", "1",
                     "--matrix"]) == 0
        out = capsys.readouterr().out
        rows = json.loads(out[out.index("["):])
        assert rows[0] == pytest.approx([0.8, 0.2, 0.0], abs=1e-12)

    def test_matrix_requires_general(self, capsys):
        assert main(["analytic", "cyclical", "--mode", "symmetric",
                     "--matrix"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--matrix" in captured.err

    def test_refused_matrix_prints_nothing(self, capsys):
        # the limiting circular matrix needs three players, and a
        # refused call writes nothing to stdout, not even the level line
        assert main(["analytic", "circular", "-n", "2", "--matrix"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n >= 3" in captured.err

    def test_symmetric_mode(self, capsys):
        assert main(["analytic", "tycoon", "--mode", "symmetric",
                     "-n", "4", "-c", "3", "-d", "1"]) == 0
        assert "symmetric level: 0.5" in capsys.readouterr().out


class TestTopLevel:
    def test_unknown_subcommand(self):
        assert main(["conquer"]) == 3

    def test_no_arguments(self):
        assert main([]) == 3

    def test_missing_game_file(self, tmp_path):
        assert main(["classify", str(tmp_path / "ghost.json")]) == 3

    def test_integer_beyond_float_range_is_an_input_error(self, pd_path,
                                                           tmp_path, capsys):
        huge = "1" + "0" * 400
        game = tmp_path / "huge.json"
        game.write_text(open(pd_path).read().replace("[1, 1]", f"[1, {huge}]"))
        matrix = tmp_path / "huge-matrix.json"
        matrix.write_text(f"[[1, 0], [{huge}, 0]]")
        for argv in (["classify", str(game)], ["solve", str(game)],
                     ["verify", str(game), str(matrix)],
                     ["verify", pd_path, str(matrix)]):
            assert main(argv) == 3
            assert "beyond the float range" in capsys.readouterr().err

    def test_repeated_key_is_an_input_error(self, pd_path, tmp_path, capsys):
        game = tmp_path / "twice.json"
        game.write_text(open(pd_path).read().replace(
            '"DD"', '"CC": [9, 9],\n    "DD"'))
        for argv in (["classify", str(game)], ["solve", str(game)]):
            assert main(argv) == 3
            assert "duplicate key 'CC'" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        game = tmp_path / "game.json"
        run = subprocess.run(
            [sys.executable, "-m", "reward_transfer", "generate",
             "cyclical", "-o", str(game)],
            capture_output=True, text=True, env=package_env())
        assert run.returncode == 0
        run = subprocess.run(
            [sys.executable, "-m", "reward_transfer", "classify", str(game)],
            capture_output=True, text=True, env=package_env())
        assert run.returncode == 0
        assert "strict dilemma" in run.stdout
