"""tools/compare_outputs.py, the output-identity check: a recording
holds searches, verdicts, binding checks, stage-2 values,
classifications and, for cli-solve, the digests of the written
documents; it diffs clean against itself, one changed search or digest
fails, and the diff counts what moved."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_outputs.py"


def _tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)


def test_sweep_small_recording_diffs_against_itself(tmp_path):
    recording = tmp_path / "small.json"
    run = _tool("record", "--workloads", "sweep-small", "--seeds", "1",
                recording)
    assert run.returncode == 0, run.stderr
    searches = json.loads(recording.read_text())["searches"]
    assert {entry["search"] for entry in searches.values()} == \
        {"general", "general+excess", "symmetric", "fastpath", "classify"}
    # every sweep-small op classifies its game, and every search that
    # returns a contract has it verified
    classified = [entry for entry in searches.values()
                  if entry["search"] == "classify"]
    assert classified and all("kind" in entry and "witnesses" in entry
                              for entry in classified)
    assert all(len(entry["verified"]) == 3 for entry in searches.values()
               if "level" in entry)
    assert all(entry["binding_agrees"] is True for entry in searches.values()
               if "level" in entry)
    # an excess search records its excess total, and no other search
    # has a second stage here
    for entry in searches.values():
        if "level" in entry:
            assert ("stage2" in entry) == (entry["search"] == "general+excess")
    assert any("stage2" in entry for entry in searches.values())

    same = _tool("diff", recording, recording)
    assert same.returncode == 0, same.stdout + same.stderr
    assert "differs" not in same.stdout

    key = sorted(k for k, entry in searches.items() if "level" in entry)[0]
    searches[key]["level"] = float.hex(float.fromhex(searches[key]["level"])
                                       + 1.0)
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps({"searches": searches}))
    other = _tool("diff", recording, changed)
    assert other.returncode == 1
    assert f"differs: {key}" in other.stdout

    # one general search's level moves by 1.0: its mode counts one moved
    # level and nothing else, and that is the largest change of level
    def row_after(key, entry):
        changed = json.loads(recording.read_text())
        mode = {"general": "general", "general+excess": "excess"}[
            changed["searches"][key]["search"]]
        changed["searches"][key] = entry
        path = tmp_path / "moved.json"
        path.write_text(json.dumps(changed))
        other = _tool("diff", recording, path)
        assert other.returncode == 1
        return next(line.split() for line in other.stdout.splitlines()
                    if line.split()[0] == mode)

    key = sorted(k for k, entry in searches.items()
                 if entry["search"] == "general" and "level" in entry)[0]
    entry = json.loads(recording.read_text())["searches"][key]
    level = float.fromhex(entry["level"])
    assert row_after(key, dict(entry, level=float.hex(level + 1.0)))[2:] == \
        ["1", "1", "0", "0", "0", "0", "1", "-"]
    # a search that raises where it returned moves every column but the
    # changes of value, which need a value on both sides
    assert row_after(key, {"search": "general", "error": "E",
                           "message": "m"})[2:] == ["1"] * 6 + ["0", "-"]

    # an excess search whose excess total alone moves by 0.5 counts no
    # moved column, and 0.5 is its mode's largest change of stage-2 value
    key = sorted(k for k, entry in searches.items() if "stage2" in entry)[0]
    entry = json.loads(recording.read_text())["searches"][key]
    total = float.fromhex(entry["stage2"])
    assert row_after(key, dict(entry, stage2=float.hex(total + 0.5)))[2:] == \
        ["1"] + ["0"] * 5 + ["0", "0.5"]


def test_cli_solve_recording_holds_document_digests(tmp_path):
    recording = tmp_path / "cli.json"
    run = _tool("record", "--workloads", "cli-solve", "--seeds", "1",
                recording)
    assert run.returncode == 0, run.stderr
    searches = json.loads(recording.read_text())["searches"]
    games = {key: entry for key, entry in searches.items()
             if entry["search"] == "game"}
    # every game a search ran on was written
    assert {key.split("|")[0] for key in games} == \
        {key.split("|")[0] for key in searches}
    assert all(len(entry["sha256"]) == 64 for entry in games.values())
    results = [entry for entry in searches.values() if "level" in entry]
    assert results and all(len(entry["result"]) == 64 for entry in results)

    for key, field in ((sorted(games)[0], "sha256"),
                       (next(k for k, e in sorted(searches.items())
                             if "result" in e), "result")):
        changed = json.loads(recording.read_text())
        changed["searches"][key][field] = "0" * 64
        path = tmp_path / "changed.json"
        path.write_text(json.dumps(changed))
        other = _tool("diff", recording, path)
        assert other.returncode == 1
        assert f"differs: {key}" in other.stdout
