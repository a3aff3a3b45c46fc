"""tools/compare_outputs.py, the output-identity check, on one workload:
a recording holds searches, verdicts and classifications, diffs clean
against itself, and one changed search fails."""

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
