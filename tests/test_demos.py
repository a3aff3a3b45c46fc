"""Every demo script runs to completion against the package in src/."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import package_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(script):
    run = subprocess.run([sys.executable, str(script)], cwd=ROOT,
                         env=package_env(),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
