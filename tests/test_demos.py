"""Every demo script runs to completion with nothing on stderr, and prints
exactly its recorded output in ``tests/golden/<stem>.txt``: identical inputs
give byte-identical output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout == (GOLDEN / f"{demo.stem}.txt").read_text(encoding="utf-8")
