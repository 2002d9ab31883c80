"""Self-tests of the benchmark: seeded inputs, repeatable results and counts.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layertrace import COUNTS  # noqa: E402

WORKLOADS = ("ball_sweep", "point_queries", "structures", "cli_session")


def _run(script, *argv):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, script), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _traced(name, seed):
    """One traced run: a full cycle untraced, traced and untraced again."""
    return _run("worker.py", "--workload", name, "--seed", str(seed), "--trace", "1")


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_repeats_results_and_counts(name):
    first, second = _traced(name, 7), _traced(name, 7)
    assert first["failed"] == 0, first["failures"]
    assert first["inputs"] == second["inputs"]
    assert first["fingerprint"] == second["fingerprint"]
    # tracing changes no result
    assert first["untraced_fingerprints"] == [first["fingerprint"]] * 2
    counts = {k: first["layers"][k] for k in COUNTS}
    assert counts == {k: second["layers"][k] for k in COUNTS}
    assert any(counts.values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_other_seed_changes_inputs(name):
    args = ["--workload", name, "--trace", "0", "--setup-only"]
    a = _run("worker.py", *args, "--seed", "7")
    b = _run("worker.py", *args, "--seed", "8")
    assert a["inputs"] != b["inputs"]


def test_tracer_restores_the_library():
    from fractions import Fraction

    from layertrace import Tracer

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from qmet import balls, cli, extreal, spaces

    before = (balls.way_below, cli.main, spaces.Space.dist,
              extreal.ExtReal.__add__, Fraction.__add__, balls.FormalBall.__post_init__)
    tracer = Tracer()
    tracer.install()
    assert balls.way_below is not before[0]
    tracer.uninstall()
    after = (balls.way_below, cli.main, spaces.Space.dist,
             extreal.ExtReal.__add__, Fraction.__add__, balls.FormalBall.__post_init__)
    assert after == before


def test_refuses_to_run_without_sources():
    lonely = os.path.join(ROOT, ".perfbench_runs", "no-sources")
    shutil.rmtree(lonely, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(lonely, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli_session",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=lonely, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(lonely, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
