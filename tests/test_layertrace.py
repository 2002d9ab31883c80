"""The benchmark's layer tracer (``perfbench/layertrace.py``) patches library
functions and methods by name.  Installing and uninstalling it here makes a
rename or removal of something it patches fail the tests, not only the
traced benchmark run."""

import importlib.util
from fractions import Fraction
from pathlib import Path

from qmet import balls, cli, extreal, posets, spaces

ROOT = Path(__file__).resolve().parent.parent


def _load_layertrace():
    path = ROOT / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patched_names():
    return (
        balls.standardness_probe,
        balls.GeometricBallFamily.validate_against_truncation,
        balls.FormalBall.__post_init__,
        posets.AbstractBasis.__init__,
        spaces.Space.dist,
        extreal.ExtReal.__add__,
        Fraction.__add__,
        cli.main,
    )


def test_tracer_installs_and_uninstalls():
    layertrace = _load_layertrace()
    before = _patched_names()
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        during = _patched_names()
    finally:
        tracer.uninstall()
    assert all(a is not b for a, b in zip(before, during))
    assert _patched_names() == before
