"""The benchmark's layer tracer (``perfbench/layertrace.py``) patches library
functions and methods by name.  Installing and uninstalling it here makes a
rename or removal of something it patches fail the tests, not only the
traced benchmark run."""

import importlib.util
import io
import json
import sys
from contextlib import redirect_stdout
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


def test_tracer_installed_after_a_first_main_call_sees_the_handler(tmp_path):
    """``cli.main`` keeps one parser per process; a tracer installed after
    the parser was built must still see the handler run through its
    wrapper, and count the command and its output bytes."""
    layertrace = _load_layertrace()
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"kind": "real_grid", "values": ["0", "1/2", "1", "inf"]}))
    argv = ["centers", str(path)]
    with redirect_stdout(io.StringIO()):
        cli.main(argv)
    handler = cli.cmd_centers
    tracer = layertrace.Tracer()
    wrapped = []

    def profile(frame, event, arg):
        # every span wrapper shares one code object; its closure names fn
        if event == "call" and frame.f_code is wrapper_code:
            wrapped.append(frame.f_locals.get("fn"))

    out = io.StringIO()
    try:
        tracer.install()
        wrapper_code = cli.cmd_centers.__code__
        with redirect_stdout(out):
            sys.setprofile(profile)
            try:
                with tracer.task(0):
                    code = cli.main(argv)
            finally:
                sys.setprofile(None)
    finally:
        tracer.uninstall()
    assert code == 0 and cli.cmd_centers is handler
    assert handler in wrapped
    spans = {name: (span_id, parent) for span_id, parent, _, _, name, _, _ in tracer.spans}
    main_id = spans["main"][0]
    assert spans["space_from_json"][1] == main_id
    assert spans["center_point_check"][1] == main_id
    assert tracer.counts["cli.commands"] == 1
    assert tracer.counts["cli.output_bytes"] == len(out.getvalue().encode("utf-8")) > 0
