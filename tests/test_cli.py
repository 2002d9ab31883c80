import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qmet.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def records(out):
    return [json.loads(line) for line in out.strip().splitlines()]


@pytest.fixture
def skew_bad(tmp_path):
    path = tmp_path / "skew.json"
    path.write_text(
        json.dumps({"kind": "skewed_interval", "a": "1/2", "values": ["0", "1/10", "1"]})
    )
    return str(path)


@pytest.fixture
def skew_probe(tmp_path):
    space = tmp_path / "skew1.json"
    space.write_text(
        json.dumps({"kind": "skewed_interval", "a": "1", "values": ["0", "1/3", "1"]})
    )
    probe = tmp_path / "probe.json"
    probe.write_text(
        json.dumps(
            {"family": {"kind": "geometric", "s": "0"}, "sup": "(0, 0)", "shift": "1"}
        )
    )
    return str(space), str(probe)


@pytest.fixture
def real_grid_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"kind": "real_grid", "values": ["0", "1/2", "1", "inf"]}))
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain2.json"
    path.write_text(
        json.dumps(
            {"kind": "poset", "elements": ["bot", "top"], "leq": [[True, True], [False, True]]}
        )
    )
    return str(path)


@pytest.fixture
def line_file(tmp_path):
    pts = [str(i) for i in range(4)]
    dist = [[str(abs(a - b)) for b in range(4)] for a in range(4)]
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"kind": "finite_table", "points": pts, "dist": dist}))
    return str(path)


def test_axioms_failure_prints_witness(capsys, skew_bad):
    code, out = run(capsys, "axioms", skew_bad)
    assert code == 1
    recs = records(out)
    assert recs[0]["record"] == "axiom_violation"
    assert recs[0]["witness"] == ["1/10", "0", "1"]
    assert recs[-1] == {
        "record": "summary",
        "command": "axioms",
        "verdict": "fail",
        "exit": 1,
        "mode": "exhaustive",
        "seed": None,
        "budget": 200000,
        "triples_checked": 27,
    }


def test_axioms_pass(capsys, line_file):
    code, out = run(capsys, "axioms", line_file)
    assert code == 0
    assert records(out)[-1]["verdict"] == "pass"


def test_centers_listing(capsys, real_grid_file):
    code, out = run(capsys, "centers", real_grid_file)
    assert code == 0
    assert records(out)[-1]["centers"] == ["0", "1/2", "1"]


def test_order_pass(capsys, line_file):
    code, out = run(capsys, "order", line_file, "--depth", "3")
    assert code == 0
    summary = records(out)[-1]
    assert summary["verdict"] == "pass" and summary["balls"] > 0


def test_order_takes_no_shift(capsys, line_file):
    # the ball order is shift invariant by construction, so there is no
    # shift to check
    err = _rejected(capsys, "order", line_file, "--shift", "1/2")
    assert err.endswith("unrecognized arguments: --shift 1/2")


def test_order_detects_broken_triangle(capsys, skew_bad):
    # a failing triangle inequality surfaces as a transitivity violation
    code, out = run(capsys, "order", skew_bad, "--depth", "3")
    assert code == 1
    recs = records(out)
    assert any(
        r["record"] == "order_violation" and r["law"] == "transitivity" for r in recs
    )


def test_wb_exit_codes(capsys, real_grid_file):
    code, _ = run(capsys, "wb", real_grid_file, "(0, 2)", "(1/2, 1)")
    assert code == 0
    code, out = run(capsys, "wb", real_grid_file, "(inf, 2)", "(inf, 1)")
    assert code == 1
    assert records(out)[0]["record"] == "witness"


def test_wb_unknown_exits_zero(capsys, tmp_path):
    space = tmp_path / "tailed.json"
    space.write_text(
        json.dumps(
            {"kind": "tailed_sorgenfrey", "a": "1", "b": "1", "c": "1", "values": ["1/2", "1"]}
        )
    )
    code, out = run(capsys, "wb", str(space), "(-2, 2)", "(-1, 0)")
    assert code == 0
    assert records(out)[-1]["verdict"] == "unknown"


def test_witness_replay_loop(capsys, real_grid_file, tmp_path):
    code, out = run(capsys, "wb", real_grid_file, "(inf, 2)", "(inf, 1)")
    assert code == 1
    witness = records(out)[0]
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness))
    code, out = run(capsys, "replay", str(path))
    assert code == 1
    assert records(out)[-1]["verdict"] == "refuted"


def test_standard_probe(capsys, skew_probe, tmp_path):
    space, probe = skew_probe
    code, out = run(capsys, "standard", space, probe)
    assert code == 1
    witness = records(out)[0]
    assert witness["candidate"] == "(1/3, 2/3)"
    path = tmp_path / "w.json"
    path.write_text(json.dumps(witness))
    code, _ = run(capsys, "replay", str(path))
    assert code == 1


def test_smyth(capsys, line_file, real_grid_file):
    code, _ = run(capsys, "smyth", line_file)
    assert code == 0
    code, out = run(capsys, "smyth", real_grid_file)
    assert code == 1
    kinds = {r["record"] for r in records(out)}
    assert "non_center" in kinds and "approximation_gap" in kinds


def test_envelope_dist_thin(capsys, line_file, tmp_path):
    func = tmp_path / "f.json"
    func.write_text(json.dumps({"values": {"0": "4", "1": "4", "2": "0", "3": "0"}}))
    code, out = run(capsys, "envelope", line_file, str(func), "--alpha", "1")
    assert code == 0
    values = {r["point"]: r["envelope"] for r in records(out) if r["record"] == "value"}
    assert values == {"0": "2", "1": "1", "2": "0", "3": "0"}

    code, out = run(capsys, "dist", line_file, "--open", "0,1", "--point", "0")
    assert code == 0
    assert records(out)[0]["value"] == "2"

    code, out = run(capsys, "thin", line_file, "--open", "0,1", "--r", "1")
    assert code == 0
    assert records(out)[0]["members"] == ["0"]


def test_rideal(capsys, tmp_path):
    good = tmp_path / "basis.json"
    good.write_text(
        json.dumps(
            {"kind": "basis", "elements": ["a", "b"], "prec": [[True, True], [False, False]]}
        )
    )
    code, out = run(capsys, "rideal", str(good))
    assert code == 0
    assert records(out)[-1]["ideals"] == 1

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "kind": "basis",
                "elements": ["a", "b", "c"],
                "prec": [
                    [False, True, False],
                    [False, False, True],
                    [False, False, False],
                ],
            }
        )
    )
    code, out = run(capsys, "rideal", str(bad))
    assert code == 1
    assert records(out)[0]["record"] == "basis_violation"


def test_axioms_summary_reports_triples_checked(capsys, line_file):
    code, out = run(capsys, "axioms", line_file, "--budget", "10")
    assert code == 0
    summary = records(out)[-1]
    assert (summary["mode"], summary["triples_checked"]) == ("sampled", 10)


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "poset", "elements": ["a"], "prec": [[False]]},
        {"kind": "basis", "elements": ["a", "a"], "prec": [[False, False], [False, False]]},
        {"kind": "basis", "elements": ["a", "b"], "prec": [[False, False]]},
    ],
    ids=["wrong_kind", "duplicate_names", "shape_mismatch"],
)
def test_rideal_malformed_basis_exits_2(capsys, tmp_path, doc):
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(doc))
    code = main(["rideal", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_rideal_interpolation_detail_ignores_hash_seed(tmp_path):
    # p, q and r lie strictly below y with nothing between them and y
    path = tmp_path / "basis.json"
    prec = [[False] * 4 for _ in range(4)]
    for i in range(3):
        prec[i][3] = True
    path.write_text(json.dumps({"kind": "basis", "elements": ["p", "q", "r", "y"], "prec": prec}))
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-m", "qmet.cli", "rideal", str(path)],
            capture_output=True, env=env, timeout=60,
        )
        assert done.returncode == 1, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    violation = records(outs[0].decode())[0]
    assert violation["detail"] == ["interpolation", "(('p', 'q', 'r'), 'y')"]


def test_standard_probe_tiny_skewed_gap(capsys, tmp_path):
    tiny = str(Fraction(1, 2**100))
    space = tmp_path / "tiny.json"
    space.write_text(
        json.dumps({"kind": "skewed_interval", "a": "1", "values": ["0", tiny, "1/2", "1"]})
    )
    code, _ = run(capsys, "axioms", str(space))
    assert code == 0
    probe = tmp_path / "probe.json"
    probe.write_text(
        json.dumps({"family": {"kind": "geometric", "s": "0"}, "sup": "(0, 0)", "shift": "1"})
    )
    code, out = run(capsys, "standard", str(space), str(probe))
    assert code == 1
    witness = records(out)[0]
    assert witness["candidate"] == f"({tiny}, {1 - Fraction(tiny)})"
    path = tmp_path / "w.json"
    path.write_text(json.dumps(witness))
    code, out = run(capsys, "replay", str(path))
    assert code == 1
    assert records(out)[-1]["verdict"] == "refuted"


def test_poset_kind_alias_is_rejected(capsys, tmp_path):
    path = tmp_path / "alias.json"
    path.write_text(json.dumps({"kind": "Poset", "elements": ["a"], "leq": [[True]]}))
    assert _rejected(capsys, "axioms", str(path)) == "error: unknown space kind 'Poset'"
    assert _rejected(capsys, "idl", str(path)) == "error: unexpected kind 'Poset'"


def test_idl(capsys, chain_file):
    code, out = run(capsys, "idl", chain_file)
    assert code == 0
    assert records(out)[-1]["ideals"] == 2


def test_qideal_model_with_dot(capsys, chain_file, tmp_path):
    dot = tmp_path / "model.dot"
    code, out = run(capsys, "qideal-model", chain_file, "--depth", "5", "--dot", str(dot))
    assert code == 0
    assert dot.read_text().startswith("digraph {")
    assert "shape=box" in dot.read_text()


def test_choquet(capsys, chain_file):
    code, out = run(capsys, "choquet", chain_file, "--exhaustive", "--depth", "3")
    assert code == 0
    sweep = records(out)[0]
    assert sweep["all_won"] and sweep["invariants"]

    code, out = run(capsys, "choquet", chain_file, "--depth", "3", "--seed", "4")
    assert code == 0
    assert records(out)[-2]["record"] == "play_verdict"


def _chain3_file(tmp_path):
    path = tmp_path / "chain3.json"
    leq = [[i <= j for j in range(3)] for i in range(3)]
    path.write_text(json.dumps({"kind": "poset", "elements": ["a", "b", "c"], "leq": leq}))
    return str(path)


def _chain3_plays(depth):
    """The plays of the given depth on the chain a < b < c, by a transfer
    matrix.  The states are up(a), up(b), up(c).  From up(a) the moves are
    (c, {c}), (b, {b,c}), (c, {b,c}), (a, up(a)), (b, up(a)), (c, up(a)),
    answered by c, b, b, a, a, a; from up(b) likewise (c, {c}), (b, {b,c}),
    (c, {b,c})."""
    step = [[3, 2, 1], [0, 2, 1], [0, 0, 1]]
    row = [1, 0, 0]
    for _ in range(depth):
        row = [sum(row[i] * step[i][j] for i in range(3)) for j in range(3)]
    return sum(row)


def test_choquet_exhaustive_at_depth_2000(capsys, tmp_path):
    code, out = run(capsys, "choquet", _chain3_file(tmp_path), "--exhaustive", "--depth", "2000")
    assert code == 0
    sweep = records(out)[0]
    assert sweep["plays"] == _chain3_plays(2000)
    assert sweep["states"] == 3


def test_choquet_count_past_the_int_digit_limit(capsys, tmp_path):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out = run(capsys, "choquet", _chain3_file(tmp_path), "--exhaustive", "--depth", "9500")
    assert code == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    want = _chain3_plays(9500)
    if limit:
        sys.set_int_max_str_digits(0)  # to read and print the 4,500-digit count
    try:
        assert len(str(want)) > 4300
        assert records(out)[0]["plays"] == want
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_export(capsys, chain_file, tmp_path):
    code, out = run(capsys, "export", chain_file)
    assert code == 0
    assert '"bot" -> "top";' in out
    target = tmp_path / "o.dot"
    code, _ = run(capsys, "export", chain_file, "--dot", str(target))
    assert code == 0
    assert '"bot" -> "top";' in target.read_text()


def test_usage_errors(capsys, tmp_path):
    assert main(["wb", str(tmp_path / "missing.json"), "(a, 1)", "(b, 1)"]) == 2
    assert main(["no-such-verb"]) == 2
    garbled = tmp_path / "bad.json"
    garbled.write_text("{nope")
    assert main(["axioms", str(garbled)]) == 2


def test_determinism_byte_identical(capsys, real_grid_file):
    _, out1 = run(capsys, "smyth", real_grid_file, "--seed", "3")
    _, out2 = run(capsys, "smyth", real_grid_file, "--seed", "3")
    assert out1 == out2


def test_reused_parser_carries_no_state(capsys, skew_bad):
    from qmet import cli

    run(capsys, "order", skew_bad, "--depth", "2", "--seed", "5")
    code, out = run(capsys, "order", skew_bad, "--depth", "2")
    assert records(out)[-1]["seed"] == 0
    assert cli._parser().parse_args(["order", skew_bad]).seed == 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    fresh = subprocess.run(
        [sys.executable, "-m", "qmet.cli", "order", skew_bad, "--depth", "2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (code, out) == (fresh.returncode, fresh.stdout)


def test_handler_patched_after_a_first_call_is_the_one_run(capsys, monkeypatch, line_file):
    from qmet import cli

    run(capsys, "centers", line_file)
    seen = []
    monkeypatch.setattr(cli, "cmd_centers", lambda args, out: seen.append(args.space) or 7)
    assert main(["centers", line_file]) == 7
    assert seen == [line_file]


def test_pretty_mode(capsys, real_grid_file):
    code, out = run(capsys, "--pretty", "centers", real_grid_file)
    assert code == 0
    assert out.startswith("[center]")


def _rejected(capsys, *argv):
    """Exit 2 with a one-line error on stderr, no traceback, nothing on stdout."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    return captured.err.strip().splitlines()[-1]


def test_top_level_json_array_is_rejected(capsys, tmp_path):
    path = tmp_path / "array.json"
    path.write_text("[1, 2]")
    err = _rejected(capsys, "axioms", str(path))
    assert err.startswith("error:") and "JSON object" in err


def test_float_distance_is_rejected(capsys, tmp_path):
    path = tmp_path / "float.json"
    path.write_text(
        json.dumps({"kind": "finite_table", "points": ["a", "b"], "dist": [[0, 1.5], [1.5, 0]]})
    )
    err = _rejected(capsys, "wb", str(path), "(a, 2)", "(b, 0)")
    assert err == "error: exact rational required, got float"


def test_budget_below_one_is_rejected(capsys, line_file):
    err = _rejected(capsys, "axioms", line_file, "--budget", "-5")
    assert "--budget: must be at least 1, got -5" in err


def test_negative_depth_is_rejected(capsys, line_file):
    err = _rejected(capsys, "wb", line_file, "(0, 2)", "(1, 0)", "--depth", "-2")
    assert "--depth: must be at least 0, got -2" in err


def test_number_ball_literal_is_rejected(capsys, real_grid_file, tmp_path):
    _, out = run(capsys, "wb", real_grid_file, "(inf, 2)", "(inf, 1)")
    witness = records(out)[0]
    witness["claim"] = [1, 2]
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness))
    err = _rejected(capsys, "replay", str(path))
    assert err == "error: a ball literal must be a string, got int"


# One child per hash seed runs every subcommand in-process and prints one
# JSON line per run: its argv, exit code, stdout and stderr.
_HASH_SEED_RUNNER = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from qmet.cli import main
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    print(json.dumps({"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}))
"""


def test_every_subcommand_ignores_hash_seed(
    tmp_path, skew_bad, skew_probe, real_grid_file, line_file
):
    from qmet.balls import GeometricBallFamily, parse_ball, standardness_probe, way_below
    from qmet.cli import build_parser
    from qmet.spaces import space_from_json

    def load_space(path):
        return space_from_json(json.loads(Path(path).read_text()))

    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    grid = load_space(real_grid_file)
    wb = way_below(grid, parse_ball("(inf, 2)"), parse_ball("(inf, 1)")).witness
    wb_file = write("wb.json", dict(wb.to_json(), space=grid.to_json()))
    skew_space, probe = skew_probe
    skew = load_space(skew_space)
    std = standardness_probe(skew, GeometricBallFamily(skew, 0), parse_ball("(0, 0)"), 1).witness
    std_file = write("std.json", dict(std.to_json(), space=skew.to_json()))
    diamond = write("diamond.json", {
        "kind": "poset",
        "elements": ["bot", "l", "r", "top"],
        "leq": [
            [True, True, True, True],
            [False, True, False, True],
            [False, False, True, True],
            [False, False, False, True],
        ],
    })
    prec = [[False] * 4 for _ in range(4)]
    for i in range(3):
        prec[i][3] = True
    basis_bad = write(
        "basis_bad.json", {"kind": "basis", "elements": ["p", "q", "r", "y"], "prec": prec}
    )
    basis = write("basis.json", {
        "kind": "basis", "elements": ["a", "b", "c"],
        "prec": [[True, True, True], [False, True, True], [False, False, False]],
    })
    func = write("f.json", {"values": {"0": "4", "1": "4", "2": "0", "3": "0"}})
    # a < b and c < d: an open holding a and c misses b and d, and two of
    # the names zz, yy, a are unknown; the error names the first in
    # carrier order and the first unknown as given
    two_chains = write("two_chains.json", {
        "kind": "poset",
        "elements": ["a", "b", "c", "d"],
        "leq": [[a <= b and a // 2 == b // 2 for b in range(4)] for a in range(4)],
    })
    bad_opens = [
        ["dist", two_chains, "--open", "a,c"], ["thin", two_chains, "--open", "a,c", "--r", "1"],
        ["dist", two_chains, "--open", "zz,yy,a"],
        ["thin", two_chains, "--open", "zz,yy,a", "--r", "0"],
    ]
    runs = [
        ["axioms", skew_bad], ["axioms", line_file, "--budget", "10"],
        ["order", line_file, "--depth", "2"], ["order", skew_bad, "--depth", "2"],
        ["wb", real_grid_file, "(inf, 2)", "(inf, 1)"],
        ["wb", real_grid_file, "(0, 2)", "(1/2, 1)"],
        ["standard", skew_space, probe],
        ["centers", real_grid_file], ["smyth", real_grid_file], ["smyth", line_file],
        ["envelope", line_file, func, "--alpha", "1"],
        ["dist", line_file, "--open", "0,1"], ["thin", line_file, "--open", "0,1", "--r", "1"],
        ["rideal", basis], ["rideal", basis_bad], ["idl", diamond],
        ["qideal-model", diamond, "--depth", "3"], ["qideal-model", real_grid_file, "--depth", "3"],
        ["choquet", diamond, "--exhaustive", "--depth", "3"],
        ["choquet", diamond, "--depth", "3", "--seed", "2"],
        ["export", diamond], ["replay", wb_file], ["replay", std_file],
    ] + bad_opens
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert {argv[0] for argv in runs} == set(subparsers.choices)
    outs = []
    for seed in ("1", "2", "4"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_RUNNER, json.dumps(runs)],
            capture_output=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1] == outs[2]
    results = records(outs[0].decode())
    assert [r["argv"] for r in results] == runs
    assert all(r["exit"] in (0, 1) for r in results[: -len(bad_opens)]), results
    assert [(r["exit"], r["stderr"]) for r in results[-len(bad_opens):]] == [
        (2, "error: not upward closed: a is in the set, b above it is not\n")
    ] * 2 + [(2, "error: zz\n")] * 2


# Every entry point that reads a rational literal, with the literal 1/0.
ZERO_DENOMINATOR_ARGV = {
    "thin_radius": lambda f: ["thin", f["line"], "--open", "0,1", "--r", "1/0"],
    "envelope_alpha": lambda f: ["envelope", f["line"], f["func"], "--alpha", "1/0"],
    "qideal_factor": lambda f: ["qideal-model", f["grid"], "--factor", "1/0"],
    "wb_ball_radius": lambda f: ["wb", f["grid"], "(0, 1/0)", "(1/2, 1)"],
    "real_grid_value": lambda f: ["axioms", f["grid_zero"]],
    "table_entry": lambda f: ["axioms", f["table_zero"]],
    "function_value": lambda f: ["envelope", f["line"], f["func_zero"], "--alpha", "1"],
}


@pytest.mark.parametrize("case", sorted(ZERO_DENOMINATOR_ARGV))
def test_zero_denominator_is_rejected(capsys, tmp_path, line_file, real_grid_file, case):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    files = {
        "line": line_file,
        "grid": real_grid_file,
        "func": write("f.json", {"values": {"0": "1", "1": "0", "2": "2", "3": "inf"}}),
        "func_zero": write("f0.json", {"values": {"0": "1", "1": "1/0", "2": "2", "3": "0"}}),
        "grid_zero": write("g0.json", {"kind": "real_grid", "values": ["0", "1/0", "1"]}),
        "table_zero": write(
            "t0.json",
            {"kind": "finite_table", "points": ["a", "b"], "dist": [["0", "1/0"], ["1", "0"]]},
        ),
    }
    code = main(ZERO_DENOMINATOR_ARGV[case](files))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines() == ["error: zero denominator in '1/0'"]
