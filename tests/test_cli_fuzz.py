"""Fuzz the exit-code contract of every ``qm`` subcommand: swap one literal
of a valid run (a flag or argument, or any value inside one of its JSON
input files) for a hostile value, and require exit 0, 1 or 2, no traceback,
and exit 1 only together with the record that shows the failure.  A check
that needs a way-below closed form the space does not name answers unknown
with exit 0: valid input is not bad input."""

import argparse
import io
import json
import string
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qmet.balls import GeometricBallFamily, parse_ball, standardness_probe, way_below
from qmet.cli import build_parser, main
from qmet.spaces import space_from_json

LINE = {
    "kind": "finite_table",
    "points": ["0", "1", "2", "3"],
    "dist": [[str(abs(a - b)) for b in range(4)] for a in range(4)],
}
GRID = {"kind": "real_grid", "values": ["0", "1/2", "1", "inf"]}
SORGENFREY = {"kind": "sorgenfrey_grid", "values": ["0", "1/2", "1"]}
SKEW = {"kind": "skewed_interval", "a": "1", "values": ["0", "1/3", "1"]}
SKEW_BAD = {"kind": "skewed_interval", "a": "1/2", "values": ["0", "1/10", "1"]}
DIAMOND = {
    "kind": "poset",
    "elements": ["bot", "l", "r", "top"],
    "leq": [
        [True, True, True, True],
        [False, True, False, True],
        [False, False, True, True],
        [False, False, False, True],
    ],
}
TAILED = {"kind": "tailed_sorgenfrey", "a": "1", "b": "1", "c": "1", "values": ["1/2", "1"]}
# passes the axioms; the second breaks the triangle inequality
TABLE_ASYM = {"kind": "finite_table", "points": ["a", "b"], "dist": [["0", "1"], ["2", "0"]]}
TABLE_BROKEN = {
    "kind": "finite_table",
    "points": ["a", "b", "c"],
    "dist": [["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]],
}
# breaks the triangle at (a, b, c), so thinning the open {a, b} by 2 keeps a
# and drops b above it
TABLE_THIN = {
    "kind": "finite_table",
    "points": ["a", "b", "c"],
    "dist": [["0", "0", "3"], ["1", "0", "1"], ["1", "1", "0"]],
}
BASIS = {
    "kind": "basis",
    "elements": ["a", "b", "c"],
    "prec": [[True, True, True], [False, True, True], [False, False, False]],
}


def _wb_witness(doc, lower, upper, kind):
    space = space_from_json(doc)
    wb = way_below(space, parse_ball(lower), parse_ball(upper)).witness
    assert wb.kind == kind
    return dict(wb.to_json(), space=space.to_json())


def _std_witness():
    skew = space_from_json(SKEW)
    family = GeometricBallFamily(skew, 0)
    std = standardness_probe(skew, family, parse_ball("(0, 0)"), 1).witness
    return dict(std.to_json(), space=SKEW)


WB_WITNESS = _wb_witness(GRID, "(inf, 2)", "(inf, 1)", "divergent")
APPROACH_WITNESS = _wb_witness(SORGENFREY, "(1, 1)", "(1, 1/2)", "left_approach")
SHRINK_WITNESS = _wb_witness(LINE, "(0, 1)", "(1, 1/2)", "radius_shrink")
STD_WITNESS = _std_witness()

DOCS = {
    "line": LINE,
    "grid": GRID,
    "skew": SKEW,
    "skew_bad": SKEW_BAD,
    "diamond": DIAMOND,
    "tailed": TAILED,
    "table_asym": TABLE_ASYM,
    "table_broken": TABLE_BROKEN,
    "table_thin": TABLE_THIN,
    "basis": BASIS,
    "geometric": {"family": {"kind": "geometric", "s": "0"}, "sup": "(0, 0)", "shift": "1"},
    "chain": {
        "family": {"kind": "finite", "members": ["(0, 3)", "(1, 2)"]},
        "sup": "(1, 2)",
        "shift": "1/2",
    },
    "func": {"values": {"0": "4", "1": "1/2", "2": "0", "3": "inf"}},
    "wb_witness": WB_WITNESS,
    "approach_witness": APPROACH_WITNESS,
    "shrink_witness": SHRINK_WITNESS,
    "std_witness": STD_WITNESS,
}

# Valid runs whose check needs a way-below closed form the space lacks: a
# kind without one, or a table that breaks the axioms.
NO_RULE_RUNS = [
    ["centers", "@skew"],
    ["smyth", "@tailed"],
    ["qideal-model", "@table_broken", "--depth", "2"],
]
# why each space of NO_RULE_RUNS has no closed form
NO_RULE_REASONS = {
    "skew": "for kind 'skewed_interval'",
    "tailed": "for kind 'tailed_sorgenfrey'",
    "table_broken": "where the table breaks triangle at (a, b, c): d(x,z) = 3 > 2 = d(x,y) + d(y,z)",
}
THIN_UNDECIDED = ["thin", "@table_thin", "--open", "a,b", "--r", "2"]

# Valid runs of every subcommand; "@name" stands for the file of DOCS[name].
RUNS = NO_RULE_RUNS + [
    ["axioms", "@skew_bad"],
    ["axioms", "@line", "--budget", "10", "--seed", "3"],
    ["order", "@line", "--depth", "2", "--seed", "3"],
    ["order", "@skew_bad", "--depth", "2"],
    ["wb", "@grid", "(inf, 2)", "(inf, 1)"],
    ["wb", "@line", "(0, 2)", "(1, 1/2)", "--depth", "3"],
    ["standard", "@skew", "@geometric"],
    ["standard", "@line", "@chain"],
    ["centers", "@grid"],
    ["smyth", "@grid", "--depth", "2", "--budget", "50", "--seed", "1"],
    ["envelope", "@line", "@func", "--alpha", "1/2"],
    ["dist", "@line", "--open", "0,1", "--point", "2"],
    ["thin", "@line", "--open", "0,1", "--r", "1"],
    THIN_UNDECIDED,
    ["rideal", "@basis"],
    ["idl", "@diamond"],
    ["qideal-model", "@diamond", "--depth", "2", "--factor", "3"],
    ["qideal-model", "@grid", "--depth", "2"],
    ["qideal-model", "@table_asym", "--depth", "2"],
    ["choquet", "@diamond", "--exhaustive", "--depth", "2"],
    ["choquet", "@diamond", "--exhaustive", "--depth", "600"],
    ["choquet", "@diamond", "--depth", "3", "--seed", "2"],
    ["export", "@diamond"],
    ["replay", "@wb_witness"],
    ["replay", "@approach_witness"],
    ["replay", "@shrink_witness"],
    ["replay", "@std_witness"],
]

# The records that show why a command failed, where one of them must.
FAILURE_RECORDS = {
    "axioms": {"axiom_violation"},
    "order": {"order_violation", "radius_law_violation"},
    "wb": {"witness"},
    "standard": {"witness"},
    "smyth": {"non_center", "approximation_gap"},
    "rideal": {"basis_violation"},
}
MODEL_FLAGS = ("layering", "limit_layer_isomorphic", "quasi_ideal", "halving")

HOSTILE = st.one_of(
    st.sampled_from(["1/0", "-1", "0.5", 1.5, None, [], "", "inf"]),
    # no digits, so no swapped depth or budget can ask for a huge run
    st.text(alphabet=string.ascii_letters + " ,()/-", max_size=10),
)


def _paths(node, at=()):
    """The path of every value below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield at + (key,)
        if isinstance(child, (dict, list)) and child:
            yield from _paths(child, at + (key,))


def _swapped(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _targets(run):
    """(argv position, None) or (file name, path in its document)."""
    out = [(k, None) for k in range(1, len(run)) if not run[k].startswith("@")]
    for arg in run[1:]:
        if arg.startswith("@"):
            out += [(arg[1:], path) for path in _paths(DOCS[arg[1:]])]
    return out


def _failure_shown(command, recs) -> bool:
    summary = recs[-1]
    if summary.get("record") != "summary" or summary.get("exit") != 1:
        return False
    kinds = {r["record"] for r in recs}
    if command in FAILURE_RECORDS:
        return bool(kinds & FAILURE_RECORDS[command])
    if command == "qideal-model":
        check = next(r for r in recs if r["record"] == "model_check")
        chain_ok = check["longest_finite_chain"] <= check["chain_bound"]
        return not (chain_ok and all(check[flag] for flag in MODEL_FLAGS))
    if command == "choquet":
        verdict = next(r for r in recs if r["record"] in ("choquet_sweep", "play_verdict"))
        return not all(v for v in verdict.values() if isinstance(v, bool))
    if command == "replay":
        return summary["verdict"] == "refuted"
    return False


def test_runs_cover_every_subcommand():
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert {run[0] for run in RUNS} == set(subparsers.choices)


def _run_swapped(run, where, path, value):
    """Run one swapped copy of a valid run; (argv, exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(run)
        if path is None:
            argv[where] = value if isinstance(value, str) else json.dumps(value)
        for k, arg in enumerate(argv):
            if k and arg.startswith("@") and arg[1:] in DOCS:
                doc = DOCS[arg[1:]]
                if arg[1:] == where:
                    doc = _swapped(doc, path, value)
                file = Path(tmp) / f"{arg[1:]}.json"
                file.write_text(json.dumps(doc))
                argv[k] = str(file)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    return argv, code, out.getvalue(), err.getvalue()


def _assert_exit_contract(run, where, path, value):
    argv, code, out, err = _run_swapped(run, where, path, value)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
    if code == 1:
        recs = [json.loads(line) for line in out.splitlines()]
        assert _failure_shown(run[0], recs), (argv, recs)
    return code, err


@pytest.mark.parametrize("run", RUNS, ids="_".join)
def test_valid_runs_keep_exit_contract(run):
    """Every run as written is valid input: it passes or fails, and it never
    ends in a traceback."""
    argv, code, out, err = _run_swapped(run, None, (), None)  # nothing swapped
    assert code in (0, 1) and "Traceback" not in err, (argv, code, err)


@pytest.mark.parametrize("run", RUNS, ids="_".join)
def test_valid_runs_exit_follows_the_verdict(run):
    """The summary's exit is what ``main`` returns: 1 exactly for a fail or
    refuted verdict, 0 otherwise.  ``export`` without ``--dot`` prints raw
    DOT and no summary."""
    argv, code, out, _ = _run_swapped(run, None, (), None)
    if run[0] == "export":
        assert code == 0
        return
    summary = json.loads(out.splitlines()[-1])
    assert summary["record"] == "summary" and summary["exit"] == code, (argv, summary)
    assert code == (1 if summary["verdict"] in ("fail", "refuted") else 0), (argv, summary)


@pytest.mark.parametrize("run", NO_RULE_RUNS, ids="_".join)
def test_no_closed_form_is_unknown_not_bad_input(run):
    """The summary alone, with verdict unknown and the reason, and exit 0."""
    argv, code, out, err = _run_swapped(run, None, (), None)
    assert (code, err) == (0, ""), argv
    assert [json.loads(line) for line in out.splitlines()] == [{
        "record": "summary",
        "command": run[0],
        "verdict": "unknown",
        "exit": 0,
        "reason": f"no way-below closed form {NO_RULE_REASONS[run[1][1:]]}",
    }]


def test_thinning_that_breaks_the_triangle_is_unknown():
    """{a, b} is open, but its thinning {a} is not: the library built that
    set, so the answer is unknown with the broken triangle, not bad input."""
    argv, code, out, err = _run_swapped(THIN_UNDECIDED, None, (), None)
    assert (code, err) == (0, ""), argv
    assert [json.loads(line) for line in out.splitlines()] == [{
        "record": "summary",
        "command": "thin",
        "verdict": "unknown",
        "exit": 0,
        "reason": "thinning by 2 breaks a triangle: a is kept, b above it is not, "
        "as d(a,c) = 3 > 1 = d(a,b) + d(b,c)",
    }]


def test_a_model_on_an_asymmetric_table_passes():
    argv, code, out, _ = _run_swapped(["qideal-model", "@table_asym", "--depth", "2"], None, (), None)
    summary = json.loads(out.splitlines()[-1])
    assert (code, summary["verdict"], summary["elements"]) == (0, "pass", 8), argv


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_swapped_literal_keeps_exit_contract(data):
    run = data.draw(st.sampled_from(RUNS))
    where, path = data.draw(st.sampled_from(_targets(run)))
    _assert_exit_contract(run, where, path, data.draw(HOSTILE))


# Swaps that once ended in a traceback, one per site, or whose string was
# read character by character as an array; each is bad input.
APPROACH_N0 = (["replay", "@approach_witness"], "approach_witness", ("family", "n0"))
SHAPE_CASES = {
    "table_not_array": (["axioms", "@line"], "line", ("dist",), 1.5),
    "table_row_not_array": (["axioms", "@line"], "line", ("dist", 0), 1.5),
    "points_not_array": (["axioms", "@line"], "line", ("points",), 1.5),
    "points_as_string": (["axioms", "@line"], "line", ("points",), "0123"),
    "table_row_as_string": (["axioms", "@line"], "line", ("dist", 0), "0123"),
    "point_name_array": (["axioms", "@line"], "line", ("points", 0), []),
    "grid_values_not_array": (["centers", "@grid"], "grid", ("values",), 1.5),
    "skewed_values_not_array": (["axioms", "@skew_bad"], "skew_bad", ("values",), 1.5),
    "poset_matrix_not_array": (["idl", "@diamond"], "diamond", ("leq",), 1.5),
    "poset_elements_not_array": (["idl", "@diamond"], "diamond", ("elements",), 1.5),
    "poset_element_array": (["idl", "@diamond"], "diamond", ("elements", 0), []),
    "basis_matrix_not_array": (["rideal", "@basis"], "basis", ("prec",), 1.5),
    "basis_elements_not_array": (["rideal", "@basis"], "basis", ("elements",), 1.5),
    "basis_element_array": (["rideal", "@basis"], "basis", ("elements", 0), []),
    "probe_members_not_array": (["standard", "@line", "@chain"], "chain", ("family", "members"), 1.5),
    "witness_claim_not_array": (["replay", "@wb_witness"], "wb_witness", ("claim",), 1.5),
    "witness_claim_empty": (["replay", "@wb_witness"], "wb_witness", ("claim",), []),
    "witness_members_not_array": (["replay", "@wb_witness"], "wb_witness", ("family", "members"), 1.5),
    "witness_member_not_pair": (["replay", "@std_witness"], "std_witness", ("members", 0), 1.5),
    "witness_limit_center_array": (
        ["replay", "@shrink_witness"], "shrink_witness", ("family", "limit_center"), []
    ),
    "witness_n0_string": (*APPROACH_N0, "x"),
    "witness_n0_fraction": (*APPROACH_N0, 1.5),
    "witness_n0_negative": (*APPROACH_N0, -1),
    "witness_n0_null": (*APPROACH_N0, None),
    "witness_n0_array": (*APPROACH_N0, [1]),
    "function_zero_denominator": (["envelope", "@line", "@func", "--alpha", "1"], "func", ("values", "1"), "1/0"),
}


@pytest.mark.parametrize("case", sorted(SHAPE_CASES))
def test_malformed_document_exits_2(case):
    run, where, path, value = SHAPE_CASES[case]
    code, err = _assert_exit_contract(run, where, path, value)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# 100,000 nested arrays: deeper than the JSON decoder can recurse
TOO_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("run", RUNS, ids="_".join)
def test_deeply_nested_file_exits_2(run, tmp_path):
    """Each file a run reads (space, probe, function, basis, poset or
    witness), swapped for one nested too deeply, is bad input."""
    files = {arg[1:]: tmp_path / f"{arg[1:]}.json" for arg in run[1:] if arg.startswith("@")}
    for deep in files:
        for name, file in files.items():
            file.write_text(TOO_DEEP if name == deep else json.dumps(DOCS[name]))
        argv = [str(files[a[1:]]) if a.startswith("@") else a for a in run]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert (code, err.getvalue()) == (2, f"error: {files[deep]}: JSON nested too deeply\n")


def test_number_names_are_still_names():
    """A basis may name its elements by numbers; its completion names its
    ideals by them too."""
    code, _ = _assert_exit_contract(["rideal", "@basis"], "basis", ("elements", 0), 1.5)
    assert code == 0
