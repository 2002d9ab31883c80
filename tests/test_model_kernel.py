"""The quasi-ideal model built and checked on the integer ball-grid kernel
against the pairwise reference in ``tests/model_reference.py``: equal posets,
element lists and check reports (by ``repr``), the same exception on tables
that break the axioms, and ``qm qideal-model`` output pinned to
``tests/golden/qideal_model/``."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import is_symmetric, random_table_space
from model_reference import build_model_pairwise, model_check_pairwise
from qmet.cli import main
from qmet.errors import NoOracle
from qmet.extreal import ExtReal
from qmet.posets import FinitePoset, quasi_ideal_check
from qmet.qideal import ModelPoset, build_model, quasi_ideal_model_check
from qmet.spaces import (
    FiniteTableSpace,
    PosetSpace,
    RealGridSpace,
    SorgenfreyGridSpace,
    parse_point_value,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "qideal_model"

FACTORS = [Fraction(2), Fraction(3, 2), Fraction(9, 7), Fraction(5), Fraction(1000)]


def _spaces():
    diamond = FinitePoset.from_relation(
        ["bot", "l", "r", "top"],
        [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
    )
    return {
        "poset_chain": PosetSpace(FinitePoset.chain(["a", "b", "c"])),
        "poset_diamond": PosetSpace(diamond),
        "poset_antichain": PosetSpace(FinitePoset.from_relation(["x", "y"], [])),
        "real_grid": RealGridSpace([parse_point_value(s) for s in ["0", "1/3", "1", "2"]]),
        "real_grid_inf": RealGridSpace([parse_point_value(s) for s in ["0", "1/2", "1", "inf"]]),
        "sorgenfrey": SorgenfreyGridSpace(["0", "1/4", "1", "3/2"]),
        "metric_line": FiniteTableSpace.metric_line(["0", "1/3", "1", "5/2"]),
        "symmetric_table": random_table_space(4, seed=3, symmetric=True),
        "one_point": FiniteTableSpace.metric_line([0]),
        "one_point_poset": PosetSpace(FinitePoset.chain(["only"])),
    }


SPACES = _spaces()


def _outcome(build, check, space, depth, factor):
    """The built poset, elements and report by repr, or the exception's type
    and message."""
    try:
        m = build(space, depth, factor)
        return repr(m.poset), repr(m.elements), repr(check(m))
    except Exception as e:  # the two routes must fail alike
        return type(e), str(e)


@pytest.mark.parametrize("name", sorted(SPACES))
@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_kernel_model_matches_pairwise_reference(name, depth):
    space = SPACES[name]
    for factor in FACTORS:
        m = build_model(space, depth, factor)
        ref = build_model_pairwise(space, depth, factor)
        assert m.poset == ref.poset
        assert repr(m.poset) == repr(ref.poset)
        assert repr(m.elements) == repr(ref.elements)
        report = quasi_ideal_model_check(m)
        assert repr(report) == repr(model_check_pairwise(ref))
        assert report.passed


@pytest.mark.parametrize("seed", range(10))
def test_asymmetric_tables_give_models_that_match_the_reference(seed):
    """A table that passes the axioms names the rule, symmetric or not, and
    its model passes the check at every depth."""
    space = random_table_space(3 + seed % 3, seed)
    assert not is_symmetric(space)
    for depth in (1, 2, 3, 4, 5):
        m = build_model(space, depth)
        ref = build_model_pairwise(space, depth)
        assert repr(m.poset) == repr(ref.poset)
        assert repr(m.elements) == repr(ref.elements)
        report = quasi_ideal_model_check(m)
        assert report.passed and repr(report) == repr(model_check_pairwise(ref))


def _table(rows):
    points = [f"p{i}" for i in range(len(rows))]
    return FiniteTableSpace(points, [[ExtReal.parse(v) for v in row] for row in rows])


BUILT = "built"

# (table, the outcomes seen over the depths and factors: built, or the
# exception type).  A table that breaks the axioms names no way-below rule,
# so neither route builds a model on it.
BROKEN_TABLES = {
    # d(p0, p0) > 0
    "self_distance": ([["1", "2"], ["2", "0"]], {NoOracle}),
    "self_distance_small": ([["1/8", "1"], ["1", "1/2"]], {NoOracle}),
    # d(p0, p2) > d(p0, p1) + d(p1, p2)
    "triangle": (
        [["0", "1/8", "2"], ["1/8", "0", "1/8"], ["2", "1/8", "0"]],
        {NoOracle},
    ),
    # two distinct points at distance 0 both ways
    "not_t0": ([["0", "0"], ["0", "0"]], {NoOracle}),
    "not_t0_chain": ([["0", "0", "1"], ["0", "0", "0"], ["1", "0", "0"]], {NoOracle}),
}


@pytest.mark.parametrize("name", sorted(BROKEN_TABLES))
def test_broken_tables_fail_alike(name):
    rows, expected = BROKEN_TABLES[name]
    space = _table(rows)
    seen = set()
    for depth in (1, 2, 4):
        for factor in FACTORS:
            new = _outcome(build_model, quasi_ideal_model_check, space, depth, factor)
            ref = _outcome(build_model_pairwise, model_check_pairwise, space, depth, factor)
            assert new == ref
            seen.add(new[0] if len(new) == 2 else BUILT)
    assert seen == expected


def test_random_symmetric_tables_agree_with_reference():
    """Symmetric tables with arbitrary entries and diagonal: most break the
    axioms in some way, and both routes must still agree."""
    rng = random.Random(11)
    values = ["0", "1/4", "1/2", "1", "2", "inf"]
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.choice(values)
        space = _table(rows)
        depth, factor = rng.randint(1, 4), rng.choice(FACTORS)
        assert _outcome(build_model, quasi_ideal_model_check, space, depth, factor) == _outcome(
            build_model_pairwise, model_check_pairwise, space, depth, factor
        )


def _tampered(m, extra_pairs=(), depth=None):
    """m's order plus the given pairs, closed transitively, as a model of
    the given depth (m's by default)."""
    names = m.poset.elements
    pairs = [(a, b) for a in names for b in names if m.poset.leq(a, b)]
    poset = FinitePoset.from_relation(names, pairs + list(extra_pairs))
    return ModelPoset(m.space, m.depth if depth is None else depth, m.factor, poset, m.elements)


def _failed_clauses(report):
    clauses = ("layering_ok", "chain_ok", "limit_iso_ok", "quasi_ideal_ok", "halving_ok")
    return {c for c in clauses if not getattr(report, c)}


@pytest.mark.parametrize(
    "factor, depth, pairs, claimed_depth, failed",
    [
        # factor 5 leaves no edge inside a point's finite block, so one
        # edge between radius-1 balls breaks halving and nothing else
        (5, 2, [("(x, 1)", "(y, 1)")], None, {"halving_ok"}),
        # a depth-3 model claimed at depth 1 has chains longer than 1 + 1
        (2, 3, [], 1, {"chain_ok"}),
        # an extra limit-layer edge breaks only the isomorphism with the
        # specialization order
        (2, 2, [("(x, 0)", "(y, 0)")], None, {"limit_iso_ok"}),
    ],
    ids=["halving", "chain", "limit"],
)
def test_tampered_model_fails_one_clause(factor, depth, pairs, claimed_depth, failed):
    space = PosetSpace(FinitePoset.from_relation(["x", "y"], []))
    m = build_model(space, depth=depth, factor=Fraction(factor))
    tampered = _tampered(m, pairs, claimed_depth)
    report = quasi_ideal_model_check(tampered)
    assert repr(report) == repr(model_check_pairwise(tampered))
    assert _failed_clauses(report) == failed
    assert not report.passed


@pytest.mark.parametrize("name", sorted(n for n, space in SPACES.items() if len(space) > 1))
def test_layering_is_the_quasi_ideal_clause(name):
    """The reference's own layering loop finds exactly the quasi-ideal
    violations, on the built model and with one limit element put below
    a finite element it was not below."""
    m = build_model(SPACES[name], depth=2)
    p = m.poset
    limit, finite = m.limit_names, [e.name for e in m.elements if not e.is_limit]
    x, y = next((x, y) for x in limit for y in finite if not p.leq(y, x))
    for model in (m, _tampered(m, [(x, y)])):
        report = quasi_ideal_model_check(model)
        want = model_check_pairwise(model).layering_violations
        assert report.layering_violations == want
        assert quasi_ideal_check(model.poset, finite).violations == want
        assert report.layering_ok == report.quasi_ideal_ok == (not want)
    assert want and (x, y) in want


def test_model_repr_is_deterministic():
    first, second = (
        repr(build_model(_spaces()["real_grid_inf"], 2, Fraction(3, 2))) for _ in range(2)
    )
    assert first == second and "0x" not in first
    assert first.startswith("ModelPoset(depth=2, factor=3/2, poset=FinitePoset([")


GOLDEN_RUNS = {
    "poset": ["--depth", "3"],
    "real_grid_inf": ["--depth", "3"],
    "sorgenfrey": ["--depth", "3"],
    "table": ["--depth", "4", "--factor", "3/2"],
}


@pytest.mark.parametrize("case", sorted(GOLDEN_RUNS))
def test_qideal_model_golden_output(case, capsys, tmp_path):
    dot = tmp_path / f"{case}.dot"
    code = main(
        ["qideal-model", str(GOLDEN / f"{case}.json"), *GOLDEN_RUNS[case], "--dot", str(dot)]
    )
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert dot.read_text(encoding="utf-8") == (GOLDEN / f"{case}.dot").read_text(encoding="utf-8")
