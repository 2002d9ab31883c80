"""Every space kind's integer table against the ExtReal reference route of
``tests/table_reference.py``: distances on every pair, ``ambient_dist`` off
the carrier, ``to_json``, symmetry, the int rows up to scale, and
``check_axioms`` reports down to their violation details."""

import random
from fractions import Fraction

import pytest

from qmet.extreal import INF, ExtReal, ext
from qmet.posets import FinitePoset
from qmet.spaces import (
    INF_POINT,
    FiniteTableSpace,
    PosetSpace,
    RealGridSpace,
    SkewedIntervalSpace,
    SorgenfreyGridSpace,
    TailedSorgenfreySpace,
    check_axioms,
    space_from_json,
)

from conftest import is_symmetric
from table_reference import AMBIENT_DIST, ReferenceTable, axioms_by_extreal

SEEDS = range(8)


def _rational(rng, low, high):
    den = rng.choice([1, 2, 3, 4, 6, 7, 12])
    return Fraction(rng.randint(low * den, high * den), den)


def _unit_grid(rng, size, anchor):
    """Distinct values in [0, 1] that include anchor."""
    return sorted({anchor} | {_rational(rng, 0, 1) for _ in range(size)})


def _raw_entry(rng, i, j):
    """A table entry in one of the accepted input forms."""
    if i == j and rng.random() < 0.8:
        return rng.choice([0, "0", Fraction(0)])
    value = _rational(rng, 0, 3)
    return rng.choice([str(value), value, ExtReal(value), "inf", INF, " inf "])


def seeded_spaces(seed):
    """(name, space, raw table or None) for every kind, drawn from seed."""
    rng = random.Random(seed)
    grid = sorted({_rational(rng, -3, 3) for _ in range(rng.randint(1, 7))})
    n = rng.randint(1, 6)
    asym = [[_raw_entry(rng, i, j) for j in range(n)] for i in range(n)]
    sym = [[_raw_entry(rng, i, j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            sym[i][j] = sym[j][i]
    a = Fraction(rng.randint(1, 5), 6)  # a < 1: the triangle inequality may fail
    b, c = Fraction(rng.randint(1, 8), 4), Fraction(rng.randint(0, 12), 6)
    tail = sorted(set(_unit_grid(rng, rng.randint(0, 6), Fraction(1))) - {0})
    names = [f"e{i}" for i in range(rng.randint(1, 6))]
    pairs = [(names[i], names[j]) for i in range(len(names)) for j in range(i + 1, len(names))
             if rng.random() < 0.4]
    return [
        ("real_grid", RealGridSpace(grid), None),
        ("real_grid_inf", RealGridSpace(grid + [INF_POINT]), None),
        ("sorgenfrey", SorgenfreyGridSpace(grid), None),
        ("skewed", SkewedIntervalSpace(a, _unit_grid(rng, rng.randint(2, 6), Fraction(0))), None),
        ("skewed_metric", SkewedIntervalSpace(1 + a, _unit_grid(rng, 4, Fraction(0))), None),
        ("tailed", TailedSorgenfreySpace(a, b, min(c, a + b), tail), None),
        ("poset", PosetSpace(FinitePoset.from_relation(names, pairs)), None),
        ("table", FiniteTableSpace([f"q{i}" for i in range(n)], asym), asym),
        ("symmetric_table", FiniteTableSpace([f"s{i}" for i in range(n)], sym), sym),
    ]


CASES = [(seed, name) for seed in SEEDS for name, _, _ in seeded_spaces(seed)]


def _case(seed, name):
    return next((space, raw) for n, space, raw in seeded_spaces(seed) if n == name)


@pytest.mark.parametrize("seed,name", CASES)
def test_dist_matches_the_reference(seed, name):
    space, raw = _case(seed, name)
    ref = ReferenceTable(space, raw)
    pts = space.points
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            want = ref.dist_by_index(i, j)
            assert space.dist(x, y) == want and space.dist_by_index(i, j) == want
            assert str(space.dist(x, y)) == str(want)


@pytest.mark.parametrize("seed,name", CASES)
def test_int_rows_match_the_reference_up_to_scale(seed, name):
    space, raw = _case(seed, name)
    den, rows = space._ints
    ref_den, ref_rows = ReferenceTable(space, raw).int_view()
    assert [[v is None for v in row] for row in rows] == [
        [v is None for v in row] for row in ref_rows
    ]
    for row, ref_row in zip(rows, ref_rows):
        for v, w in zip(row, ref_row):
            assert v is None or (isinstance(v, int) and v * ref_den == w * den)


@pytest.mark.parametrize("seed,name", CASES)
def test_axiom_reports_match_the_reference(seed, name):
    space, raw = _case(seed, name)
    ref = ReferenceTable(space, raw)
    assert check_axioms(space) == axioms_by_extreal(ref)
    for budget in (1, 17, 300):
        assert check_axioms(space, budget, seed) == axioms_by_extreal(ref, budget, seed)


@pytest.mark.parametrize("seed,name", CASES)
def test_to_json_matches_the_reference(seed, name):
    space, raw = _case(seed, name)
    ref = ReferenceTable(space, raw)
    doc = space.to_json()
    if raw is not None:
        assert doc == {"kind": "finite_table", "points": list(space.points),
                       "dist": ref.table_json()}
        assert is_symmetric(space) == ref.is_symmetric()
    again = space_from_json(doc)
    assert again.points == space.points
    assert ReferenceTable(again, doc.get("dist")).table == ref.table


@pytest.mark.parametrize("seed", SEEDS)
def test_ambient_dist_off_the_carrier_matches_the_reference(seed):
    rng = random.Random(seed)
    for name, space, _ in seeded_spaces(seed):
        formula = AMBIENT_DIST.get(type(space))
        if formula is None:
            continue
        values = [space.value(p) for p in space.points]
        if name == "tailed":
            off = values + [_rational(rng, 0, 1) or Fraction(1, 5) for _ in range(4)]
        elif name.startswith("skewed"):
            off = values + [_rational(rng, 0, 1) for _ in range(4)]
        else:
            off = values + [_rational(rng, -4, 4) for _ in range(4)]
        for x in off:
            for y in off:
                got = space.ambient_dist(x, y)
                assert isinstance(got, ExtReal) and got == formula(space, x, y)


def test_symmetry_of_tables_with_inf_and_unnormalised_entries():
    rows = [["0", "2/4", "inf"], [Fraction(1, 2), 0, INF], [" inf ", "inf", "0"]]
    assert is_symmetric(FiniteTableSpace(["a", "b", "c"], rows))
    rows[0][1] = "1/3"
    assert not is_symmetric(FiniteTableSpace(["a", "b", "c"], rows))


@pytest.mark.parametrize("bad", [1.5, True, "-1/2", "1/0", "x", None, [1], -1])
def test_table_entries_are_rejected_as_the_reference_rejects_them(bad):
    with pytest.raises(Exception) as want:
        ext(bad)
    with pytest.raises(want.type) as got:
        FiniteTableSpace(["a", "b"], [[0, bad], [1, 0]])
    assert str(got.value) == str(want.value)
