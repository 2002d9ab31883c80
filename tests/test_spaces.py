from fractions import Fraction

import pytest

from qmet.errors import QmetError, UnknownPoint
from qmet.extreal import INF, ZERO, ExtReal
from qmet.posets import FinitePoset
from qmet.spaces import (
    FiniteTableSpace,
    PosetSpace,
    RealGridSpace,
    SkewedIntervalSpace,
    SorgenfreyGridSpace,
    TailedSorgenfreySpace,
    check_axioms,
    parse_point_value,
    space_from_json,
    symmetrize,
)


def test_real_grid_distances():
    rg = RealGridSpace([parse_point_value(s) for s in ["3", "5", "inf"]])
    assert rg.dist("5", "3") == ExtReal(2)
    assert rg.dist("3", "5") == ZERO
    assert rg.dist("inf", "3") == INF
    assert rg.dist("3", "inf") == ZERO
    assert rg.dist("inf", "inf") == ZERO


def test_sorgenfrey_distances():
    sg = SorgenfreyGridSpace([3, 5])
    assert sg.dist("5", "3") == INF
    assert sg.dist("3", "5") == ExtReal(2)


def test_skewed_interval_distances():
    sk = SkewedIntervalSpace(1, [0, Fraction(1, 2), 1])
    assert sk.dist("0", "1/2") == ExtReal(1)
    assert sk.dist("1/2", "0") == ZERO
    assert sk.dist("1/2", "1") == ExtReal(Fraction(1, 2))


def test_tailed_sorgenfrey_distances(tailed_standard):
    ng = tailed_standard
    assert ng.dist("-1", "1") == ExtReal(1)
    assert ng.dist("-2", "-1") == ExtReal(1)
    assert ng.dist("-2", "1") == ExtReal(1)
    assert ng.dist("-2", "1/2") == INF
    assert ng.dist("-1", "1/2") == INF
    assert ng.dist("1/2", "3/4") == ExtReal(Fraction(1, 4))
    assert ng.dist("3/4", "1/2") == INF


def test_specialization_order():
    rg = RealGridSpace([parse_point_value(s) for s in ["3", "5"]])
    assert rg.specialization_leq("3", "5")
    assert not rg.specialization_leq("5", "3")
    sg = SorgenfreyGridSpace([3, 5])
    assert not sg.specialization_leq("3", "5")
    assert sg.specialization_leq("3", "3")


def test_unknown_point():
    rg = RealGridSpace([parse_point_value("0")])
    with pytest.raises(UnknownPoint):
        rg.dist("0", "7")


GALLERY = [
    RealGridSpace([parse_point_value(s) for s in ["0", "1/4", "1/2", "1", "3", "inf"]]),
    SorgenfreyGridSpace([Fraction(0), Fraction(1, 2), 1, 2, 3]),
    PosetSpace(FinitePoset.chain(["a", "b", "c"])),
    SkewedIntervalSpace(1, [0, Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), 1]),
    TailedSorgenfreySpace(
        1, 1, 1, [Fraction(1, 2), Fraction(3, 4), Fraction(7, 8), 1]
    ),
    FiniteTableSpace.metric_line(range(5)),
]


@pytest.mark.parametrize("space", GALLERY, ids=lambda s: s.kind)
def test_gallery_passes_axioms(space):
    report = check_axioms(space)
    assert report.mode == "exhaustive"
    assert report.passed, report.violations


def test_skewed_small_a_fails_with_exact_witness():
    bad = SkewedIntervalSpace(Fraction(1, 2), [0, Fraction(1, 10), 1])
    report = check_axioms(bad)
    assert not report.passed
    first = report.violations[0]
    assert first.axiom == "triangle"
    assert first.witness == ("1/10", "0", "1")


def test_poset_space_axioms_always_pass():
    for pairs in ([], [("a", "b")], [("a", "b"), ("b", "c")]):
        p = FinitePoset.from_relation(["a", "b", "c"], pairs)
        assert check_axioms(PosetSpace(p)).passed


@pytest.mark.parametrize("space", GALLERY, ids=lambda s: s.kind)
def test_specialization_is_partial_order_when_axioms_pass(space):
    assert check_axioms(space).passed
    pts = space.points
    for x in pts:
        assert space.specialization_leq(x, x)
        for y in pts:
            if space.specialization_leq(x, y) and space.specialization_leq(y, x):
                assert x == y
            for z in pts:
                if space.specialization_leq(x, y) and space.specialization_leq(y, z):
                    assert space.specialization_leq(x, z)


def test_sampled_mode_is_deterministic():
    space = FiniteTableSpace.metric_line(range(12))
    r1 = check_axioms(space, sample_budget=500, seed=7)
    r2 = check_axioms(space, sample_budget=500, seed=7)
    assert r1.mode == "sampled" and r1.seed == 7
    assert [v.witness for v in r1.violations] == [v.witness for v in r2.violations]


def test_symmetrize_sorgenfrey_all_infinite(sorgenfrey4):
    sym = symmetrize(sorgenfrey4)
    for x in sym.points:
        for y in sym.points:
            expected = ZERO if x == y else INF
            assert sym.dist(x, y) == expected


def test_symmetrize_real_grid_pair():
    rg = RealGridSpace([parse_point_value(s) for s in ["3", "5"]])
    sym = symmetrize(rg)
    assert sym.dist("5", "3") == ExtReal(2)
    assert sym.dist("3", "5") == ExtReal(2)


def test_symmetrize_idempotent(metric_line4, sorgenfrey4):
    for space in (metric_line4, sorgenfrey4):
        once = symmetrize(space)
        twice = symmetrize(once)
        assert once.to_json() == twice.to_json()


def test_symmetrize_fixes_metric_input(metric_line4):
    assert symmetrize(metric_line4).to_json() == metric_line4.to_json()


@pytest.mark.parametrize("space", GALLERY, ids=lambda s: s.kind)
def test_json_round_trip(space):
    back = space_from_json(space.to_json())
    assert back.points == space.points
    for x in space.points:
        for y in space.points:
            assert back.dist(x, y) == space.dist(x, y)


def test_tabulated_round_trip_through_finite_table(real_grid_inf):
    table = FiniteTableSpace(
        real_grid_inf.points,
        [
            [real_grid_inf.dist(x, y) for y in real_grid_inf.points]
            for x in real_grid_inf.points
        ],
    )
    assert check_axioms(table).passed
    back = space_from_json(table.to_json())
    assert back.dist("inf", "0") == INF


@pytest.mark.parametrize("seed", range(8))
def test_random_table_generator_produces_quasi_metrics(seed):
    from conftest import is_symmetric, random_table_space

    for symmetric in (False, True):
        space = random_table_space(4, seed, symmetric=symmetric)
        assert check_axioms(space).passed
        if symmetric:
            assert is_symmetric(space)


def test_generator_validation():
    with pytest.raises(QmetError):
        SkewedIntervalSpace(0, [0, 1])
    with pytest.raises(QmetError):
        SkewedIntervalSpace(1, [Fraction(1, 2), 1])  # no origin
    with pytest.raises(QmetError):
        TailedSorgenfreySpace(1, 1, 3, [1])  # c > a + b
    with pytest.raises(QmetError):
        TailedSorgenfreySpace(1, 1, 1, [Fraction(1, 2)])  # missing top point
