"""The integer ball-grid kernel and the int-view axiom check against the
reference routes: pairwise ``leq_dplus`` / ``prec`` for the rows, and the
ExtReal triangle loop of ``tests/table_reference.py`` for ``check_axioms``."""

import random
from fractions import Fraction

import pytest

from qmet.balls import (
    _ball_rows,
    _way_below_rule,
    ball,
    center_point_check,
    leq_dplus,
    prec,
    order_laws_report,
    radius_law_report,
    smyth_probe,
    v_relation,
)
from qmet.errors import BadInput, QmetError
from qmet.extreal import INF, ZERO, ExtReal
from qmet.spaces import (
    FiniteTableSpace,
    RealGridSpace,
    SkewedIntervalSpace,
    SorgenfreyGridSpace,
    check_axioms,
    parse_point_value,
)

from conftest import dyadics, random_table_space
from table_reference import axioms_by_extreal

FIXTURES = [
    "metric_line4",
    "metric_line8",
    "real_grid_inf",
    "real_grid_finite",
    "sorgenfrey4",
    "diamond_space",
    "skewed_unit",
    "tailed_standard",
]

TINY = Fraction(1, 2**100)


def raw_table(n, seed):
    """A seeded n-point table that need not satisfy any axiom: inf entries,
    non-dyadic values, sometimes a non-zero self-distance or a zero pair."""
    rng = random.Random(seed)
    values = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 7), None]

    def entry(i, j):
        if i == j and rng.random() < 0.8:
            return ZERO
        v = rng.choice(values)
        return INF if v is None else ExtReal(v)

    table = [[entry(i, j) for j in range(n)] for i in range(n)]
    if n > 1 and seed % 2:
        table[0][1] = table[1][0] = ZERO
    return FiniteTableSpace([f"q{i}" for i in range(n)], table)


def assert_rows_match(space, radii):
    balls = [ball(p, r) for p in space.points for r in radii]
    for strict, relation in ((False, leq_dplus), (True, prec)):
        rows, scaled = _ball_rows(space, radii, strict=strict)
        want = [
            sum(1 << j for j, b in enumerate(balls) if relation(space, a, b)) for a in balls
        ]
        assert rows == want, (space, radii, strict)
    for r, u in zip(radii, scaled):
        for s, v in zip(radii, scaled):
            assert (r < s, r == s) == (u < v, u == v)


def grids(radii):
    """The radius grid and its shifts by 1/3 and 3."""
    return [radii] + [[r + a for r in radii] for a in (Fraction(1, 3), Fraction(3))]


@pytest.mark.parametrize("name", FIXTURES)
def test_kernel_rows_match_pairwise_on_fixtures(request, name):
    space = request.getfixturevalue(name)
    for radii in grids(dyadics(3)):
        assert_rows_match(space, radii)


@pytest.mark.parametrize("seed", range(6))
def test_kernel_rows_match_pairwise_on_random_tables(seed):
    radii = [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(1, 2), Fraction(1), Fraction(5, 2)]
    for space in (
        random_table_space(5, seed),
        random_table_space(4, seed, symmetric=True),
        raw_table(5, seed),
        raw_table(3, seed + 100),
    ):
        for grid in grids(radii):
            assert_rows_match(space, grid)


def test_kernel_rows_match_pairwise_on_tiny_skewed_gap():
    space = SkewedIntervalSpace(1, ["0", str(TINY), "1/2", "1"])
    for radii in grids([Fraction(0), TINY, 1 - TINY, Fraction(1, 2), Fraction(1)]):
        assert_rows_match(space, radii)


def test_kernel_on_an_empty_grid(metric_line4):
    assert _ball_rows(metric_line4, []) == ([], [])


def test_kernel_rejects_a_negative_radius(metric_line4):
    with pytest.raises(QmetError, match="ball radius must be non-negative, got -1/2"):
        _ball_rows(metric_line4, [Fraction(1), Fraction(-1, 2), Fraction(-1)])
    # a shift that takes a radius of the grid below zero is refused ...
    line3 = FiniteTableSpace.metric_line([0, 1, 2])
    with pytest.raises(QmetError, match="ball radius must be non-negative, got -1"):
        order_laws_report(line3, [Fraction(0), Fraction(1)], [Fraction(-1)])
    # ... and one that keeps every radius non-negative still runs
    report = order_laws_report(line3, [Fraction(1), Fraction(2)], [Fraction(-1, 2)])
    assert report.passed and report.ball_count == 6


@pytest.mark.parametrize("seed", range(8))
def test_shifted_rows_are_the_base_rows(seed):
    """(x, r) <=+ (y, s) iff d(x, y) <= r - s, and a uniform shift cancels
    in r - s: the kernel's rows over a shifted grid are the base rows bit
    for bit, on tables that break the axioms too."""
    rng = random.Random(seed)
    radii = sorted({Fraction(rng.randrange(12), rng.choice([1, 2, 3, 4])) for _ in range(5)})
    for space in (raw_table(4, seed), raw_table(5, seed + 50), random_table_space(4, seed)):
        for a in (Fraction(1, 3), Fraction(1), Fraction(7, 2), -radii[0]):
            for strict in (False, True):
                shifted = _ball_rows(space, [r + a for r in radii], strict)[0]
                assert shifted == _ball_rows(space, radii, strict)[0], (space, radii, a)
    assert not all(check_axioms(raw_table(n, s)).passed for n in (4, 5) for s in range(8))


def test_order_laws_report_only_validates_its_shifts(metric_line4):
    radii = [Fraction(1, 4), Fraction(0), Fraction(1)]
    report = order_laws_report(metric_line4, radii)
    assert report.standard_ok and report.passed
    assert order_laws_report(metric_line4, radii, ["1/2", Fraction(3)]) == report
    # the first radius taken below zero is named, for the first bad shift
    with pytest.raises(QmetError, match="got -1/4"):
        order_laws_report(metric_line4, radii, [Fraction(1), Fraction(-1, 2), Fraction(-1)])
    # a bad literal is refused before any radius, even on an empty grid
    with pytest.raises(BadInput, match="zero denominator in '1/0'"):
        order_laws_report(metric_line4, [], ["1/0"])
    with pytest.raises(BadInput, match="exact rational required"):
        order_laws_report(metric_line4, [], [0.5])
    assert order_laws_report(metric_line4, [], [Fraction(-3)]).ball_count == 0


@pytest.mark.parametrize("name", FIXTURES)
def test_check_axioms_matches_extreal_loop_on_fixtures(request, name):
    space = request.getfixturevalue(name)
    assert check_axioms(space) == axioms_by_extreal(space)
    sampled = check_axioms(space, sample_budget=20, seed=3)
    assert sampled.mode == "sampled"
    assert sampled == axioms_by_extreal(space, sample_budget=20, seed=3)


@pytest.mark.parametrize("seed", range(8))
def test_check_axioms_matches_extreal_loop_on_broken_tables(seed):
    spaces = [
        raw_table(1 + seed, seed),
        raw_table(6, seed + 50),
        random_table_space(5, seed),
        SkewedIntervalSpace(Fraction(1, 2 + seed), [0, Fraction(1, 10), Fraction(1, 3), 1]),
    ]
    for space in spaces:
        want = axioms_by_extreal(space)
        assert check_axioms(space) == want
        for budget in (1, 25, 500):
            assert check_axioms(space, budget, seed) == axioms_by_extreal(space, budget, seed)
    assert not check_axioms(spaces[1]).passed
    assert any(v.axiom == "triangle" for v in check_axioms(spaces[3]).violations)


def smyth_gaps_by_pairs(space, depth, sample_budget, seed):
    """``smyth_probe``'s gap pairs, one ``prec`` and one rule call per pair;
    a sampled probe lists each gap once, in the order it was first drawn."""
    radii = [Fraction(j) for j in range(4)] + [Fraction(1, 2**k) for k in range(1, depth + 1)]
    balls = [ball(p, r) for p in space.points for r in radii]
    pairs = [(a, b) for a in balls for b in balls]
    if len(pairs) > sample_budget:
        rng = random.Random(seed)
        pairs = [pairs[rng.randrange(len(pairs))] for _ in range(sample_budget)]
    return list(dict.fromkeys(
        (a, b) for a, b in pairs if prec(space, a, b) and not _way_below_rule(space, a, b)
    ))


@pytest.mark.parametrize("name", ["real_grid_inf", "sorgenfrey4", "metric_line4", "diamond_space"])
def test_smyth_gaps_match_pairwise_route(request, name):
    space = request.getfixturevalue(name)
    for depth, budget, seed in ((2, 40_000, 0), (2, 50, 1), (1, 300, 7)):
        report = smyth_probe(space, depth=depth, sample_budget=budget, seed=seed)
        assert report.gap_pairs == smyth_gaps_by_pairs(space, depth, budget, seed)


def test_sampled_smyth_lists_each_gap_once():
    # 217 balls, so the default budget of 40,000 draws samples the 47,089 pairs
    space = RealGridSpace(list(range(30)) + [parse_point_value("inf")])
    report = smyth_probe(space, depth=3)
    every_gap = smyth_probe(space, depth=3, sample_budget=10**6).gap_pairs
    assert report.mode == "sampled" and len(every_gap) == 21
    assert len(set(report.gap_pairs)) == len(report.gap_pairs) == 8
    assert set(report.gap_pairs) <= set(every_gap)
    assert report.gap_pairs == smyth_gaps_by_pairs(space, 3, 40_000, 0)
    assert report.non_center_points == ["inf"]


class RuledTable(FiniteTableSpace):
    """A table that claims the metric rule and names non-center points,
    whatever its entries: the one place d(x, x) can be inf at one."""

    way_below_rule = "metric_strict_approximation"

    def __init__(self, points, table, non_centers):
        super().__init__(points, table)
        self.non_center_points = frozenset(non_centers)


def seeded_ruled_spaces(seed):
    rng = random.Random(seed)
    values = sorted({Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(5)})
    table = raw_table(5, seed)
    return [
        RealGridSpace(values + [parse_point_value("inf")]),
        RealGridSpace(values),
        SorgenfreyGridSpace(values),
        random_table_space(4, seed, symmetric=True),
        RuledTable(
            table.points,
            [[table.dist_by_index(i, j) for j in range(5)] for i in range(5)],
            rng.sample(table.points, 3),
        ),
    ]


def center_point_by_v(space, x):
    """x is a center point when v(x, y) = d(x, y) at every y: one
    ``v_relation`` call and one ExtReal compare per point."""
    return all(v_relation(space, x, y) == space.dist(x, y) for y in space.points)


def test_smyth_non_centers_match_center_point_check(request):
    spaces = [request.getfixturevalue(name) for name in FIXTURES]
    spaces += [space for seed in range(12) for space in seeded_ruled_spaces(seed)]
    listed = inf_self = 0
    for space in spaces:
        if space.way_below_rule is None:
            continue
        want = [x for x in space.points if not center_point_by_v(space, x)]
        assert [x for x in space.points if not center_point_check(space, x)] == want
        assert smyth_probe(space, depth=1).non_center_points == want
        listed += len(want)
        inf_self += sum(
            space.dist(x, x).is_infinite for x in space.non_center_points
        )
    assert listed and inf_self


def radius_law_by_families(space, radii, sample_budget, seed):
    """``radius_law_report`` from the whole list of tent families and one
    ``leq_dplus`` call per pair."""
    balls = [ball(p, r) for p in space.points for r in radii]
    n = len(balls)
    leq = [[leq_dplus(space, a, b) for b in balls] for a in balls]
    families = [
        (i, j, k)
        for k in range(n)
        for i in range(n) if leq[i][k]
        for j in range(n) if leq[j][k]
    ]
    if len(families) > sample_budget:
        rng = random.Random(seed)
        families = [families[rng.randrange(len(families))] for _ in range(sample_budget)]
    failures = []
    for i, j, k in families:
        ubs = [u for u in range(n) if leq[i][u] and leq[j][u] and leq[k][u]]
        least = next((u for u in ubs if all(leq[u][v] for v in ubs)), None)
        low = min(balls[i].radius, balls[j].radius, balls[k].radius)
        if least is not None and balls[least].radius != low:
            failures.append(((balls[i], balls[j], balls[k]), balls[least]))
    return len(families), failures


def test_radius_law_matches_family_list():
    # zero pairs between distinct points give least upper bounds of a
    # smaller radius, so some of these tables fail the law
    radii = [Fraction(1), Fraction(0), Fraction(1, 3), Fraction(1)]
    found = 0
    for seed in range(6):
        for space in (raw_table(3, seed), raw_table(4, seed), random_table_space(4, seed)):
            for budget in (30, 100_000):
                report = radius_law_report(space, radii, sample_budget=budget, seed=seed)
                want = radius_law_by_families(space, radii, budget, seed)
                assert (report.families_checked, report.failures) == want
                found += len(report.failures)
    assert found
