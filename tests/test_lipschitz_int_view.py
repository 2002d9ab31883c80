"""The int-view pair loops of ``qmet.lipschitz`` against the ExtReal
reference routes in ``lipschitz_reference.py``: every report, envelope,
distance and hat membership must have the same ``repr``, order included."""

import random
from fractions import Fraction

import pytest

from qmet.balls import FormalBall
from qmet.errors import QmetError
from qmet.extreal import INF, ExtReal
from qmet.lipschitz import (
    LscFunction,
    dist_to_complement,
    envelope,
    hat_membership,
    lipschitz_check,
)
from qmet.spaces import FiniteTableSpace

from conftest import random_table_space
from lipschitz_reference import (
    dist_to_complement_by_extreal,
    envelope_by_extreal,
    hat_membership_by_extreal,
    lipschitz_check_by_extreal,
)

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
ALPHAS = [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(2)]
F_VALUES = ["0", "1/3", "1/2", "1", "5/4", "2", "3", "inf"]
ENTRIES = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 5), Fraction(1),
           Fraction(7, 6), Fraction(2), Fraction(3), None]
RADII = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(5, 2)]


def wild_table(rng, n):
    """An n-point table with inf and non-dyadic entries and no axiom
    enforced: broken triangles, zero pairs, even nonzero self-distances."""
    names = [f"q{i}" for i in range(n)]
    rows = [
        [INF if e is None else ExtReal(e) for e in (rng.choice(ENTRIES) for _ in range(n))]
        for _ in range(n)
    ]
    if rng.random() < 0.5:
        for i in range(n):
            rows[i][i] = ExtReal(0)
    return FiniteTableSpace(names, rows)


def seeded_spaces(seed):
    rng = random.Random(seed)
    return [wild_table(rng, rng.randint(0, 7)), random_table_space(rng.randint(1, 6), seed)]


def random_function(rng, space):
    return LscFunction(space, {p: rng.choice(F_VALUES) for p in space.points})


def assert_same_routes(space, rng):
    f = random_function(rng, space)
    for alpha in ALPHAS:
        assert repr(lipschitz_check(space, f, alpha)) == repr(
            lipschitz_check_by_extreal(space, f, alpha)
        )
        assert repr(envelope(space, f, alpha)) == repr(envelope_by_extreal(space, f, alpha))
    u = {p for p in space.points if rng.random() < 0.5}
    for x in space.points:
        assert repr(dist_to_complement(space, x, u)) == repr(
            dist_to_complement_by_extreal(space, x, u)
        )
        for r in RADII:
            b = FormalBall(x, r)
            assert hat_membership(space, b, u) == hat_membership_by_extreal(space, b, u)


def assert_same_codomain_route(space, codomain, rng):
    mapping = {p: rng.choice(codomain.points) for p in space.points}
    for alpha in ALPHAS:
        assert repr(lipschitz_check(space, mapping, alpha, codomain=codomain)) == repr(
            lipschitz_check_by_extreal(space, mapping, alpha, codomain=codomain)
        )


@pytest.mark.parametrize("fixture", FIXTURES)
def test_int_view_matches_extreal_on_fixture_spaces(fixture, request):
    space = request.getfixturevalue(fixture)
    rng = random.Random(fixture)
    for _ in range(4):
        assert_same_routes(space, rng)
    assert_same_codomain_route(space, space, rng)
    assert_same_codomain_route(space, request.getfixturevalue("metric_line4"), rng)


@pytest.mark.parametrize("seed", range(40))
def test_int_view_matches_extreal_on_seeded_tables(seed):
    rng = random.Random(seed)
    tables = seeded_spaces(seed)
    for space in tables:
        assert_same_routes(space, rng)
        for codomain in tables:
            if len(codomain):
                assert_same_codomain_route(space, codomain, rng)


def test_seeded_tables_reach_every_case():
    """The seeded comparison meets slope and lift violations with finite and
    infinite gaps, at alpha = 0 across an infinite distance too."""
    finite_gap = inf_gap = lift = zero_alpha_inf = 0
    for seed in range(40):
        rng = random.Random(seed)
        for space in seeded_spaces(seed):
            f = random_function(rng, space)
            for alpha in ALPHAS:
                report = lipschitz_check(space, f, alpha)
                lift += len(report.lift_violations)
                for x, y, lhs, rhs in report.violations:
                    finite_gap += lhs.is_finite
                    inf_gap += lhs.is_infinite
                    zero_alpha_inf += alpha == 0 and space.dist(x, y).is_infinite
    assert min(finite_gap, inf_gap, lift, zero_alpha_inf) > 0


def bad_calls():
    space = random_table_space(3, 5)
    f = LscFunction(space, {p: "1" for p in space.points})
    short = LscFunction(random_table_space(2, 5), {"p0": "1", "p1": "inf"})
    check = (lipschitz_check, lipschitz_check_by_extreal)
    env = (envelope, envelope_by_extreal)
    return [
        (check, (space, f, -1), {}),
        (check, (space, short, 1), {}),
        (check, (space, {"p0": "p0"}, 1), {}),
        (check, (space, {"p0": "p0"}, 1), {"codomain": space}),
        (check, (space, {p: "nowhere" for p in space.points}, 1), {"codomain": space}),
        (env, (space, f, Fraction(-1, 2)), {}),
        (env, (space, short, 1), {}),
    ]


@pytest.mark.parametrize("routes, args, kwargs", bad_calls())
def test_int_view_rejects_what_the_reference_rejects(routes, args, kwargs):
    errors = []
    for route in routes:
        with pytest.raises(QmetError) as caught:
            route(*args, **kwargs)
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]
