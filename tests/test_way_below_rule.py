"""The one way-below rule against the per-kind closed forms it replaced.

The library states way-below on formal balls as a single rule: strict
approximation, minus the self-pairs at non-center points.  The four closed
forms below are the independent route, written per space kind straight from
each kind's geometry; the rule, its v map and the refuter's family gates
must agree with them on every kind.  Where a rule is named it decides every
claim, as the refuter-first route of ``tests/witness_reference.py`` does;
a table that breaks the axioms names none.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from witness_reference import way_below_reference

from qmet.balls import (
    UNKNOWN,
    WayBelowWitness,
    _refute_way_below,
    _way_below_rule,
    ball,
    center_point_check,
    prec,
    smyth_probe,
    v_relation,
    way_below,
)
from qmet.errors import NoOracle
from qmet.extreal import INF, ExtReal
from qmet.posets import random_poset
from qmet.qideal import build_model
from qmet.spaces import (
    INF_POINT,
    FiniteTableSpace,
    PosetSpace,
    RealGridSpace,
    SorgenfreyGridSpace,
    check_axioms,
)

from conftest import dyadics, every_kind, is_symmetric, random_table_space


def _closed_form(space, b1, b2):
    """Way-below on the balls of each kind, one formula per kind."""
    if isinstance(space, SorgenfreyGridSpace):
        x, y = space.value(b1.center), space.value(b2.center)
        return x < y and x + b1.radius > y + b2.radius
    if isinstance(space, RealGridSpace):
        return space.value(b1.center) is not INF_POINT and prec(space, b1, b2)
    if isinstance(space, PosetSpace):
        return space.poset.leq(b1.center, b2.center) and b1.radius > b2.radius
    assert isinstance(space, FiniteTableSpace) and is_symmetric(space)
    return prec(space, b1, b2)


def _closed_form_v(space, x, y):
    """Infimum of r - s over the closed form's way-below pairs."""
    if isinstance(space, SorgenfreyGridSpace):
        vx, vy = space.value(x), space.value(y)
        return ExtReal(vy - vx) if vx < vy else INF
    if isinstance(space, RealGridSpace) and space.value(x) is INF_POINT:
        return INF
    return space.dist(x, y)


def _random_spaces(seed):
    rng = random.Random(seed)
    grid = [Fraction(k, 4) for k in range(-8, 13)]
    n = rng.randint(2, 6)
    values = rng.sample(grid, n)
    yield SorgenfreyGridSpace(values)
    yield RealGridSpace(values)
    yield RealGridSpace(values + [INF_POINT])
    yield PosetSpace(random_poset(n, seed))
    yield random_table_space(n, seed, symmetric=True)


RADII = dyadics(2) + [Fraction(3, 4), Fraction(3)]


def _check_rule(space):
    assert space.way_below_rule is not None
    balls = [ball(p, r) for p in space.points for r in RADII]
    for b1 in balls:
        for b2 in balls:
            assert _way_below_rule(space, b1, b2) == _closed_form(space, b1, b2), (b1, b2)
    for x in space.points:
        for y in space.points:
            assert v_relation(space, x, y) == _closed_form_v(space, x, y), (x, y)


@pytest.mark.parametrize(
    "fixture",
    ["metric_line4", "metric_line8", "real_grid_inf", "real_grid_finite",
     "sorgenfrey4", "diamond_space"],
)
def test_rule_matches_closed_forms_on_fixtures(fixture, request):
    _check_rule(request.getfixturevalue(fixture))


@pytest.mark.parametrize("seed", range(12))
def test_rule_matches_closed_forms_on_random_spaces(seed):
    for space in _random_spaces(seed):
        _check_rule(space)


def test_no_rule_without_a_closed_form(skewed_unit, tailed_standard):
    for space in (skewed_unit, tailed_standard):
        assert space.way_below_rule is None


def test_refuted_on_a_table_that_breaks_the_triangle_inequality():
    # d(a, c) = 5 > d(a, b) + d(b, c) = 2, so strict approximation (a, 3) <
    # (b, 1) holds while the shrinking family at (c, 0) escapes (a, 3); the
    # table breaks the axioms, so it names no rule
    t = FiniteTableSpace(
        ["a", "b", "c"], [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
    )
    assert t.way_below_rule is None
    assert prec(t, ball("a", 3), ball("b", 1))
    v = way_below(t, ball("a", 3), ball("b", 1))
    assert v.is_refuted
    assert v.witness.kind == "radius_shrink" and v.witness.limit_center == "c"
    assert v.witness.replay(t)
    assert WayBelowWitness.from_json(v.witness.to_json()).replay(t)


def test_replay_rejects_a_family_the_kind_does_not_admit(
    sorgenfrey4, real_grid_inf, real_grid_finite, metric_line4
):
    approach = way_below(sorgenfrey4, ball("0", 3), ball("0", 1)).witness
    assert approach.kind == "left_approach" and approach.replay(sorgenfrey4)
    grid = RealGridSpace([0, 1, 2, 3])
    assert not approach.replay(grid)
    assert not approach.replay(metric_line4)

    divergent = way_below(real_grid_inf, ball("inf", 2), ball("inf", 1)).witness
    assert divergent.kind == "divergent" and divergent.replay(real_grid_inf)
    assert not divergent.replay(real_grid_finite)
    assert not divergent.replay(sorgenfrey4)
    assert not divergent.replay(metric_line4)


def test_divergent_replay_requires_the_inf_limit(real_grid_inf):
    witness = way_below(real_grid_inf, ball("inf", 2), ball("inf", 1)).witness
    blob = witness.to_json()
    assert WayBelowWitness.from_json(blob).replay(real_grid_inf)
    blob["family"]["limit_center"] = "0"
    blob["family"]["sup"][0] = "0"
    assert not WayBelowWitness.from_json(blob).replay(real_grid_inf)


CLAIM_RADII = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1),
               Fraction(3, 2), Fraction(2), Fraction(3)]


def _claims(space):
    balls = [ball(p, r) for p in space.points for r in CLAIM_RADII]
    return product(balls, balls)


@pytest.mark.parametrize("seed", range(4))
def test_a_named_rule_decides_every_claim_as_the_refuter_first_route(seed):
    """Where a rule is named, no claim is unknown; on every kind the verdict,
    witness included, is the one the refuter-first route gives."""
    for space, ruled in every_kind(seed):
        assert (space.way_below_rule is not None) == ruled
        for b1, b2 in _claims(space):
            v = way_below(space, b1, b2, depth=2)
            assert not (ruled and v.status == UNKNOWN), (space, b1, b2)
            assert v.to_json() == way_below_reference(space, b1, b2, depth=2).to_json()


DIAGONAL_RADII = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)]


@pytest.mark.parametrize("seed", range(6))
def test_the_refuter_backs_the_declared_non_center_points(seed):
    """The refuter, not the rule, decides every diagonal claim (x, r) <<
    (x, s) with r > s: a witness that replays exists exactly at the
    declared non-center points, and at no other point."""
    declared = 0
    for space, ruled in every_kind(seed):
        if not ruled:
            continue
        for x in space.points:
            non_center = x in space.non_center_points
            declared += non_center
            for r, s in product(DIAGONAL_RADII, DIAGONAL_RADII):
                if r > s:
                    w = _refute_way_below(space, ball(x, r), ball(x, s), depth=32)
                    assert (w is not None) == non_center, (space, x, r, s)
                    assert w is None or w.replay(space), (space, x, r, s)
    assert declared


AXIOM_BREAKING = {
    "self_distance": [[1, 1], [1, 1]],
    "triangle": [[0, 1, 3], [1, 0, 1], [3, 1, 0]],
}


@pytest.mark.parametrize("name", sorted(AXIOM_BREAKING))
def test_a_table_that_breaks_the_axioms_names_no_rule_and_holds_nothing(name):
    rows = AXIOM_BREAKING[name]
    space = FiniteTableSpace("abc"[: len(rows)], rows)
    assert not check_axioms(space).passed
    assert space.way_below_rule is None
    for b1, b2 in _claims(space):
        v = way_below(space, b1, b2)
        assert not v.is_holds, (b1, b2)
        assert not v.is_refuted or v.witness.replay(space)
    for check in (
        lambda: v_relation(space, "a", "b"),
        lambda: center_point_check(space, "a"),
        lambda: smyth_probe(space),
        lambda: build_model(space, 2),
    ):
        with pytest.raises(NoOracle):
            check()
