"""The posets the library builds are partial orders by construction, so
only the two entry points that take an order from outside,
``FinitePoset.from_json`` and ``FinitePoset.from_relation``, check the
laws.  The proofs sit in the docstrings of ``build_model``, ``limit_layer``
and ``_inclusion_completion``; these seeded property tests run the one
validator, ``FinitePoset._validate``, on what each builder returns, and check
the lemma on non-center points that ``build_model``'s proof rests on."""

import random
from fractions import Fraction

import pytest

from conftest import random_table_space
from qmet.posets import (
    AbstractBasis,
    ideal_completion,
    random_abstract_basis,
    random_poset,
    rounded_ideal_completion,
)
from qmet.qideal import build_model, limit_layer
from qmet.spaces import (
    INF_POINT,
    PosetSpace,
    RealGridSpace,
    SkewedIntervalSpace,
    SorgenfreyGridSpace,
    TailedSorgenfreySpace,
)


def _grid(rng):
    return sorted(Fraction(v, 4) for v in rng.sample(range(9), 3))


def _ruled_spaces(seed):
    """One space of every kind with a way-below rule, drawn from the seed."""
    rng = random.Random(seed)
    n = 3 + seed % 3
    return [
        random_table_space(n, seed),
        random_table_space(n, seed, symmetric=True),
        RealGridSpace(_grid(rng)),
        RealGridSpace(_grid(rng) + [INF_POINT]),
        SorgenfreyGridSpace(_grid(rng)),
        PosetSpace(random_poset(n + 1, seed)),
    ]


def _all_spaces(seed):
    rng = random.Random(seed)
    unit = [Fraction(0), Fraction(1)] + [Fraction(1, v) for v in rng.sample(range(2, 9), 2)]
    return _ruled_spaces(seed) + [
        SkewedIntervalSpace(Fraction(rng.randrange(1, 5), 2), unit),
        TailedSorgenfreySpace(1, 1, 2, unit[1:]),
    ]


@pytest.mark.parametrize("seed", range(8))
def test_every_built_poset_passes_validation(seed):
    for space in _ruled_spaces(seed):
        assert space.way_below_rule is not None, space
        for depth in range(1, 6):
            for factor in (Fraction(2), Fraction(3, 2)):
                m = build_model(space, depth, factor)
                assert m.poset._validate() is m.poset
                limit_layer(m)._validate()
                ideal_completion(m.poset).poset._validate()
                basis = AbstractBasis(m.poset.elements, m.poset.to_json()["leq"])
                rounded_ideal_completion(basis).poset._validate()
    rounded_ideal_completion(random_abstract_basis(5, seed)).poset._validate()


@pytest.mark.parametrize("seed", range(8))
def test_non_center_points_reach_no_point_both_ways(seed):
    """No y other than a non-center point x has d(x, y) and d(y, x) both
    finite, on every kind; the model's order drops x's own block and stays
    transitive because of it."""
    kinds_with_non_centers = set()
    for space in _all_spaces(seed):
        for x in space.non_center_points:
            kinds_with_non_centers.add(space.kind)
            for y in space.points:
                if y != x:
                    there, back = space.dist(x, y), space.dist(y, x)
                    assert there.is_infinite or back.is_infinite, (space, x, y)
    assert kinds_with_non_centers == {"real_grid", "sorgenfrey_grid"}
