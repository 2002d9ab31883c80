from fractions import Fraction

import pytest

from qmet.balls import leq_dplus, ball
from qmet.errors import NoOracle, QmetError
from qmet.posets import FinitePoset
from qmet.qideal import (
    ModelElement,
    ModelPoset,
    build_model,
    limit_layer,
    model_to_dot,
    quasi_ideal_model_check,
)
from qmet.spaces import (
    FiniteTableSpace,
    PosetSpace,
    RealGridSpace,
    parse_point_value,
)


@pytest.fixture
def chain_space():
    return PosetSpace(FinitePoset.chain(["bot", "top"]))


def test_build_model_two_chain_edges(chain_space):
    m = build_model(chain_space, depth=1)
    assert m.poset.leq("(bot, 1)", "(top, 1/2)")
    assert not m.poset.leq("(bot, 1/2)", "(top, 1)")


def test_positive_ball_below_limit_iff_way_below(metric_line4):
    m = build_model(metric_line4, depth=2)
    # d(x, x) = 0 < 1, and the halving constraint is vacuous at radius zero
    assert m.poset.leq("(0, 1)", "(0, 0)")
    # d(1, 0) = 1 fails the strict bound against both radius pairs
    assert not m.poset.leq("(1, 1)", "(0, 0)")
    assert not m.poset.leq("(1, 1/2)", "(0, 0)")


def test_limit_layer_is_specialization_order(chain_space, sorgenfrey4):
    m = build_model(chain_space, depth=3)
    ll = limit_layer(m)
    assert ll.leq("bot", "top") and not ll.leq("top", "bot")

    m2 = build_model(sorgenfrey4, depth=3)
    ll2 = limit_layer(m2)
    for x in sorgenfrey4.points:
        for y in sorgenfrey4.points:
            assert ll2.leq(x, y) == (x == y)


def test_one_point_space_model():
    space = FiniteTableSpace.metric_line([0])
    m = build_model(space, depth=2)
    assert limit_layer(m).elements == ("0",)
    assert quasi_ideal_model_check(m).passed


@pytest.mark.parametrize("depth", [1, 3, 5])
def test_model_checks_pass_on_chain(chain_space, depth):
    m = build_model(chain_space, depth=depth)
    report = quasi_ideal_model_check(m)
    assert report.passed
    assert report.longest_finite_chain <= depth + 1


def test_model_checks_pass_on_real_grid():
    rg = RealGridSpace([parse_point_value(s) for s in ["0", "1", "2"]])
    m = build_model(rg, depth=5)
    report = quasi_ideal_model_check(m)
    assert report.passed
    assert report.longest_finite_chain <= 6
    shallow = quasi_ideal_model_check(build_model(rg, depth=4))
    assert shallow.passed and shallow.longest_finite_chain <= 5


def test_build_model_requires_oracle(skewed_unit):
    with pytest.raises(NoOracle):
        build_model(skewed_unit, depth=2)


def test_build_model_parameter_validation(chain_space):
    with pytest.raises(QmetError):
        build_model(chain_space, depth=0)
    with pytest.raises(QmetError):
        build_model(chain_space, depth=2, factor=1)


def test_contraction_factor_configurable(chain_space):
    m = build_model(chain_space, depth=3, factor=Fraction(3, 2))
    # radius 1 to radius 1/2 satisfies 1 >= (3/2) * (1/2)
    assert m.poset.leq("(bot, 1)", "(top, 1/2)")
    report = quasi_ideal_model_check(m)
    assert report.passed


def test_model_order_implies_ball_order(chain_space, metric_line4):
    for space, depth in ((chain_space, 3), (metric_line4, 2)):
        m = build_model(space, depth=depth)
        for a in m.elements:
            for b in m.elements:
                if m.poset.leq(a.name, b.name):
                    assert leq_dplus(
                        space, ball(a.center, a.radius), ball(b.center, b.radius)
                    )


def test_halving_on_every_strict_edge(metric_line4):
    m = build_model(metric_line4, depth=3)
    finite = [e for e in m.elements if not e.is_limit]
    for a in finite:
        for b in finite:
            if a != b and m.poset.leq(a.name, b.name):
                assert a.radius >= 2 * b.radius


def test_tampered_edge_fails_layering():
    space = PosetSpace(FinitePoset.from_relation(["x", "y"], []))
    m = build_model(space, depth=1)
    names = list(m.poset.elements)
    pairs = [(a, b) for a in names for b in names if m.poset.leq(a, b)]
    pairs.append(("(x, 0)", "(y, 1/2)"))
    tampered = ModelPoset(
        space, m.depth, m.factor, FinitePoset.from_relation(names, pairs), m.elements
    )
    report = quasi_ideal_model_check(tampered)
    assert not report.layering_ok
    assert ("(x, 0)", "(y, 1/2)") in report.layering_violations
    assert not report.passed


def test_model_to_dot_tags_limit_nodes(chain_space):
    m = build_model(chain_space, depth=1)
    text = model_to_dot(m)
    assert '"(bot, 0)" [shape=box];' in text
    assert '"(bot, 1)";' in text


def test_element_names():
    e = ModelElement("p", Fraction(1, 4))
    assert e.name == "(p, 1/4)"
    assert not e.is_limit
    assert ModelElement("p", Fraction(0)).is_limit


def test_model_json_carries_radius_annotation(chain_space):
    m = build_model(chain_space, depth=1)
    blob = m.to_json()
    assert blob["kind"] == "poset"
    assert blob["radius"]["(bot, 0)"] == "0"
    assert blob["radius"]["(top, 1/2)"] == "1/2"
    # the poset part still loads as a plain poset
    assert FinitePoset.from_json(blob).leq("(bot, 1)", "(top, 1/2)")
