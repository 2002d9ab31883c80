import random
from fractions import Fraction

import pytest

from qmet.balls import ball
from qmet.errors import QmetError, UnknownPoint
from qmet.extreal import INF, ZERO, ExtReal, ext
from qmet.lipschitz import (
    LscFunction,
    OpenSet,
    dist_to_complement,
    envelope,
    envelope_closed_form,
    extended_value_dist,
    hat_membership,
    lipschitz_check,
    lipschitz_threshold,
    thinning,
)
from qmet.posets import FinitePoset
from qmet.spaces import FiniteTableSpace, PosetSpace

from conftest import dyadics
from threshold_enumeration import scott_open_thresholds_bruteforce


def all_opens(space):
    pts = list(space.points)
    for mask in range(1 << len(pts)):
        members = [p for i, p in enumerate(pts) if mask & (1 << i)]
        try:
            yield OpenSet(space, members)
        except QmetError:
            continue


def test_open_set_validation(diamond_space):
    OpenSet(diamond_space, ["top"])
    OpenSet(diamond_space, ["l", "top"])
    with pytest.raises(QmetError):
        OpenSet(diamond_space, ["bot"])  # not upward closed


def test_open_set_errors_follow_a_fixed_order():
    # a < b and c < d: the first unknown name as given, then the first
    # member in carrier order with a point above it left out
    space = PosetSpace(FinitePoset.from_relation(["a", "b", "c", "d"], [("a", "b"), ("c", "d")]))
    with pytest.raises(UnknownPoint, match="^zz$"):
        OpenSet(space, iter(["zz", "yy", "a"]))
    for members in (["a", "c"], ["c", "a"]):
        with pytest.raises(QmetError, match="a is in the set, b above it is not"):
            OpenSet(space, members)
    assert list(OpenSet(space, iter(["d", "b", "c"]))) == ["b", "c", "d"]


def test_hat_membership_examples(metric_line4):
    u = OpenSet(metric_line4, ["0", "1"])
    assert hat_membership(metric_line4, ball("0", 1), u)
    assert not hat_membership(metric_line4, ball("1", 1), u)
    # radius zero reduces to plain membership
    for x in metric_line4.points:
        assert hat_membership(metric_line4, ball(x, 0), u) == (x in u)
    whole = OpenSet(metric_line4, metric_line4.points)
    assert all(
        hat_membership(metric_line4, ball(x, r), whole)
        for x in metric_line4.points
        for r in dyadics(3)
    )


def test_thinning_examples(metric_line4, diamond_space):
    u = OpenSet(metric_line4, ["0", "1"])
    assert set(thinning(metric_line4, u, 1).members) == {"0"}
    assert thinning(metric_line4, u, 0) == u
    for v in all_opens(diamond_space):
        for r in (0, Fraction(1, 2), 5):
            assert thinning(diamond_space, v, r) == v


def test_dist_to_complement_examples(metric_line4):
    u = OpenSet(metric_line4, ["0", "1"])
    assert dist_to_complement(metric_line4, "0", u) == ExtReal(2)
    assert dist_to_complement(metric_line4, "2", u) == ZERO
    whole = OpenSet(metric_line4, metric_line4.points)
    assert dist_to_complement(metric_line4, "0", whole) == INF


@pytest.mark.parametrize(
    "fixture", ["metric_line4", "sorgenfrey4", "real_grid_inf", "diamond_space"]
)
def test_dist_to_complement_laws(fixture, request):
    space = request.getfixturevalue(fixture)
    for u in all_opens(space):
        for x in space.points:
            d = dist_to_complement(space, x, u)
            # zero exactly outside the open
            assert (d == ZERO) == (x not in u)
            # agreement with the minimum over the complement
            comp = [space.dist(x, y) for y in u.complement()]
            assert d == (min(comp) if comp else INF)
            for y in space.points:
                dy = dist_to_complement(space, y, u)
                assert d <= space.dist(x, y) + dy


@pytest.mark.parametrize(
    "fixture", ["metric_line4", "sorgenfrey4", "diamond_space"]
)
def test_hat_matches_sup_characterization(fixture, request):
    # (x, r) in the hat of u exactly when r stays below d(x, complement)
    space = request.getfixturevalue(fixture)
    for u in all_opens(space):
        for x in space.points:
            d = dist_to_complement(space, x, u)
            for r in dyadics(4) + [Fraction(2), Fraction(5)]:
                assert hat_membership(space, ball(x, r), u) == (ext(r) < d)


@pytest.mark.parametrize(
    "fixture", ["metric_line4", "sorgenfrey4", "real_grid_inf", "diamond_space"]
)
def test_hat_matches_bruteforce_largest_scott_open(fixture, request):
    space = request.getfixturevalue(fixture)
    for u in all_opens(space):
        thresholds = scott_open_thresholds_bruteforce(space, u)
        for x in space.points:
            assert thresholds[x] == dist_to_complement(space, x, u)
            for r in dyadics(4):
                assert hat_membership(space, ball(x, r), u) == (ext(r) < thresholds[x])


# ---------------------------------------------------------------------------
# Lipschitz checking


def test_identity_is_one_lipschitz(metric_line4):
    f = {p: p for p in metric_line4.points}
    report = lipschitz_check(metric_line4, f, 1, codomain=metric_line4)
    assert report.passed and report.verdicts_agree


def test_dist_to_complement_is_one_lipschitz(metric_line4, sorgenfrey4):
    for space in (metric_line4, sorgenfrey4):
        for u in all_opens(space):
            f = LscFunction(
                space, {p: dist_to_complement(space, p, u) for p in space.points}
            )
            report = lipschitz_check(space, f, 1)
            assert report.passed and report.verdicts_agree


def test_doubling_fails_one_lipschitz():
    x = FiniteTableSpace.metric_line(range(4))
    y = FiniteTableSpace.metric_line(range(7))
    f = {p: str(2 * int(p)) for p in x.points}
    report = lipschitz_check(x, f, 1, codomain=y)
    assert not report.passed
    assert report.violations[0][:2] == ("1", "0") or report.violations[0][:2] == ("0", "1")
    assert not report.lift_monotone
    assert report.verdicts_agree
    assert lipschitz_check(x, f, 2, codomain=y).passed


def test_lift_misses_a_slope_violation_between_grid_differences():
    # the slope 2 between points 1/4 apart breaks alpha = 1, but the default
    # lift radii differ by 1/2 at least, where the drop of 1/2 is allowed
    space = FiniteTableSpace.metric_line([0, Fraction(1, 4)])
    f = LscFunction(space, {"0": "1/2", "1/4": "0"})
    report = lipschitz_check(space, f, 1)
    assert not report.passed
    assert report.lift_monotone
    assert not report.verdicts_agree


def test_poset_lipschitz_maps_are_monotone(diamond_space):
    # on 0/inf distances any alpha > 0 accepts exactly the monotone maps
    mono = {"bot": "bot", "l": "top", "r": "top", "top": "top"}
    report = lipschitz_check(diamond_space, mono, 1, codomain=diamond_space)
    assert report.passed
    not_mono = {"bot": "top", "l": "l", "r": "r", "top": "top"}
    assert not lipschitz_check(diamond_space, not_mono, 1, codomain=diamond_space).passed


# ---------------------------------------------------------------------------
# Envelopes


def test_envelope_indicator_metric_line():
    space = FiniteTableSpace.metric_line(range(4))
    u = OpenSet(space, ["0", "1"])
    f = LscFunction.scaled_indicator(space, u, 4)
    g = envelope(space, f, 1)
    assert [g(p) for p in space.points] == [ExtReal(2), ExtReal(1), ZERO, ZERO]


def test_envelope_alpha_zero_is_constant_min(metric_line4, real_grid_inf):
    for space, values in (
        (metric_line4, {"0": "3", "1": "1/2", "2": "inf", "3": "4"}),
        (real_grid_inf, {"0": "1", "1/2": "2", "1": "inf", "inf": "5"}),
    ):
        f = LscFunction(space, values)
        g = envelope(space, f, 0)
        lo = min(f(p) for p in space.points)
        assert all(g(p) == lo for p in space.points)


def test_envelope_fixes_lipschitz_functions(metric_line4):
    u = OpenSet(metric_line4, ["0", "1"])
    f = LscFunction(
        metric_line4,
        {p: dist_to_complement(metric_line4, p, u) for p in metric_line4.points},
    )
    assert envelope(metric_line4, f, 1) == f


def test_envelope_below_and_lipschitz(metric_line8):
    rng = random.Random(5)
    for _ in range(20):
        f = LscFunction(
            metric_line8,
            {p: Fraction(rng.randrange(0, 64), 8) for p in metric_line8.points},
        )
        for alpha in (Fraction(1, 2), Fraction(1), Fraction(3)):
            g = envelope(metric_line8, f, alpha)
            assert g.leq(f)
            assert lipschitz_check(metric_line8, g, alpha).passed


def test_envelope_chain_property(metric_line8):
    rng = random.Random(9)
    alphas = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)]
    for _ in range(25):
        f = LscFunction(
            metric_line8,
            {p: Fraction(rng.randrange(0, 40), 4) for p in metric_line8.points},
        )
        envs = [envelope(metric_line8, f, a) for a in alphas]
        for lo, hi in zip(envs, envs[1:]):
            assert lo.leq(hi)


def test_envelope_recovery_at_threshold(metric_line8):
    rng = random.Random(12)
    for _ in range(20):
        f = LscFunction(
            metric_line8,
            {p: Fraction(rng.randrange(0, 48), 8) for p in metric_line8.points},
        )
        star = lipschitz_threshold(metric_line8, f)
        assert envelope(metric_line8, f, star) == f
        assert envelope(metric_line8, f, star + 1) == f


def test_envelope_closed_form_for_indicators(metric_line8, sorgenfrey4):
    for space in (metric_line8, sorgenfrey4):
        for u in all_opens(space):
            for alpha in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(10)):
                f = LscFunction.scaled_indicator(space, u, 4)
                assert envelope(space, f, alpha) == envelope_closed_form(
                    space, u, 4, alpha
                )


def test_indicator_envelopes_recover_indicator(metric_line4):
    u = OpenSet(metric_line4, ["0", "1"])
    r = ExtReal(4)
    f = LscFunction.scaled_indicator(metric_line4, u, r)
    sup = {p: ZERO for p in metric_line4.points}
    for alpha in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4), Fraction(8)):
        g = envelope_closed_form(metric_line4, u, r, alpha)
        assert g.leq(f)
        sup = {p: max(sup[p], g(p)) for p in metric_line4.points}
    assert sup == {p: f(p) for p in metric_line4.points}


def test_envelope_is_largest_below_by_enumeration():
    # compare against every candidate on a tiny value lattice
    space = FiniteTableSpace.metric_line(range(3))
    levels = [ZERO, ExtReal(Fraction(1, 2)), ExtReal(1), ExtReal(2), INF]
    f = LscFunction(space, {"0": ExtReal(2), "1": ZERO, "2": ExtReal(2)})
    for alpha in (Fraction(0), Fraction(1, 2), Fraction(1)):
        g = envelope(space, f, alpha)
        best = {p: ZERO for p in space.points}
        for a in levels:
            for b in levels:
                for c in levels:
                    h = LscFunction(space, {"0": a, "1": b, "2": c})
                    if h.leq(f) and lipschitz_check(space, h, alpha).passed:
                        best = {p: max(best[p], h(p)) for p in space.points}
        assert best == {p: g(p) for p in space.points}


def test_envelope_is_a_projection(metric_line8):
    # applying the envelope twice at the same slope changes nothing, and
    # envelopes preserve the pointwise order of their inputs
    rng = random.Random(31)
    for _ in range(15):
        f = LscFunction(
            metric_line8,
            {p: Fraction(rng.randrange(0, 32), 4) for p in metric_line8.points},
        )
        g = LscFunction(
            metric_line8,
            {p: f(p).as_fraction() + Fraction(rng.randrange(0, 8), 4) for p in metric_line8.points},
        )
        for alpha in (Fraction(1, 2), Fraction(2)):
            ef = envelope(metric_line8, f, alpha)
            assert envelope(metric_line8, ef, alpha) == ef
            assert ef.leq(envelope(metric_line8, g, alpha))


def test_threshold_requires_finite_values(metric_line4):
    f = LscFunction(metric_line4, {"0": "inf", "1": "0", "2": "0", "3": "0"})
    with pytest.raises(QmetError):
        lipschitz_threshold(metric_line4, f)


def test_lsc_function_monotone_report(sorgenfrey4, real_grid_inf):
    f = LscFunction(real_grid_inf, {"0": "3", "1/2": "1", "1": "2", "inf": "2"})
    assert ("0", "1/2") in f.monotone_violations()
    g = LscFunction(real_grid_inf, {"0": "0", "1/2": "1", "1": "2", "inf": "2"})
    assert g.monotone_violations() == []
    # discrete specialization order never constrains
    h = LscFunction(sorgenfrey4, {"0": "9", "1": "0", "2": "inf", "3": "1/2"})
    assert h.monotone_violations() == []


def test_extended_value_dist():
    assert extended_value_dist(ExtReal(3), ExtReal(1)) == ExtReal(2)
    assert extended_value_dist(ExtReal(1), ExtReal(3)) == ZERO
    assert extended_value_dist(INF, ExtReal(3)) == INF
    assert extended_value_dist(INF, INF) == ZERO


def test_function_json_round_trip(metric_line4):
    f = LscFunction(metric_line4, {"0": "1/2", "1": "inf", "2": "0", "3": "7"})
    assert LscFunction.from_json(metric_line4, f.to_json()) == f
