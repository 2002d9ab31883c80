from fractions import Fraction

import pytest

from qmet.balls import (
    FiniteBallFamily,
    GeometricBallFamily,
    StandardnessWitness,
    WayBelowWitness,
    _way_below_rule,
    ball,
    center_point_check,
    dplus,
    leq_dplus,
    order_laws_report,
    parse_ball,
    prec,
    radius_law_report,
    smyth_probe,
    standardness_probe,
    v_relation,
    way_below,
)
from qmet.errors import InvalidSup, NoOracle, QmetError
from qmet.extreal import INF, ZERO, ExtReal
from qmet.spaces import (
    INF_POINT,
    FiniteTableSpace,
    RealGridSpace,
    SkewedIntervalSpace,
    SorgenfreyGridSpace,
    parse_point_value,
)

from conftest import dyadics, random_table_space


def test_ball_literal_round_trip():
    b = parse_ball("(x, 3/4)")
    assert b == ball("x", Fraction(3, 4))
    assert str(b) == "(x, 3/4)"


def test_ball_radius_validation():
    with pytest.raises(QmetError):
        ball("x", Fraction(-1, 2))


def test_leq_dplus_examples(sorgenfrey4):
    rg = RealGridSpace([parse_point_value(s) for s in ["3", "5"]])
    assert leq_dplus(rg, ball("5", 3), ball("3", 1))
    assert leq_dplus(sorgenfrey4, ball("0", 3), ball("1", 1))
    assert leq_dplus(rg, ball("5", 3), ball("5", 3))


def test_leq_dplus_radius_short_circuit(metric_line4):
    assert not leq_dplus(metric_line4, ball("0", Fraction(1, 2)), ball("0", 1))


def test_dplus_examples():
    rg = RealGridSpace([parse_point_value(s) for s in ["3", "5"]])
    assert dplus(rg, ball("5", 3), ball("3", 1)) == ZERO
    assert dplus(rg, ball("5", 1), ball("3", 1)) == ExtReal(2)
    assert dplus(rg, ball("5", 2), ball("5", 2)) == ZERO


def test_dplus_zero_iff_leq(metric_line4, sorgenfrey4):
    radii = dyadics(3)
    for space in (metric_line4, sorgenfrey4):
        balls = [ball(p, r) for p in space.points for r in radii]
        for a in balls:
            for b in balls:
                assert (dplus(space, a, b) == ZERO) == leq_dplus(space, a, b)


def test_prec_examples():
    rg = RealGridSpace([parse_point_value(s) for s in ["3", "5"]])
    assert prec(rg, ball("5", 4), ball("3", 1))
    assert not prec(rg, ball("5", 3), ball("3", 1))  # boundary
    assert not prec(rg, ball("5", 2), ball("5", 2))


@pytest.mark.parametrize(
    "fixture", ["metric_line4", "real_grid_inf", "sorgenfrey4", "diamond_space"]
)
def test_dplus_is_a_quasi_metric_on_balls(fixture, request):
    space = request.getfixturevalue(fixture)
    radii = dyadics(2)
    balls = [ball(p, r) for p in space.points for r in radii]
    for a in balls:
        assert dplus(space, a, a) == ZERO
        for b in balls:
            for c in balls:
                assert dplus(space, a, c) <= dplus(space, a, b) + dplus(space, b, c)


# ---------------------------------------------------------------------------
# way-below


def test_way_below_real_grid_infinity_refuted(real_grid_inf):
    v = way_below(real_grid_inf, ball("inf", 2), ball("inf", 1))
    assert v.is_refuted
    assert v.witness.kind == "divergent"
    assert v.witness.replay(real_grid_inf)


def test_way_below_sorgenfrey_holds(sorgenfrey4):
    v = way_below(sorgenfrey4, ball("0", 3), ball("1", 1))
    assert v.is_holds


def test_way_below_sorgenfrey_gap_refuted(sorgenfrey4):
    assert prec(sorgenfrey4, ball("0", 3), ball("0", 1))
    v = way_below(sorgenfrey4, ball("0", 3), ball("0", 1))
    assert v.is_refuted
    assert v.witness.kind == "left_approach"
    assert v.witness.replay(sorgenfrey4)


def test_way_below_tailed_refuter_finds_spec_family(tailed_standard):
    v = way_below(tailed_standard, ball("-2", 3), ball("-1", 1), depth=8)
    assert v.is_refuted
    expected = [
        (str(Fraction(1) - Fraction(1, 2 ** (n + 1))), Fraction(1, 2 ** (n + 1)))
        for n in range(9)
    ]
    assert v.witness.members == expected
    assert v.witness.sup == ("1", Fraction(0))
    assert v.witness.replay(tailed_standard)


def test_way_below_tailed_unknown_at_depth(tailed_standard):
    v = way_below(tailed_standard, ball("-2", 2), ball("-1", 0), depth=8)
    assert v.is_unknown


def test_way_below_metric_table_is_strict_approximation(metric_line4):
    assert metric_line4.way_below_rule == "metric_strict_approximation"
    radii = dyadics(3)
    for x in metric_line4.points:
        for y in metric_line4.points:
            for r in radii:
                for s in radii:
                    b1, b2 = ball(x, r), ball(y, s)
                    assert _way_below_rule(metric_line4, b1, b2) == prec(metric_line4, b1, b2)


def test_rule_decides_an_asymmetric_table():
    # the table passes the axioms, so strict approximation is way-below
    t = FiniteTableSpace(["a", "b"], [[ZERO, ExtReal(1)], [ExtReal(2), ZERO]])
    assert t.way_below_rule == "metric_strict_approximation"
    v = way_below(t, ball("a", Fraction(1, 2)), ball("b", Fraction(1, 4)))
    assert v.is_refuted and v.witness.replay(t)
    v = way_below(t, ball("a", Fraction(3, 2)), ball("b", Fraction(1, 4)))
    assert v.is_holds and v.justification == "metric_strict_approximation"


def _way_below_on_whole_table(space, b1, b2):
    """Independent decision procedure when the table is the entire space.

    Every directed ball family over a finite carrier has a supremum (z, t)
    reached by shrinking radii at an eventually constant center, so way-below
    reduces to: every ball dominating b2 must be strictly approximated by b1.
    For each center the binding radius is the largest one still dominated.
    """
    for z in space.points:
        d2 = space.dist(b2.center, z)
        if d2.is_infinite or d2.as_fraction() > b2.radius:
            continue
        t = b2.radius - d2.as_fraction()
        d1 = space.dist(b1.center, z)
        if not (d1.is_finite and d1.as_fraction() < b1.radius - t):
            return False
    return True


@pytest.mark.parametrize("seed", range(10))
def test_metric_table_oracle_matches_quantifier(seed):
    space = random_table_space(4, seed, symmetric=True)
    radii = dyadics(2)
    for x in space.points:
        for y in space.points:
            for r in radii:
                for s in radii:
                    b1, b2 = ball(x, r), ball(y, s)
                    assert _way_below_rule(space, b1, b2) == _way_below_on_whole_table(
                        space, b1, b2
                    )


@pytest.mark.parametrize("seed", range(10))
def test_asymmetric_table_refuter_matches_quantifier(seed):
    # the table passes the axioms, so the rule decides: holds exactly when
    # the quantifier does, and refuted with a replaying witness otherwise
    space = random_table_space(4, seed, symmetric=False)
    assert space.way_below_rule is not None
    radii = dyadics(2)
    for x in space.points:
        for y in space.points:
            for r in radii:
                for s in radii:
                    b1, b2 = ball(x, r), ball(y, s)
                    v = way_below(space, b1, b2, depth=3)
                    truth = _way_below_on_whole_table(space, b1, b2)
                    assert v.is_holds == truth and v.is_refuted == (not truth)
                    if v.is_refuted:
                        assert v.witness.replay(space)


@pytest.mark.parametrize(
    "fixture",
    ["metric_line4", "real_grid_inf", "sorgenfrey4", "diamond_space"],
)
def test_oracle_answers_imply_order_laws(fixture, request):
    # positive way-below answers always sit inside both comparisons
    space = request.getfixturevalue(fixture)
    radii = dyadics(3)
    balls = [ball(p, r) for p in space.points for r in radii]
    for b1 in balls:
        for b2 in balls:
            v = way_below(space, b1, b2, depth=4)
            if v.is_holds:
                assert prec(space, b1, b2)
                assert leq_dplus(space, b1, b2)


@pytest.mark.parametrize(
    "fixture",
    ["metric_line4", "real_grid_inf", "sorgenfrey4", "diamond_space"],
)
def test_refuter_never_contradicts_oracle(fixture, request):
    from qmet.balls import _refute_way_below

    space = request.getfixturevalue(fixture)
    radii = dyadics(3)
    balls = [ball(p, r) for p in space.points for r in radii]
    for b1 in balls:
        for b2 in balls:
            v = way_below(space, b1, b2, depth=4)
            # the bounded search never finds a witness against an oracle yes
            if v.is_holds:
                assert _refute_way_below(space, b1, b2, depth=4) is None
            # and on oracle-backed spaces every oracle no gets a witness
            assert not v.is_unknown, f"{b1} << {b2} left undecided"


# ---------------------------------------------------------------------------
# v relation and center points


def test_v_relation_examples(real_grid_inf, sorgenfrey4):
    rg5 = RealGridSpace([parse_point_value(s) for s in ["3", "5"]])
    assert v_relation(rg5, "5", "3") == ExtReal(2)
    assert v_relation(sorgenfrey4, "3", "3") == INF
    assert v_relation(real_grid_inf, "inf", "1") == INF


def test_v_relation_no_oracle(skewed_unit):
    with pytest.raises(NoOracle):
        v_relation(skewed_unit, "0", "1")


def test_center_points(real_grid_inf, sorgenfrey4, metric_line4):
    centers = [x for x in real_grid_inf.points if center_point_check(real_grid_inf, x)]
    assert centers == ["0", "1/2", "1"]
    assert not any(center_point_check(sorgenfrey4, x) for x in sorgenfrey4.points)
    assert all(center_point_check(metric_line4, x) for x in metric_line4.points)


def test_smyth_probe(metric_line4, sorgenfrey4, real_grid_inf):
    assert smyth_probe(metric_line4).consistent

    rep = smyth_probe(sorgenfrey4)
    assert (ball("0", 3), ball("0", 1)) in rep.gap_pairs
    assert rep.non_center_points == list(sorgenfrey4.points)

    rep2 = smyth_probe(real_grid_inf)
    assert rep2.gap_pairs and all(a.center == "inf" for a, _ in rep2.gap_pairs)
    assert rep2.non_center_points == ["inf"]


def test_smyth_probe_requires_oracle(skewed_unit):
    with pytest.raises(NoOracle):
        smyth_probe(skewed_unit)


# ---------------------------------------------------------------------------
# standardness probe


def test_standardness_refuted_on_skewed_interval(skewed_unit):
    fam = GeometricBallFamily(skewed_unit, 0)
    v = standardness_probe(skewed_unit, fam, ball("0", 0), 1)
    assert v.is_refuted
    assert v.witness.candidate == ball("1/3", Fraction(2, 3))
    assert v.witness.replay(skewed_unit)


def test_standardness_poset_family_holds(diamond_space):
    family = [ball("bot", 1), ball("bot", Fraction(1, 2))]
    v = standardness_probe(diamond_space, family, ball("bot", Fraction(1, 2)), 1)
    assert v.is_holds


def test_standardness_shift_zero(skewed_unit):
    fam = GeometricBallFamily(skewed_unit, 0)
    v = standardness_probe(skewed_unit, fam, ball("0", 0), 0)
    assert v.is_holds


def test_standardness_metric_family_holds(metric_line4):
    family = [ball("2", 1), ball("2", Fraction(1, 2))]
    v = standardness_probe(metric_line4, family, ball("2", Fraction(1, 2)), Fraction(3, 4))
    assert v.is_holds


def test_standardness_invalid_sup(skewed_unit, metric_line4):
    fam = GeometricBallFamily(skewed_unit, 0)
    with pytest.raises(InvalidSup):
        standardness_probe(skewed_unit, fam, ball("1/3", 0), 1)
    with pytest.raises(InvalidSup):
        # an upper bound, but not the least one
        standardness_probe(metric_line4, [ball("2", 1)], ball("2", Fraction(1, 4)), 1)


def test_scripted_family_predicate_consistency(skewed_unit):
    for s in (Fraction(0), Fraction(1), Fraction(1, 2)):
        GeometricBallFamily(skewed_unit, s).validate_against_truncation()


def test_scripted_family_truncation_agreement(skewed_unit):
    # positive predicate answers dominate every truncated member
    fam = GeometricBallFamily(skewed_unit, 1)
    for name in skewed_unit.points:
        for r in dyadics(3):
            b = ball(name, r)
            if fam.is_upper_bound(b):
                assert all(fam.dominates_member(b, m) for m in range(12))


def _random_skewed_grid(rng):
    """A skewed interval with a >= 1 on a grid of coarse rationals; every gap
    the truncation check meets is far above its 2^-80 horizon."""
    count = rng.randrange(1, 7)
    values = {Fraction(0)} | {Fraction(rng.randrange(65), 64) for _ in range(count)}
    a = Fraction(rng.randrange(4, 13), 4)
    return SkewedIntervalSpace(a, sorted(values))


@pytest.mark.parametrize("seed", range(12))
def test_scripted_family_rule_on_random_skewed_grids(seed):
    import random

    rng = random.Random(seed)
    space = _random_skewed_grid(rng)
    for _ in range(3):
        fam = GeometricBallFamily(space, Fraction(rng.randrange(17), 8))
        fam.validate_against_truncation()


TINY = Fraction(1, 2**100)


def test_standardness_tiny_skewed_gap_is_refuted():
    # the rule x + r <= s is exact: (2^-100, 0) bounds no family with s = 0,
    # although only members past the hundred-and-first show it
    space = SkewedIntervalSpace(1, [Fraction(0), TINY, Fraction(1, 2), Fraction(1)])
    fam = GeometricBallFamily(space, 0)
    low = ball(str(TINY), 0)
    assert not fam.is_upper_bound(low)
    assert all(fam.dominates_member(low, m) for m in range(100))
    assert not fam.dominates_member(low, 102)
    v = standardness_probe(space, fam, ball("0", 0), 1)
    assert v.is_refuted
    assert v.witness.candidate == ball(str(TINY), 1 - TINY)
    assert v.witness.replay(space)


def _chain_families(space, rng, radii, count):
    """Seeded finite chains of carrier balls, each ball below the next; the
    last one is the family's least upper bound."""
    grid = [ball(p, r) for p in space.points for r in radii]
    for _ in range(count):
        chain = [rng.choice(grid)]
        for _ in range(rng.randrange(3)):
            above = [b for b in grid if leq_dplus(space, chain[-1], b) and b != chain[-1]]
            if not above:
                break
            chain.append(rng.choice(above))
        yield chain


def _shifted_caps(space, members, shift):
    """Per carrier point, the largest u with (w, u) above every shifted
    member, computed straight from the distances."""
    caps = {}
    for w in space.points:
        ds = [space.dist(m.center, w) for m in members]
        if all(d.is_finite for d in ds):
            cap = min(m.radius + shift - d.as_fraction() for m, d in zip(members, ds))
            if cap >= 0:
                caps[w] = cap
    return caps


@pytest.mark.parametrize(
    "fixture",
    [
        "metric_line4",
        "real_grid_inf",
        "real_grid_finite",
        "sorgenfrey4",
        "diamond_space",
        "skewed_unit",
        "tailed_standard",
    ],
)
def test_standardness_verdicts_are_sound(fixture, request):
    """Refutations replay after a JSON round trip; a finite *holds* is
    confirmed by brute force over carrier balls, the caps included."""
    import json
    import random

    space = request.getfixturevalue(fixture)
    rng = random.Random(fixture)
    radii = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    shifts = [Fraction(1, 4), Fraction(1), Fraction(5, 2)]
    probes = [(chain, chain[-1]) for chain in _chain_families(space, rng, radii, 12)]
    if isinstance(space, SkewedIntervalSpace):
        probes.append((GeometricBallFamily(space, 0), ball("0", 0)))
    seen = set()
    for family, sup in probes:
        for shift in shifts:
            v = standardness_probe(space, family, sup, shift)
            seen.add(v.status)
            if v.is_refuted:
                blob = json.loads(json.dumps(v.witness.to_json()))
                assert StandardnessWitness.from_json(blob).replay(space)
            elif isinstance(family, list):
                assert v.is_holds
                target = ball(sup.center, sup.radius + shift)
                caps = _shifted_caps(space, family, shift)
                for w in space.points:
                    for u in set(radii) | {r + shift for r in radii} | set(caps.values()):
                        cand = ball(w, u)
                        if all(
                            leq_dplus(space, ball(m.center, m.radius + shift), cand)
                            for m in family
                        ):
                            assert leq_dplus(space, target, cand), (family, shift, cand)
    assert "holds" in seen
    if isinstance(space, SkewedIntervalSpace):
        assert "refuted" in seen


def test_standardness_replay_refuses_a_shift_below_zero(skewed_unit, metric_line4):
    geometric = standardness_probe(skewed_unit, GeometricBallFamily(skewed_unit, 0), ball("0", 0), 1)
    w = geometric.witness
    with pytest.raises(QmetError, match="offset s must be non-negative"):
        StandardnessWitness(w.family, Fraction(-1), w.candidate, w.target, w.members).replay(
            skewed_unit
        )
    members = [("0", Fraction(3)), ("1", Fraction(2))]
    finite = StandardnessWitness({"kind": "finite"}, Fraction(-5, 2), ball("1", 0), ball("1", 0), members)
    with pytest.raises(QmetError, match="ball radius must be non-negative, got -1/2"):
        finite.replay(metric_line4)
    # a negative shift that leaves every radius non-negative is replayed
    finite.shift = Fraction(-1)
    assert not finite.replay(metric_line4)


def test_standardness_replay_of_a_memberless_family_is_not_refuted(metric_line4):
    # an empty family has no largest upper-bound radius anywhere, so no
    # candidate bounds it and nothing is refuted
    w = StandardnessWitness({"kind": "finite"}, Fraction(1), ball("0", 0), ball("2", 1), [])
    assert not w.replay(metric_line4)


def _shifted_copy(family, shift):
    """The family rebuilt with every member radius raised by shift."""
    if isinstance(family, GeometricBallFamily):
        return GeometricBallFamily(family.space, family.s + shift)
    return FiniteBallFamily(
        family.space, [ball(b.center, b.radius + shift) for b in family.members]
    )


@pytest.mark.parametrize("seed", range(6))
def test_shift_question_matches_a_shifted_copy(seed):
    """``max_upper_radius(w, shift)`` and ``is_upper_bound(b, shift)`` agree
    with an explicitly shifted copy of the family, for finite and geometric
    families on seeded balls and shifts.  The copy's upper bounds are read
    off one ``leq_dplus`` per member, or off the rule x + r <= s."""
    import random

    rng = random.Random(seed)
    radii = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)]
    shifts = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(5, 2)]
    values = sorted(rng.sample([Fraction(k, 4) for k in range(8)], 3))
    skew = _random_skewed_grid(rng)
    spaces = [
        random_table_space(4, seed),
        random_table_space(4, seed, symmetric=True),
        SorgenfreyGridSpace(values),
        RealGridSpace(values + [INF_POINT]),
        skew,
    ]
    families = [
        FiniteBallFamily(space, chain)
        for space in spaces
        for chain in _chain_families(space, rng, radii, 4)
    ]
    families += [GeometricBallFamily(skew, Fraction(rng.randrange(9), 4)) for _ in range(3)]
    seen = set()
    for fam in families:
        space = fam.space
        for shift in shifts:
            copy = _shifted_copy(fam, shift)
            for w in space.points:
                cap = fam.max_upper_radius(w, shift)
                assert cap == copy.max_upper_radius(w)
                near = [] if cap is None else [cap, cap + Fraction(1, 8)]
                for r in radii + near:
                    b = ball(w, r)
                    if isinstance(fam, GeometricBallFamily):
                        want = space.value(w) + r <= copy.s
                    else:
                        want = all(leq_dplus(space, m, b) for m in copy.members)
                    assert fam.is_upper_bound(b, shift) == want, (fam, shift, b)
                    seen.add((type(fam), want))
    assert len(seen) == 4


@pytest.mark.parametrize("seed", range(3))
def test_finite_families_hold_where_order_laws_pass(seed):
    """On a carrier whose ball order is a partial order, a finite directed
    family holds its maximum, which is its sup, and <=+ is shift-invariant:
    no finite probe can be refuted there."""
    import random
    from itertools import combinations

    rng = random.Random(seed)
    radii = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)]
    shifts = [Fraction(1, 3), Fraction(1), Fraction(2)]
    values = sorted(rng.sample([Fraction(k, 4) for k in range(8)], 3))
    candidates = [
        random_table_space(3, seed),
        random_table_space(3, seed, symmetric=True),
        SorgenfreyGridSpace(values),
        RealGridSpace(values[:2] + [INF_POINT]),
        SkewedIntervalSpace(1, [0] + [v / 2 for v in values if v]),
        SkewedIntervalSpace(Fraction(1, 2), [0, Fraction(1, 10), 1]),  # breaks the triangle
    ]
    probed = 0
    for space in candidates:
        if not order_laws_report(space, radii, shifts).passed:
            continue
        grid = [ball(p, r) for p in space.points for r in radii]
        leq = {(a, b): leq_dplus(space, a, b) for a in grid for b in grid}
        families = [
            list(fam)
            for size in (1, 2)
            for fam in combinations(grid, size)
            if all(any(leq[a, c] and leq[b, c] for c in fam) for a in fam for b in fam)
        ]
        for fam in families:
            for sup in (u for u in grid if all(leq[m, u] for m in fam)):
                try:
                    verdicts = [standardness_probe(space, fam, sup, a) for a in shifts]
                except InvalidSup:
                    continue
                probed += 1
                assert all(v.is_holds for v in verdicts), (space, fam, sup)
    assert probed > 100


def test_witness_serialization_round_trip(tailed_standard):
    v = way_below(tailed_standard, ball("-2", 3), ball("-1", 1), depth=8)
    blob = v.witness.to_json()
    back = WayBelowWitness.from_json(blob)
    assert back.replay(tailed_standard)
    # tampering with the claim breaks the replay: a member dominates (1/2, 3)
    blob_bad = dict(blob)
    blob_bad["claim"] = [str(ball("1/2", 3)), str(ball("-1", 1))]
    assert not WayBelowWitness.from_json(blob_bad).replay(tailed_standard)


# ---------------------------------------------------------------------------
# order-law sweeps


@pytest.mark.parametrize(
    "fixture",
    ["metric_line4", "real_grid_inf", "sorgenfrey4", "diamond_space", "tailed_standard"],
)
def test_order_laws(fixture, request):
    space = request.getfixturevalue(fixture)
    report = order_laws_report(
        space, dyadics(4), shifts=[Fraction(1, 4), Fraction(1), Fraction(3)]
    )
    assert report.passed, report.failures


def test_order_laws_twelve_point_grid():
    space = FiniteTableSpace.metric_line(range(12))
    report = order_laws_report(space, dyadics(5), shifts=[Fraction(1)])
    assert report.ball_count == 12 * 7
    assert report.passed, report.failures


def test_radius_law(metric_line4, sorgenfrey4):
    for space in (metric_line4, sorgenfrey4):
        report = radius_law_report(space, dyadics(3))
        assert report.families_checked > 0
        assert report.passed, report.failures


def _order_failures_by_pairs(space, radii, shifts):
    """The order-law failures of ``order_laws_report``, one ``leq_dplus``
    call per pair and per shift."""
    balls = [ball(p, r) for p in space.points for r in radii]
    leq = [[leq_dplus(space, a, b) for b in balls] for a in balls]
    n = len(balls)
    out = [("reflexivity", balls[i]) for i in range(n) if not leq[i][i]][:1]
    out += [
        ("antisymmetry", (balls[i], balls[j]))
        for i in range(n) for j in range(i + 1, n) if leq[i][j] and leq[j][i]
    ]
    out += [
        ("transitivity", (balls[i], balls[j]))
        for i in range(n) for j in range(n)
        if leq[i][j] and any(leq[j][k] and not leq[i][k] for k in range(n))
    ]
    for a in shifts:
        out += [
            ("shift_invariance", (b1, b2, a))
            for b1 in balls for b2 in balls
            if leq_dplus(space, b1, b2)
            != leq_dplus(space, ball(b1.center, b1.radius + a), ball(b2.center, b2.radius + a))
        ]
    return out


@pytest.mark.parametrize("seed", range(4))
def test_order_laws_match_pairwise_route(seed):
    # a < 1 breaks the triangle inequality, so transitivity failures appear
    spaces = [
        SkewedIntervalSpace(Fraction(1, 2), [Fraction(0), Fraction(1, 10), Fraction(1)]),
        random_table_space(5, seed),
        random_table_space(4, seed, symmetric=True),
    ]
    shifts = [Fraction(1, 4), Fraction(3)]
    for space in spaces:
        report = order_laws_report(space, dyadics(2), shifts)
        assert report.failures == _order_failures_by_pairs(space, dyadics(2), shifts)
    assert not order_laws_report(spaces[0], dyadics(2)).transitive_ok
