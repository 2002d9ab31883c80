"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every assertion is at tolerance zero.  Run with `pytest -s` to see the
per-criterion pass lines.
"""

import random
from fractions import Fraction

from qmet.balls import (
    UNKNOWN,
    GeometricBallFamily,
    _way_below_rule,
    ball,
    center_point_check,
    order_laws_report,
    prec,
    radius_law_report,
    standardness_probe,
    way_below,
)
from qmet.extreal import INF, ZERO, ext
from qmet.lipschitz import (
    LscFunction,
    OpenSet,
    dist_to_complement,
    envelope,
    envelope_closed_form,
    hat_membership,
    lipschitz_threshold,
)
from qmet.posets import (
    FinitePoset,
    ideal_completion,
    random_abstract_basis,
    random_poset,
    rounded_ideal_completion,
    verify_all_plays,
    alpha_reply,
    play,
)
from qmet.qideal import build_model, limit_layer, quasi_ideal_model_check
from qmet.spaces import (
    FiniteTableSpace,
    PosetSpace,
    RealGridSpace,
    SkewedIntervalSpace,
    SorgenfreyGridSpace,
    TailedSorgenfreySpace,
    check_axioms,
    parse_point_value,
)

from choquet_reference import legal_beta_moves
from subset_enumeration import rounded_ideal_completion_by_enumeration
from threshold_enumeration import scott_open_thresholds_bruteforce

ok = print


def dyadics(depth):
    return [Fraction(0)] + [Fraction(1, 2**k) for k in range(depth + 1)]


def real_grid(*texts):
    return RealGridSpace([parse_point_value(t) for t in texts])


def all_opens(space):
    from qmet.errors import QmetError

    pts = list(space.points)
    for mask in range(1 << len(pts)):
        members = [p for i, p in enumerate(pts) if mask & (1 << i)]
        try:
            yield OpenSet(space, members)
        except QmetError:
            continue


def test_criterion_1_axioms():
    gallery = [
        real_grid("0", "1/4", "1/2", "1", "3", "inf"),
        SorgenfreyGridSpace([0, Fraction(1, 2), 1, 2, 3]),
        PosetSpace(
            FinitePoset.from_relation(
                ["bot", "l", "r", "top"],
                [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
            )
        ),
        SkewedIntervalSpace(1, [0, Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), 1]),
        TailedSorgenfreySpace(
            1,
            1,
            1,
            [Fraction(1) - Fraction(1, 2 ** (n + 1)) for n in range(9)] + [Fraction(1)],
        ),
        FiniteTableSpace.metric_line(range(12)),
    ]
    for space in gallery:
        assert len(space) <= 12
        report = check_axioms(space)
        assert report.mode == "exhaustive"
        assert report.passed, (space.kind, report.violations)

    bad = SkewedIntervalSpace(Fraction(1, 2), [0, Fraction(1, 10), 1])
    report = check_axioms(bad)
    assert not report.passed
    first = report.violations[0]
    assert first.axiom == "triangle"
    assert first.witness == ("1/10", "0", "1")
    ok("PASS criterion 1: axioms hold on the gallery; skew 1/2 fails at (1/10, 0, 1)")


def test_criterion_2_order_laws():
    spaces = [
        FiniteTableSpace.metric_line(range(8)),
        real_grid("0", "1/4", "1/2", "1", "2", "inf"),
        SorgenfreyGridSpace([0, Fraction(1, 2), 1, 2]),
        PosetSpace(
            FinitePoset.from_relation(
                ["bot", "l", "r", "top"],
                [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
            )
        ),
        TailedSorgenfreySpace(1, 1, 1, [Fraction(1, 2), Fraction(3, 4), 1]),
    ]
    shifts = [Fraction(1, 4), Fraction(1), Fraction(3)]
    for space in spaces:
        assert len(space) <= 10
        report = order_laws_report(space, dyadics(5), shifts)
        assert report.passed, (space.kind, report.failures)
    ok("PASS criterion 2: ball order laws and shift invariance, radii depth 5, shifts 1/4, 1, 3")


def test_criterion_3_nonstandardness_witness():
    space = SkewedIntervalSpace(1, [0, Fraction(1, 3), 1])
    family = GeometricBallFamily(space, 0)
    verdict = standardness_probe(space, family, ball("0", 0), 1)
    assert verdict.is_refuted
    cand = verdict.witness.candidate
    assert cand == ball("1/3", Fraction(2, 3))
    assert space.value(cand.center) + cand.radius <= 1
    shifted_sup = ball("0", 1)
    from qmet.balls import leq_dplus

    assert not leq_dplus(space, shifted_sup, cand)
    ok("PASS criterion 3: shift probe refuted with escaping upper bound (1/3, 2/3)")


def test_criterion_4_gap_between_approximations():
    sg = SorgenfreyGridSpace([0, 1, 2, 3])
    assert prec(sg, ball("0", 3), ball("0", 1))
    v = way_below(sg, ball("0", 3), ball("0", 1))
    assert v.is_refuted and v.witness.replay(sg)

    with_inf = real_grid("0", "1/2", "1", "inf")
    radii = dyadics(3) + [Fraction(2), Fraction(3)]
    gap_centers = set()
    for x in with_inf.points:
        for y in with_inf.points:
            for r in radii:
                for s in radii:
                    b1, b2 = ball(x, r), ball(y, s)
                    verdict = way_below(with_inf, b1, b2, depth=4)
                    if prec(with_inf, b1, b2) and not verdict.is_holds:
                        assert verdict.is_refuted
                        gap_centers.add(x)
    assert gap_centers == {"inf"}

    for space in (real_grid("0", "1/2", "1", "2"), FiniteTableSpace.metric_line(range(5))):
        assert space.way_below_rule is not None
        for x in space.points:
            for y in space.points:
                for r in radii:
                    for s in radii:
                        b1, b2 = ball(x, r), ball(y, s)
                        assert _way_below_rule(space, b1, b2) == prec(space, b1, b2)
    ok("PASS criterion 4: approximation gaps exactly on the Sorgenfrey pairs and at inf")


def test_criterion_5_nonstandard_way_below():
    grid = [Fraction(1) - Fraction(1, 2 ** (n + 1)) for n in range(9)] + [Fraction(1)]
    space = TailedSorgenfreySpace(1, 1, 1, grid)  # b' = 2, so b' + a = 3

    refuted = way_below(space, ball("-2", 3), ball("-1", 1), depth=8)
    assert refuted.is_refuted
    expected_family = [
        (str(Fraction(1) - Fraction(1, 2 ** (n + 1))), Fraction(1, 2 ** (n + 1)))
        for n in range(9)
    ]
    assert refuted.witness.members == expected_family
    assert refuted.witness.sup == ("1", Fraction(0))
    assert refuted.witness.replay(space)

    undecided = way_below(space, ball("-2", 2), ball("-1", 0), depth=8)
    assert undecided.status == UNKNOWN
    ok("PASS criterion 5: (-2,3) below (-1,1) refuted by the geometric family; (-2,2) vs (-1,0) stays unknown")


def test_criterion_6_center_points():
    with_inf = real_grid("0", "1/2", "1", "inf")
    centers = [x for x in with_inf.points if center_point_check(with_inf, x)]
    assert centers == ["0", "1/2", "1"]

    sg = SorgenfreyGridSpace([0, 1, 2, 3])
    assert [x for x in sg.points if center_point_check(sg, x)] == []

    table = FiniteTableSpace.metric_line(range(6))
    assert all(center_point_check(table, x) for x in table.points)
    ok("PASS criterion 6: centers are all finite points, no Sorgenfrey point, every metric point")


def test_criterion_7_envelope():
    line = FiniteTableSpace.metric_line(range(8))
    u = OpenSet(line, ["0", "1"])
    f = LscFunction.scaled_indicator(line, u, 4)
    for alpha in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(10)):
        assert envelope(line, f, alpha) == envelope_closed_form(line, u, 4, alpha)

    rng = random.Random(20260809)
    alphas = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)]
    for _ in range(100):
        g = LscFunction(
            line, {p: Fraction(rng.randrange(0, 64), 8) for p in line.points}
        )
        envs = [envelope(line, g, a) for a in alphas]
        for lo, hi in zip(envs, envs[1:]):
            assert lo.leq(hi)
        star = lipschitz_threshold(line, g)
        assert envelope(line, g, star) == g
    ok("PASS criterion 7: closed form, chain property on 100 seeded functions, recovery at the threshold")


def test_criterion_8_distance_to_complement():
    spaces = [
        FiniteTableSpace.metric_line(range(8)),
        SorgenfreyGridSpace([0, 1, 2, 3]),
        real_grid("0", "1/2", "1", "inf"),
        PosetSpace(
            FinitePoset.from_relation(
                ["bot", "l", "r", "top"],
                [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
            )
        ),
    ]
    for space in spaces:
        assert len(space) <= 10
        for u in all_opens(space):
            for x in space.points:
                d = dist_to_complement(space, x, u)
                assert (d == ZERO) == (x not in u)
                comp = [space.dist(x, y) for y in u.complement()]
                assert d == (min(comp) if comp else INF)
                for y in space.points:
                    assert d <= space.dist(x, y) + dist_to_complement(space, y, u)

    small = [
        FiniteTableSpace.metric_line(range(4)),
        SorgenfreyGridSpace([0, 1, 2]),
        real_grid("0", "1", "inf"),
        PosetSpace(FinitePoset.chain(["a", "b", "c"])),
    ]
    for space in small:
        assert len(space) <= 4
        for u in all_opens(space):
            thresholds = scott_open_thresholds_bruteforce(space, u)
            for x in space.points:
                for r in dyadics(4):
                    assert hat_membership(space, ball(x, r), u) == (
                        ext(r) < thresholds[x]
                    )
    ok("PASS criterion 8: complement-distance laws exhaustive; hat matches the largest-open oracle")


def test_criterion_9_completions():
    for seed in range(20):
        basis = random_abstract_basis(6, seed)
        comp = rounded_ideal_completion(basis)
        assert comp.ideals == rounded_ideal_completion_by_enumeration(basis).ideals
        present = [e for e in basis.elements if comp.image[e] is not None]
        by_inclusion = {
            (comp.image[x], comp.image[y])
            for x in present
            for y in present
            if comp.below_map[x] <= comp.below_map[y]
        }
        by_prec = {
            (comp.image[x], comp.image[y])
            for x in present
            for y in present
            if basis.prec(x, y)
        }
        assert by_inclusion == by_prec

    chain = ideal_completion(FinitePoset.chain(["a", "b", "c"]))
    assert len(chain.poset) == 3
    names = [chain.embedding[e] for e in ("a", "b", "c")]
    for i in range(3):
        for j in range(3):
            assert chain.poset.leq(names[i], names[j]) == (i <= j)
    for n in range(1, 6):
        anti = ideal_completion(FinitePoset.from_relation([f"a{i}" for i in range(n)], []))
        assert len(anti.poset) == n
        assert all(
            anti.poset.leq(a, b) == (a == b)
            for a in anti.poset.elements
            for b in anti.poset.elements
        )
    ok("PASS criterion 9: rounded ideals by enumeration = by generators; image order = basis relation; chain and antichain completions")


def test_criterion_10_quasi_ideal_models():
    spaces = [PosetSpace(FinitePoset.chain(["bot", "top"]))]
    rng = random.Random(77)
    for seed in range(10):
        spaces.append(PosetSpace(random_poset(rng.randrange(1, 6), seed)))
    spaces.append(real_grid("0", "1", "2"))
    for space in spaces:
        model = build_model(space, depth=5)
        report = quasi_ideal_model_check(model)
        assert report.passed, (space.kind, report)
        assert report.longest_finite_chain <= 6
        layer = limit_layer(model)
        for x in space.points:
            for y in space.points:
                assert layer.leq(x, y) == space.specialization_leq(x, y)
    ok("PASS criterion 10: all model clauses pass at depth 5; chains within 6; limit layer matches specialization")


def test_criterion_11_choquet():
    rng = random.Random(4242)
    posets = [random_poset(rng.randrange(1, 6), seed) for seed in range(10)]
    for p in posets:
        sweep = verify_all_plays(p, depth=4)
        assert sweep.all_won and sweep.invariants_ok, p
        # literal transcripts on top of the shared-state sweep
        explored = 0
        stack = [(frozenset(p.elements), [])]
        while stack and explored < 3000:
            inside, moves = stack.pop()
            if len(moves) == 4:
                t = play(p, moves)
                assert t.alpha_won()
                assert t.intersections_equal()
                explored += 1
                continue
            for x, v in reversed(legal_beta_moves(p, inside)):
                y = alpha_reply(p, x, v)
                stack.append((p.up_set(y), moves + [(x, v)]))
    ok("PASS criterion 11: the approximation strategy wins every play to depth 4 with matching intersections")


def test_criterion_12_radius_law():
    spaces = [
        FiniteTableSpace.metric_line(range(8)),
        SorgenfreyGridSpace([0, Fraction(1, 2), 1, 2]),
        real_grid("0", "1/2", "1", "inf"),
        PosetSpace(FinitePoset.chain(["a", "b", "c"])),
    ]
    total = 0
    for space in spaces:
        report = radius_law_report(space, dyadics(5), sample_budget=5000, seed=1)
        assert report.families_checked > 0
        assert report.passed, report.failures
        total += report.families_checked
    assert total >= 5000
    ok("PASS criterion 12: least-upper-bound radii equal the minimum member radius on all sampled families")
