"""Each way-below witness family has one definition (``start``, ``escapes``,
``member`` in ``qmet.balls``) that the refuter and ``WayBelowWitness.replay``
share.  These tests compare that route with the reference route of
``tests/witness_reference.py``, one builder and one validator per family:
verdicts and witness JSON must agree everywhere, and replay everywhere
except on two classes of witness that the reference accepted and the shared
definition rejects, a family that cannot reach its supremum's center and a
recorded n0 that is not the family's start."""

import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from conftest import random_table_space
from witness_reference import _witness_valid, way_below_reference

from qmet.balls import _FAMILIES, WayBelowWitness, ball, parse_ball, way_below
from qmet.cli import main
from qmet.errors import QmetError
from qmet.posets import FinitePoset
from qmet.spaces import (
    FiniteTableSpace,
    PosetSpace,
    RealGridSpace,
    SkewedIntervalSpace,
    SorgenfreyGridSpace,
    TailedSorgenfreySpace,
    parse_point_value,
    point_label,
    space_from_json,
)

KINDS = ("radius_shrink", "left_approach", "divergent")
RADII = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)]
DEPTHS = (0, 1, 3, 8)
FRACTIONS = [Fraction(k, 8) for k in range(1, 8)] + [Fraction(1, 3), Fraction(1, 1024)]


def _seeded_tailed(seed):
    rng = random.Random(seed)
    a = rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)])
    b = rng.choice([Fraction(1), Fraction(3)])
    c = rng.choice([Fraction(0), a, a + b])
    return TailedSorgenfreySpace(a, b, c, rng.sample(FRACTIONS, 3) + [Fraction(1)])


def _seeded_values(seed, low, high, inf=False):
    rng = random.Random(seed)
    values = sorted({Fraction(rng.randrange(low, high), rng.choice([1, 2, 4])) for _ in range(4)})
    return values + ([parse_point_value("inf")] if inf else [])


def _corpus():
    line = [Fraction(k) for k in range(4)]
    spaces = {
        "metric_line4": FiniteTableSpace.metric_line(range(4)),
        "real_grid_inf": RealGridSpace([parse_point_value(s) for s in ["0", "1/2", "1", "inf"]]),
        "real_grid_finite": RealGridSpace([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]),
        "sorgenfrey4": SorgenfreyGridSpace(line),
        "diamond": PosetSpace(
            FinitePoset.from_relation(
                ["bot", "l", "r", "top"],
                [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
            )
        ),
        "skewed_unit": SkewedIntervalSpace(1, [Fraction(0), Fraction(1, 3), Fraction(1)]),
        "tailed_standard": TailedSorgenfreySpace(
            1, 1, 1, [Fraction(1) - Fraction(1, 2 ** (n + 1)) for n in range(9)] + [Fraction(1)]
        ),
        # the triangle inequality broken, and a point at positive distance from itself
        "broken_triangle": FiniteTableSpace(["a", "b", "c"], [[0, 1, 5], [1, 0, 1], [5, 1, 0]]),
        "broken_diagonal": FiniteTableSpace(["a", "b", "c"], [[1, 1, 2], [1, 0, 1], [2, 1, 0]]),
    }
    for seed in range(3):
        spaces[f"tailed_{seed}"] = _seeded_tailed(seed)
        spaces[f"sorgenfrey_{seed}"] = SorgenfreyGridSpace(_seeded_values(seed, -4, 4))
        spaces[f"real_grid_{seed}"] = RealGridSpace(_seeded_values(seed, 0, 6))
        spaces[f"real_grid_inf_{seed}"] = RealGridSpace(_seeded_values(seed, 0, 6, inf=True))
        spaces[f"table_{seed}"] = random_table_space(4, seed)
        spaces[f"metric_table_{seed}"] = random_table_space(4, seed, symmetric=True)
    return spaces


CORPUS = _corpus()


def _claims(space):
    balls = [ball(p, r) for p in space.points for r in RADII]
    return [(b1, b2) for b1 in balls for b2 in balls]


def _outcome(replay):
    try:
        return replay()
    except QmetError as e:
        return (type(e).__name__, str(e))


def _tampered(space, w):
    """Copies of w with one field changed."""
    for kind in KINDS + ("bogus",):
        if kind != w.kind:
            yield replace(w, kind=kind)
    for z in space.points + ("zz",):
        if z != w.limit_center:
            yield replace(w, limit_center=z)
    for t in (w.t + Fraction(1, 2), w.t - Fraction(1, 2), w.t + Fraction(1, 1024)):
        yield replace(w, t=t)
    for n0 in {w.n0 + 1, max(w.n0 - 1, 0)} - {w.n0}:
        yield replace(w, n0=n0)
    for i, (c, r) in enumerate(w.members):
        for changed in ((w.limit_center, r), (c, r + Fraction(1, 8))):
            if changed != (c, r):
                yield replace(w, members=w.members[:i] + [changed] + w.members[i + 1:])
    for k in range(len(w.members)):
        yield replace(w, members=w.members[:k])


def _documented_difference(space, w) -> str:
    """Which of the two replay contract changes w falls under, or ''."""
    if w.kind not in space.witness_families:
        return ""
    start = _FAMILIES[w.kind].start(space, w.limit_center)
    if start is None:
        return "no start at z"
    return "n0 is not the start" if start != w.n0 else ""


def _compare_replay(space, w, differences):
    new, old = _outcome(lambda: w.replay(space)), _outcome(lambda: _witness_valid(space, w))
    if new != old:
        why = _documented_difference(space, w)
        assert why and new is False and old is True, (space, w, new, old)
        differences[why] += 1


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_verdicts_and_witnesses_match_the_reference(name):
    space = CORPUS[name]
    refuted = 0
    for b1, b2 in _claims(space):
        for depth in DEPTHS:
            v = way_below(space, b1, b2, depth)
            assert v.to_json() == way_below_reference(space, b1, b2, depth).to_json()
            if v.witness is not None:
                refuted += 1
                assert v.witness.replay(space) and _witness_valid(space, v.witness)
    assert refuted or name == "diamond"


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_replay_matches_the_reference_on_produced_and_tampered_witnesses(name):
    space = CORPUS[name]
    claims = _claims(space)
    random.Random(name).shuffle(claims)
    witnesses = {}
    for b1, b2 in claims:
        w = way_below(space, b1, b2, depth=3).witness
        if w is not None and len(witnesses) < 25:
            witnesses[json.dumps(w.to_json())] = w
    differences = {"no start at z": 0, "n0 is not the start": 0}
    for w in witnesses.values():
        for bad in _tampered(space, w):
            _compare_replay(space, bad, differences)
    if any(w.kind != "left_approach" for w in witnesses.values()):
        # the reference ignored n0 on shrinking and divergent families
        assert differences["n0 is not the start"]


@pytest.mark.parametrize("name", sorted(n for n in CORPUS if n.startswith("tailed")))
def test_tail_approaches_are_the_only_unreachable_class(name):
    """Left approaches to a tail point, which the refuter never builds; the
    reference replay accepted them at any n0 while they listed at most one
    member, because two tail members are no chain."""
    space = CORPUS[name]
    differences = {"no start at z": 0, "n0 is not the start": 0}
    fam = _FAMILIES["left_approach"]
    for b1, b2 in _claims(space):
        for z in ("-2", "-1"):
            d2 = space.dist(b2.center, z)
            if d2.is_infinite or d2.as_fraction() > b2.radius:
                continue
            t = b2.radius - d2.as_fraction()
            for n0, count in ((0, 1), (1, 1), (1, 0), (0, 3)):
                members = [
                    (point_label(space.value(z) - Fraction(1, 2**k)), t + Fraction(1, 2**k))
                    for k in range(n0, n0 + count)
                ]
                w = WayBelowWitness("left_approach", z, t, n0, members, b1, b2)
                assert fam.start(space, z) is None
                _compare_replay(space, w, differences)
    assert differences["no start at z"]


BUG_SPACE = {"kind": "tailed_sorgenfrey", "a": "1", "b": "1", "c": "1", "values": ["1/2", "1"]}
BUG_WITNESS = {
    "witness": "way_below",
    "family": {
        "kind": "left_approach",
        "limit_center": "-1",
        "t": "0",
        "n0": 1,
        "members": [["-3/2", "1/2"]],
    },
    "claim": ["(-2, 5)", "(-1, 0)"],
}


def test_replay_rejects_an_approach_through_points_off_the_space(capsys, tmp_path):
    """-3/2 is no point of a tailed segment, and the claim holds: a directed
    family whose supremum dominates (-1, 0) ends in balls (-1, r), r -> 0,
    and each of those dominates (-2, 5)."""
    space = space_from_json(BUG_SPACE)
    w = WayBelowWitness.from_json(BUG_WITNESS)
    assert _witness_valid(space, w)  # the reference confirmed the refutation
    assert not w.replay(space)
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(dict(BUG_WITNESS, space=BUG_SPACE)))
    assert main(["replay", str(path)]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["verdict"] == "not_refuted"
    claim = [parse_ball(b) for b in BUG_WITNESS["claim"]]
    assert way_below(space, *claim).is_unknown


def test_radius_shrink_needs_a_center_at_distance_zero_from_itself(capsys, tmp_path):
    """d(a, a) = 1, so (a, 1), (a, 1/2), (a, 1/4) is no chain: (a, 1) <=+
    (a, 1/2) needs d(a, a) <= 1/2.  The table breaks the axioms, and the
    symmetric-table rule does not fire because prec fails, so the claim
    stays unknown."""
    space = FiniteTableSpace(["a", "b"], [[1, 5], [5, 0]])
    b1, b2 = ball("b", 0), ball("a", 1)
    assert _FAMILIES["radius_shrink"].start(space, "a") is None
    assert way_below(space, b1, b2, depth=2).is_unknown
    members = [("a", Fraction(1)), ("a", Fraction(1, 2)), ("a", Fraction(1, 4))]
    w = WayBelowWitness("radius_shrink", "a", Fraction(0), 0, members, b1, b2)
    assert not w.replay(space)
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(dict(w.to_json(), space=space.to_json())))
    assert main(["replay", str(path)]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["verdict"] == "not_refuted"


def test_depth_bounds_the_listed_prefix_not_where_an_approach_starts():
    """On the tailed segment with grid 1/1024, 1, a left approach to 1/1024
    must stay inside (0, 1], so it starts at n0 = 11: 2^-11 < 1/1024.  Depth
    0 still lists one member, and the refutation replays."""
    space = TailedSorgenfreySpace(1, 1, 1, [Fraction(1, 1024), Fraction(1)])
    b1, b2 = ball("1/1024", 1), ball("1/1024", 0)
    v = way_below(space, b1, b2, depth=0)
    assert v.is_refuted and v.witness.kind == "left_approach"
    assert v.witness.n0 == 11
    # the member (1/1024 - 2^-11, 0 + 2^-11)
    assert v.witness.members == [("1/2048", Fraction(1, 2048))]
    assert v.witness.replay(space)
    assert WayBelowWitness.from_json(json.loads(json.dumps(v.witness.to_json()))).replay(space)
