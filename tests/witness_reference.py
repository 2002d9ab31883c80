"""The reference route for way-below witnesses: one builder and one replay
validator per family, each writing the family's closed form on its own, as
the library computed them before each family got one definition that the
refuter and ``WayBelowWitness.replay`` share.  ``tests/test_witness_families.py``
compares the two routes verdict by verdict and replay by replay."""

from fractions import Fraction
from typing import Optional

from qmet.balls import (
    HOLDS,
    REFUTED,
    UNKNOWN,
    Verdict,
    WayBelowWitness,
    _dyadic,
    _way_below_rule,
)
from qmet.spaces import INF_POINT, Space, TailedSorgenfreySpace, point_label


def _members_follow_schema(space: Space, w: WayBelowWitness) -> bool:
    """The materialized prefix must match the family's closed form, form a
    chain below the declared supremum, and dominate nothing below the claim's
    left ball."""
    for m, (label, radius) in enumerate(w.members):
        if w.kind == "radius_shrink":
            want = (w.limit_center, w.t + _dyadic(m))
        elif w.kind == "left_approach":
            step = _dyadic(m + w.n0)
            want = (point_label(space.value(w.limit_center) - step), w.t + step)
        elif w.kind == "divergent":
            want = (str(m), w.t + _dyadic(m))
        else:
            return False
        if (label, radius) != want:
            return False
    if w.kind == "radius_shrink":
        # constant center, strictly shrinking radii: chain and bounds are immediate
        lower_d = space.dist(w.lower.center, w.limit_center)
        for _, radius in w.members:
            if lower_d.is_finite and lower_d.as_fraction() <= w.lower.radius - radius:
                return False
        return True
    values = []
    for label, radius in w.members:
        values.append((Fraction(label), radius))
    x1 = space.value(w.lower.center)
    for (va, ra), (vb, rb) in zip(values, values[1:]):
        gap = space.ambient_dist(va, vb)
        if gap.is_infinite or gap.as_fraction() > ra - rb:
            return False  # not a chain
    for v, r in values:
        d1 = space.ambient_dist(x1, v)
        if d1.is_finite and d1.as_fraction() <= w.lower.radius - r:
            return False  # a member dominates the left ball after all
    return True


def _witness_valid(space: Space, w: WayBelowWitness) -> bool:
    b1, b2 = w.lower, w.upper
    t = w.t
    if t < 0 or w.kind not in space.witness_families:
        return False
    if w.kind == "radius_shrink":
        d2 = space.dist(b2.center, w.limit_center)
        if d2.is_infinite or d2.as_fraction() > b2.radius - t:
            return False
        d1 = space.dist(b1.center, w.limit_center)
        no_member = d1.is_infinite or d1.as_fraction() >= b1.radius - t
        return no_member and _members_follow_schema(space, w)
    if w.kind == "left_approach":
        star = space.value(w.limit_center)
        d2 = space.dist(b2.center, w.limit_center)
        if d2.is_infinite or d2.as_fraction() > b2.radius - t:
            return False
        x1 = space.value(b1.center)
        if isinstance(space, TailedSorgenfreySpace) and x1 <= 0:
            return _members_follow_schema(space, w)
        no_tail_member = not (x1 < star and star - x1 <= b1.radius - t)
        return no_tail_member and _members_follow_schema(space, w)
    # divergent
    if w.limit_center != "inf":
        return False
    d2 = space.dist(b2.center, "inf")
    if d2.is_infinite or d2.as_fraction() > b2.radius - t:
        return False
    x1 = space.value(b1.center)
    no_tail_member = x1 is INF_POINT or b1.radius <= t
    return no_tail_member and _members_follow_schema(space, w)


def _shrink_witness(space, b1, b2, z: str, depth: int) -> Optional[WayBelowWitness]:
    if space.dist(z, z) != 0:
        return None  # (z, r) <=+ (z, r') needs d(z, z) <= r - r': no chain
    d2 = space.dist(b2.center, z)
    if d2.is_infinite or d2.as_fraction() > b2.radius:
        return None
    t = b2.radius - d2.as_fraction()
    d1 = space.dist(b1.center, z)
    if d1.is_finite and d1.as_fraction() < b1.radius - t:
        return None  # every tail member eventually dominates b1
    members = [(z, t + _dyadic(m)) for m in range(depth + 1)]
    return WayBelowWitness("radius_shrink", z, t, 0, members, b1, b2)


def _approach_witness(space, b1, b2, star_name: str, depth: int) -> Optional[WayBelowWitness]:
    star = space.value(star_name)
    d2 = space.dist(b2.center, star_name)
    if d2.is_infinite or d2.as_fraction() > b2.radius:
        return None
    t = b2.radius - d2.as_fraction()
    x1 = space.value(b1.center)
    if isinstance(space, TailedSorgenfreySpace):
        if star <= 0:
            return None
        member_ok = x1 > 0 and x1 < star and star - x1 <= b1.radius - t
        n0 = 0
        while star - _dyadic(n0) <= 0:
            n0 += 1
    else:
        member_ok = x1 < star and star - x1 <= b1.radius - t
        n0 = 0
    if member_ok:
        return None
    members = [
        (point_label(star - _dyadic(m + n0)), t + _dyadic(m + n0))
        for m in range(depth + 1)
    ]
    return WayBelowWitness("left_approach", star_name, t, n0, members, b1, b2)


def _divergent_witness(space, b1, b2, z: str, depth: int) -> Optional[WayBelowWitness]:
    if z != "inf":
        return None
    t = b2.radius  # d(y, inf) = 0, so this is the largest admissible limit radius
    x1 = space.value(b1.center)
    if not (x1 is INF_POINT or b1.radius <= t):
        return None
    members = [(str(m), t + _dyadic(m)) for m in range(depth + 1)]
    return WayBelowWitness("divergent", "inf", t, 0, members, b1, b2)


_WITNESS_BUILDERS = {
    "radius_shrink": _shrink_witness,
    "left_approach": _approach_witness,
    "divergent": _divergent_witness,
}


def _refute_way_below(space, b1, b2, depth: int) -> Optional[WayBelowWitness]:
    """The first witness over the space's families, in order, and over the
    carrier points as the supremum's center."""
    for family in space.witness_families:
        build = _WITNESS_BUILDERS[family]
        for z in space.points:
            w = build(space, b1, b2, z, depth)
            if w:
                return w
    return None


def way_below_reference(space: Space, b1, b2, depth: int = 8) -> Verdict:
    """``qmet.balls.way_below`` over the builders above."""
    space.index(b1.center)
    space.index(b2.center)
    witness = _refute_way_below(space, b1, b2, depth)
    if witness is not None:
        return Verdict(REFUTED, justification=witness.kind, witness=witness, depth=depth)
    rule = space.way_below_rule
    if rule is not None and _way_below_rule(space, b1, b2):
        return Verdict(HOLDS, justification=rule)
    return Verdict(
        UNKNOWN, justification=space.rule_gap or "bounded search exhausted", depth=depth
    )
