"""Formal balls over a quasi-metric space.

A formal ball pairs a carrier point with a finite non-negative rational
radius.  Balls are ordered by (x, r) <= (y, s) iff d(x, y) <= r - s; the
strict variant requires d(x, y) < r - s.  Way-below on the ball poset is only
semi-decidable in general, so the checker is three-valued: a closed-form rule
decides where the space names one, a bounded refuter builds the replayable
counterexample family for each "no", and everything else is unknown.

The rule: (x, r) is way below (y, s) iff (x, r) strictly approximates (y, s),
except when x = y is a non-center point.  Hence v(x, y) = d(x, y), except
v(x, x) = inf at a non-center point.  This module tests no space kind for
these facts; each ``Space`` subclass states them once: ``way_below_rule``
(the rule's name, None where its kind has no closed form or a table breaks
the axioms, ``rule_gap`` then saying why), ``non_center_points``,
``witness_families`` and ``approach_floor``.  Checks that need the rule
raise ``NoOracle`` without it.

The refuter's witness families come in three shapes, each with an exactly
computable supremum (z, t) at a carrier point z:

* radius shrink: (z, t + 2^-k), supremum (z, t) in any space;
* left approach: (z - 2^-k, t + 2^-k) climbing to z from the left,
  supremum (z, t) on Sorgenfrey-like lines, with centers kept above the
  space's ``approach_floor``;
* divergent climb: (k, t + 2^-k) with unbounded centers, supremum (inf, t)
  on the extended real line.

Each family is written once, in three closed-form parts that the refuter
and ``WayBelowWitness.replay`` both read: ``start`` (the first index n0 at
z, None where the family cannot reach z), ``escapes`` (no tail member
dominates the left ball) and ``member`` (the k-th member).  Members may be
ambient points outside the finite carrier; the family, its supremum and
the prefix k = n0, ..., n0 + depth are what gets serialized and replayed.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Optional, Sequence, Union

from .errors import BadInput, InvalidSup, NoOracle, QmetError, expect_list, expect_object
from .extreal import INF, ExtReal, as_fraction, monus
from .posets import _bits, _mask_of
from .spaces import INF_POINT, SkewedIntervalSpace, Space, point_label

HOLDS = "holds"
REFUTED = "refuted"
UNKNOWN = "unknown"


def _nonnegative(radius: Fraction) -> None:
    if radius < 0:
        raise QmetError(f"ball radius must be non-negative, got {radius}")


@dataclass(frozen=True)
class FormalBall:
    center: str
    radius: Fraction

    def __post_init__(self):
        if isinstance(self.radius, float):
            raise QmetError("ball radii are exact rationals, not floats")
        _nonnegative(self.radius)

    def __str__(self):
        return f"({self.center}, {self.radius})"


def ball(center: str, radius) -> FormalBall:
    return FormalBall(center, as_fraction(radius))


def _members_from_json(members) -> list:
    """A witness's materialized family: (center, radius) pairs."""
    pairs = [expect_list(m, "a family member", 2) for m in expect_list(members, "members")]
    return [(c, as_fraction(r)) for c, r in pairs]


def parse_ball(text: str) -> FormalBall:
    """Parse the literal form "(point, p/q)"."""
    if not isinstance(text, str):
        raise BadInput(f"a ball literal must be a string, got {type(text).__name__}")
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    try:
        center, radius = body.rsplit(",", 1)
    except ValueError:
        raise QmetError(f"malformed ball literal {text!r}") from None
    return ball(center.strip(), radius.strip())


def leq_dplus(space: Space, b1: FormalBall, b2: FormalBall) -> bool:
    """(x, r) <= (y, s) iff d(x, y) <= r - s; impossible when r < s."""
    if b1.radius < b2.radius:
        return False
    d = space.dist(b1.center, b2.center)
    return d.is_finite and d.as_fraction() <= b1.radius - b2.radius


def dplus(space: Space, b1: FormalBall, b2: FormalBall) -> ExtReal:
    """The lifted quasi-metric on balls: max(d(x, y) - r + s, 0)."""
    d = space.dist(b1.center, b2.center)
    return monus(d + b2.radius, b1.radius)


def prec(space: Space, b1: FormalBall, b2: FormalBall) -> bool:
    """Strict approximation: d(x, y) < r - s."""
    if b1.radius <= b2.radius:
        return False
    d = space.dist(b1.center, b2.center)
    return d.is_finite and d.as_fraction() < b1.radius - b2.radius


# ---------------------------------------------------------------------------
# Verdicts and witnesses


@dataclass
class Verdict:
    status: str
    justification: str = ""
    witness: "Union[WayBelowWitness, StandardnessWitness, None]" = None
    depth: Optional[int] = None

    @property
    def is_holds(self):
        return self.status == HOLDS

    @property
    def is_refuted(self):
        return self.status == REFUTED

    def to_json(self) -> dict:
        out = {"status": self.status, "justification": self.justification}
        if self.depth is not None:
            out["depth"] = self.depth
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


def _dyadic(k: int) -> Fraction:
    return Fraction(1, 2**k)


@dataclass
class WayBelowWitness:
    """A directed family refuting a way-below claim.

    The family's supremum dominates the right ball while no member dominates
    the left one; members beyond the materialized prefix follow the closed
    form recorded in ``kind``.
    """

    kind: str  # radius_shrink | left_approach | divergent
    limit_center: str
    t: Fraction
    n0: int
    members: list  # [(center label, radius Fraction)]
    lower: FormalBall
    upper: FormalBall

    @property
    def sup(self) -> tuple:
        return (self.limit_center, self.t)

    def to_json(self) -> dict:
        return {
            "witness": "way_below",
            "family": {
                "kind": self.kind,
                "limit_center": self.limit_center,
                "t": str(self.t),
                "n0": self.n0,
                "members": [[c, str(r)] for c, r in self.members],
                "sup": [self.limit_center, str(self.t)],
            },
            "claim": [str(self.lower), str(self.upper)],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "WayBelowWitness":
        fam = expect_object(expect_object(obj, "a witness")["family"], "a family")
        lower, upper = (parse_ball(b) for b in expect_list(obj["claim"], "a claim", 2))
        if not isinstance(fam["limit_center"], str):
            raise BadInput(f"limit_center must be a point name, got {fam['limit_center']!r}")
        n0 = fam["n0"]
        if type(n0) is not int or n0 < 0:
            raise BadInput(f"n0 must be a non-negative integer, got {n0!r}")
        return cls(
            fam["kind"],
            fam["limit_center"],
            as_fraction(fam["t"]),
            n0,
            _members_from_json(fam["members"]),
            lower,
            upper,
        )

    def replay(self, space: Space) -> bool:
        """Re-verify the refutation from the serialized family, through the
        same family definition as the refuter's."""
        b1, b2, z, t = self.lower, self.upper, self.limit_center, self.t
        if t < 0 or self.kind not in space.witness_families:
            return False
        family = _FAMILIES[self.kind]
        if family.start(space, z) != self.n0:
            return False
        d2 = space.dist(b2.center, z)
        if d2.is_infinite or d2.as_fraction() > b2.radius - t:
            return False  # (z, t) does not dominate the right ball
        if not family.escapes(space, b1, z, t):
            return False
        ks = range(self.n0, self.n0 + len(self.members))
        if self.members != [family.member(space, z, t, k) for k in ks]:
            return False
        # the prefix is a chain and no member dominates the left ball after all
        pairs = zip(self.members, self.members[1:])
        if any(not _center_leq(space, a, ra, b, rb) for (a, ra), (b, rb) in pairs):
            return False
        return not any(_center_leq(space, b1.center, b1.radius, c, r) for c, r in self.members)


def _center_leq(space: Space, a: str, ra: Fraction, b: str, rb: Fraction) -> bool:
    """(a, ra) <=+ (b, rb) for witness centers: on the table between carrier
    points, on the ambient formula once one of them lies off the carrier."""
    pts = space.points
    if a in pts and b in pts:
        d = space.dist(a, b)
    else:
        d = space.ambient_dist(*(space.value(c) if c in pts else Fraction(c) for c in (a, b)))
    return d.is_finite and d.as_fraction() <= ra - rb


# ---------------------------------------------------------------------------
# Witness families


class _Family:
    """A way-below witness family: members k = n0, n0 + 1, ... form a chain
    with supremum (z, t) at a carrier point z.  Three closed-form parts:
    ``start(space, z)`` is n0, None where the family cannot reach z;
    ``escapes(space, b1, z, t)`` holds when no tail member dominates b1;
    ``member(space, z, t, k)`` is the k-th member, (center label, radius)."""

    def start(self, space: Space, z: str) -> Optional[int]:
        return 0


class _RadiusShrink(_Family):
    """(z, t + 2^-k): supremum (z, t) in any space, at a z with d(z, z) = 0
    (elsewhere (z, r) <=+ (z, r') fails for r - r' < d(z, z): no chain)."""

    def start(self, space, z):
        return 0 if space.dist(z, z) == 0 else None

    def escapes(self, space, b1, z, t):
        d1 = space.dist(b1.center, z)
        return d1.is_infinite or d1.as_fraction() >= b1.radius - t

    def member(self, space, z, t, k):
        return (z, t + _dyadic(k))


class _LeftApproach(_Family):
    """(z - 2^-k, t + 2^-k), climbing to z from the left with centers above
    the space's ``approach_floor``."""

    def start(self, space, z):
        floor = space.approach_floor
        if floor is None:
            return 0
        gap = space.value(z) - floor
        # the least k with 2^-k < gap
        return None if gap <= 0 else (gap.denominator // gap.numerator).bit_length()

    def escapes(self, space, b1, z, t):
        x1, star, floor = space.value(b1.center), space.value(z), space.approach_floor
        below = x1 < star and (floor is None or x1 > floor)
        return not (below and star - x1 <= b1.radius - t)

    def member(self, space, z, t, k):
        return (point_label(space.value(z) - _dyadic(k)), t + _dyadic(k))


class _Divergent(_Family):
    """(k, t + 2^-k): unbounded centers, supremum (inf, t) on the extended
    real line."""

    def start(self, space, z):
        return 0 if z == "inf" else None

    def escapes(self, space, b1, z, t):
        return space.value(b1.center) is INF_POINT or b1.radius <= t

    def member(self, space, z, t, k):
        return (str(k), t + _dyadic(k))


_FAMILIES = {
    "radius_shrink": _RadiusShrink(),
    "left_approach": _LeftApproach(),
    "divergent": _Divergent(),
}


# ---------------------------------------------------------------------------
# The closed-form way-below rule


def _way_below_rule(space: Space, b1: FormalBall, b2: FormalBall) -> bool:
    """Strict approximation, except that a ball at a non-center point is
    way below no ball at the same point."""
    if b1.center == b2.center and b1.center in space.non_center_points:
        return False
    return prec(space, b1, b2)


def _require_rule(space: Space) -> None:
    if space.way_below_rule is None:
        raise NoOracle(space.rule_gap or f"no way-below closed form for kind {space.kind!r}")


def _way_below_rows(space: Space, radii: Sequence[Fraction]) -> tuple[list, list]:
    """The rule's rows (the strict rows of ``_ball_rows``, less a non-center
    point's own block) and the scaled radii."""
    _require_rule(space)
    strict, scaled = _ball_rows(space, radii, strict=True)
    m = len(radii)
    own = [((1 << m) - 1) << (x * m) if p in space.non_center_points else 0
           for x, p in enumerate(space.points)]
    return [row & ~own[i // m] for i, row in enumerate(strict)], scaled


# ---------------------------------------------------------------------------
# The bounded refuter


def _refute_way_below(space, b1, b2, depth: int) -> Optional[WayBelowWitness]:
    """The first witness over the space's families, in order, and over the
    carrier points z as the supremum's center, at the largest limit radius
    t = s - d(y, z) that the right ball allows."""
    for kind in space.witness_families:
        family = _FAMILIES[kind]
        for z in space.points:
            n0 = family.start(space, z)
            if n0 is None:
                continue
            d2 = space.dist(b2.center, z)
            if d2.is_infinite or d2.as_fraction() > b2.radius:
                continue
            t = b2.radius - d2.as_fraction()
            if family.escapes(space, b1, z, t):
                members = [family.member(space, z, t, k) for k in range(n0, n0 + depth + 1)]
                return WayBelowWitness(kind, z, t, n0, members, b1, b2)
    return None


def way_below(space: Space, b1: FormalBall, b2: FormalBall, depth: int = 8) -> Verdict:
    """Three-valued way-below on formal balls.

    Where the space names a closed-form rule, the claim holds exactly when
    the rule does.  The refuter builds the replayable directed family for a
    "no"; without a rule, what it cannot refute is unknown (``rule_gap``).
    """
    space.index(b1.center)
    space.index(b2.center)
    rule = space.way_below_rule
    if rule is not None and _way_below_rule(space, b1, b2):
        return Verdict(HOLDS, justification=rule)
    witness = _refute_way_below(space, b1, b2, depth)
    if witness is not None:
        return Verdict(REFUTED, justification=witness.kind, witness=witness, depth=depth)
    return Verdict(UNKNOWN, justification=space.rule_gap or "bounded search exhausted", depth=depth)


# ---------------------------------------------------------------------------
# The v map, center points, Smyth probe


def v_relation(space: Space, x: str, y: str) -> ExtReal:
    """Infimum of r - s over (x, r) way below (y, s).

    Under the space's closed-form rule this is d(x, y), except that v(x, x)
    is infinite at a non-center point, where the set is empty.
    """
    space.index(x)
    space.index(y)
    _require_rule(space)
    if x == y and x in space.non_center_points:
        return INF
    return space.dist(x, y)


def center_point_check(space: Space, x: str) -> bool:
    """x is a center point exactly when v(x, .) agrees with d(x, .).  They
    differ only at v(x, x) = inf for x in non_center_points, where d(x, x)
    is 0, as a rule is named only where the axioms hold."""
    space.index(x)
    _require_rule(space)
    return x not in space.non_center_points


@dataclass
class SmythReport:
    non_center_points: list
    gap_pairs: list  # (b1, b2) with strict approximation but no way-below
    mode: str
    seed: Optional[int]
    depth: int

    @property
    def consistent(self) -> bool:
        return not self.non_center_points and not self.gap_pairs


def smyth_probe(
    space: Space, depth: int = 3, sample_budget: int = 40_000, seed: int = 0
) -> SmythReport:
    """Probe both halves of the Smyth-completeness criterion: every point a
    center point, and no gap between strict approximation and way-below.
    A rule is named only where the axioms hold, so d(x, x) = 0 there, and the
    gaps are exactly the pairs ((x, r), (x, s)) with x a non-center point
    and r > s.  Past the budget, pairs are drawn with replacement and each
    gap hit is listed once, in the order first drawn."""
    _require_rule(space)
    radii = [Fraction(j) for j in range(4)] + [_dyadic(k) for k in range(1, depth + 1)]
    non_centers = [x for x in space.points if x in space.non_center_points]
    m = len(radii)
    below = [_mask_of(b for b, s in enumerate(radii) if s < r) for r in radii]
    gap_rows = [below[a] << (x * m) if p in space.non_center_points else 0
                for x, p in enumerate(space.points) for a in range(m)]
    nb, ball_at = len(gap_rows), _ball_at(space, radii)
    if nb * nb <= sample_budget:
        mode, used_seed = "exhaustive", None
        gaps = [(ball_at(i), ball_at(j)) for i, row in enumerate(gap_rows) for j in _bits(row)]
    else:
        mode, used_seed = "sampled", seed
        gaps = []
        if any(gap_rows):  # otherwise no draw can find a gap
            rng = random.Random(seed)
            draws = (divmod(rng.randrange(nb * nb), nb) for _ in range(sample_budget))
            hits = dict.fromkeys((i, j) for i, j in draws if gap_rows[i] >> j & 1)
            gaps = [(ball_at(i), ball_at(j)) for i, j in hits]
    return SmythReport(non_centers, gaps, mode, used_seed, depth)


# ---------------------------------------------------------------------------
# Scripted families and the standardness probe


class _BallFamily:
    """A directed ball family, asked one question: ``max_upper_radius(w,
    shift)``, the largest u such that (w, u) bounds every member once every
    member's radius is raised by shift, None where there is none."""

    def is_upper_bound(self, b: FormalBall, shift=0) -> bool:
        cap = self.max_upper_radius(b.center, shift)
        return cap is not None and b.radius <= cap


class GeometricBallFamily(_BallFamily):
    """The scripted directed family (2^-m, 2^-m + s), m in N, over a skewed
    interval space, together with its exact upper-bound rule.

    A ball (x, r) dominates every member of the family precisely when
    x + r <= s; in particular for s = 0 the sole upper bound is (0, 0).  A
    shift of every radius shifts s.  The rule never mentions the skew
    constant because no member is centered at the origin.  It is exact;
    ``validate_against_truncation`` is the tests' brute-force reference for
    it.
    """

    no_escape = (UNKNOWN, "no escaping upper bound on the carrier grid")

    def __init__(self, space: SkewedIntervalSpace, s=0):
        if not isinstance(space, SkewedIntervalSpace):
            raise QmetError("scripted geometric families live over skewed intervals")
        self.space = space
        self.s = as_fraction(s)
        if self.s < 0:
            raise QmetError("offset s must be non-negative")

    def member(self, m: int) -> tuple:
        return (_dyadic(m), _dyadic(m) + self.s)

    def truncation(self, depth: int) -> list:
        return [self.member(m) for m in range(depth + 1)]

    def witness_members(self) -> list:
        return self.truncation(8)

    def max_upper_radius(self, w: str, shift=0) -> Optional[Fraction]:
        cap = self.s + shift - self.space.value(w)
        return cap if cap >= 0 else None

    def dominates_member(self, b: FormalBall, m: int) -> bool:
        c, r = self.member(m)
        d = self.space.ambient_dist(c, self.space.value(b.center))
        return d.is_finite and d.as_fraction() <= r - b.radius

    def validate_against_truncation(self, depth: int = 12, horizon: int = 80):
        """The closed-form rule must agree with brute force on truncations.

        Positive answers must dominate every materialized member; negative
        answers must fail against some member within the horizon, so a gap
        below about 2^-horizon reads as a false alarm.
        """
        radii = [Fraction(0), self.s, self.s + 1, _dyadic(3), Fraction(2)]
        for name in self.space.points:
            for r in radii:
                b = FormalBall(name, r)
                if self.is_upper_bound(b):
                    for m in range(depth + 1):
                        if not self.dominates_member(b, m):
                            raise QmetError(
                                f"upper-bound rule too generous at {b}, member {m}"
                            )
                else:
                    if all(self.dominates_member(b, m) for m in range(horizon)):
                        raise QmetError(f"upper-bound rule too strict at {b}")

    def describe(self) -> dict:
        return {"kind": "geometric", "s": str(self.s)}


class FiniteBallFamily(_BallFamily):
    """A finite family of carrier balls.  Its upper bounds at a point w are
    the balls (w, u) with u up to a cap, so a probe over the carrier decides.

    Where the carrier's ball order is transitive, a directed finite family
    holds its maximum, which is its sup, and <=+ is shift-invariant, so the
    probe cannot refute it there."""

    no_escape = (HOLDS, "all shifted upper bounds dominate the shifted sup")

    def __init__(self, space: Space, members: Sequence[FormalBall]):
        self.space = space
        self.members = list(members)

    def witness_members(self) -> list:
        return [(b.center, b.radius) for b in self.members]

    def max_upper_radius(self, w: str, shift=0) -> Optional[Fraction]:
        """Each member (x, r) leaves the room r + shift - d(x, w) at w."""
        cap = None
        for b in self.members:
            d = self.space.dist(b.center, w)
            if d.is_infinite:
                return None
            room = b.radius + shift - d.as_fraction()
            if room < 0:
                return None
            cap = room if cap is None else min(cap, room)
        return cap

    def describe(self) -> dict:
        return {"kind": "finite"}


@dataclass
class StandardnessWitness:
    """An upper bound of the shifted family that escapes the shifted sup."""

    family: dict
    shift: Fraction
    candidate: FormalBall
    target: FormalBall
    members: list

    def to_json(self) -> dict:
        return {
            "witness": "standardness",
            "family": self.family,
            "shift": str(self.shift),
            "candidate": str(self.candidate),
            "target": str(self.target),
            "members": [[str(c), str(r)] for c, r in self.members],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "StandardnessWitness":
        return cls(
            expect_object(expect_object(obj, "a witness")["family"], "a family"),
            as_fraction(obj["shift"]),
            parse_ball(obj["candidate"]),
            parse_ball(obj["target"]),
            _members_from_json(obj["members"]),
        )

    def replay(self, space: Space) -> bool:
        """The candidate bounds the shifted family and misses the target.  A
        shift that takes the offset s or a member radius below 0 is bad input."""
        if self.family.get("kind") == "geometric":
            fam = GeometricBallFamily(space, self.family["s"])
            if fam.s + self.shift < 0:
                raise QmetError("offset s must be non-negative")
        else:
            fam = FiniteBallFamily(space, [FormalBall(c, r) for c, r in self.members])
            for b in fam.members:
                _nonnegative(b.radius + self.shift)
        return fam.is_upper_bound(self.candidate, self.shift) and not leq_dplus(
            space, self.target, self.candidate
        )


FamilyLike = Union[GeometricBallFamily, Sequence[FormalBall]]


def standardness_probe(
    space: Space, family: FamilyLike, known_sup: FormalBall, shift
) -> Verdict:
    """Test whether uniformly inflating the family's radii by the shift keeps
    its least upper bound at the correspondingly inflated ball.

    Refuted means some upper bound of the shifted family fails to dominate
    (x, r + shift); together with a verified least upper bound (x, r) this
    contradicts shift-invariance of directed suprema.  A list of balls is
    read as a finite family.  When no upper bound escapes, a finite family
    holds and a geometric one, whose members lie off the carrier, is unknown.
    A finite family is refuted only where the ball order is not transitive
    (see ``FiniteBallFamily``); only off-carrier families can show a space
    non-standard.
    """
    shift = as_fraction(shift)
    if shift < 0:
        raise QmetError("shift must be non-negative")
    if not isinstance(family, GeometricBallFamily):
        members = list(family)
        if not members:
            raise QmetError("family must be nonempty")
        for a in members:
            for b in members:
                if not any(
                    leq_dplus(space, a, c) and leq_dplus(space, b, c) for c in members
                ):
                    raise QmetError("family is not directed")
        family = FiniteBallFamily(space, members)
    if not family.is_upper_bound(known_sup):
        raise InvalidSup(f"{known_sup} does not dominate the family")
    escape = _escaping_bound(space, family, known_sup)
    if escape is not None:
        raise InvalidSup(f"{known_sup} is not least: {escape} escapes it")
    if shift == 0:
        return Verdict(HOLDS, justification="identity shift")
    target = FormalBall(known_sup.center, known_sup.radius + shift)
    escape = _escaping_bound(space, family, target, shift)
    if escape is None:
        return Verdict(*family.no_escape)
    witness = StandardnessWitness(
        family.describe(), shift, escape, target, family.witness_members()
    )
    return Verdict(REFUTED, justification="escaping upper bound", witness=witness)


def _escaping_bound(space: Space, family: _BallFamily, sup: FormalBall, shift=0):
    """Over the carrier points w in order, the first largest upper bound
    (w, u) of the shifted family that does not dominate sup, or None."""
    bounds = (FormalBall(w, u) for w in space.points
              if (u := family.max_upper_radius(w, shift)) is not None)
    return next((b for b in bounds if not leq_dplus(space, sup, b)), None)


# ---------------------------------------------------------------------------
# Order-law sweeps over ball grids


@dataclass
class OrderLawsReport:
    ball_count: int
    reflexive_ok: bool
    antisymmetric_ok: bool
    transitive_ok: bool
    failures: list

    @property
    def passed(self):
        return self.reflexive_ok and self.antisymmetric_ok and self.transitive_ok


def _ball_at(space: Space, radii: Sequence[Fraction]):
    """Ball i of the grid, by point then radius, built only when reported."""
    m = len(radii)
    return lambda i: FormalBall(space.points[i // m], radii[i % m])


def _ball_rows(space: Space, radii: Sequence[Fraction], strict: bool = False) -> tuple[list, list]:
    """The rows of the balls over the carrier and radius grid, by point then
    radius: bit j of rows[i] is set iff ball i <=+ ball j, or, with strict,
    iff ball i strictly approximates ball j.  The second item holds the
    radii as ints over the common denominator of the radii and the space's
    int view, where every compare is made; ``leq_dplus`` and ``prec`` are
    the reference routes."""
    for r in radii:
        _nonnegative(r)
    den, table = space._ints
    scale = lcm(den, *(r.denominator for r in radii))
    factor = scale // den
    scaled = [r.numerator * (scale // r.denominator) for r in radii]
    m = len(radii)
    # (x, r) reaches (y, s) iff s <= r - d(x, y) (s < r - d(x, y) when
    # strict): a count of the sorted radii, whose bits in y's block are
    # blocks[y][count]
    order = sorted(range(m), key=scaled.__getitem__)
    levels = [scaled[k] for k in order]
    prefix = [0]
    for k in order:
        prefix.append(prefix[-1] | 1 << k)
    blocks = [[mask << (y * m) for mask in prefix] for y in range(len(table))]
    cut = bisect_left if strict else bisect_right
    rows = []
    for drow in table:
        reach = [(d * factor, block) for d, block in zip(drow, blocks) if d is not None]
        for r in scaled:
            row = 0
            for d, block in reach:
                row |= block[cut(levels, r - d)]
            rows.append(row)
    return rows, scaled


def order_laws_report(
    space: Space, radii: Sequence[Fraction], shifts: Sequence[Fraction] = ()
) -> OrderLawsReport:
    """Exhaustively verify that the ball order is a partial order on the
    given radius grid.  Uniform radius shifts cancel in r - s, so the order
    is shift invariant on any table, and a shift is only refused where it
    takes a radius below zero."""
    radii = [as_fraction(r) for r in radii]
    rows, scaled = _ball_rows(space, radii)
    ball_at, m = _ball_at(space, radii), len(radii)
    for a in shifts:
        a = as_fraction(a)
        for r in radii:
            _nonnegative(r + a)
    n = len(rows)
    failures = []
    reflexive_ok = all(rows[i] & (1 << i) for i in range(n))
    if not reflexive_ok:
        i = next(i for i in range(n) if not rows[i] & (1 << i))
        failures.append(("reflexivity", ball_at(i)))
    antisymmetric_ok = True
    for i in range(n):
        for j in _bits(rows[i] & ~((2 << i) - 1)):
            # a repeated radius makes two grid indices one ball
            if rows[j] >> i & 1 and (i // m, scaled[i % m]) != (j // m, scaled[j % m]):
                antisymmetric_ok = False
                failures.append(("antisymmetry", (ball_at(i), ball_at(j))))
    transitive_ok = True
    for i in range(n):
        for j in _bits(rows[i]):
            if rows[j] & ~rows[i]:
                transitive_ok = False
                failures.append(("transitivity", (ball_at(i), ball_at(j))))
    return OrderLawsReport(n, reflexive_ok, antisymmetric_ok, transitive_ok, failures)


@dataclass
class RadiusLawReport:
    families_checked: int
    failures: list

    @property
    def passed(self):
        return not self.failures


def radius_law_report(
    space: Space,
    radii: Sequence[Fraction],
    sample_budget: int = 20_000,
    seed: int = 0,
) -> RadiusLawReport:
    """For sampled directed ball families whose least upper bound exists on
    the grid, the bound's radius must be the minimum member radius.

    Families are tents {a, b, c} with a and b below c, which are directed
    because c bounds every subset from inside.
    """
    radii = [as_fraction(r) for r in radii]
    above, scaled = _ball_rows(space, radii)  # above[i]: the balls dominating ball i
    ball_at, m = _ball_at(space, radii), len(radii)
    below = [[] for _ in above]
    for i, row in enumerate(above):
        for k in _bits(row):
            below[k].append(i)
    # family f is (below[k][a], below[k][b], k) with f - starts[k] = a |below[k]| + b
    starts = list(accumulate((len(b) ** 2 for b in below), initial=0))
    total = starts[-1]
    if total > sample_budget:
        rng = random.Random(seed)
        picks = [rng.randrange(total) for _ in range(sample_budget)]
    else:
        picks = range(total)
    failures = []
    least_of = {}  # upper-bound mask -> its least member; tents share masks
    for f in picks:
        k = bisect_right(starts, f) - 1
        a, b = divmod(f - starts[k], len(below[k]))
        i, j = below[k][a], below[k][b]
        ub_mask = above[i] & above[j] & above[k]
        if ub_mask not in least_of:
            least_of[ub_mask] = next(
                (u for u in _bits(ub_mask) if ub_mask & ~above[u] == 0), None
            )
        least = least_of[ub_mask]
        if least is None:
            continue
        if scaled[least % m] != min(scaled[i % m], scaled[j % m], scaled[k % m]):
            failures.append(((ball_at(i), ball_at(j), ball_at(k)), ball_at(least)))
    return RadiusLawReport(len(picks), failures)
