"""Lower semicontinuous maps, distance to a closed complement, thinning,
Lipschitz checking, and the largest-below Lipschitz envelope.

On a finite carrier the opens of the induced topology are exactly the
subsets that are upward closed for the specialization order, and the largest
Scott-open family of balls whose radius-zero slice stays inside an open U is
cut out by the closed-ball test: (x, r) belongs to it iff every point within
distance r of x lies in U, that is, iff d(x, complement of U) > r, one
compare with ``dist_to_complement``.  Everything is exact rational arithmetic.

The pair loops (``dist_to_complement``, ``lipschitz_check`` and
``envelope``) read the space's integer view
(``Space._ints``): distances, function values, the slope and the lift
radii are brought to one common denominator, every compare is an int
compare, and ExtReals are built only for the results.  The ExtReal loops
they replace are kept in ``tests/lipschitz_reference.py`` as the reference
route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Union

from .balls import FormalBall
from .errors import NoOracle, QmetError, UnknownPoint, expect_object
from .extreal import INF, ZERO, ExtReal, as_fraction, ext, int_scale
from .spaces import Space


class OpenSet:
    """An open of the finite carrier: a subset upward closed under the
    specialization order."""

    def __init__(self, space: Space, members: Iterable[str]):
        self.space = space
        members = list(members)
        for x in members:  # the first unknown name as given
            space.index(x)
        self.members = frozenset(members)
        for x in self:  # closure in carrier order
            for y in space.points:
                if y not in self.members and space.specialization_leq(x, y):
                    raise QmetError(
                        f"not upward closed: {x} is in the set, {y} above it is not"
                    )

    def __contains__(self, x):
        return x in self.members

    def __iter__(self):
        return iter(sorted(self.members, key=self.space.index))

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        return isinstance(other, OpenSet) and self.members == other.members

    def complement(self) -> tuple:
        return tuple(p for p in self.space.points if p not in self.members)

    def __repr__(self):
        return f"OpenSet({sorted(self.members)})"


def hat_membership(space: Space, b: FormalBall, u: OpenSet) -> bool:
    """Whether the ball sits in the largest Scott-open ball family whose
    radius-zero slice stays inside u: the closed r-ball around the center
    must be contained in u, that is, d(x, complement of u) > r."""
    d = dist_to_complement(space, b.center, u)
    return d.is_infinite or d.as_fraction() > b.radius


def thinning(space: Space, u: OpenSet, r) -> OpenSet:
    """Points whose radius-r ball still fits: shrinks u by r.  The result is
    open unless the space breaks the triangle inequality (``NoOracle``)."""
    r = as_fraction(r)
    if r < 0:
        raise QmetError("thinning radius must be non-negative")
    members = [x for x in space.points if hat_membership(space, FormalBall(x, r), u)]
    try:
        return OpenSet(space, members)
    except QmetError:  # x kept, y above it dropped: d(y, z) <= r < d(x, z), z outside u
        x, y = next((x, y) for x in members for y in space.points
                    if y not in members and space.specialization_leq(x, y))
    z = min(u.complement(), key=lambda z: space.dist(y, z))
    raise NoOracle(
        f"thinning by {r} breaks a triangle: {x} is kept, {y} above it is not, as"
        f" d({x},{z}) = {space.dist(x, z)} > {space.dist(y, z)} = d({x},{y}) + d({y},{z})"
    )


def dist_to_complement(space: Space, x: str, u: OpenSet) -> ExtReal:
    """Distance from x to the complement of u; infinite when u is everything.

    On a finite carrier this is both the minimum distance into the
    complement and the supremum of radii r with (x, r) still in the hat of
    u; zero exactly when x is outside u.  The least entry is found on the
    int view and returned from the table.
    """
    i = space.index(x)
    row = space._ints[1][i]
    outside = [j for j, y in enumerate(space.points) if y not in u and row[j] is not None]
    if not outside:
        return INF
    return space.dist_by_index(i, min(outside, key=row.__getitem__))


# ---------------------------------------------------------------------------
# Functions into the extended non-negative rationals


class LscFunction:
    """A total map from the carrier into the extended non-negative rationals.

    Any total map is admitted; monotonicity with respect to the
    specialization order (a consequence of lower semicontinuity) is not
    enforced.
    """

    def __init__(self, space: Space, values: dict):
        self.space = space
        vals = {}
        for p in space.points:
            if p not in values:
                raise QmetError(f"function missing value at {p}")
            vals[p] = ext(values[p])
        extra = set(values) - set(space.points)
        if extra:
            raise UnknownPoint(sorted(extra)[0])
        self.values = vals

    def __call__(self, x: str) -> ExtReal:
        try:
            return self.values[x]
        except KeyError:
            raise UnknownPoint(x) from None

    def __eq__(self, other):
        return isinstance(other, LscFunction) and self.values == other.values

    def leq(self, other: "LscFunction") -> bool:
        return all(self.values[p] <= other.values[p] for p in self.space.points)

    @classmethod
    def scaled_indicator(cls, space: Space, u: OpenSet, r) -> "LscFunction":
        r = ext(r)
        return cls(space, {p: (r if p in u else ZERO) for p in space.points})

    def to_json(self) -> dict:
        return {"values": {p: str(self.values[p]) for p in self.space.points}}

    @classmethod
    def from_json(cls, space: Space, obj: dict) -> "LscFunction":
        values = expect_object(obj, "a function")["values"]
        return cls(space, expect_object(values, "function values"))

    def __repr__(self):
        inner = ", ".join(f"{p}: {self.values[p]}" for p in self.space.points)
        return f"LscFunction({{{inner}}})"


# ---------------------------------------------------------------------------
# Lipschitz checking

# The radius grid on which lipschitz_check tests the ball lift.
LIFT_RADII = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))


@dataclass
class LipschitzReport:
    alpha: Fraction
    violations: list  # (x, y, lhs, rhs)
    lift_violations: list  # (ball, ball) where monotonicity of the lift fails

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def lift_monotone(self) -> bool:
        return not self.lift_violations


def _value_gaps(space: Space, f: Union[LscFunction, dict], codomain: Optional[Space]) -> tuple:
    """(E, gaps): gaps[i][j] is the value gap from the i-th to the j-th
    point times E, as an int, None for inf: how far the first value of an
    ``LscFunction`` sits above the second, or the codomain's distance between
    the images of a mapping."""
    if isinstance(f, LscFunction):
        den, v = int_scale([f(x) for x in space.points])
        # how far a sits above b: 0 when b is inf, inf when only a is
        return den, [
            [0 if b is None else None if a is None else max(a - b, 0) for b in v] for a in v
        ]
    if codomain is None:
        raise QmetError("a mapping given as a dict needs a codomain space")
    images = []
    for p in space.points:
        if p not in f:
            raise QmetError(f"mapping missing value at {p}")
        images.append(codomain.index(f[p]))
    den, rows = codomain._ints
    return den, [[rows[a][b] for b in images] for a in images]


def lipschitz_check(
    space: Space,
    f: Union[LscFunction, dict],
    alpha,
    codomain: Optional[Space] = None,
) -> LipschitzReport:
    """Check the slope bound pairwise and, independently, monotonicity of
    the ball lift (x, r) -> (f(x), alpha * r) on the radii ``LIFT_RADII``.

    The slope verdict is exact.  The lift verdict only tests each pair (x, y)
    at the grid differences r - s >= d(x, y), so it is implied by the slope
    verdict but weaker where d(x, y) is not itself a difference.  On the
    radii (0, 1/2, 1, 2) the differences are 0, 1/2, 1, 3/2 and 2: a slope
    violation at distance 1/4 can pass the lift, and pairs more than 2 apart
    are never tested.

    One pass over the pairs decides both tests: the value gap and d(x, y)
    are ints over one common denominator with the lift radii, and
    alpha = p/q enters as gap * q against p * d (or p * (r - s)), with
    0 * inf = 0.  ``tests/lipschitz_reference.py`` holds the ExtReal route.
    """
    alpha = as_fraction(alpha)
    if alpha < 0:
        raise QmetError("alpha must be non-negative")
    gden, gaps = _value_gaps(space, f, codomain)
    den, rows = space._ints
    scale = lcm(den, gden, *(r.denominator for r in LIFT_RADII))
    dmul, gmul = scale // den, scale // gden
    p, q = alpha.numerator, alpha.denominator
    # (r, s, r - s, alpha * (r - s)) over the grid pairs r >= s, the last
    # two at the common scale, the last also times q
    grid = []
    for r in LIFT_RADII:
        for s in LIFT_RADII:
            if r >= s:
                rs = (r - s).numerator * (scale // (r - s).denominator)
                grid.append((r, s, rs, p * rs))

    violations = []
    lift_violations = []
    pts = space.points
    for i, (x, drow, grow) in enumerate(zip(pts, rows, gaps)):
        for j, (y, d, g) in enumerate(zip(pts, drow, grow)):
            if g == 0:
                continue  # a zero gap passes both tests
            gq = None if g is None else g * gmul * q
            if d is None:
                slope_broken = p == 0  # alpha * inf is 0 at alpha = 0, inf above
            else:
                d *= dmul
                slope_broken = gq is None or gq > p * d
            if slope_broken:
                lhs = INF if g is None else ExtReal(Fraction(g, gden))
                violations.append((x, y, lhs, alpha * space.dist_by_index(i, j)))
            if d is None:
                continue  # no grid pair spans an infinite distance
            for r, s, rs, bound in grid:
                # (x, r) <= (y, s); the lift must preserve it
                if d <= rs and (gq is None or gq > bound):
                    lift_violations.append((FormalBall(x, r), FormalBall(y, s)))
    return LipschitzReport(alpha, violations, lift_violations)


# ---------------------------------------------------------------------------
# Envelopes


def envelope(space: Space, f: LscFunction, alpha) -> LscFunction:
    """Largest alpha-Lipschitz map below f, computed as the inf-convolution
    g(x) = min over y of f(y) + alpha * d(x, y).

    With slope zero the product convention 0 * inf = 0 collapses this to the
    constant minimum of f.

    With alpha = p/q and f and d over one common denominator L, each term
    times L * q is the int f(y) * L * q + p * d(x, y) * L; a term is inf
    where f(y) is, or where d(x, y) is and alpha is not 0.  One Fraction is
    made per point; ``tests/lipschitz_reference.py`` holds the ExtReal route.
    """
    alpha = as_fraction(alpha)
    if alpha < 0:
        raise QmetError("alpha must be non-negative")
    fden, fv = int_scale([f(y) for y in space.points])
    den, rows = space._ints
    scale = lcm(den, fden)
    p, q = alpha.numerator, alpha.denominator
    fmul, pmul = scale // fden * q, scale // den * p
    fq = [None if v is None else v * fmul for v in fv]
    values = {}
    for x, row in zip(space.points, rows):
        terms = [
            v if d is None else v + d * pmul
            for v, d in zip(fq, row)
            if v is not None and (d is not None or p == 0)
        ]
        values[x] = ExtReal(Fraction(min(terms), scale * q)) if terms else INF
    return LscFunction(space, values)


def lipschitz_threshold(space: Space, f: LscFunction) -> Fraction:
    """Least slope at which the envelope recovers a finite-valued f: the
    largest ratio of a value drop to a finite nonzero distance."""
    best = Fraction(0)
    for x in space.points:
        if f(x).is_infinite:
            raise QmetError("threshold needs a finite-valued function")
    for x in space.points:
        for y in space.points:
            d = space.dist(x, y)
            if d.is_infinite or d == ZERO:
                continue
            drop = f(x).as_fraction() - f(y).as_fraction()
            if drop > 0:
                best = max(best, drop / d.as_fraction())
    return best


def envelope_closed_form(space: Space, u: OpenSet, r, alpha) -> LscFunction:
    """min(r, alpha * distance to the complement): the envelope of the
    scaled indicator of u, in closed form."""
    r = ext(r)
    alpha = as_fraction(alpha)
    values = {
        x: min(r, alpha * dist_to_complement(space, x, u)) for x in space.points
    }
    return LscFunction(space, values)
