"""Quasi-metric spaces: axiom checking and a gallery of generator spaces.

A space is a finite named carrier plus an exact distance table, stored once
as ints (``Space._ints``).  The table kinds either tabulate the distance
directly or compute it from a closed formula.  The formula-driven kinds are
finite windows onto infinite ambient spaces (the one-way real line, the
Sorgenfrey line, a unit interval with a skewed origin, a Sorgenfrey segment
with two tail points).  Each writes its formula once, on values at any one
scale: its int table is the formula over the carrier's values brought to one
denominator, and ``ambient_dist``, the formula at scale 1, serves the ball
machinery for witness families whose members fall outside the carrier.
``dist`` and ``to_json`` read ExtReals derived from the ints on first use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import sub
from typing import Optional, Sequence

from .errors import QmetError, UnknownPoint, expect_list, expect_names, expect_object, is_square
from .extreal import INF, ZERO, ExtReal, as_fraction, ext, int_scale
from .posets import FinitePoset


class _InfinitePoint:
    """Internal marker for the top point of the extended real line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF_POINT = _InfinitePoint()


def parse_point_value(text: str):
    """A signed rational, or the infinite point for the literal "inf"."""
    if isinstance(text, str) and text.strip() == "inf":
        return INF_POINT
    return as_fraction(text)


def point_label(value) -> str:
    return "inf" if value is INF_POINT else str(value)


class Space:
    """Finite carrier with an exact quasi-metric table, stored as ``_ints`` =
    (D, rows): rows[i][j] is d(i, j) * D as an int, None for inf.  The
    ball-grid kernel, the axiom check and the ``qmet.lipschitz`` loops
    compare these ints, not ExtReals."""

    kind = "abstract"
    # Facts the formal-ball layer (qmet.balls) reads about the kind:
    # way_below_rule names its closed-form way-below rule (None: no closed
    # form); non_center_points are the x with v(x, x) infinite, read only
    # where a rule is named; witness_families are the families the refuter
    # builds and replay accepts, in search order; approach_floor bounds a
    # left approach from below, whose centers stay above it (None: no bound);
    # rule_gap says why a kind whose rule rests on a check names none here.
    way_below_rule: Optional[str] = None
    rule_gap: Optional[str] = None
    non_center_points: frozenset = frozenset()
    witness_families: tuple = ("radius_shrink",)
    approach_floor: Optional[Fraction] = None
    # A formula kind's _formula(x, y, *params) is d(x, y) at the scale of its
    # arguments, None for inf; _params are the params at scale 1.
    _params: tuple = ()
    _ints: tuple[int, list]  # set by each kind's constructor

    def __init__(self, points: Sequence[str]):
        self._points = tuple(points)
        if len(set(self._points)) != len(self._points):
            raise QmetError("duplicate point names")
        self._index = {p: i for i, p in enumerate(self._points)}

    def ambient_dist(self, x, y) -> ExtReal:
        """The formula on ambient values, on or off the carrier."""
        d = self._formula(x, y, *self._params)
        return INF if d is None else ExtReal(d)

    def _tabulate(self):
        """The int table of a formula kind: the formula over its scaled values."""
        den, flat = int_scale([*self._params, *self._values])
        params, values = flat[:len(self._params)], flat[len(self._params):]
        formula = self._formula
        self._ints = (den, [[formula(x, y, *params) for y in values] for x in values])

    def value(self, name: str):
        """The ambient value of a point of a formula kind."""
        return self._values[self.index(name)]

    @property
    def points(self) -> tuple[str, ...]:
        return self._points

    def __len__(self):
        return len(self._points)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownPoint(name) from None

    @cached_property
    def _table(self) -> list:
        """The table as ExtReals, derived from the int rows on first use."""
        den, rows = self._ints
        values = {v for row in rows for v in row}
        ext_of = {v: INF if v is None else ExtReal(Fraction(v, den)) for v in values}
        return [[ext_of[v] for v in row] for row in rows]

    def dist(self, x: str, y: str) -> ExtReal:
        return self._table[self.index(x)][self.index(y)]

    def dist_by_index(self, i: int, j: int) -> ExtReal:
        return self._table[i][j]

    def specialization_leq(self, x: str, y: str) -> bool:
        """x is below y in the specialization order when d(x, y) = 0."""
        return self.dist(x, y) == ZERO

    def to_json(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({list(self._points)!r})"


class FiniteTableSpace(Space):
    kind = "finite_table"

    def __init__(self, points: Sequence[str], table: Sequence[Sequence[ExtReal]]):
        super().__init__(points)
        n = len(self._points)
        if not is_square(table, n):
            raise QmetError("distance table shape mismatch")
        den, flat = int_scale([ext(v) for row in table for v in row])
        self._ints = (den, [flat[i * n:(i + 1) * n] for i in range(n)])

    @cached_property
    def rule_gap(self) -> Optional[str]:
        """The first violation an exhaustive ``check_axioms`` finds."""
        for v in check_axioms(self, len(self) ** 3).violations:
            where = f"where the table breaks {v.axiom} at ({', '.join(map(str, v.witness))})"
            return f"no way-below closed form {where}: {v.detail}"
        return None

    @cached_property
    def way_below_rule(self) -> Optional[str]:
        """Strict approximation, named exactly where an exhaustive
        ``check_axioms`` passes.  On a finite quasi-metric table every
        directed ball family has its sup (z, t) at a center that recurs
        cofinally while the radii shrink, so (x, r) << (y, s) iff d(x, z) <
        r - t for every (z, t) >= (y, s): strict approximation, by the
        triangle inequality through y.  Every point is a center point."""
        return None if self.rule_gap else "metric_strict_approximation"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "points": list(self._points),
            "dist": [[str(v) for v in row] for row in self._table],
        }

    @classmethod
    def metric_line(cls, values: Sequence) -> "FiniteTableSpace":
        """|x - y| on a list of rationals; handy symmetric test space."""
        vals = [as_fraction(v) for v in values]
        points = [str(v) for v in vals]
        table = [[abs(a - b) for b in vals] for a in vals]
        return cls(points, table)


class RealGridSpace(Space):
    """Finite window onto the one-way extended real line.

    The carrier may include the point "inf"; without it the window behaves
    like a closed interval of rationals.
    """

    kind = "real_grid"
    way_below_rule = "one_way_real_line"

    def __init__(self, values: Sequence):
        self._values = [
            v if v is INF_POINT else as_fraction(v) for v in values
        ]
        super().__init__([point_label(v) for v in self._values])
        self._tabulate()
        if self.contains_infinity():
            # a divergent climb has its supremum at the top point
            self.non_center_points = frozenset(["inf"])
            self.witness_families = ("radius_shrink", "divergent")

    def _formula(self, x, y):
        # zero going up, x - y going down, and inf is infinitely far above
        if x is INF_POINT:
            return 0 if y is INF_POINT else None
        if y is INF_POINT:
            return 0
        return x - y if x > y else 0

    def contains_infinity(self) -> bool:
        return any(v is INF_POINT for v in self._values)

    def to_json(self) -> dict:
        return {"kind": self.kind, "values": [point_label(v) for v in self._values]}


class SorgenfreyGridSpace(Space):
    """Finite window onto the Sorgenfrey line."""

    kind = "sorgenfrey_grid"
    way_below_rule = "sorgenfrey_line"
    witness_families = ("radius_shrink", "left_approach")

    def __init__(self, values: Sequence):
        self._values = [as_fraction(v) for v in values]
        super().__init__([str(v) for v in self._values])
        self._tabulate()
        # every point is the supremum of a climb from its left
        self.non_center_points = frozenset(self._points)

    def _formula(self, x, y):
        # rightward only: y - x going up, infinite going down
        return y - x if x <= y else None

    def to_json(self) -> dict:
        return {"kind": self.kind, "values": [str(v) for v in self._values]}


class PosetSpace(Space):
    """A finite poset as a 0/inf quasi-metric space."""

    kind = "poset"
    way_below_rule = "finite_poset"

    def __init__(self, poset: FinitePoset):
        self.poset = poset
        super().__init__(poset.elements)
        n = len(self._points)
        ups = [poset.up_mask(i) for i in range(n)]
        self._ints = (1, [[0 if up >> j & 1 else None for j in range(n)] for up in ups])

    def to_json(self) -> dict:
        return self.poset.to_json()


class SkewedIntervalSpace(Space):
    """The unit interval under |x - y|, except that every distance out of the
    origin is the constant a (distances into the origin stay zero).

    For a >= 1 the triangle inequality holds; smaller a breaks it, which is
    exactly what the axiom checker is for.  Shifting directed ball families
    over this space moves their sets of upper bounds in ways a least upper
    bound cannot follow, so the space is the stock counterexample to
    shift-invariance of suprema.
    """

    kind = "skewed_interval"

    def __init__(self, a, values: Sequence):
        self.a = as_fraction(a)
        if self.a <= 0:
            raise QmetError("parameter a must be positive")
        self._values = [as_fraction(v) for v in values]
        if any(v < 0 or v > 1 for v in self._values):
            raise QmetError("grid values must lie in [0, 1]")
        if Fraction(0) not in self._values:
            raise QmetError("grid must contain 0")
        super().__init__([str(v) for v in self._values])
        self._params = (self.a,)
        self._tabulate()

    def _formula(self, x, y, a):
        if x == y or y == 0:
            return 0
        return a if x == 0 else abs(x - y)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "a": str(self.a),
            "values": [str(v) for v in self._values],
        }


class TailedSorgenfreySpace(Space):
    """A Sorgenfrey segment (0, 1] with two extra points -2 < -1 below it.

    Going up: within the segment the distance is Sorgenfrey's y - x; the two
    tail points reach the top point 1 at finite cost (a from -1, c from -2),
    reach each other at cost b, and see the rest of the segment as infinitely
    far.  Going down anything costs infinity.  Requires a, b > 0 and
    c <= a + b for the triangle inequality.  Its way-below relation on formal
    balls famously fails to be shift-invariant.
    """

    kind = "tailed_sorgenfrey"
    witness_families = ("radius_shrink", "left_approach")
    approach_floor = Fraction(0)  # a left approach climbs inside the segment

    def __init__(self, a, b, c, values: Sequence):
        self.a = as_fraction(a)
        self.b = as_fraction(b)
        self.c = as_fraction(c)
        if self.a <= 0 or self.b <= 0:
            raise QmetError("parameters a and b must be positive")
        if self.c < 0 or self.c > self.a + self.b:
            raise QmetError("parameter c must satisfy 0 <= c <= a + b")
        grid = [as_fraction(v) for v in values]
        if any(v <= 0 or v > 1 for v in grid):
            raise QmetError("grid values must lie in (0, 1]")
        if Fraction(1) not in grid:
            raise QmetError("grid must contain 1")
        self._values = [Fraction(-2), Fraction(-1)] + grid
        super().__init__([str(v) for v in self._values])
        self._params = (self.a, self.b, self.c, Fraction(1))
        self._tabulate()

    def _formula(self, x, y, a, b, c, one):  # one: the top point 1 at that scale
        if x == y:
            return 0
        if x > y:
            return None
        if x > 0:
            return y - x
        if x == -one:
            return a if y == one else None
        # x is -2
        return b if y == -one else c if y == one else None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "a": str(self.a),
            "b": str(self.b),
            "c": str(self.c),
            "values": [str(v) for v in self._values if v > 0],
        }


# ---------------------------------------------------------------------------
# Axiom checking


@dataclass
class AxiomViolation:
    axiom: str
    witness: tuple
    detail: str

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "witness": list(self.witness),
            "detail": self.detail,
        }


@dataclass
class AxiomReport:
    passed: bool
    violations: list
    mode: str
    seed: Optional[int]
    budget: int
    triples_checked: int


def check_axioms(space: Space, sample_budget: int = 200_000, seed: int = 0) -> AxiomReport:
    """Verify the quasi-metric axioms, exactly.

    Runs exhaustively when the carrier cubed fits inside the budget,
    otherwise draws a deterministic seeded sample of triples.  Zero-distance
    and identity checks are quadratic and always exhaustive.  Every check
    compares the space's int view; violation details quote the ExtReals.
    """
    pts = space.points
    n = len(pts)
    _, rows = space._ints
    violations = [
        AxiomViolation("self_distance", (pts[i],), f"d(x,x) = {space.dist_by_index(i, i)}")
        for i in range(n)
        if rows[i][i] != 0
    ] + [
        AxiomViolation("identity_of_indiscernibles", (pts[i], pts[j]),
                       "d(x,y) = d(y,x) = 0 for distinct points")
        for i in range(n)
        for j in range(i + 1, n)
        if rows[i][j] == 0 and rows[j][i] == 0
    ]

    # inf as an int above every sum of two finite entries, so that
    # d(x,z) > d(x,y) + d(y,z) is one int compare with the ExtReal meaning
    top = 2 * max((v for row in rows for v in row if v is not None), default=0) + 1
    t = [[top if v is None else v for v in row] for row in rows]

    def broken_triangle(i, j, k):
        lhs = space.dist_by_index(i, k)
        rhs = space.dist_by_index(i, j) + space.dist_by_index(j, k)
        violations.append(
            AxiomViolation(
                "triangle",
                (pts[i], pts[j], pts[k]),
                f"d(x,z) = {lhs} > {rhs} = d(x,y) + d(y,z)",
            )
        )

    if n**3 <= sample_budget:
        mode, used_seed = "exhaustive", None
        checked = n**3
        for i, ti in enumerate(t):
            for j, dij in enumerate(ti):
                tj = t[j]
                # some k has d(i, k) - d(j, k) > d(i, j)
                if max(map(sub, ti, tj)) > dij:
                    for k in range(n):
                        if ti[k] > dij + tj[k]:
                            broken_triangle(i, j, k)
    else:
        mode, used_seed = "sampled", seed
        rng = random.Random(seed)
        checked = sample_budget
        for _ in range(sample_budget):
            i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            if t[i][k] > t[i][j] + t[j][k]:
                broken_triangle(i, j, k)

    return AxiomReport(not violations, violations, mode, used_seed, sample_budget, checked)


def symmetrize(space: Space) -> FiniteTableSpace:
    """Pointwise max of the two one-way distances, as a plain table space."""
    n = len(space)
    table = [
        [max(space.dist_by_index(i, j), space.dist_by_index(j, i)) for j in range(n)]
        for i in range(n)
    ]
    return FiniteTableSpace(space.points, table)


# ---------------------------------------------------------------------------
# JSON interface


def space_from_json(obj: dict) -> Space:
    kind = expect_object(obj, "a space").get("kind")
    if kind == "finite_table":
        return FiniteTableSpace(expect_names(obj["points"], "points"), obj["dist"])
    if kind == "real_grid":
        return RealGridSpace([parse_point_value(v) for v in expect_list(obj["values"], "values")])
    if kind == "sorgenfrey_grid":
        return SorgenfreyGridSpace(expect_list(obj["values"], "values"))
    if kind == "poset":
        return PosetSpace(FinitePoset.from_json(obj))
    if kind == "skewed_interval":
        return SkewedIntervalSpace(obj["a"], expect_list(obj["values"], "values"))
    if kind == "tailed_sorgenfrey":
        return TailedSorgenfreySpace(
            obj["a"], obj["b"], obj["c"], expect_list(obj["values"], "values")
        )
    raise QmetError(f"unknown space kind {kind!r}")
