"""The ExtReal reference route for space tables, as the library built them
before the integer table became each space's one store: every formula kind
tabulated its ``ambient_dist`` (the formulas below, returning ExtReals) over
its carrier values, a plain table kept its parsed entries, a poset wrote
ZERO/INF, and the integer view was read off those ExtReals by ``int_scale``.
``axioms_by_extreal`` is ``check_axioms`` as one ExtReal compare per triple.
``tests/test_table_reference.py`` compares every kind against this route."""

import random
from fractions import Fraction

from qmet.extreal import INF, ZERO, ExtReal, ext, int_scale
from qmet.spaces import (
    INF_POINT,
    AxiomReport,
    AxiomViolation,
    FiniteTableSpace,
    PosetSpace,
    RealGridSpace,
    SkewedIntervalSpace,
    SorgenfreyGridSpace,
    TailedSorgenfreySpace,
)


def real_line_dist(space, x, y):
    if x is INF_POINT:
        return ZERO if y is INF_POINT else INF
    if y is INF_POINT:
        return ZERO
    return ExtReal(x - y) if x > y else ZERO


def sorgenfrey_dist(space, x, y):
    return ExtReal(y - x) if x <= y else INF


def skewed_dist(space, x, y):
    if x == y or y == 0:
        return ZERO
    if x == 0:
        return ExtReal(space.a)
    return ExtReal(abs(x - y))


def tailed_dist(space, x, y):
    if x == y:
        return ZERO
    if x > y:
        return INF
    if x > 0:
        return ExtReal(y - x)
    if x == -1:
        return ExtReal(space.a) if y == 1 else INF
    if y == -1:
        return ExtReal(space.b)
    if y == 1:
        return ExtReal(space.c)
    return INF


AMBIENT_DIST = {
    RealGridSpace: real_line_dist,
    SorgenfreyGridSpace: sorgenfrey_dist,
    SkewedIntervalSpace: skewed_dist,
    TailedSorgenfreySpace: tailed_dist,
}


class ReferenceTable:
    """A space's points and its ExtReal table by the reference route; raw is
    the entry matrix a ``FiniteTableSpace`` was built from."""

    def __init__(self, space, raw=None):
        self.points = space.points
        n = len(self.points)
        if isinstance(space, FiniteTableSpace):
            self.table = [[ext(v) for v in row] for row in raw]
        elif isinstance(space, PosetSpace):
            up = space.poset.up_mask
            self.table = [[ZERO if up(i) >> j & 1 else INF for j in range(n)] for i in range(n)]
        else:
            dist = AMBIENT_DIST[type(space)]
            values = [space.value(p) for p in self.points]
            self.table = [[dist(space, a, b) for b in values] for a in values]

    def dist_by_index(self, i, j):
        return self.table[i][j]

    def int_view(self):
        n = len(self.table)
        den, flat = int_scale([v for row in self.table for v in row])
        return den, [flat[i * n:(i + 1) * n] for i in range(n)]

    def is_symmetric(self):
        t = self.table
        return all(t[i][j] == t[j][i] for i in range(len(t)) for j in range(i + 1, len(t)))

    def table_json(self):
        """The ``dist`` entry of a plain table's ``to_json``."""
        return [[str(v) for v in row] for row in self.table]


def axioms_by_extreal(space, sample_budget=200_000, seed=0):
    """``check_axioms`` as one ExtReal compare per triple, on anything with
    ``points`` and ``dist_by_index``."""
    pts = space.points
    n = len(pts)
    violations = []
    for i in range(n):
        d = space.dist_by_index(i, i)
        if d != ZERO:
            violations.append(AxiomViolation("self_distance", (pts[i],), f"d(x,x) = {d}"))
    for i in range(n):
        for j in range(i + 1, n):
            if space.dist_by_index(i, j) == ZERO and space.dist_by_index(j, i) == ZERO:
                violations.append(
                    AxiomViolation(
                        "identity_of_indiscernibles",
                        (pts[i], pts[j]),
                        "d(x,y) = d(y,x) = 0 for distinct points",
                    )
                )

    def triangle(i, j, k):
        lhs = space.dist_by_index(i, k)
        rhs = space.dist_by_index(i, j) + space.dist_by_index(j, k)
        if lhs > rhs:
            violations.append(
                AxiomViolation(
                    "triangle",
                    (pts[i], pts[j], pts[k]),
                    f"d(x,z) = {lhs} > {rhs} = d(x,y) + d(y,z)",
                )
            )

    if n**3 <= sample_budget:
        mode, used_seed, checked = "exhaustive", None, n**3
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    triangle(i, j, k)
    else:
        mode, used_seed, checked = "sampled", seed, sample_budget
        rng = random.Random(seed)
        for _ in range(sample_budget):
            triangle(rng.randrange(n), rng.randrange(n), rng.randrange(n))
    return AxiomReport(not violations, violations, mode, used_seed, sample_budget, checked)
