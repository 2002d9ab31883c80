"""The ExtReal reference routes for ``qmet.lipschitz``: one ``Space.dist``
lookup and ExtReal compare per point pair (and per lift radius pair), as the
library computed them before its loops moved onto the space's integer view.
``tests/test_lipschitz_int_view.py`` compares the two routes report by
report.  ``monotone_violations`` lists where a function breaks the
monotonicity that lower semicontinuity implies."""

from qmet.balls import FormalBall
from qmet.errors import QmetError
from qmet.extreal import INF, ZERO, as_fraction, monus
from qmet.lipschitz import LIFT_RADII, LipschitzReport, LscFunction


def extended_value_dist(u, v):
    """One-way distance between extended non-negative values: how far u sits
    above v: ``monus``, with inf above inf at 0."""
    return ZERO if u <= v else monus(u, v)


def monotone_violations(f):
    """The pairs x below y in the specialization order with f(x) > f(y)."""
    pts = f.space.points
    leq = f.space.specialization_leq
    return [(x, y) for x in pts for y in pts if leq(x, y) and not f(x) <= f(y)]


def hat_membership_by_extreal(space, b, u):
    i = space.index(b.center)
    for j, y in enumerate(space.points):
        d = space.dist_by_index(i, j)
        if d.is_finite and d.as_fraction() <= b.radius and y not in u:
            return False
    return True


def dist_to_complement_by_extreal(space, x, u):
    i = space.index(x)
    best = INF
    for j, y in enumerate(space.points):
        if y not in u:
            best = min(best, space.dist_by_index(i, j))
    return best


def lipschitz_check_by_extreal(space, f, alpha, codomain=None):
    alpha = as_fraction(alpha)
    if alpha < 0:
        raise QmetError("alpha must be non-negative")

    if isinstance(f, LscFunction):
        def value_dist(x, y):
            return extended_value_dist(f(x), f(y))
    else:
        if codomain is None:
            raise QmetError("a mapping given as a dict needs a codomain space")
        for p in space.points:
            if p not in f:
                raise QmetError(f"mapping missing value at {p}")
            codomain.index(f[p])

        def value_dist(x, y):
            return codomain.dist(f[x], f[y])

    violations = []
    for x in space.points:
        for y in space.points:
            lhs = value_dist(x, y)
            rhs = alpha * space.dist(x, y)
            if not lhs <= rhs:
                violations.append((x, y, lhs, rhs))

    lift_violations = []
    for x in space.points:
        for y in space.points:
            d = space.dist(x, y)
            for r in LIFT_RADII:
                for s in LIFT_RADII:
                    if r < s or d.is_infinite or d.as_fraction() > r - s:
                        continue
                    gap = value_dist(x, y)
                    if not (gap.is_finite and gap.as_fraction() <= alpha * (r - s)):
                        lift_violations.append((FormalBall(x, r), FormalBall(y, s)))
    return LipschitzReport(alpha, violations, lift_violations)


def envelope_by_extreal(space, f, alpha):
    alpha = as_fraction(alpha)
    if alpha < 0:
        raise QmetError("alpha must be non-negative")
    values = {}
    for x in space.points:
        i = space.index(x)
        best = None
        for j, y in enumerate(space.points):
            term = f(y) + alpha * space.dist_by_index(i, j)
            best = term if best is None else min(best, term)
        values[x] = best
    return LscFunction(space, values)
