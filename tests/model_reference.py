"""The pairwise reference routes for ``qmet.qideal``: the model order from one
closed-form way-below call (``prec`` plus the non-center test) per element
pair, and the model check from element lists and ``Fraction``/ExtReal
compares, as the library computed them before both moved onto the integer
ball-grid kernel and bitmask rows.  ``tests/test_model_kernel.py`` compares
the two routes model by model and report by report."""

from fractions import Fraction

from qmet.balls import prec
from qmet.errors import NoOracle, QmetError
from qmet.extreal import ZERO, as_fraction
from qmet.posets import FinitePoset, quasi_ideal_check
from qmet.qideal import ModelCheckReport, ModelElement, ModelPoset


def build_model_pairwise(space, depth, factor=Fraction(2)):
    if depth < 1:
        raise QmetError("depth must be at least 1")
    factor = as_fraction(factor)
    if factor <= 1:
        raise QmetError("contraction factor must exceed 1")
    if space.way_below_rule is None:
        raise NoOracle(space.rule_gap or f"no way-below closed form for kind {space.kind!r}")

    def oracle(b1, b2):
        if b1.center == b2.center and b1.center in space.non_center_points:
            return False
        return prec(space, b1, b2)

    elements = [ModelElement(p, Fraction(0)) for p in space.points]
    for p in space.points:
        for k in range(depth + 1):
            elements.append(ModelElement(p, Fraction(1, 2**k)))

    def below(e1, e2):
        if e1 == e2:
            return True
        if e1.radius == 0 and e2.radius == 0:
            return space.dist(e1.center, e2.center) == ZERO
        if oracle(e1, e2):
            return e1.radius >= factor * e2.radius
        return False

    # from_json validates the partial-order laws that build_model proves
    poset = FinitePoset.from_json({
        "kind": "poset",
        "elements": [e.name for e in elements],
        "leq": [[below(a, b) for b in elements] for a in elements],
    })
    return ModelPoset(space, depth, factor, poset, elements)


def _limit_rows(m):
    p = m.poset
    zero = [p.index(f"({x}, 0)") for x in m.space.points]
    return [[bool(p.up_mask(i) >> j & 1) for j in zero] for i in zero]


def model_check_pairwise(m):
    p = m.poset
    at = {p.index(e.name): e for e in m.elements}
    finite = [i for i, e in at.items() if not e.is_limit]
    above = {i: [j for j in finite if j != i and p.up_mask(i) >> j & 1] for i in at}

    layering_violations = [
        (e.name, at[j].name) for i, e in at.items() if e.is_limit for j in above[i]
    ]

    memo = {}

    def longest_from(i):
        if i not in memo:
            memo[i] = 1 + max((longest_from(j) for j in above[i]), default=0)
        return memo[i]

    longest = max((longest_from(i) for i in finite), default=0)
    bound = m.depth + 1

    points = m.space.points
    limit_iso_ok = _limit_rows(m) == [
        [m.space.specialization_leq(x, y) for y in points] for x in points
    ]

    qreport = quasi_ideal_check(p, [at[i].name for i in finite])

    halving_ok = all(
        at[i].radius >= m.factor * at[j].radius for i in finite for j in above[i]
    )

    return ModelCheckReport(
        not layering_violations,
        layering_violations,
        longest,
        bound,
        longest <= bound,
        limit_iso_ok,
        qreport.passed,
        halving_ok,
    )
