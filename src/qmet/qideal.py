"""Two-layer models of a space built from truncated dyadic ball bases.

The model poset has a limit layer, one radius-zero ball per carrier point
carrying the specialization order, and a finite layer of positive dyadic
balls.  Moving strictly upward inside the finite layer requires both a
way-below jump in the ambient ball poset and a radius contraction by a fixed
factor, so strict chains of finite elements shorten geometrically and
nothing in the limit layer ever sits below a finite element.

Model elements are formal balls, so the ambient rule reads them directly.
The checks read the model poset's bitmask rows, mapping each element to its
poset index by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .balls import FormalBall, way_below_oracle
from .errors import NoOracle, QmetError
from .extreal import ZERO, as_fraction
from .posets import FinitePoset, export_dot, quasi_ideal_check
from .spaces import Space


class ModelElement(FormalBall):
    """A ball of the model; radius zero marks the limit layer."""

    @property
    def name(self) -> str:
        return str(self)

    @property
    def is_limit(self) -> bool:
        return self.radius == 0


class ModelPoset:
    def __init__(
        self,
        space: Space,
        depth: int,
        factor: Fraction,
        poset: FinitePoset,
        elements: list,
    ):
        self.space = space
        self.depth = depth
        self.factor = factor
        self.poset = poset
        self.elements = elements
        self._by_name = {e.name: e for e in elements}

    def element(self, name: str) -> ModelElement:
        return self._by_name[name]

    @property
    def limit_names(self) -> list:
        return [e.name for e in self.elements if e.is_limit]

    @property
    def finite_names(self) -> list:
        return [e.name for e in self.elements if not e.is_limit]

    def to_json(self) -> dict:
        """Standard poset JSON plus a radius annotation per node."""
        out = self.poset.to_json()
        out["radius"] = {e.name: str(e.radius) for e in self.elements}
        return out


def build_model(space: Space, depth: int, factor=Fraction(2)) -> ModelPoset:
    """Assemble the model poset over the given space.

    The finite layer holds balls (x, 2^-k) for k up to depth; (x, r) sits
    strictly below (y, s) when either the ambient oracle puts (x, r) way
    below (y, s) and r >= factor * s, or both radii are zero and x is below
    y in the specialization order.  Any contraction factor above 1 works;
    2 is the default.
    """
    if depth < 1:
        raise QmetError("depth must be at least 1")
    factor = as_fraction(factor)
    if factor <= 1:
        raise QmetError("contraction factor must exceed 1")
    orc = way_below_oracle(space)
    if orc is None:
        raise NoOracle(f"no way-below closed form for kind {space.kind!r}")
    _, oracle = orc

    elements = [ModelElement(p, Fraction(0)) for p in space.points]
    for p in space.points:
        for k in range(depth + 1):
            elements.append(ModelElement(p, Fraction(1, 2**k)))

    def below(e1: ModelElement, e2: ModelElement) -> bool:
        if e1 == e2:
            return True
        if e1.radius == 0 and e2.radius == 0:
            return space.dist(e1.center, e2.center) == ZERO
        if oracle(space, e1, e2):
            return e1.radius >= factor * e2.radius
        return False

    names = [e.name for e in elements]
    matrix = [[below(a, b) for b in elements] for a in elements]
    poset = FinitePoset(names, matrix)
    return ModelPoset(space, depth, factor, poset, elements)


@dataclass
class ModelCheckReport:
    layering_ok: bool
    layering_violations: list
    longest_finite_chain: int
    chain_bound: int
    chain_ok: bool
    limit_iso_ok: bool
    quasi_ideal_ok: bool
    halving_ok: bool

    @property
    def passed(self) -> bool:
        return (
            self.layering_ok
            and self.chain_ok
            and self.limit_iso_ok
            and self.quasi_ideal_ok
            and self.halving_ok
        )


def _limit_rows(m: ModelPoset) -> list[list[bool]]:
    """The model order between the radius-zero balls, by carrier point."""
    p = m.poset
    zero = [p.index(f"({x}, 0)") for x in m.space.points]
    return [[bool(p.up_mask(i) >> j & 1) for j in zero] for i in zero]


def quasi_ideal_model_check(m: ModelPoset) -> ModelCheckReport:
    """Run the four structural clauses against a built (or tampered) model."""
    p = m.poset
    at = {p.index(e.name): e for e in m.elements}
    finite = [i for i, e in at.items() if not e.is_limit]
    # the finite elements strictly above each element, in element order
    above = {i: [j for j in finite if j != i and p.up_mask(i) >> j & 1] for i in at}

    layering_violations = [
        (e.name, at[j].name) for i, e in at.items() if e.is_limit for j in above[i]
    ]

    memo: dict = {}

    def longest_from(i: int) -> int:
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


def limit_layer(m: ModelPoset) -> FinitePoset:
    """The induced poset on the radius-zero elements, named by carrier point."""
    return FinitePoset(list(m.space.points), _limit_rows(m))


def model_to_dot(m: ModelPoset) -> str:
    """Hasse diagram with limit-layer nodes drawn as boxes."""
    limits = set(m.limit_names)

    def attrs(name: str) -> str:
        return "shape=box" if name in limits else ""

    return export_dot(m.poset, attrs)
