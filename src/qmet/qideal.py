"""Two-layer models of a space built from truncated dyadic ball bases.

The model poset has a limit layer, one radius-zero ball per carrier point
carrying the specialization order, and a finite layer of positive dyadic
balls.  Moving strictly upward inside the finite layer requires both a
way-below jump in the ambient ball poset and a radius contraction by a fixed
factor, so strict chains of finite elements shorten geometrically and
nothing in the limit layer ever sits below a finite element.

The order comes from the integer ball-grid kernel of ``qmet.balls``: the
way-below rule's rows over the radii 0, 1, 1/2, ..., 2^-depth, masked by one
halving mask per radius, plus its radius-zero rows for the limit layer.  A
space that names no rule has no model (``NoOracle``).  The checks read the
model poset's bitmask rows, mapping each element to its poset index by name.
The pairwise route, one way-below call per element pair, is kept under
``tests/`` as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .balls import FormalBall, _ball_rows, _way_below_rows
from .errors import QmetError
from .extreal import as_fraction
from .posets import FinitePoset, _bits, _mask_of, export_dot, quasi_ideal_check
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

    @property
    def limit_names(self) -> list:
        return [e.name for e in self.elements if e.is_limit]

    def to_json(self) -> dict:
        """Standard poset JSON plus a radius annotation per node."""
        out = self.poset.to_json()
        out["radius"] = {e.name: str(e.radius) for e in self.elements}
        return out

    def __repr__(self):
        return f"ModelPoset(depth={self.depth}, factor={self.factor}, poset={self.poset!r})"


def build_model(space: Space, depth: int, factor=Fraction(2)) -> ModelPoset:
    """Assemble the model poset over the given space.

    The finite layer holds balls (x, 2^-k) for k up to depth; (x, r) sits
    strictly below (y, s) when either the way-below rule puts (x, r) way
    below (y, s) and r >= factor * s, or both radii are zero and x is below
    y in the specialization order.  Any contraction factor above 1 works;
    2 is the default.

    The rows are a partial order by construction, unchecked.  A rule is named
    only where the axioms hold (tables pass the exhaustive gate, the other
    kinds by formula); every row holds its own bit.  Antisymmetric: with
    factor > 1, halving r >= factor * s makes the finite layer strict; no
    limit row reaches it; the limit rows, d(x, y) = 0, are antisymmetric by
    the axioms.  Transitive: prec composes by the triangle inequality,
    halving composes, and a limit step adds d = 0.  Dropping a non-center
    point x's own block keeps this: no y != x has d(x, y) and d(y, x) both
    finite on any kind with non-center points, so no path returns to x.
    """
    if depth < 1:
        raise QmetError("depth must be at least 1")
    factor = as_fraction(factor)
    if factor <= 1:
        raise QmetError("contraction factor must exceed 1")

    radii = [Fraction(0)] + [Fraction(1, 2**k) for k in range(depth + 1)]
    n, m = len(space), len(radii)
    elements = [ModelElement(p, radii[0]) for p in space.points]
    elements += [ModelElement(p, r) for p in space.points for r in radii[1:]]

    # Grid ball i is (point i // m, radii[i % m]); halving keeps the radius
    # indices b with r >= factor * radii[b], the same in every point's block.
    rule, scaled = _way_below_rows(space, radii)
    limit_rows, _ = _ball_rows(space, radii[:1])  # d(x, y) <= 0, i.e. d(x, y) = 0
    repeat = sum(1 << (y * m) for y in range(n))
    num, den = factor.numerator, factor.denominator
    halving = [
        repeat * _mask_of(b for b, s in enumerate(scaled) if den * r >= num * s) for r in scaled
    ]
    block = (1 << m) - 1
    rows = [row | 1 << x for x, row in enumerate(limit_rows)]
    for x in range(n):
        for a in range(1, m):
            row = rule[x * m + a] & halving[a]
            # to element order: the limit layer, then each point's finite block
            out = 1 << (n + x * (m - 1) + a - 1)
            for y in range(n):
                bits = row >> (y * m) & block
                out |= (bits & 1) << y | (bits >> 1) << (n + y * (m - 1))
            rows.append(out)
    poset = FinitePoset([e.name for e in elements], rows)
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


def _limit_masks(m: ModelPoset) -> list[int]:
    """The model order between the radius-zero balls, as bitmask rows by
    carrier point."""
    p = m.poset
    zero = [p.index(f"({x}, 0)") for x in m.space.points]
    return [_mask_of(k for k, j in enumerate(zero) if p.up_mask(i) >> j & 1) for i in zero]


def quasi_ideal_model_check(m: ModelPoset) -> ModelCheckReport:
    """Run the four structural clauses against a built (or tampered) model.
    The non-finite elements are the limit ones, so layering is the
    quasi-ideal clause: both fields report its one result."""
    p = m.poset
    at = {p.index(e.name): e for e in m.elements}
    finite = [i for i, e in at.items() if not e.is_limit]  # in element order
    finite_mask = _mask_of(finite)
    # the finite elements strictly above each element
    above = {i: p.up_mask(i) & finite_mask & ~(1 << i) for i in at}

    # the longest strict chain of finite elements: one round per chain
    # element, each taking away the elements with nothing left above them
    longest, left = 0, finite_mask
    while left:
        left &= ~_mask_of(i for i in _bits(left) if not above[i] & left)
        longest += 1
    bound = m.depth + 1

    _, dist = m.space._ints
    limit_iso_ok = _limit_masks(m) == [
        _mask_of(j for j, d in enumerate(row) if d == 0) for row in dist
    ]

    qreport = quasi_ideal_check(p, [at[i].name for i in finite])

    # halving: an edge from radius r may only reach the radius classes s
    # with r >= factor * s
    classes: dict = {}
    for i in finite:
        classes[at[i].radius] = classes.get(at[i].radius, 0) | 1 << i
    reach = {  # the classes are disjoint, so their sum is their union
        r: sum(mask for s, mask in classes.items() if r >= m.factor * s) for r in classes
    }
    halving_ok = all(not above[i] & ~reach[at[i].radius] for i in finite)

    return ModelCheckReport(
        qreport.passed,
        qreport.violations,
        longest,
        bound,
        longest <= bound,
        limit_iso_ok,
        qreport.passed,
        halving_ok,
    )


def limit_layer(m: ModelPoset) -> FinitePoset:
    """The model's order restricted to the limit layer, by carrier point."""
    return FinitePoset(list(m.space.points), _limit_masks(m))


def model_to_dot(m: ModelPoset) -> str:
    """Hasse diagram with limit-layer nodes drawn as boxes."""
    limits = set(m.limit_names)

    def attrs(name: str) -> str:
        return "shape=box" if name in limits else ""

    return export_dot(m.poset, attrs)
