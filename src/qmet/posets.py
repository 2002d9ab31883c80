"""Finite posets and abstract bases.

Covers the order-theoretic core: way-below on finite posets, ideal and
rounded-ideal completions, the quasi-ideal layering check, the strong Choquet
game on the up-set topology, and Hasse-diagram export.

Rows of the order relation are stored as integer bitmasks.  Only an order
from outside (``FinitePoset.from_json``, ``from_relation``) is checked; each
builder's docstring proves its rows a partial order.  Both completions are
built from generators, not by enumerating subsets: every ideal of a finite
poset is the down-set of one element, and the rounded ideals of a finite
basis are the below-sets of its self-related elements.  The subset
enumeration straight from the definitions is kept under ``tests/`` as the
independent route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    IllegalMove,
    NotAPartialOrder,
    NotAnAbstractBasis,
    QmetError,
    UnknownElement,
    expect_names,
    expect_object,
    is_square,
)


def _bits(mask: int):
    """The indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


class FinitePoset:
    """An immutable finite partial order."""

    def __init__(self, elements: Sequence[str], up: Sequence[int]):
        """up[i] is the mask of the elements above element i, already a partial
        order: ``from_json`` and ``from_relation`` check orders from outside."""
        self._elements = tuple(elements)
        if len(set(self._elements)) != len(self._elements):
            raise NotAPartialOrder("duplicate element names")
        self._up = list(up)
        self._index = {e: i for i, e in enumerate(self._elements)}

    def _validate(self) -> "FinitePoset":
        """Check reflexivity, antisymmetry and transitivity; return self."""
        n = len(self._elements)
        for i in range(n):
            if not self._up[i] & (1 << i):
                raise NotAPartialOrder(f"not reflexive at {self._elements[i]}")
        for i in range(n):
            for j in _bits(self._up[i]):
                if i != j and self._up[j] & (1 << i):
                    raise NotAPartialOrder(
                        f"not antisymmetric on ({self._elements[i]}, {self._elements[j]})"
                    )
                if self._up[j] & ~self._up[i]:
                    raise NotAPartialOrder(
                        f"not transitive through ({self._elements[i]}, {self._elements[j]})"
                    )
        return self

    @classmethod
    def from_relation(
        cls, elements: Sequence[str], pairs: Iterable[tuple[str, str]]
    ) -> "FinitePoset":
        """Build from generating pairs, closing reflexively and transitively, and check."""
        elements = tuple(elements)
        index = {e: i for i, e in enumerate(elements)}
        rows = [1 << i for i in range(len(elements))]
        for a, b in pairs:
            rows[index[a]] |= 1 << index[b]
        for k, krow in enumerate(rows):  # Warshall closure
            for i in range(len(rows)):
                if rows[i] >> k & 1:
                    rows[i] |= krow
        return cls(elements, rows)._validate()

    @classmethod
    def chain(cls, elements: Sequence[str]) -> "FinitePoset":
        pairs = [(elements[i], elements[i + 1]) for i in range(len(elements) - 1)]
        return cls.from_relation(elements, pairs)

    def __len__(self):
        return len(self._elements)

    @property
    def elements(self) -> tuple[str, ...]:
        return self._elements

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownElement(name) from None

    def leq(self, a: str, b: str) -> bool:
        """a <= b, on a finite poset also a << b: a directed set holds its maximum."""
        return bool(self._up[self.index(a)] & (1 << self.index(b)))

    def up_mask(self, i: int) -> int:
        return self._up[i]

    @cached_property
    def _down_rows(self) -> list[int]:
        """Row j is the mask of the elements below j; built on first use."""
        up, n = self._up, len(self._up)
        return [_mask_of(i for i in range(n) if up[i] >> j & 1) for j in range(n)]

    def _set(self, mask: int) -> frozenset:
        return frozenset(self._elements[j] for j in _bits(mask))

    def up_set(self, a: str) -> frozenset:
        return self._set(self._up[self.index(a)])

    def covers(self) -> list[tuple[str, str]]:
        """Hasse edges: pairs a < b with nothing strictly between."""
        out = []
        for i, e in enumerate(self._elements):
            strict = self._up[i] & ~(1 << i)
            # b covers a unless b is strictly above some k strictly above a
            beyond = 0
            for k in _bits(strict):
                beyond |= self._up[k] & ~(1 << k)
            out.extend((e, self._elements[j]) for j in _bits(strict & ~beyond))
        return out

    def is_up_closed(self, subset: Iterable[str]) -> bool:
        mask = _mask_of(self.index(a) for a in subset)
        return not any(self._up[i] & ~mask for i in _bits(mask))

    def up_closed_subsets(self) -> list[frozenset]:
        """All up-sets (the opens of the Scott = up-set topology), canonical order."""
        return [self._set(mask) for mask in self._up_masks((1 << len(self)) - 1)]

    def _up_masks(self, within: int) -> list[int]:
        """The up-closed sub-masks of within, in ascending order.  Elements
        are decided top-down, fewest elements above first, and one joins only
        once all strictly above it have, so every branch ends in an up-set
        and the cost is linear in the output."""
        masks = [0]
        for i in sorted(_bits(within), key=lambda i: self._up[i].bit_count()):
            above = self._up[i] ^ (1 << i)
            masks += [m | 1 << i for m in masks if not above & ~m]
        return sorted(masks)

    def to_json(self) -> dict:
        n = len(self._elements)
        return {
            "kind": "poset",
            "elements": list(self._elements),
            "leq": [[bool(self._up[i] & (1 << j)) for j in range(n)] for i in range(n)],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FinitePoset":
        """Read an outside document's boolean relation matrix and check it."""
        if expect_object(obj, "a poset").get("kind") != "poset":
            raise NotAPartialOrder(f"unexpected kind {obj.get('kind')!r}")
        elements, leq = expect_names(obj["elements"], "elements"), obj["leq"]
        if not is_square(leq, len(elements)):
            raise NotAPartialOrder("relation matrix shape mismatch")
        up = [_mask_of(j for j, v in enumerate(row) if v) for row in leq]
        return cls(elements, up)._validate()

    def __eq__(self, other):
        return (
            isinstance(other, FinitePoset)
            and self._elements == other._elements
            and self._up == other._up
        )

    def __repr__(self):
        return f"FinitePoset({list(self._elements)!r}, covers={self.covers()!r})"


# ---------------------------------------------------------------------------
# Ideal completion


@dataclass
class IdealCompletion:
    poset: FinitePoset
    ideals: list[frozenset]
    embedding: dict  # element -> name of its principal ideal


def _inclusion_completion(
    elements: tuple[str, ...], masks: Iterable[int]
) -> tuple[FinitePoset, list[frozenset], dict]:
    """The distinct sets among masks, ordered by size and then by member
    indices, their inclusion poset, and the completion name of each mask.
    Inclusion among distinct sets is a partial order, so nothing checks it."""
    masks = sorted(set(masks), key=lambda m: (m.bit_count(), list(_bits(m))))
    names = {m: "{" + ",".join(str(elements[i]) for i in _bits(m)) + "}" for m in masks}
    rows = [_mask_of(j for j, b in enumerate(masks) if not a & ~b) for a in masks]
    ideals = [frozenset(elements[i] for i in _bits(m)) for m in masks]
    return FinitePoset(list(names.values()), rows), ideals, names


def ideal_completion(p: FinitePoset) -> IdealCompletion:
    """Poset of all ideals (nonempty directed down-sets) ordered by inclusion.

    A finite directed set holds its own maximum, so every ideal is the
    down-set of one element.
    """
    down = p._down_rows
    poset, ideals, names = _inclusion_completion(p.elements, down)
    embedding = {e: names[down[i]] for i, e in enumerate(p.elements)}
    return IdealCompletion(poset, ideals, embedding)


# ---------------------------------------------------------------------------
# Abstract bases and rounded ideals


class AbstractBasis:
    """Elements with a transitive, interpolative strict-style relation.

    Interpolation is required for nonempty finite subsets: whenever every
    member of a nonempty F lies strictly below y, some z interpolates with
    F below z below y.  An everywhere-empty relation is therefore a valid
    basis (vacuously), and its completion has no rounded ideals at all.
    """

    def __init__(self, elements: Sequence[str], prec: Sequence[Sequence[bool]]):
        self._elements = tuple(elements)
        if len(set(self._elements)) != len(self._elements):
            raise QmetError("duplicate element names")
        n = len(self._elements)
        if not is_square(prec, n):
            raise QmetError("relation matrix shape mismatch")
        self._below = [
            _mask_of(i for i in range(n) if prec[i][j]) for j in range(n)
        ]  # _below[j] = {i : i prec j}
        self._above = [
            _mask_of(j for j in range(n) if prec[i][j]) for i in range(n)
        ]
        self._index = {e: i for i, e in enumerate(self._elements)}
        self._validate()

    def _validate(self):
        n = len(self._elements)
        for i in range(n):
            for j in _bits(self._above[i]):
                if self._above[j] & ~self._above[i]:
                    k = next(_bits(self._above[j] & ~self._above[i]))
                    raise NotAnAbstractBasis(
                        "transitivity",
                        (self._elements[i], self._elements[j], self._elements[k]),
                    )
        # Interpolation collapses to its hardest instance F = (everything
        # strictly below y): a single z below y with F below z settles all F.
        for j in range(n):
            below = self._below[j]
            if not below:
                continue
            if not any(below & ~self._below[z] == 0 for z in _bits(below)):
                witness = tuple(self._elements[i] for i in _bits(below))
                raise NotAnAbstractBasis(
                    "interpolation", (witness, self._elements[j])
                )

    @property
    def elements(self) -> tuple[str, ...]:
        return self._elements

    def __len__(self):
        return len(self._elements)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownElement(name) from None

    def prec(self, a: str, b: str) -> bool:
        return bool(self._above[self.index(a)] & (1 << self.index(b)))

    def strictly_below(self, b: str) -> frozenset:
        return frozenset(
            self._elements[i] for i in _bits(self._below[self.index(b)])
        )

    def to_json(self) -> dict:
        n = len(self._elements)
        return {
            "kind": "basis",
            "elements": list(self._elements),
            "prec": [
                [bool(self._above[i] & (1 << j)) for j in range(n)] for i in range(n)
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AbstractBasis":
        if expect_object(obj, "a basis").get("kind") != "basis":
            raise QmetError(f"unexpected kind {obj.get('kind')!r}")
        return cls(expect_names(obj["elements"], "elements"), obj["prec"])


@dataclass
class RoundedIdealCompletion:
    poset: FinitePoset
    ideals: list[frozenset]
    below_map: dict  # element -> frozenset of elements strictly below it
    image: dict  # element -> completion name of its below-set, when it is an ideal


def rounded_ideal_completion(basis: AbstractBasis) -> RoundedIdealCompletion:
    """All rounded ideals, ordered by inclusion.

    A rounded ideal is a nonempty subset D that is downwards closed for the
    strict relation and directed: every nonempty finite subset of D lies
    strictly below some member of D.  On finite carriers directedness forces
    a member m of D with all of D strictly below m (in particular m below m),
    so D is the below-set of m, and every such below-set is a rounded ideal.
    """
    below = basis._below
    generators = [below[j] for j in range(len(basis)) if below[j] >> j & 1]
    poset, ideals, names = _inclusion_completion(basis.elements, generators)
    below_map = {e: basis.strictly_below(e) for e in basis.elements}
    image = {e: names.get(below[i]) for i, e in enumerate(basis.elements)}
    return RoundedIdealCompletion(poset, ideals, below_map, image)


def rounded_ideals_by_generators(basis: AbstractBasis) -> list[frozenset]:
    """The rounded ideals of a finite basis, the below-sets of its
    self-related elements, in completion order."""
    return rounded_ideal_completion(basis).ideals


# ---------------------------------------------------------------------------
# Quasi-ideal layering


@dataclass
class QuasiIdealReport:
    passed: bool
    violations: list  # (non-finite element, finite element above it)


def quasi_ideal_check(p: FinitePoset, finite_elems: Iterable[str]) -> QuasiIdealReport:
    """Everything below a finite element must itself be finite."""
    finite = _mask_of(p.index(name) for name in finite_elems)
    violations = [
        (x, p.elements[j])
        for i, x in enumerate(p.elements)
        if not finite >> i & 1
        for j in _bits(p.up_mask(i) & finite)
    ]
    return QuasiIdealReport(not violations, violations)


# ---------------------------------------------------------------------------
# Strong Choquet game on the up-set topology


@dataclass
class PlayRound:
    x: str
    v: frozenset
    u: frozenset
    y: str


@dataclass
class PlayTranscript:
    poset: FinitePoset
    rounds: list

    def alpha_won(self) -> bool:
        return bool(self.intersection_u())

    def intersection_u(self) -> frozenset:
        return frozenset(self.poset.elements).intersection(*(r.u for r in self.rounds))

    def intersection_v(self) -> frozenset:
        return frozenset(self.poset.elements).intersection(*(r.v for r in self.rounds))

    def intersections_equal(self) -> bool:
        """The two limit intersections agree.

        A finished transcript ends on the first player's open, so the plain
        intersection of the challenger's opens is still one half-step behind.
        Any continuation is trapped inside the final reply, which makes the
        limit value of both intersections equal to the final reply's trace.
        """
        if not self.rounds:
            return True
        return self.intersection_u() == self.intersection_v() & self.rounds[-1].u

    def converged(self) -> bool:
        """Whether the challenger's opens shrank to the principal filter of
        the final reply point."""
        if not self.rounds:
            return False
        last = self.rounds[-1]
        return last.v == self.poset.up_set(last.y)


def _reply(down: list[int], x: int, v: int) -> int:
    """The reply to the move (x, V) on down-set rows: the lowest index i in
    cand = down(x) & V with down(i) & cand == {i}; -1 where cand is empty."""
    cand = rest = down[x] & v
    while rest:
        low = rest & -rest
        if down[low.bit_length() - 1] & cand == low:
            return low.bit_length() - 1
        rest ^= low
    return -1


def alpha_reply(p: FinitePoset, x: str, v: frozenset) -> str:
    """Reply point: minimal below-x point inside v, ties broken by element order."""
    vm = _mask_of(i for i, e in enumerate(p.elements) if e in v)
    y = _reply(p._down_rows, p.index(x), vm) if vm else -1
    if y < 0:
        raise IllegalMove(f"{x} has no approximant inside {sorted(v)}")
    return p.elements[y]


def _beta_moves(p: FinitePoset, within: int) -> list[tuple[int, int]]:
    """The legal challenger moves inside within as (point index, open mask),
    in canonical order: opens by their index tuples, then points by index."""
    opens = sorted((list(_bits(m)), m) for m in p._up_masks(within) if m)
    return [(i, m) for members, m in opens for i in members]


def play(p: FinitePoset, moves: Sequence[tuple[str, Iterable[str]]]) -> PlayTranscript:
    """Run a full play from explicit challenger moves, validating legality."""
    if not len(p):
        raise IllegalMove("empty poset has no nonempty opens")
    inside = frozenset(p.elements)
    rounds = []
    for x, v in moves:
        v = frozenset(v)
        if not v or not v <= inside:
            raise IllegalMove(f"open {sorted(v)} escapes {sorted(inside)}")
        if not p.is_up_closed(v):
            raise IllegalMove(f"{sorted(v)} is not open (not up-closed)")
        if x not in v:
            raise IllegalMove(f"point {x} outside chosen open {sorted(v)}")
        y = alpha_reply(p, x, v)
        u = p.up_set(y)
        rounds.append(PlayRound(x, v, u, y))
        inside = u
    return PlayTranscript(p, rounds)


def choquet_play(
    p: FinitePoset, beta: str = "seeded", depth: int = 4, seed: int = 0
) -> PlayTranscript:
    """Play to the given depth against the seeded challenger, which draws
    each move from the legal ones; ``play`` takes explicit moves.  Drawn
    moves are legal by construction, and each reply's open is nonempty."""
    if beta != "seeded":
        raise QmetError(f"unknown challenger {beta!r}: only 'seeded' is played")
    if not len(p):
        raise IllegalMove("empty poset has no nonempty opens")
    rng = random.Random(seed)
    inside = (1 << len(p)) - 1
    rounds = []
    for _ in range(depth):
        x, v = rng.choice(_beta_moves(p, inside))
        y = _reply(p._down_rows, x, v)
        inside = p.up_mask(y)
        rounds.append(PlayRound(p.elements[x], p._set(v), p._set(inside), p.elements[y]))
    return PlayTranscript(p, rounds)


@dataclass
class ChoquetSweep:
    depth: int
    total_plays: int
    all_won: bool  # this and invariants_ok are theorems: see verify_all_plays
    invariants_ok: bool
    states_seen: int


def verify_all_plays(p: FinitePoset, depth: int = 4) -> ChoquetSweep:
    """Exhaustively verify every play to the given depth.

    A state is the whole poset or the principal filter up(y) of a reply y, so
    there are at most n + 1; each is expanded once, with at least one round
    left, into the multiplicity of each next state, and plays are counted
    round by round.  Every play is won with the invariants kept, by the
    partial order: x lies in down(x) & V, whose minimal element y lies in V
    and below x, so up(y) holds x and lies inside V, as V is up-closed.  The
    sweep's content is the play count; ``tests/choquet_reference.py`` tests
    each edge.
    """
    if not len(p):
        raise IllegalMove("empty poset has no nonempty opens")
    up, down = p._up, p._down_rows
    edges: dict[int, dict[int, int]] = {}
    plays = {(1 << len(p)) - 1: 1}  # state -> number of plays that reach it
    for _ in range(depth):
        reached: dict[int, int] = {}
        for state, ways in plays.items():
            if state not in edges:
                out = edges[state] = {}
                for v in p._up_masks(state):
                    for x in _bits(v):
                        u = up[_reply(down, x, v)]
                        out[u] = out.get(u, 0) + 1
            for u, k in edges[state].items():
                reached[u] = reached.get(u, 0) + ways * k
        plays = reached
    return ChoquetSweep(depth, sum(plays.values()), True, True, len(edges))


# ---------------------------------------------------------------------------
# DOT export


def export_dot(p: FinitePoset, node_attrs: Optional[Callable[[str], str]] = None) -> str:
    """DOT digraph of the Hasse diagram, nodes in element order, edges in ``covers`` order."""
    if not len(p):
        return "digraph { }"
    lines = ["digraph {"]
    for e in p.elements:
        attr = node_attrs(e) if node_attrs else ""
        suffix = f" [{attr}]" if attr else ""
        lines.append(f'  "{e}"{suffix};')
    for a, b in p.covers():
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Seeded generators (used by tests)


def random_poset(n: int, seed: int, density: float = 0.4) -> FinitePoset:
    """A random n-element poset, deterministic in the seed."""
    rng = random.Random(seed)
    names = [f"e{i}" for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    pairs = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                pairs.append((names[order[a]], names[order[b]]))
    return FinitePoset.from_relation(names, pairs)


def random_abstract_basis(n: int, seed: int) -> AbstractBasis:
    """A random valid abstract basis: a random poset with self-relatedness
    stripped on a random subset, retried until validation passes."""
    for attempt in range(1000):
        rng = random.Random(seed * 1009 + attempt)
        p = random_poset(n, seed * 31 + attempt)
        strip = {e for e in p.elements if rng.random() < 0.5}
        matrix = [
            [
                p.leq(a, b) and not (a == b and a in strip)
                for b in p.elements
            ]
            for a in p.elements
        ]
        try:
            return AbstractBasis(p.elements, matrix)
        except NotAnAbstractBasis:
            continue
    raise NotAnAbstractBasis("could not find a valid basis", None)
