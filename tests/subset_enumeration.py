"""Way-below, completions and Choquet moves by enumerating every subset of
the carrier.

This is the independent route the library's generator and sub-mask routes
are checked against: each function quantifies over all 2^n subsets straight
from the definitions, so keep the inputs to about 10 elements.
"""

from qmet.posets import (
    AbstractBasis,
    FinitePoset,
    IdealCompletion,
    RoundedIdealCompletion,
)


def _bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def _set_name(elements, subset: frozenset) -> str:
    order = {e: i for i, e in enumerate(elements)}
    return "{" + ",".join(sorted(subset, key=order.__getitem__)) + "}"


def _inclusion_poset(elements, ideals: list) -> FinitePoset:
    """Sort the ideals in place, by size and then by member indices, and
    return the poset of their inclusions."""
    ideals.sort(key=lambda s: (len(s), sorted(elements.index(e) for e in s)))
    names = [_set_name(elements, s) for s in ideals]
    leq = [[a <= b for b in ideals] for a in ideals]
    return FinitePoset.from_json({"kind": "poset", "elements": names, "leq": leq})


def ideal_completion_by_enumeration(p: FinitePoset) -> IdealCompletion:
    """Every nonempty subset that is a down-set and directed."""
    n = len(p)
    leq = [[p.leq(a, b) for b in p.elements] for a in p.elements]
    down = [sum(1 << j for j in range(n) if leq[j][i]) for i in range(n)]
    ideals = []
    for mask in range(1, 1 << n):
        members = list(_bits(mask))
        if any(down[i] & ~mask for i in members):
            continue
        directed = all(
            any(leq[i][k] and leq[j][k] for k in members)
            for i in members
            for j in members
        )
        if directed:
            ideals.append(frozenset(p.elements[i] for i in members))
    poset = _inclusion_poset(p.elements, ideals)
    embedding = {
        e: _set_name(p.elements, {a for a in p.elements if p.leq(a, e)}) for e in p.elements
    }
    return IdealCompletion(poset, ideals, embedding)


def rounded_ideal_completion_by_enumeration(basis: AbstractBasis) -> RoundedIdealCompletion:
    """Every nonempty subset that is a down-set for the strict relation and
    in which every nonempty subset lies strictly below some member."""
    n = len(basis)
    elements = basis.elements
    below = [
        sum(1 << basis.index(x) for x in basis.strictly_below(e)) for e in elements
    ]
    ideals = []
    for mask in range(1, 1 << n):
        members = list(_bits(mask))
        if any(below[i] & ~mask for i in members):
            continue
        directed = True
        sub = mask
        while sub:
            if not any(sub & ~below[z] == 0 for z in members):
                directed = False
                break
            sub = (sub - 1) & mask
        if directed:
            ideals.append(frozenset(elements[i] for i in members))
    poset = _inclusion_poset(elements, ideals)
    below_map = {e: basis.strictly_below(e) for e in elements}
    ideal_names = {s: _set_name(elements, s) for s in ideals}
    image = {e: ideal_names.get(below_map[e]) for e in elements}
    return RoundedIdealCompletion(poset, ideals, below_map, image)


def up_sets_by_enumeration(p: FinitePoset) -> list:
    """Every up-closed subset, in ascending order of its index mask."""
    out = []
    for mask in range(1 << len(p)):
        members = frozenset(p.elements[i] for i in _bits(mask))
        if p.is_up_closed(members):
            out.append(members)
    return out


def legal_beta_moves_by_enumeration(p: FinitePoset, inside: frozenset) -> list:
    """Every (x, V) with V a nonempty up-set inside the open and x in V,
    opens ordered by their index tuples, then points by index."""
    opens = [v for v in up_sets_by_enumeration(p) if v and v <= inside]
    opens.sort(key=lambda s: sorted(p.index(e) for e in s))
    return [(x, v) for v in opens for x in sorted(v, key=p.index)]


def way_below_by_enumeration(p: FinitePoset, a: str, b: str) -> bool:
    """Independent check straight from the definition.

    a is way below b iff every directed subset whose supremum dominates b
    contains an element above a.  Finite directed subsets have their maximum
    as supremum, so the enumeration is complete.  Exponential; intended for
    posets of at most ~8 elements.
    """
    n = len(p)
    leq = [[p.leq(x, y) for y in p.elements] for x in p.elements]
    ia, ib = p.index(a), p.index(b)
    for mask in range(1, 1 << n):
        members = list(_bits(mask))
        directed = True
        for i in members:
            for j in members:
                if not any(leq[i][k] and leq[j][k] for k in members):
                    directed = False
                    break
            if not directed:
                break
        if not directed:
            continue
        tops = [k for k in members if all(leq[i][k] for i in members)]
        if not tops:
            continue
        sup = tops[0]
        if leq[ib][sup] and not any(leq[ia][k] for k in members):
            return False
    return True
