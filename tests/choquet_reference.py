"""The frozenset route for the strong Choquet game on the up-set topology,
as ``qmet.posets`` computed it before the game moved onto bitmask states:
up-closed sub-masks by filtering every sub-mask, the reply by element names,
and the play count by a memoised recursion keyed by frozensets.  Beside it,
``count_plays_literally`` counts transcripts one by one over the subset
enumeration of ``subset_enumeration.py``, a route that shares nothing with
the library's sweep.  ``legal_beta_moves`` names the library's own bitmask
moves.  ``tests/test_choquet_reference.py`` compares them."""

import random

from subset_enumeration import legal_beta_moves_by_enumeration

from qmet.errors import IllegalMove
from qmet.posets import ChoquetSweep, FinitePoset, PlayRound, _beta_moves, _mask_of


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def up_masks_by_filter(p: FinitePoset, within: int) -> list:
    """The up-closed sub-masks of within, in ascending order."""
    out = []
    mask = within
    while True:
        if all(not p.up_mask(i) & ~mask for i in _bits(mask)):
            out.append(mask)
        if not mask:
            return out[::-1]
        mask = (mask - 1) & within


def up_closed_subsets_by_filter(p: FinitePoset) -> list:
    return [
        frozenset(p.elements[i] for i in _bits(mask))
        for mask in up_masks_by_filter(p, (1 << len(p)) - 1)
    ]


def legal_beta_moves_by_filter(p: FinitePoset, inside: frozenset) -> list:
    """All legal challenger moves (x, V) with V a nonempty open inside the
    current open, in canonical order."""
    within = sum(1 << i for i, e in enumerate(p.elements) if e in inside)
    opens = sorted(list(_bits(m)) for m in up_masks_by_filter(p, within) if m)
    moves = []
    for members in opens:
        v = frozenset(p.elements[i] for i in members)
        moves.extend((p.elements[i], v) for i in members)
    return moves


def legal_beta_moves(p: FinitePoset, inside: frozenset) -> list:
    """The library's challenger moves ``_beta_moves`` inside the open, by name."""
    within = _mask_of(i for i, e in enumerate(p.elements) if e in inside)
    return [(p.elements[i], p._set(m)) for i, m in _beta_moves(p, within)]


def alpha_reply_by_names(p: FinitePoset, x: str, v: frozenset) -> str:
    """Reply point: minimal below-x point inside v, ties broken by element order."""
    candidates = [y for y in p.elements if y in v and p.leq(y, x)]
    if not candidates:
        raise IllegalMove(f"{x} has no approximant inside {sorted(v)}")
    minimal = [
        y
        for y in candidates
        if not any(z != y and p.leq(z, y) for z in candidates)
    ]
    return minimal[0]


def verify_all_plays_by_recursion(p: FinitePoset, depth: int = 4) -> ChoquetSweep:
    """Exhaustively verify every play to the given depth, by a memoised
    recursion over frozenset states."""
    if not len(p):
        raise IllegalMove("empty poset has no nonempty opens")
    edge_cache: dict = {}
    count_cache: dict = {}
    all_won = True
    invariants_ok = True

    def edges(state: frozenset):
        nonlocal all_won, invariants_ok
        if state not in edge_cache:
            out = []
            for x, v in legal_beta_moves_by_filter(p, state):
                y = alpha_reply_by_names(p, x, v)
                u = p.up_set(y)
                if not u:
                    all_won = False
                if not (x in u and u <= v):
                    invariants_ok = False
                out.append((x, v, u))
            edge_cache[state] = out
        return edge_cache[state]

    def count(state: frozenset, remaining: int) -> int:
        if remaining == 0:
            return 1
        key = (state, remaining)
        if key not in count_cache:
            count_cache[key] = sum(count(u, remaining - 1) for _, _, u in edges(state))
        return count_cache[key]

    total = count(frozenset(p.elements), depth)
    return ChoquetSweep(depth, total, all_won, invariants_ok, len(edge_cache))


def seeded_rounds_by_names(p: FinitePoset, depth: int, seed: int) -> list:
    """The rounds of a seeded play: the challenger draws uniformly from the
    canonical move list with ``random.Random(seed)``."""
    rng = random.Random(seed)
    inside = frozenset(p.elements)
    rounds = []
    for _ in range(depth):
        legal = legal_beta_moves_by_filter(p, inside)
        if not legal:
            break
        x, v = legal[rng.randrange(len(legal))]
        y = alpha_reply_by_names(p, x, v)
        inside = p.up_set(y)
        rounds.append(PlayRound(x, v, inside, y))
    return rounds


def count_plays_literally(p: FinitePoset, depth: int) -> int:
    """The number of transcripts of the given length, counted one by one:
    every challenger move of the subset enumeration, answered by the reply,
    and every continuation inside the reply's principal filter."""
    moves: dict = {}

    def plays(inside: frozenset, remaining: int) -> int:
        if remaining == 0:
            return 1
        if inside not in moves:
            moves[inside] = legal_beta_moves_by_enumeration(p, inside)
        return sum(
            plays(p.up_set(alpha_reply_by_names(p, x, v)), remaining - 1)
            for x, v in moves[inside]
        )

    return plays(frozenset(p.elements), depth)
