"""The strong Choquet game on bitmask states against the frozenset route of
``tests/choquet_reference.py``, and the play count against a literal
transcript count."""

import pytest
from choquet_reference import (
    alpha_reply_by_names,
    count_plays_literally,
    legal_beta_moves_by_filter,
    seeded_rounds_by_names,
    up_closed_subsets_by_filter,
    verify_all_plays_by_recursion,
)
from subset_enumeration import up_sets_by_enumeration

from qmet.errors import IllegalMove
from qmet.posets import (
    FinitePoset,
    alpha_reply,
    choquet_play,
    legal_beta_moves,
    play,
    random_poset,
    verify_all_plays,
)

DENSITIES = (0.2, 0.4, 0.6)


def _sweep_fields(sweep):
    return (sweep.total_plays, sweep.states_seen, sweep.all_won, sweep.invariants_ok)


@pytest.mark.parametrize("n", range(1, 7))
def test_play_count_equals_the_literal_transcript_count(n):
    for density in DENSITIES:
        for seed in range(3):
            p = random_poset(n, seed, density)
            for depth in range(5):
                want = count_plays_literally(p, depth)
                assert verify_all_plays(p, depth).total_plays == want, (n, density, seed, depth)


def test_play_count_on_named_shapes():
    shapes = [
        FinitePoset.chain(["a", "b", "c"]),
        FinitePoset.from_relation(["a", "b", "c"], []),
        FinitePoset.from_relation("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]),
    ]
    for p in shapes:
        for depth in range(5):
            assert verify_all_plays(p, depth).total_plays == count_plays_literally(p, depth)


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("density", DENSITIES)
def test_sweep_matches_the_frozenset_route(n, density):
    for seed in range(3):
        p = random_poset(n, 10 * n + seed, density)
        for depth in range(6):
            want = _sweep_fields(verify_all_plays_by_recursion(p, depth))
            assert _sweep_fields(verify_all_plays(p, depth)) == want, (seed, depth)


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("density", DENSITIES)
def test_seeded_play_matches_the_frozenset_route(n, density):
    p = random_poset(n, 2 * n + 1, density)
    for seed in range(3):
        t = choquet_play(p, "seeded", depth=5, seed=seed)
        want = seeded_rounds_by_names(p, 5, seed)
        assert [(r.x, r.v, r.u, r.y) for r in t.rounds] == [
            (r.x, r.v, r.u, r.y) for r in want
        ]


@pytest.mark.parametrize("density", DENSITIES)
def test_seeded_play_is_the_play_of_its_own_moves(density):
    """The seeded rounds, computed on masks, are what ``play`` makes of the
    same moves after checking each one."""
    for n in range(1, 9):
        p = random_poset(n, 5 * n + 2, density)
        for seed in range(3):
            t = choquet_play(p, "seeded", depth=4, seed=seed)
            assert t == play(p, [(r.x, r.v) for r in t.rounds]), (n, seed)
    for depth in (0, 2):
        with pytest.raises(IllegalMove, match="empty poset has no nonempty opens"):
            choquet_play(FinitePoset([], []), depth=depth)


@pytest.mark.parametrize("n", range(0, 11))
@pytest.mark.parametrize("density", DENSITIES)
def test_up_sets_and_moves_match_the_filter(n, density):
    p = random_poset(n, 3 * n, density)
    opens = p.up_closed_subsets()
    assert opens == up_sets_by_enumeration(p) == up_closed_subsets_by_filter(p)
    for inside in opens[:: max(1, len(opens) // 8)]:
        assert legal_beta_moves(p, inside) == legal_beta_moves_by_filter(p, inside)


def test_moves_inside_a_set_that_is_not_up_closed():
    p = FinitePoset.chain(["a", "b", "c"])
    for inside in ({"a", "b"}, {"a", "c"}, {"b"}, set()):
        inside = frozenset(inside)
        assert legal_beta_moves(p, inside) == legal_beta_moves_by_filter(p, inside)


@pytest.mark.parametrize("n", range(1, 8))
def test_reply_matches_the_reference_on_every_point_and_open(n):
    p = random_poset(n, n + 5, 0.4)
    for v in up_sets_by_enumeration(p):
        for x in p.elements:
            try:
                want = alpha_reply_by_names(p, x, v)
            except IllegalMove:
                with pytest.raises(IllegalMove):
                    alpha_reply(p, x, v)
            else:
                assert alpha_reply(p, x, v) == want
