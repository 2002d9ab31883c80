from fractions import Fraction

import pytest

from qmet.errors import (
    IllegalMove,
    NotAPartialOrder,
    NotAnAbstractBasis,
    QmetError,
    UnknownElement,
)
from qmet.posets import (
    AbstractBasis,
    FinitePoset,
    alpha_reply,
    choquet_play,
    export_dot,
    ideal_completion,
    play,
    quasi_ideal_check,
    random_abstract_basis,
    random_poset,
    rounded_ideal_completion,
    rounded_ideals_by_generators,
    verify_all_plays,
)

from choquet_reference import legal_beta_moves
from subset_enumeration import (
    ideal_completion_by_enumeration,
    legal_beta_moves_by_enumeration,
    rounded_ideal_completion_by_enumeration,
    up_sets_by_enumeration,
    way_below_by_enumeration,
)


def _poset_doc(elements, leq):
    return {"kind": "poset", "elements": elements, "leq": leq}


def test_construction_validation():
    # an order from outside is checked once, where it enters
    for leq, law in [
        ([[False, True], [False, True]], "not reflexive"),
        ([[True, True], [True, True]], "not antisymmetric"),
        ([[True, True, False], [False, True, True], [False, False, True]], "not transitive"),
        ([[True, False], [True]], "shape mismatch"),
    ]:
        with pytest.raises(NotAPartialOrder, match=law):
            FinitePoset.from_json(_poset_doc(["a", "b", "c"][: len(leq)], leq))
    with pytest.raises(NotAPartialOrder, match="not antisymmetric"):
        FinitePoset.from_relation(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(NotAPartialOrder, match="duplicate"):
        FinitePoset(["a", "a"], [0b01, 0b10])


def test_construction_from_masks():
    # the constructor takes up-masks, bit j of row i set iff i <= j
    matrix = [[True, True, True], [False, True, True], [False, False, True]]
    p = FinitePoset(["a", "b", "c"], [0b111, 0b110, 0b100])
    assert p == FinitePoset.from_json(_poset_doc(["a", "b", "c"], matrix))
    assert p == FinitePoset.chain(["a", "b", "c"])
    assert p.to_json()["leq"] == matrix


def test_unknown_element():
    p = FinitePoset.chain(["a", "b"])
    with pytest.raises(UnknownElement):
        p.leq("a", "z")


def test_way_below_finite_examples():
    # on a finite poset way-below is the order, so leq answers it
    chain = FinitePoset.chain(["a", "b", "c"])
    assert chain.leq("a", "c")
    anti = FinitePoset.from_relation(["a", "b"], [])
    assert not anti.leq("a", "b")
    assert anti.leq("a", "a")


@pytest.mark.parametrize("seed", range(6))
def test_way_below_matches_enumeration(seed):
    p = random_poset(5, seed)
    for a in p.elements:
        for b in p.elements:
            assert p.leq(a, b) == way_below_by_enumeration(p, a, b)


# ---------------------------------------------------------------------------
# ideal completion


def test_ideal_completion_chain():
    p = FinitePoset.chain(["a", "b", "c"])
    c = ideal_completion(p)
    assert len(c.poset) == 3
    names = [c.embedding[e] for e in p.elements]
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            assert c.poset.leq(a, b) == (i <= j)


@pytest.mark.parametrize("n", range(1, 6))
def test_ideal_completion_antichain(n):
    p = FinitePoset.from_relation([f"a{i}" for i in range(n)], [])
    c = ideal_completion(p)
    assert len(c.poset) == n
    for a in c.poset.elements:
        for b in c.poset.elements:
            assert c.poset.leq(a, b) == (a == b)


def test_ideal_completion_empty():
    c = ideal_completion(FinitePoset.from_relation([], []))
    assert len(c.poset) == 0


def test_completions_beyond_enumeration_sizes():
    # both completions come from generators, so sizes far past what subset
    # enumeration can reach complete with one ideal per generator
    for p in (
        FinitePoset.from_relation([f"a{i}" for i in range(13)], []),
        FinitePoset.chain([f"c{i}" for i in range(20)]),
    ):
        assert len(ideal_completion(p).ideals) == len(p)
        basis = AbstractBasis(p.elements, p.to_json()["leq"])
        assert len(rounded_ideal_completion(basis).ideals) == len(p)


@pytest.mark.parametrize("n", range(9))
def test_ideal_completion_matches_subset_enumeration(n):
    for seed in range(4):
        p = random_poset(n, seed)
        got, want = ideal_completion(p), ideal_completion_by_enumeration(p)
        assert got.ideals == want.ideals
        assert got.poset.to_json() == want.poset.to_json()
        assert got.embedding == want.embedding


@pytest.mark.parametrize("n", range(9))
def test_rounded_ideal_completion_matches_subset_enumeration(n):
    for seed in range(4):
        b = random_abstract_basis(n, seed)
        got, want = rounded_ideal_completion(b), rounded_ideal_completion_by_enumeration(b)
        assert got.ideals == want.ideals
        assert got.poset.to_json() == want.poset.to_json()
        assert got.below_map == want.below_map
        assert got.image == want.image


@pytest.mark.parametrize("seed", range(5))
def test_ideal_completion_is_quasi_ideal_with_all_finite(seed):
    # finite posets satisfy the ascending chain condition, so the completion
    # with every element declared finite always passes the layering check
    p = random_poset(5, seed)
    c = ideal_completion(p)
    assert quasi_ideal_check(c.poset, c.poset.elements).passed


@pytest.mark.parametrize("seed", range(8))
def test_ideal_completion_embeds_isomorphically(seed):
    # every ideal of a finite poset is principal, so the embedding is an
    # order isomorphism onto the completion
    p = random_poset(6, seed)
    c = ideal_completion(p)
    assert len(c.poset) == len(p)
    assert sorted(c.embedding.values()) == sorted(c.poset.elements)
    for a in p.elements:
        for b in p.elements:
            assert p.leq(a, b) == c.poset.leq(c.embedding[a], c.embedding[b])


# ---------------------------------------------------------------------------
# abstract bases and rounded ideals


def test_basis_example_single_ideal():
    b = AbstractBasis(["a", "b"], [[True, True], [False, False]])
    comp = rounded_ideal_completion(b)
    assert comp.ideals == [frozenset({"a"})]
    assert comp.image["a"] == "{a}"
    assert comp.image["b"] == "{a}"


def test_basis_empty_relation_has_no_ideals():
    b = AbstractBasis(["a", "b"], [[False, False], [False, False]])
    comp = rounded_ideal_completion(b)
    assert comp.ideals == []
    assert comp.image == {"a": None, "b": None}


def test_basis_transitivity_rejected():
    with pytest.raises(NotAnAbstractBasis) as e:
        AbstractBasis(
            ["a", "b", "c"],
            [[False, True, False], [False, False, True], [False, False, False]],
        )
    assert e.value.args[0] == "transitivity"


def test_basis_interpolation_rejected():
    # two incomparable approximants of y with nothing joint below y
    with pytest.raises(NotAnAbstractBasis) as e:
        AbstractBasis(
            ["p", "q", "y"],
            [
                [True, False, True],
                [False, True, True],
                [False, False, False],
            ],
        )
    assert e.value.args[0] == "interpolation"


def test_dyadic_ball_chain_basis_is_rejected():
    # strict radius comparison on a one-point carrier: adjacent radii have no
    # interpolant, so the relation is not an abstract basis
    radii = [Fraction(1, 2**k) for k in range(4)]
    names = [f"(x, {r})" for r in radii]
    matrix = [[ri > rj for rj in radii] for ri in radii]
    with pytest.raises(NotAnAbstractBasis):
        AbstractBasis(names, matrix)


@pytest.mark.parametrize("seed", range(20))
def test_rounded_ideals_subset_enumeration_equals_generators(seed):
    b = random_abstract_basis(6, seed)
    comp = rounded_ideal_completion_by_enumeration(b)
    assert comp.ideals == rounded_ideals_by_generators(b)


@pytest.mark.parametrize("seed", range(20))
def test_way_below_on_below_image_is_prec(seed):
    # way-below of the finite completion (inclusion) restricted to the image
    # of the strictly-below map matches the basis relation, as relations on
    # the image
    b = random_abstract_basis(6, seed)
    comp = rounded_ideal_completion(b)
    present = [e for e in b.elements if comp.image[e] is not None]
    by_inclusion = set()
    by_prec = set()
    for x in present:
        for y in present:
            if comp.below_map[x] <= comp.below_map[y]:
                by_inclusion.add((comp.image[x], comp.image[y]))
            if b.prec(x, y):
                by_prec.add((comp.image[x], comp.image[y]))
    assert by_inclusion == by_prec


def test_rounded_completion_poset_is_continuous_shadow():
    b = AbstractBasis(
        ["a", "b", "c"],
        [
            [True, True, True],
            [False, True, True],
            [False, False, False],
        ],
    )
    comp = rounded_ideal_completion(b)
    assert [sorted(s) for s in comp.ideals] == [["a"], ["a", "b"]]
    assert comp.poset.leq("{a}", "{a,b}")


# ---------------------------------------------------------------------------
# quasi-ideal layering


def test_quasi_ideal_two_layers():
    p = FinitePoset.from_relation(
        ["f1", "f2", "l1", "l2"],
        [("f1", "l1"), ("f1", "l2"), ("f2", "l2")],
    )
    assert quasi_ideal_check(p, ["f1", "f2"]).passed


def test_quasi_ideal_bottom_below_finite_top_fails():
    p = FinitePoset.chain(["bot", "top"])
    report = quasi_ideal_check(p, ["top"])
    assert not report.passed
    assert ("bot", "top") in report.violations


def test_quasi_ideal_powerset_all_finite():
    elems = ["{}", "{1}", "{2}", "{1,2}"]
    pairs = [("{}", "{1}"), ("{}", "{2}"), ("{1}", "{1,2}"), ("{2}", "{1,2}")]
    p = FinitePoset.from_relation(elems, pairs)
    assert quasi_ideal_check(p, elems).passed


# ---------------------------------------------------------------------------
# the strong Choquet game


def test_choquet_single_point():
    p = FinitePoset.from_relation(["x"], [])
    t = choquet_play(p, "seeded", depth=3, seed=1)
    assert t.alpha_won()
    assert t.intersection_u() == frozenset({"x"})


def test_choquet_play_knows_only_the_seeded_challenger():
    p = FinitePoset.chain(["a", "b"])
    assert choquet_play(p, "seeded", 2, 3) == choquet_play(p, depth=2, seed=3)
    for beta in ("random", [("a", ["a", "b"])], lambda turn, inside: ("a", inside)):
        with pytest.raises(QmetError, match="only 'seeded'"):
            choquet_play(p, beta)


def test_choquet_three_chain_exhaustive():
    p = FinitePoset.chain(["a", "b", "c"])
    sweep = verify_all_plays(p, depth=3)
    assert sweep.all_won and sweep.invariants_ok
    assert sweep.total_plays > 0


def test_choquet_transcript_intersections():
    p = FinitePoset.from_relation(["a", "b"], [])
    t = play(p, [("a", ["a", "b"]), ("a", ["a"])])
    assert t.intersections_equal()
    assert t.intersection_u() == frozenset({"a"})
    assert t.alpha_won()
    assert t.converged()


def test_choquet_reply_is_minimal():
    p = FinitePoset.chain(["a", "b", "c"])
    assert alpha_reply(p, "c", frozenset({"a", "b", "c"})) == "a"
    assert alpha_reply(p, "c", frozenset({"b", "c"})) == "b"


def test_choquet_illegal_moves():
    p = FinitePoset.chain(["a", "b"])
    with pytest.raises(IllegalMove):
        play(p, [("a", ["a"])])  # {a} is not up-closed
    with pytest.raises(IllegalMove):
        play(p, [("b", ["b"]), ("a", ["a", "b"])])  # escapes the reply open
    with pytest.raises(IllegalMove):
        play(p, [("a", ["b"])])  # point outside the open


def test_legal_moves_enumeration_is_canonical():
    # opens ordered lexicographically by index tuple, then the point by index
    p = FinitePoset.from_relation(["a", "b"], [])
    moves = legal_beta_moves(p, frozenset({"a", "b"}))
    assert moves == [
        ("a", frozenset({"a"})),
        ("a", frozenset({"a", "b"})),
        ("b", frozenset({"a", "b"})),
        ("b", frozenset({"b"})),
    ]


@pytest.mark.parametrize("n", range(1, 8))
def test_legal_moves_match_subset_enumeration(n):
    for seed in range(3):
        p = random_poset(n, seed)
        opens = up_sets_by_enumeration(p)
        assert p.up_closed_subsets() == opens
        for inside in opens:
            assert legal_beta_moves(p, inside) == legal_beta_moves_by_enumeration(p, inside)


def test_choquet_seeded_determinism():
    p = random_poset(4, 3)
    t1 = choquet_play(p, "seeded", depth=4, seed=11)
    t2 = choquet_play(p, "seeded", depth=4, seed=11)
    assert [(r.x, r.v, r.y) for r in t1.rounds] == [(r.x, r.v, r.y) for r in t2.rounds]


# ---------------------------------------------------------------------------
# DOT export


def test_export_dot_chain():
    text = export_dot(FinitePoset.chain(["a", "b"]))
    assert '"a" -> "b";' in text
    assert text.count("->") == 1


def test_export_dot_antichain():
    text = export_dot(FinitePoset.from_relation(["a", "b"], []))
    assert '"a";' in text and '"b";' in text
    assert "->" not in text


def test_export_dot_empty():
    assert export_dot(FinitePoset.from_relation([], [])) == "digraph { }"


def test_export_dot_skips_transitive_edges():
    text = export_dot(FinitePoset.chain(["a", "b", "c"]))
    assert '"a" -> "c";' not in text


@pytest.mark.parametrize("n", [1, 4, 7, 10])
def test_covers_match_definition(n):
    """a < b with no c strictly between, in element order of a, then b."""
    for seed in range(4):
        p = random_poset(n, seed)
        es = p.elements

        def lt(a, b):
            return a != b and p.leq(a, b)

        want = [
            (a, b) for a in es for b in es
            if lt(a, b) and not any(lt(a, c) and lt(c, b) for c in es)
        ]
        assert p.covers() == want


def test_random_poset_determinism():
    assert random_poset(5, 42).to_json() == random_poset(5, 42).to_json()
