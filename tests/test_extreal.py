from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qmet.errors import IndeterminateForm
from qmet.extreal import EQUAL, GREATER, INF, LESS, ExtReal, compare, ext, monus

rationals = st.fractions(min_value=0, max_value=10**6)
values = st.one_of(rationals.map(ExtReal), st.just(INF))


def test_monus_basic():
    assert monus(5, 3) == ExtReal(2)
    assert monus(3, 5) == ExtReal(0)
    assert monus(INF, 7) == INF


def test_monus_indeterminate():
    with pytest.raises(IndeterminateForm):
        monus(INF, INF)


def test_monus_finite_by_infinite_truncates():
    assert monus(3, INF) == ExtReal(0)


def test_compare():
    assert compare(Fraction(1, 3), Fraction(1, 2)) == LESS
    assert compare(INF, INF) == EQUAL
    assert compare(INF, 10**9) == GREATER


def test_infinity_is_greatest():
    assert ExtReal("1000000000000") < INF
    assert INF <= INF


def test_no_floats():
    with pytest.raises(TypeError):
        ExtReal(0.5)
    with pytest.raises(TypeError):
        monus(ExtReal(1), 0.25)


def test_negative_rejected():
    with pytest.raises(ValueError):
        ExtReal(Fraction(-1, 2))


def test_addition_absorbs_infinity():
    assert ExtReal(3) + INF == INF
    assert INF + INF == INF


def test_multiplication_convention():
    # Scott-continuous product: zero annihilates even the top element
    assert ExtReal(0) * INF == ExtReal(0)
    assert Fraction(2) * INF == INF
    assert ExtReal(Fraction(2, 3)) * ExtReal(Fraction(3, 2)) == ExtReal(1)


@given(rationals, rationals)
def test_monus_is_truncated_subtraction(a, b):
    assert monus(a, b) == ExtReal(max(a - b, Fraction(0)))


@given(rationals, rationals, rationals)
def test_monus_shift_cancellation(a, b, c):
    assert monus(a + c, b + c) == monus(a, b)


@given(rationals, rationals)
def test_monus_zero_iff_leq(a, b):
    assert (monus(a, b) == ExtReal(0)) == (a <= b)


@given(values)
def test_parse_print_round_trip(v):
    assert ExtReal.parse(str(v)) == v


@given(values, values, values)
def test_total_order(a, b, c):
    assert compare(a, b) in (LESS, EQUAL, GREATER)
    assert compare(a, b) == -compare(b, a)
    if a <= b and b <= c:
        assert a <= c


def test_ext_coercion():
    assert ext("7/4") == ExtReal(Fraction(7, 4))
    assert ext("inf") == INF
    assert ext(Fraction(1, 3)) == ExtReal(Fraction(1, 3))


def test_repr_and_str():
    assert str(ExtReal(Fraction(9, 10))) == "9/10"
    assert str(ExtReal(5)) == "5"
    assert str(INF) == "inf"


@given(rationals)
@example(Fraction(0))
@example(Fraction(1))
def test_equal_values_hash_equal(q):
    """An ExtReal equal to an int or a Fraction hashes as it does, so that
    sets and dict keys treat them as one value."""
    v = ExtReal(q)
    assert v == q and hash(v) == hash(q)
    assert len({v, q}) == 1 and q in {v}
    if q.denominator == 1:
        assert v == int(q) and hash(v) == hash(int(q)) and int(q) in {v}
    assert hash(ExtReal(str(q))) == hash(v)
    assert hash(ext("inf")) == hash(INF) and len({INF, ext("inf"), v}) == 2
