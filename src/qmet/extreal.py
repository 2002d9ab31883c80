"""Exact arithmetic on the extended non-negative rationals.

Every distance handled by this library is a value of this module: either a
non-negative rational in canonical form (a ``fractions.Fraction``) or the
absorbing top element ``INF``.  There is no floating point anywhere; exactness
is what makes the order-theoretic checks in the rest of the package decisive.

Text form: ``"p/q"`` with the denominator omitted when it is 1, or ``"inf"``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence, Union

from .errors import BadInput, IndeterminateForm

RationalLike = Union[int, Fraction, str]

LESS = -1
EQUAL = 0
GREATER = 1


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce to an exact Fraction, rejecting floats and zero denominators
    outright."""
    if isinstance(value, bool) or isinstance(value, float):
        raise BadInput(f"exact rational required, got {type(value).__name__}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise BadInput(f"zero denominator in {value!r}") from None
    raise BadInput(f"cannot interpret {value!r} as a rational")


class ExtReal:
    """A non-negative rational or infinity, totally ordered.

    Values are immutable.  Addition treats infinity as absorbing, and
    multiplication uses the Scott-continuous convention 0 * inf = 0, which is
    what makes inf-convolutions with slope 0 collapse to a minimum.
    """

    __slots__ = ("_frac",)

    def __init__(self, value: RationalLike = 0):
        frac = as_fraction(value)
        if frac < 0:
            raise ValueError(f"negative value not representable: {frac}")
        self._frac = frac

    @classmethod
    def _infinite(cls) -> "ExtReal":
        obj = object.__new__(cls)
        obj._frac = None
        return obj

    @classmethod
    def parse(cls, text: str) -> "ExtReal":
        """Inverse of str(): accepts "p/q" or "inf"."""
        if text.strip() == "inf":
            return INF
        return cls(text.strip())

    @property
    def is_finite(self) -> bool:
        return self._frac is not None

    @property
    def is_infinite(self) -> bool:
        return self._frac is None

    def as_fraction(self) -> Fraction:
        if self._frac is None:
            raise IndeterminateForm("infinity has no fraction form")
        return self._frac

    def __eq__(self, other) -> bool:
        if isinstance(other, ExtReal):
            return self._frac == other._frac
        if isinstance(other, (int, Fraction)):
            return self._frac == other
        return NotImplemented

    def __hash__(self):  # equal to an int or Fraction, so hashed as one
        return hash(self._frac)

    def _cmp(self, other: "ExtReal") -> int:
        a, b = self._frac, other._frac
        if a is None and b is None:
            return EQUAL
        if a is None:
            return GREATER
        if b is None:
            return LESS
        if a < b:
            return LESS
        if a > b:
            return GREATER
        return EQUAL

    def __lt__(self, other):
        return self._cmp(_coerce(other)) == LESS

    def __le__(self, other):
        return self._cmp(_coerce(other)) != GREATER

    def __gt__(self, other):
        return self._cmp(_coerce(other)) == GREATER

    def __ge__(self, other):
        return self._cmp(_coerce(other)) != LESS

    def __add__(self, other):
        other = _coerce(other)
        if self._frac is None or other._frac is None:
            return INF
        return ExtReal(self._frac + other._frac)

    __radd__ = __add__

    def __mul__(self, other):
        other = _coerce(other)
        if self._frac == 0 or other._frac == 0:
            return ExtReal(0)
        if self._frac is None or other._frac is None:
            return INF
        return ExtReal(self._frac * other._frac)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return "inf" if self._frac is None else str(self._frac)

    def __repr__(self) -> str:
        return f"ExtReal({str(self)!r})"


INF = ExtReal._infinite()

ZERO = ExtReal(0)


def _coerce(value) -> ExtReal:
    if isinstance(value, ExtReal):
        return value
    return ExtReal(value)


def ext(value) -> ExtReal:
    """Public coercion helper: ints, Fractions, "p/q" strings, "inf"."""
    if isinstance(value, ExtReal):
        return value
    if isinstance(value, str):
        return ExtReal.parse(value)
    return ExtReal(value)


def int_scale(values: Sequence) -> tuple[int, list]:
    """(D, ints): D is the lcm of the denominators of the finite values, and
    ints[k] is values[k] * D as an int.  A value is an ExtReal, whose inf
    becomes None, or a signed Fraction; any other value (a marker such as
    the point inf of the real line) passes through.  Compares and sums of
    values brought to one such scale are exact int operations."""
    fracs = [v._frac if type(v) is ExtReal else v for v in values]
    den = lcm(*(f.denominator for f in fracs if type(f) is Fraction))
    return den, [f.numerator * (den // f.denominator) if type(f) is Fraction else f
                 for f in fracs]


def compare(a, b) -> int:
    """Exact three-way comparison: LESS, EQUAL or GREATER."""
    return _coerce(a)._cmp(_coerce(b))


def monus(a, b) -> ExtReal:
    """Truncated subtraction max(a - b, 0) on the extended line.

    inf monus finite is inf, finite monus inf is 0; inf monus inf has no
    sensible value and raises IndeterminateForm.  Radii of formal balls are
    always finite, so ball arithmetic never hits the error case.
    """
    a, b = _coerce(a), _coerce(b)
    if a._frac is None and b._frac is None:
        raise IndeterminateForm("inf monus inf")
    if a._frac is None:
        return INF
    if b._frac is None:
        return ZERO
    diff = a._frac - b._frac
    return ExtReal(diff) if diff > 0 else ZERO
