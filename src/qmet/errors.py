"""Exception family shared across the library, and the shape checks that
turn a malformed JSON document into one of them."""

from typing import Optional


class QmetError(Exception):
    """Base class for all library errors."""


class BadInput(QmetError, TypeError):
    """A value of the wrong type: a float or other non-rational where an
    exact rational belongs, or a JSON document that is not an object or
    nests too deeply to read."""


def expect_object(obj, what: str) -> dict:
    """The decoded JSON document, once it is known to be an object."""
    if not isinstance(obj, dict):
        raise BadInput(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def expect_list(obj, what: str, length: Optional[int] = None) -> list:
    """The decoded JSON value, once it is known to be an array (of the
    given length)."""
    if not isinstance(obj, (list, tuple)):
        raise BadInput(f"{what} must be a JSON array, got {type(obj).__name__}")
    if length is not None and len(obj) != length:
        raise BadInput(f"{what} must have {length} entries, got {len(obj)}")
    return obj


def expect_names(obj, what: str) -> list:
    """A JSON array of names: strings or other scalars, never an array or
    an object, which cannot name a point."""
    for name in expect_list(obj, what):
        if isinstance(name, (list, tuple, dict)):
            raise BadInput(f"{what} must be names, got a {type(name).__name__}")
    return obj


def is_square(rows, n: int) -> bool:
    """rows is an n-by-n matrix: an array of n arrays of n entries each."""
    return (
        isinstance(rows, (list, tuple))
        and len(rows) == n
        and all(isinstance(row, (list, tuple)) and len(row) == n for row in rows)
    )


class IndeterminateForm(QmetError):
    """Raised for arithmetic with no defined value, e.g. infinity monus infinity."""


class UnknownPoint(QmetError):
    """A point name not present in the carrier of a space."""


class UnknownElement(QmetError):
    """An element name not present in a poset or basis."""


class NoOracle(QmetError):
    """Valid input the library cannot decide: no way-below rule, or a broken triangle."""


class InvalidSup(QmetError):
    """The supplied ball is not the least upper bound of the family."""


class NotAPartialOrder(QmetError):
    """A relation failed reflexivity, antisymmetry or transitivity."""


class NotAnAbstractBasis(QmetError):
    """A strict relation failed transitivity or interpolation.

    Carries the violated instance in ``args[1]`` as
    ``("transitivity", (a, b, c))`` or ``("interpolation", (members, y))``,
    the members of the subset in basis order.  A malformed document
    (wrong kind, duplicate names, shape mismatch) is a plain ``QmetError``.
    """


class IllegalMove(QmetError):
    """A game move violated the containment rules."""
