"""Helpers shared by the workload modules."""

from __future__ import annotations

from fractions import Fraction

from qmet import posets, spaces
from qmet.errors import NotAnAbstractBasis

import gen


class CheckFailed(Exception):
    """A task's result disagrees with the benchmark's independent check."""


def require(condition, message: str):
    if not condition:
        raise CheckFailed(message)


def checked_space(doc: dict):
    """Build a generated space once at set-up and insist on the axioms."""
    space = spaces.space_from_json(doc)
    report = spaces.check_axioms(space)
    if not report.passed:
        raise CheckFailed(f"generated {doc['kind']} space breaks the axioms")
    return space


def frac_or_inf(ext_value):
    """An ExtReal as a Fraction, or None for infinity."""
    return ext_value.as_fraction() if ext_value.is_finite else None


def ball_literal(name: str, radius: Fraction) -> str:
    return f"({name}, {radius})"


def basis_doc(rng, n: int, valid: bool) -> dict:
    """A basis document that the library accepts (or, with ``valid=False``,
    rejects), drawing again until it does, as ``posets.random_abstract_basis``
    does."""
    while True:
        doc = gen.basis_doc(rng, n)
        try:
            posets.AbstractBasis.from_json(doc)
        except NotAnAbstractBasis:
            if not valid:
                return doc
            continue
        if valid:
            return doc
