from fractions import Fraction

import pytest

from qmet.posets import FinitePoset
from qmet.spaces import (
    FiniteTableSpace,
    PosetSpace,
    RealGridSpace,
    SkewedIntervalSpace,
    SorgenfreyGridSpace,
    TailedSorgenfreySpace,
    parse_point_value,
)


def dyadics(depth):
    return [Fraction(0)] + [Fraction(1, 2**k) for k in range(depth + 1)]


@pytest.fixture
def metric_line4():
    return FiniteTableSpace.metric_line(range(4))


@pytest.fixture
def metric_line8():
    return FiniteTableSpace.metric_line(range(8))


@pytest.fixture
def real_grid_inf():
    return RealGridSpace([parse_point_value(s) for s in ["0", "1/2", "1", "inf"]])


@pytest.fixture
def real_grid_finite():
    return RealGridSpace([parse_point_value(s) for s in ["0", "1/2", "1", "2"]])


@pytest.fixture
def sorgenfrey4():
    return SorgenfreyGridSpace([0, 1, 2, 3])


@pytest.fixture
def diamond_space():
    p = FinitePoset.from_relation(
        ["bot", "l", "r", "top"],
        [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
    )
    return PosetSpace(p)


@pytest.fixture
def skewed_unit():
    return SkewedIntervalSpace(1, [Fraction(0), Fraction(1, 3), Fraction(1)])


@pytest.fixture
def tailed_standard():
    grid = [Fraction(1) - Fraction(1, 2 ** (n + 1)) for n in range(9)] + [Fraction(1)]
    return TailedSorgenfreySpace(1, 1, 1, grid)


def random_table_space(n, seed, symmetric=False):
    """A random n-point quasi-metric table, deterministic in the seed.

    Draws positive off-diagonal entries (possibly infinite) and closes them
    under min-plus composition, which enforces the triangle inequality while
    keeping every off-diagonal entry positive.
    """
    import random as _random

    from qmet.extreal import INF, ZERO, ExtReal

    rng = _random.Random(seed)
    choices = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), None]
    n_points = [f"p{i}" for i in range(n)]
    entry = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            pick = choices[rng.randrange(len(choices))]
            entry[i][j] = INF if pick is None else ExtReal(pick)
    if symmetric:
        for i in range(n):
            for j in range(i + 1, n):
                entry[j][i] = entry[i][j]
    for _ in range(n):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    entry[i][k] = min(entry[i][k], entry[i][j] + entry[j][k])
    return FiniteTableSpace(n_points, entry)


def is_symmetric(space):
    """d(x, y) = d(y, x) on every pair, read off the space's int rows."""
    rows = space._ints[1]
    return all(rows[i][j] == rows[j][i] for i in range(len(rows)) for j in range(i))
