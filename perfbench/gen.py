"""Seeded raw-input generators and brute-force references for the benchmark.

Everything here produces plain data: value lists, distance matrices as
strings, relation pairs, JSON-ready dicts.  Raw distances are ``Fraction``
or ``None`` for infinity.  The workloads turn that data into
library objects inside the timed region, so no library object outlives a
task.  The brute-force helpers recompute distances and the ball order from
the raw data with plain ``Fraction`` arithmetic; the result checks use them
as a route independent of the library.

Nothing here imports from the repository's ``tests/``.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Later changes confirm a claimed gain on this seed, which no tuning run uses.
HELD_OUT_SEED = 20160617

QUARTER_STEPS = [1, 2, 3, 4, 6, 8]  # off-diagonal table entries, in quarters


def rng_for(seed: int, *labels) -> random.Random:
    """A generator that depends only on the seed and the labels.

    String seeds are hashed with SHA-512 by ``random``, so the stream does
    not depend on ``PYTHONHASHSEED``.
    """
    return random.Random(":".join([str(seed)] + [str(x) for x in labels]))


# ---------------------------------------------------------------------------
# Spaces as JSON documents


def quasi_metric_table(rng: random.Random, n: int, symmetric: bool, inf_rate=0.2) -> dict:
    """A random n-point quasi-metric table, closed by one Floyd-Warshall pass.

    Entries are drawn in quarters (or infinite) and closed under min-plus
    composition on ints, which enforces the triangle inequality in O(n^3)
    while keeping every off-diagonal entry positive.
    """
    big = 1 << 60
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                d[i][j] = big if rng.random() < inf_rate else rng.choice(QUARTER_STEPS)
    if symmetric:
        for i in range(n):
            for j in range(i + 1, n):
                d[j][i] = d[i][j]
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik >= big:
                continue
            di = d[i]
            for j in range(n):
                s = dik + dk[j]
                if s < di[j]:
                    di[j] = s
    dist = [["inf" if v >= big else str(Fraction(v, 4)) for v in row] for row in d]
    return {"kind": "finite_table", "points": [f"p{i}" for i in range(n)], "dist": dist}


def distinct_rationals(rng: random.Random, n: int, denom: int, span: int) -> list:
    """n distinct rationals k/denom with 0 <= k < span * denom, sorted."""
    ks = rng.sample(range(span * denom), n)
    return sorted(Fraction(k, denom) for k in ks)


def sorgenfrey_grid(rng: random.Random, n: int) -> dict:
    vals = distinct_rationals(rng, n, 8, max(2, n // 2))
    return {"kind": "sorgenfrey_grid", "values": [str(v) for v in vals]}


def real_grid(rng: random.Random, n: int, with_inf: bool) -> dict:
    m = n - 1 if with_inf else n
    vals = [str(v) for v in distinct_rationals(rng, m, 4, max(2, m // 2))]
    if with_inf:
        vals.append("inf")
    return {"kind": "real_grid", "values": vals}


def skewed_interval(rng: random.Random, n: int) -> dict:
    a = rng.choice([Fraction(1), Fraction(3, 2), Fraction(2)])
    inner = sorted(rng.sample(range(1, 16), n - 2))
    vals = [Fraction(0)] + [Fraction(k, 16) for k in inner] + [Fraction(1)]
    return {"kind": "skewed_interval", "a": str(a), "values": [str(v) for v in vals]}


def tailed_sorgenfrey(rng: random.Random, n: int) -> dict:
    a = Fraction(rng.randint(1, 4), 2)
    b = Fraction(rng.randint(1, 4), 2)
    c = Fraction(rng.randint(0, int(2 * (a + b))), 2)
    inner = sorted(rng.sample(range(1, 32), n - 3))
    vals = [Fraction(k, 32) for k in inner] + [Fraction(1)]
    return {
        "kind": "tailed_sorgenfrey",
        "a": str(a),
        "b": str(b),
        "c": str(c),
        "values": [str(v) for v in vals],
    }


def closure_rows(n: int, pairs) -> list:
    """Reflexive-transitive closure of index pairs as bitmask rows."""
    rows = [1 << i for i in range(n)]
    for a, b in pairs:
        rows[a] |= 1 << b
    for k in range(n):
        for i in range(n):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    return rows


def random_order_pairs(rng: random.Random, n: int, density: float) -> list:
    """Generating pairs (i, j) of a random partial order on range(n)."""
    order = list(range(n))
    rng.shuffle(order)
    return [
        (order[a], order[b])
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < density
    ]


def poset_doc(n: int, pairs) -> dict:
    rows = closure_rows(n, pairs)
    return {
        "kind": "poset",
        "elements": [f"e{i}" for i in range(n)],
        "leq": [[bool(rows[i] >> j & 1) for j in range(n)] for i in range(n)],
    }


def poset_space(rng: random.Random, n: int) -> dict:
    return poset_doc(n, random_order_pairs(rng, n, rng.choice([0.2, 0.3, 0.4])))


def basis_doc(rng: random.Random, n: int) -> dict:
    """A random poset with self-relatedness stripped from a random subset.

    Not every such relation interpolates; ``workloads.common.basis_doc``
    validates with the library and draws again.
    """
    rows = closure_rows(n, random_order_pairs(rng, n, rng.choice([0.3, 0.4, 0.5])))
    strip = {i for i in range(n) if rng.random() < 0.5}
    return {
        "kind": "basis",
        "elements": [f"b{i}" for i in range(n)],
        "prec": [
            [bool(rows[i] >> j & 1) and not (i == j and i in strip) for j in range(n)]
            for i in range(n)
        ],
    }


SPACE_MAKERS = {
    "table": lambda rng, n: quasi_metric_table(rng, n, symmetric=False),
    "metric_table": lambda rng, n: quasi_metric_table(rng, n, symmetric=True),
    "real": lambda rng, n: real_grid(rng, n, with_inf=False),
    "real_inf": lambda rng, n: real_grid(rng, n, with_inf=True),
    "sorgenfrey": sorgenfrey_grid,
    "poset": poset_space,
    "skewed": skewed_interval,
    "tailed": tailed_sorgenfrey,
}

# Kinds with a registered closed-form way-below rule (v_relation, smyth_probe
# and build_model need one).
ORACLE_KINDS = ("metric_table", "real", "real_inf", "sorgenfrey", "poset")


# ---------------------------------------------------------------------------
# Brute-force references on raw documents


def _value(text: str):
    return None if text == "inf" else Fraction(text)


def point_names(doc: dict) -> list:
    kind = doc["kind"]
    if kind == "finite_table":
        return list(doc["points"])
    if kind == "poset":
        return list(doc["elements"])
    vals = [v if v == "inf" else str(Fraction(v)) for v in doc["values"]]
    if kind == "tailed_sorgenfrey":
        vals = ["-2", "-1"] + vals
    return vals


def raw_dist(doc: dict) -> list:
    """The distance matrix of a space document, Fraction or None for inf,
    computed from the definitions without the library."""
    kind = doc["kind"]
    if kind == "finite_table":
        return [[_value(v) for v in row] for row in doc["dist"]]
    if kind == "poset":
        return [[Fraction(0) if le else None for le in row] for row in doc["leq"]]
    vals = [_value(v) for v in doc["values"]]
    if kind == "real_grid":
        def d(x, y):
            if x is None:
                return Fraction(0) if y is None else None
            if y is None:
                return Fraction(0)
            return x - y if x > y else Fraction(0)
    elif kind == "sorgenfrey_grid":
        def d(x, y):
            return y - x if x <= y else None
    elif kind == "skewed_interval":
        a = Fraction(doc["a"])

        def d(x, y):
            if x == y or y == 0:
                return Fraction(0)
            return a if x == 0 else abs(x - y)
    elif kind == "tailed_sorgenfrey":
        a, b, c = (Fraction(doc[k]) for k in "abc")
        vals = [Fraction(-2), Fraction(-1)] + vals

        def d(x, y):
            if x == y:
                return Fraction(0)
            if x > y:
                return None
            if x > 0:
                return y - x
            if x == -1:
                return a if y == 1 else None
            if y == -1:
                return b
            return c if y == 1 else None
    else:
        raise ValueError(f"no brute-force distance for kind {kind!r}")
    return [[d(x, y) for y in vals] for x in vals]


def leq_plus(dist, i: int, r: Fraction, j: int, s: Fraction) -> bool:
    """(x_i, r) <= (x_j, s) iff d(x_i, x_j) <= r - s."""
    d = dist[i][j]
    return d is not None and r >= s and d <= r - s


def up_closure(dist, members) -> set:
    """Smallest superset closed upward for the specialization order."""
    out = set(members)
    todo = list(out)
    while todo:
        i = todo.pop()
        for j, d in enumerate(dist[i]):
            if d == 0 and j not in out:
                out.add(j)
                todo.append(j)
    return out


def dyadic_radii(depth: int) -> list:
    """The radius grid 0, 1, 1/2, ..., 2^-depth used by ``qm order``."""
    return [Fraction(0)] + [Fraction(1, 2**k) for k in range(depth + 1)]
