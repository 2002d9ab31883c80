"""structures: completions, Choquet games and quasi-ideal models.

Why this workload: it is bitmask and subset work in ``posets`` and ``qideal``
with little ``ExtReal`` arithmetic.  Building completions and model checks
from generators and bitmasks acts here; a ball-grid kernel should barely
move it (only through ``build_model``'s order test).

Tasks: ``ideal_completion`` (n <= 12) and ``rounded_ideal_completion``
(n <= 10) with their default bounds, ``verify_all_plays`` (n = 6 to 12,
depth 4 to 6), seeded ``choquet_play``, and ``build_model`` followed by
``quasi_ideal_model_check`` and ``limit_layer`` on poset, Sorgenfrey and
real-grid spaces of 8 to 24 points at depth 3 to 5.
"""

from __future__ import annotations

from qmet import posets, qideal, spaces

import gen
from .common import basis_doc, checked_space, require

NAME = "structures"

# (task, size, depth); heavy model tasks are spread through the cycle.  The
# cycle length is an odd multiple of 5 (see workloads/__init__.py).
SCHEDULE = [
    ("idl", 10, 0), ("model:poset", 12, 4), ("sweep", 8, 5), ("rideal", 8, 0),
    ("play", 12, 6), ("model:sorgenfrey", 20, 3), ("idl", 12, 0), ("sweep", 12, 4),
    ("rideal", 10, 0), ("model:real", 8, 5), ("play", 9, 4), ("sweep", 6, 6),
    ("idl", 9, 0), ("model:poset", 16, 4), ("sweep", 9, 5),
    ("idl", 8, 0), ("model:poset", 24, 3), ("rideal", 6, 0), ("sweep", 10, 5),
    ("rideal", 9, 0), ("play", 10, 5),
    ("model:real", 16, 4), ("play", 7, 5), ("idl", 11, 0), ("model:sorgenfrey", 10, 5),
]
# Denser orders for larger posets keep the number of up-sets, which the
# Choquet sweep enumerates per state, in the hundreds.
DENSITY = {6: 0.3, 7: 0.3, 8: 0.35, 9: 0.4, 10: 0.45, 11: 0.5, 12: 0.5}


def _relation(rng, n):
    pairs = gen.random_order_pairs(rng, n, DENSITY[n])
    elements = [f"e{i}" for i in range(n)]
    return elements, [(elements[a], elements[b]) for a, b in pairs]


def make_pool(seed: int, workdir) -> list:
    pool = []
    for i, (what, n, depth) in enumerate(SCHEDULE):
        rng = gen.rng_for(seed, NAME, i)
        task = {"what": what, "n": n, "depth": depth}
        if what.startswith("model:"):
            kind = what.split(":")[1]
            task["doc"] = gen.SPACE_MAKERS[kind](rng, n)
            checked_space(task["doc"])
        elif what == "rideal":
            task["basis"] = basis_doc(rng, n, valid=True)
        else:
            task["elements"], task["pairs"] = _relation(rng, n)
            task["seed"] = rng.randrange(1 << 30)
        pool.append(task)
    return pool


def run(task):
    what = task["what"]
    if what == "rideal":
        basis = posets.AbstractBasis.from_json(task["basis"])
        return basis, posets.rounded_ideal_completion(basis)
    if what.startswith("model:"):
        space = spaces.space_from_json(task["doc"])
        model = qideal.build_model(space, task["depth"])
        return model, qideal.quasi_ideal_model_check(model), qideal.limit_layer(model)
    p = posets.FinitePoset.from_relation(task["elements"], task["pairs"])
    if what == "idl":
        return p, posets.ideal_completion(p)
    if what == "sweep":
        return p, posets.verify_all_plays(p, depth=task["depth"])
    return p, posets.choquet_play(p, "seeded", depth=task["depth"], seed=task["seed"])


def check(task, result) -> str:
    what = task["what"]
    if what == "rideal":
        basis, completion = result
        want = set(posets.rounded_ideals_by_generators(basis))
        require(set(completion.ideals) == want, "rounded ideals differ from the generator route")
        return f"rideal:{len(completion.ideals)}"
    if what.startswith("model:"):
        model, report, limit = result
        require(report.passed, f"model check fails: {report}")
        dist = gen.raw_dist(task["doc"])
        names = gen.point_names(task["doc"])
        for i, x in enumerate(names):
            for j, y in enumerate(names):
                require(
                    limit.leq(x, y) == (dist[i][j] == 0),
                    f"limit layer disagrees with the specialization order at {x}, {y}",
                )
        return f"model:{len(model.elements)}:{report.longest_finite_chain}"
    p, out = result
    if what == "idl":
        n = len(task["elements"])
        index = {e: i for i, e in enumerate(task["elements"])}
        pairs = [(index[a], index[b]) for a, b in task["pairs"]]
        rows = gen.closure_rows(n, pairs)
        principal = {
            frozenset(task["elements"][i] for i in range(n) if rows[i] >> j & 1)
            for j in range(n)
        }
        require(set(out.ideals) == principal, "ideals are not the principal ideals")
        return f"idl:{len(out.ideals)}"
    if what == "sweep":
        require(out.all_won and out.invariants_ok, f"Choquet sweep fails: {out}")
        return f"sweep:{out.total_plays}:{out.states_seen}"
    require(out.alpha_won() and out.intersections_equal(), "seeded Choquet play lost")
    return "play:" + ",".join(r.y for r in out.rounds)
