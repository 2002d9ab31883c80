"""point_queries: interactive query sessions, one fresh small space each.

Why this workload: it calls ``balls`` one query at a time and never enters a
sweep, so a ball-grid kernel is bypassed while per-kind dispatch
(``isinstance`` chains in ``way_below``, ``v_relation`` and the refuter) and
the first-query cost of any per-space cache, such as a cached axiom check,
show in full.  It also covers ``lipschitz``.

Each task builds one space of 4 to 16 points, drawn from all six space kinds
(asymmetric tables included), and runs a seeded batch of queries on it:
way-below claims that mix holds, refuted and unknown; ``dplus``;
``v_relation`` and ``center_point_check`` where an oracle exists; one
``standardness_probe`` (geometric on skewed intervals, a finite chain
elsewhere); and ``lipschitz_check``, ``envelope``, ``thinning`` and
``dist_to_complement`` on an open set.
"""

from __future__ import annotations

import json
from fractions import Fraction

from qmet import balls, lipschitz, spaces

import gen
from .common import ball_literal, checked_space, frac_or_inf, require

NAME = "point_queries"

# (space kind, points); every kind of the library appears, tables twice.
# SCHEDULE * VARIANTS is an odd multiple of 5 (see workloads/__init__.py).
SCHEDULE = [
    ("table", 6), ("sorgenfrey", 10), ("poset", 8), ("skewed", 5),
    ("real_inf", 12), ("tailed", 7), ("metric_table", 9), ("real", 4),
    ("table", 14), ("skewed", 11), ("poset", 16), ("sorgenfrey", 5),
    ("tailed", 13), ("metric_table", 16), ("real_inf", 6),
]
VARIANTS = 3  # inputs per schedule entry in a cycle; more content, steadier sums
CLAIMS = 8
DPLUS_PAIRS = 6
V_PAIRS = 4
RADII = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1),
         Fraction(3, 2), Fraction(2), Fraction(3)]
F_VALUES = ["0", "1/4", "1/2", "1", "2", "3", "inf"]
LIFT_RADII = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]


def _strict_pair(rng, dist, names):
    """A claim (x, r), (y, s) with d(x, y) < r - s, so that an oracle can
    answer holds."""
    j = rng.randrange(len(names))
    s = rng.choice(RADII[:4])
    near = [i for i in range(len(names)) if dist[i][j] is not None]
    i = rng.choice(near)
    r = dist[i][j] + s + rng.choice([Fraction(1, 8), Fraction(1, 2), Fraction(1)])
    return ball_literal(names[i], r), ball_literal(names[j], s)


def _random_pair(rng, names):
    return (
        ball_literal(rng.choice(names), rng.choice(RADII)),
        ball_literal(rng.choice(names), rng.choice(RADII)),
    )


def _chain_family(rng, dist, names):
    """A directed (chain) family whose top member is its least upper bound."""
    i = rng.randrange(len(names))
    r = Fraction(rng.randint(4, 8))
    members = [(i, r)]
    for _ in range(rng.randint(1, 3)):
        i0, r0 = members[-1]
        if r0 < Fraction(1, 4):
            break
        steps = [
            j for j in range(len(names))
            if dist[i0][j] is not None and dist[i0][j] <= r0 - Fraction(1, 4)
        ]
        j = rng.choice(steps)
        room = r0 - dist[i0][j]  # at least 1/4
        members.append((j, room - Fraction(rng.randint(0, min(2, int(4 * room))), 4)))
    return [ball_literal(names[k], rad) for k, rad in members]


def _make_task(seed: int, i: int, kind: str, n: int) -> dict:
    rng = gen.rng_for(seed, NAME, i)
    doc = gen.SPACE_MAKERS[kind](rng, n)
    checked_space(doc)
    dist = gen.raw_dist(doc)
    names = gen.point_names(doc)
    claims = [
        _strict_pair(rng, dist, names) if k % 2 else _random_pair(rng, names)
        for k in range(CLAIMS)
    ]
    if kind == "skewed":
        probe = {"family": "geometric", "sup": "(0, 0)"}
    else:
        chain = _chain_family(rng, dist, names)
        probe = {"family": chain, "sup": chain[-1]}
    probe["shift"] = rng.choice(["1/4", "1/2", "1"])
    seeds = rng.sample(range(n), rng.randint(1, max(1, n // 2)))
    open_set = sorted(gen.up_closure(dist, seeds))
    return {
        "kind": kind,
        "doc": doc,
        "claims": claims,
        "dplus": [_random_pair(rng, names) for _ in range(DPLUS_PAIRS)],
        "v_pairs": [(rng.choice(names), rng.choice(names)) for _ in range(V_PAIRS)],
        "centers": rng.sample(names, 2),
        "probe": probe,
        "f": {p: rng.choice(F_VALUES) for p in names},
        "alpha": rng.choice(["0", "1/2", "1", "2"]),
        "open": [names[k] for k in open_set],
        "thin_r": rng.choice(["0", "1/4", "1", "2"]),
        "dist_points": rng.sample(names, 2),
    }


def make_pool(seed: int, workdir) -> list:
    return [_make_task(seed, i, kind, n) for i, (kind, n) in enumerate(SCHEDULE * VARIANTS)]


def run(task):
    space = spaces.space_from_json(task["doc"])
    out = {"space": space}
    out["wb"] = [
        balls.way_below(space, balls.parse_ball(a), balls.parse_ball(b), depth=6)
        for a, b in task["claims"]
    ]
    out["dplus"] = [
        balls.dplus(space, balls.parse_ball(a), balls.parse_ball(b))
        for a, b in task["dplus"]
    ]
    if task["kind"] in gen.ORACLE_KINDS:
        out["v"] = [balls.v_relation(space, x, y) for x, y in task["v_pairs"]]
        out["centers"] = [balls.center_point_check(space, x) for x in task["centers"]]
    probe = task["probe"]
    if probe["family"] == "geometric":
        family = balls.GeometricBallFamily(space, 0)
    else:
        family = [balls.parse_ball(b) for b in probe["family"]]
    out["standard"] = balls.standardness_probe(
        space, family, balls.parse_ball(probe["sup"]), Fraction(probe["shift"])
    )
    f = lipschitz.LscFunction(space, task["f"])
    alpha = Fraction(task["alpha"])
    u = lipschitz.OpenSet(space, task["open"])
    out["lipschitz"] = lipschitz.lipschitz_check(space, f, alpha)
    out["envelope"] = lipschitz.envelope(space, f, alpha)
    out["thin"] = lipschitz.thinning(space, u, Fraction(task["thin_r"]))
    out["dist"] = [lipschitz.dist_to_complement(space, x, u) for x in task["dist_points"]]
    return out


def _replays(witness_cls, witness, space) -> bool:
    """Serialize the witness and the space, read both back, replay."""
    text = json.dumps({"space": space.to_json(), **witness.to_json()})
    obj = json.loads(text)
    return witness_cls.from_json(obj).replay(spaces.space_from_json(obj["space"]))


def _times(alpha: Fraction, d):
    """alpha * d with 0 * inf = 0; None is infinity."""
    if alpha == 0:
        return Fraction(0)
    return None if d is None else alpha * d


def _plus(a, b):
    return None if a is None or b is None else a + b


def _le(a, b) -> bool:
    return b is None or (a is not None and a <= b)


def check(task, result) -> str:
    space = result["space"]
    dist = gen.raw_dist(task["doc"])
    names = gen.point_names(task["doc"])
    idx = {p: i for i, p in enumerate(names)}
    fp = []

    for (a, b), verdict in zip(task["claims"], result["wb"]):
        b1, b2 = balls.parse_ball(a), balls.parse_ball(b)
        if verdict.is_holds:
            require(
                gen.leq_plus(dist, idx[b1.center], b1.radius, idx[b2.center], b2.radius),
                f"way_below holds for {a} << {b} but {a} <= {b} fails",
            )
        if verdict.is_refuted:
            require(
                _replays(balls.WayBelowWitness, verdict.witness, space),
                f"refutation of {a} << {b} does not replay",
            )
        fp.append(verdict.status[0])

    for (a, b), got in zip(task["dplus"], result["dplus"]):
        b1, b2 = balls.parse_ball(a), balls.parse_ball(b)
        d = dist[idx[b1.center]][idx[b2.center]]
        want = None if d is None else max(d + b2.radius - b1.radius, Fraction(0))
        require(frac_or_inf(got) == want, f"dplus({a}, {b}) = {got}, expected {want}")

    if "v" in result:
        for (x, y), v in zip(task["v_pairs"], result["v"]):
            require(
                _le(dist[idx[x]][idx[y]], frac_or_inf(v)),
                f"v({x}, {y}) = {v} lies below d({x}, {y})",
            )
            fp.append(str(v))
        fp.extend("c" if c else "n" for c in result["centers"])

    verdict = result["standard"]
    if verdict.is_refuted:
        require(
            _replays(balls.StandardnessWitness, verdict.witness, space),
            "standardness refutation does not replay",
        )
    fp.append("s" + verdict.status[0])

    f = {p: (None if v == "inf" else Fraction(v)) for p, v in task["f"].items()}
    alpha = Fraction(task["alpha"])

    def drop(x, y):  # how far f(x) sits above f(y)
        fx, fy = f[x], f[y]
        if _le(fx, fy):
            return Fraction(0)
        return None if fx is None else fx - fy

    slope_ok = all(
        _le(drop(x, y), _times(alpha, dist[idx[x]][idx[y]])) for x in names for y in names
    )
    # (x, r) <=+ (y, s) must give f(x) dropping to f(y) by at most alpha (r - s),
    # on lipschitz_check's default radius grid
    lift_ok = all(
        _le(drop(x, y), alpha * (r - s))
        for x in names for y in names for r in LIFT_RADII for s in LIFT_RADII
        if r >= s and _le(dist[idx[x]][idx[y]], r - s)
    )
    report = result["lipschitz"]
    require(report.passed == slope_ok, "lipschitz_check disagrees with the slope bound")
    require(report.lift_monotone == lift_ok, "lipschitz_check disagrees on the ball lift")

    env = result["envelope"]
    for x in names:
        terms = [_plus(f[y], _times(alpha, dist[idx[x]][idx[y]])) for y in names]
        finite = [t for t in terms if t is not None]
        want = min(finite) if finite else None
        require(frac_or_inf(env(x)) == want, f"envelope at {x} is {env(x)}, expected {want}")

    u = set(task["open"])
    r = Fraction(task["thin_r"])
    want_thin = {
        x for x in names
        if all(y in u for y in names if _le(dist[idx[x]][idx[y]], r))
    }
    require(set(result["thin"].members) == want_thin, "thinning disagrees with brute force")

    for x, got in zip(task["dist_points"], result["dist"]):
        outside = [dist[idx[x]][idx[y]] for y in names if y not in u]
        finite = [d for d in outside if d is not None]
        want = min(finite) if finite else None
        require(frac_or_inf(got) == want, f"dist_to_complement({x}) = {got}, expected {want}")
        fp.append(str(got))
    return "".join(fp[:CLAIMS]) + ":" + ",".join(fp[CLAIMS:])
