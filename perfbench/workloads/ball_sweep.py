"""ball_sweep: exhaustive and sampled sweeps of the ball order.

Why this workload: ``order_laws_report`` (with radius shifts),
``radius_law_report`` and ``smyth_probe`` compare every pair of formal balls
on a dyadic radius grid, so ``Fraction`` arithmetic, ``FormalBall``
construction and ``leq_dplus`` dominate.  An integer ball-grid kernel shared
by these sweeps acts here and nowhere else as strongly.  ``posets`` is idle.

Inputs: Sorgenfrey grids, real grids with and without ``inf``, and random
asymmetric and symmetric quasi-metric tables, n = 8 to 40 points, radius
grids of depth 3 to 6.  The schedule below fixes kind, size, depth and sweep
of every task in a cycle; the seed fills in values and tables.
"""

from __future__ import annotations

from fractions import Fraction

from qmet import balls, spaces

import gen
from .common import checked_space, require

NAME = "ball_sweep"

# (sweep, space kind, points, depth, shifts).  Heavy tasks are spread
# through the cycle so that any prefix has a similar mix.  The cycle length
# is an odd multiple of 5 (see workloads/__init__.py).
SCHEDULE = [
    ("order", "sorgenfrey", 8, 3, 3),
    ("radius", "table", 10, 4, 0),
    ("smyth", "metric_table", 12, 5, 0),
    ("order", "real", 10, 4, 1),
    ("radius", "real_inf", 8, 6, 0),
    ("smyth", "sorgenfrey", 24, 3, 0),
    ("order", "table", 12, 3, 1),
    ("radius", "real", 12, 5, 0),
    ("radius", "metric_table", 16, 3, 0),
    ("smyth", "real", 40, 3, 0),
    ("order", "sorgenfrey", 16, 3, 1),
    ("order", "real_inf", 12, 3, 2),
    ("radius", "sorgenfrey", 20, 4, 0),
    ("smyth", "real_inf", 16, 4, 0),
    ("order", "metric_table", 8, 6, 2),
]

SHIFT_CHOICES = ["1/4", "1/2", "1", "3"]
SAMPLED_ROWS = 3
# Every schedule entry has more tent families than this, so each radius-law
# task samples exactly this many and its cost does not swing with the seed.
RADIUS_FAMILIES = 2000


def make_pool(seed: int, workdir) -> list:
    pool = []
    for i, (sweep, kind, n, depth, n_shifts) in enumerate(SCHEDULE):
        rng = gen.rng_for(seed, NAME, i)
        doc = gen.SPACE_MAKERS[kind](rng, n)
        checked_space(doc)
        pool.append({
            "sweep": sweep,
            "kind": kind,
            "doc": doc,
            "depth": depth,
            "shifts": rng.sample(SHIFT_CHOICES, n_shifts),
            "sample_seed": rng.randrange(1 << 30),
        })
    return pool


def run(task):
    space = spaces.space_from_json(task["doc"])
    radii = gen.dyadic_radii(task["depth"])
    if task["sweep"] == "order":
        shifts = [Fraction(s) for s in task["shifts"]]
        return balls.order_laws_report(space, radii, shifts)
    if task["sweep"] == "radius":
        return balls.radius_law_report(
            space, radii, sample_budget=RADIUS_FAMILIES, seed=task["sample_seed"]
        )
    return balls.smyth_probe(space, depth=task["depth"], seed=task["sample_seed"])


def _check_rows(task, space, dist, ball_list):
    """Rows of the library's ball order against brute-force <=+ for a few
    seeded balls."""
    rng = gen.rng_for(task["sample_seed"], "rows")
    index = {p: i for i, p in enumerate(space.points)}
    for _ in range(SAMPLED_ROWS):
        a = rng.choice(ball_list)
        for b in ball_list:
            want = gen.leq_plus(dist, index[a.center], a.radius, index[b.center], b.radius)
            require(
                balls.leq_dplus(space, a, b) == want,
                f"ball order disagrees with brute force at {a} <= {b}",
            )


def check(task, result) -> str:
    space = spaces.space_from_json(task["doc"])
    dist = gen.raw_dist(task["doc"])
    names = gen.point_names(task["doc"])
    require(list(space.points) == names, "point names differ from the document")
    radii = gen.dyadic_radii(task["depth"])
    grid = [balls.FormalBall(p, r) for p in names for r in radii]
    _check_rows(task, space, dist, grid)
    sweep = task["sweep"]
    if sweep == "order":
        require(result.ball_count == len(grid), "order report counted the wrong balls")
        require(result.passed, f"order laws fail on a quasi-metric: {result.failures[:2]}")
        return f"order:{result.ball_count}:{len(result.failures)}"
    if sweep == "radius":
        require(result.families_checked > 0, "radius law checked no family")
        require(result.passed, f"radius law fails on a quasi-metric: {result.failures[:2]}")
        return f"radius:{result.families_checked}"
    # smyth: every reported gap must be a strict approximation by brute force
    index = {p: i for i, p in enumerate(names)}
    for a, b in result.gap_pairs:
        d = dist[index[a.center]][index[b.center]]
        require(
            d is not None and d < a.radius - b.radius,
            f"smyth gap {a}, {b} is not a strict approximation",
        )
    expected_non_centers = {
        "metric_table": [],
        "real": [],
        "real_inf": ["inf"],
        "sorgenfrey": names,  # v(x, x) is infinite while d(x, x) = 0
    }[task["kind"]]
    require(
        result.non_center_points == expected_non_centers,
        f"smyth non-center points {result.non_center_points}",
    )
    if task["kind"] in ("metric_table", "real"):
        require(result.consistent, "smyth probe finds a gap where the oracle is prec")
    return f"smyth:{result.mode}:{len(result.non_center_points)}:{len(result.gap_pairs)}"
