"""The largest Scott-open ball family inside an open by enumerating every
per-point radius-threshold vector.

This is the independent route ``lipschitz.dist_to_complement`` and the
envelopes are checked against; it is exponential in the carrier, so keep
the inputs to about 5 points.
"""

from itertools import product

from qmet.errors import QmetError
from qmet.extreal import INF, ZERO
from qmet.lipschitz import OpenSet
from qmet.spaces import Space


def scott_open_thresholds_bruteforce(space: Space, u: OpenSet, max_points: int = 5) -> dict:
    """Largest Scott-open up-closed ball family with radius-zero slice in u,
    found by brute force over per-point radius-threshold vectors.

    Any up-closed family of balls that is radius-open at every center is
    described by thresholds t(x), holding exactly the balls (x, r) with
    r < t(x); up-closure across centers amounts to t(x) <= t(y) + d(x, y)
    and the slice condition pins t(x) = 0 outside u.  Enumerating threshold
    vectors over the (finite) lattice of realized distance values and taking
    the pointwise maximum of the valid ones yields the largest such family.
    The result maps each point to its threshold.
    """
    n = len(space)
    if n > max_points:
        raise QmetError(f"brute-force oracle capped at {max_points} points")
    levels = {ZERO, INF}
    for i in range(n):
        for j in range(n):
            levels.add(space.dist_by_index(i, j))
    finite_levels = sorted(
        (v for v in levels if v.is_finite), key=lambda v: v.as_fraction()
    )
    all_levels = finite_levels + [INF]
    choices = []
    for x in space.points:
        choices.append([ZERO] if x not in u else all_levels)
    best = [ZERO] * n
    for vector in product(*choices):
        ok = True
        for i in range(n):
            for j in range(n):
                if not vector[i] <= vector[j] + space.dist_by_index(i, j):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            best = [max(b, v) for b, v in zip(best, vector)]
    return {space.points[i]: best[i] for i in range(n)}
