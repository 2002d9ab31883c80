"""The benchmark's workloads.

Each workload module defines:

* ``NAME`` and a docstring saying why the workload was chosen;
* ``make_pool(seed, workdir)``: set-up.  Generates one cycle of tasks as
  plain data (and any JSON files) from the seed and checks every generated
  space with ``check_axioms``.  The plain run repeats the cycle; the traced
  run executes it once;
* ``run(task)``: the timed part.  Builds every library object from the
  task's raw data and returns what the library computed;
* ``check(task, result)``: the untimed, untraced result check.  Raises
  ``CheckFailed`` or returns a fingerprint string of the result.

Latencies cluster by cycle entry, one cluster per entry, each the same size.
Where entries differ widely in cost, the cycle length is an odd multiple of
5, so that the median and the 90th percentile of a run fall inside one
entry's cluster rather than on the edge between two clusters of different
cost, where they would jump from run to run.

The library is always reached through module attributes (``balls.way_below``
rather than a name imported from ``qmet.balls``) so that the layer tracer's
wrappers see every call.
"""

from . import ball_sweep, cli_session, point_queries, structures

WORKLOADS = {m.NAME: m for m in (ball_sweep, point_queries, structures, cli_session)}
