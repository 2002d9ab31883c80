"""One workload in one fresh Python process; started by ``run.py``.

Set-up (``setup_s``) covers importing the library and the benchmark's
modules, generating the inputs from the seed, checking every generated
space's axioms and writing JSON files.  Then either:

* the plain run: one closed loop (one client, one task at a time) over the
  workload's task cycle until the summed wall time of the tasks reaches
  ``--seconds``, with every result checked outside the timed region; or
* the traced run (``--trace 1``): one cycle of tasks (``--seconds`` does not
  apply), untraced, then with the layer tracer installed, then untraced
  again, so that counters repeat exactly and the tracing overhead is
  measured on the same tasks.

Every reported time is process CPU time (see ``Run``).  Prints one JSON
object on its last stdout line for ``run.py`` to read.
"""

from __future__ import annotations

import time

T_START = time.process_time()

import argparse  # noqa: E402
from contextlib import nullcontext  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
sys.path.insert(0, SRC)

import qmet  # noqa: E402

if not os.path.abspath(qmet.__file__).startswith(SRC + os.sep):
    sys.exit(f"qmet was imported from {qmet.__file__}, not from {SRC}")

from workloads import WORKLOADS  # noqa: E402
from workloads.common import CheckFailed  # noqa: E402

MAX_REPORTED_FAILURES = 5


def _digest(items, workdir=None) -> str:
    """SHA-256 of the items' JSON, with the per-run directory name masked."""
    h = hashlib.sha256()
    for item in items:
        text = json.dumps(item, sort_keys=True)
        if workdir:
            text = text.replace(workdir, "<workdir>")
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


class Run:
    """Tallies one pass over tasks: latencies, failures, fingerprints.

    Latencies are process CPU time.  On a shared virtual machine the host
    can take the CPU away for long stretches (steal time); wall time then
    shows the host's load, not the library's cost.  With one
    client, no threads and no waiting on I/O, CPU time equals wall time on
    an idle machine.
    """

    def __init__(self, wl):
        self.wl = wl
        self.latencies = []
        self.fingerprints = []
        self.failed = 0
        self.failures = []

    def one(self, i, task, tracer=None) -> float:
        """Run, time and check one task; return its wall-clock duration."""
        error = result = None
        with tracer.task(i) if tracer else nullcontext():
            w0, t0 = time.perf_counter(), time.process_time()
            try:
                result = self.wl.run(task)
            except Exception:  # a failing task is counted, the loop goes on
                error = traceback.format_exc()
            dt, wall = time.process_time() - t0, time.perf_counter() - w0
        if error is None:
            try:
                self.fingerprints.append(self.wl.check(task, result))
            except CheckFailed as e:
                error = f"check failed: {e}"
            except Exception:
                error = "check raised:\n" + traceback.format_exc()
        if error is not None:
            self.failed += 1
            self.fingerprints.append("FAILED")
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(f"task {i} ({self.wl.NAME}): {error}")
        self.latencies.append(dt)
        return wall

    def summary(self) -> dict:
        return {
            "attempted": len(self.latencies),
            "failed": self.failed,
            "failures": self.failures,
            "fingerprint": _digest(self.fingerprints),
        }


def _p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def plain_run(wl, pool, seconds) -> dict:
    """Closed loop over the cycle until the summed wall time of the tasks
    reaches ``seconds``.  The rate and the percentiles are taken over every
    timed task, so costs that land on only some repetitions of an input
    (cyclic GC passes, allocator growth) count."""
    run = Run(wl)
    busy = 0.0
    i = 0
    while busy < seconds:
        busy += run.one(i, pool[i % len(pool)])
        i += 1
    ms = [1000.0 * x for x in run.latencies]
    out = run.summary()
    out.update(
        busy_s=busy,
        tasks_per_s=i / sum(run.latencies),
        task_ms_p50=statistics.median(ms),
        task_ms_p90=_p90(ms),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return out


def traced_run(wl, pool, spans_path) -> dict:
    """One untraced pass, one traced pass, one more untraced pass over the
    same tasks.  The overhead compares the traced pass with the faster of
    the two untraced runs of each task, so warm-up is not counted as
    tracing cost."""
    from layertrace import Tracer

    tasks = len(pool)
    before, traced, after = Run(wl), Run(wl), Run(wl)
    for i, task in enumerate(pool):
        before.one(i, task)
    tracer = Tracer()
    tracer.install()
    try:
        for i, task in enumerate(pool):
            traced.one(i, task, tracer)
    finally:
        tracer.uninstall()
    for i, task in enumerate(pool):
        after.one(i, task)
    tracer.write_spans(spans_path)
    untraced_s = sum(map(min, before.latencies, after.latencies))
    traced_s = sum(traced.latencies)
    metrics = tracer.layer_metrics(tasks)
    metrics["trace.tasks"] = tasks
    metrics["trace.untraced_tasks_per_s"] = tasks / untraced_s
    metrics["trace.traced_tasks_per_s"] = tasks / traced_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    out = traced.summary()
    out["attempted"] = 3 * tasks
    out["failed"] += before.failed + after.failed
    out["failures"] = before.failures + traced.failures + after.failures
    out["untraced_fingerprints"] = [before.summary()["fingerprint"], after.summary()["fingerprint"]]
    out["layers"] = metrics
    out["spans"] = len(tracer.spans)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    os.makedirs(RUNS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.NAME}-", dir=RUNS_DIR)
    try:
        pool = wl.make_pool(args.seed, workdir)
        setup_s = time.process_time() - T_START
        out = {"setup_s": setup_s, "pool": len(pool), "inputs": _digest(pool, workdir)}
        if not args.setup_only:
            gc.collect()
            if args.trace:
                spans = os.path.join(RUNS_DIR, f"spans-{wl.NAME}-seed{args.seed}.jsonl")
                out.update(traced_run(wl, pool, spans))
                out["spans_file"] = spans
            else:
                out.update(plain_run(wl, pool, args.seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
