"""qmet benchmark: run one workload (or all) and print every metric.

    python3 perfbench/run.py --workload ball_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                        # all workloads, seed 1

Each workload runs in fresh Python processes (``worker.py``) started from
here: a few that only set up, for the median ``setup_s``, then one that sets
up and measures.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print the same metrics by name with their units.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from
a traced run.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("ball_sweep", "point_queries", "structures", "cli_session")

# set-ups per plain run, each in a fresh process; setup_s is their median
SETUP_RUNS = 5
# a run must end within 180 s; workers still going after this are killed
TIME_LIMIT_S = 170

END_TO_END = [
    ("tasks_per_s", "1/s"),
    ("task_ms_p50", "ms"),
    ("task_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER_UNITS = {
    "self_ms": "ms",
    "wb_decided_frac": "ratio",
    "untraced_tasks_per_s": "1/s",
    "traced_tasks_per_s": "1/s",
    "overhead_ratio": "ratio",
}


def worker(deadline, *argv) -> dict:
    """Run worker.py to completion and return its JSON result line.

    ``subprocess.run`` kills and reaps the child if the deadline passes."""
    proc = subprocess.run(
        [sys.executable, WORKER, *argv],
        cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(argv)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, deadline):
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setups = []
    if not trace:
        setups = [
            worker(deadline, *base, "--setup-only")["setup_s"] for _ in range(SETUP_RUNS - 1)
        ]
    res = worker(deadline, *base)
    setups.append(res["setup_s"])
    for failure in res["failures"]:
        sys.stderr.write(failure.rstrip() + "\n")
    correct = res["failed"] == 0
    if trace:
        # tracing must not change a single result
        correct = correct and all(
            fp == res["fingerprint"] for fp in res["untraced_fingerprints"]
        )
        metrics = {
            key: (value, PER_LAYER_UNITS.get(key.split(".", 1)[1], "count"))
            for key, value in sorted(res["layers"].items())
            if key != "trace.tasks"
        }
    else:
        res["setup_s"] = statistics.median(setups)
        metrics = {key: (res[key], unit) for key, unit in END_TO_END}
    print(f"[{name}] seed={seed} trace={trace} correct={str(correct).lower()}")
    print(f"[{name}] failed_frac = {res['failed'] / res['attempted']:.6g} ratio "
          f"({res['failed']} failed of {res['attempted']} attempted)")
    if not trace:
        beyond = res["attempted"] - int(0.9 * res["attempted"])
        print(f"[{name}] samples={res['attempted']} (about {beyond} beyond p90), "
              f"set-ups={len(setups)}")
    else:
        print(f"[{name}] traced tasks={res['layers']['trace.tasks']} "
              f"spans={res['spans']} written to {os.path.relpath(res['spans_file'], ROOT)}")
    for key, (value, unit) in metrics.items():
        print(f"[{name}] {key} = {value:.6g} {unit}")
    return correct, res["attempted"], res["failed"], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qmet benchmark")
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qmet", "__init__.py")):
        print(f"error: no qmet sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, n, bad, m = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            correct, attempted, failed = correct and ok, attempted + n, failed + bad
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
