"""popi benchmark: run one workload and print its metrics as one JSON line.

    python3 bench/run.py --workload oracle --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; popi is imported from its src/ directory.
With --trace 0 the line holds the end-to-end metrics (wall_s, task_p50_ms,
peak_rss_mib, setup_s); with --trace 1 it holds the per-layer metrics of a
traced run and trace.overhead_frac.  Every task's output is checked; a task
that fails counts in "failed" and never stops the run.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostspeed import scaled  # noqa: E402
from workloads import REPEATS, WORKLOADS, pass_count  # noqa: E402

# The task list runs REPEATS[workload] times, each in a fresh process
# starting at a different point of the list.  Every time is scaled to one
# host speed by the reference loop timed around it in the same process
# (hostspeed.scaled), and each task keeps the median of its scaled times: the
# hosts this was built on switch between speeds up to 1.8x apart, for
# seconds to minutes at a time, and no choice among raw times filters that.
DEADLINE_S = 170  # the whole run, all worker processes included


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, deadline: float) -> dict:
    """Run worker.py in a fresh process and return its summary line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker ran past the %d s deadline" % DEADLINE_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed("worker exited %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(lines[-1])


def combine(workers: list[dict]) -> tuple[dict, dict]:
    """Median scaled time of each task over workers that ran the same list,
    and the failed executions as {(worker, task): reason}.  An execution
    fails when it fails its check, or when the workers' stdout differs."""
    times: dict = {}
    for w in workers:
        for task_id, seconds, ref, _ in w["tasks"]:
            times.setdefault(task_id, []).append(scaled(seconds, ref))
    best = {task_id: statistics.median(t) for task_id, t in times.items()}
    failed = {(k, i): why for k, w in enumerate(workers) for i, why in w["failures"]}
    digests = [{i: sha for i, _, _, sha in w["tasks"]} for w in workers]
    for task_id in best:
        if len({d[task_id] for d in digests}) > 1:
            for k in range(len(workers)):
                failed.setdefault((k, task_id), "stdout differs between runs")
    return best, failed


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="popi benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "popi", "__init__.py")):
        sys.stderr.write("error: no popi sources under %s\n" % os.path.join(ROOT, "src"))
        return 2

    # on SIGTERM, unwind so that subprocess.run kills and waits for the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    # a traced worker runs each task twice, untraced and traced, and checks
    # each span, so it gets a quarter of the time
    repeats = 1 if args.trace else REPEATS[args.workload]
    passes = pass_count(args.workload, args.seconds / (4 if args.trace else repeats))
    base = ["--workload", args.workload, "--seed", args.seed, "--passes", passes, "--trace", args.trace]

    def worker(i):
        name = "%s.seed%d.%s%d.json" % (args.workload, args.seed, "traced" if args.trace else "untraced", i)
        return run_worker(base + ["--rotation", i, repeats, "--out", os.path.join(HERE, "out", name)], deadline)

    try:
        runs = [worker(i) for i in range(repeats)]
    except WorkerFailed as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    best, failed = combine(runs)
    failures = list(failed.values())
    if not args.trace:
        metrics = {
            "wall_s": metric(sum(best.values()), "s"),
            "task_p50_ms": metric(1000 * statistics.median(best.values()), "ms"),
            "peak_rss_mib": metric(max(r["peak_rss_mib"] for r in runs), "MiB"),
            "setup_s": metric(statistics.median(r["setup_s"] for r in runs), "s"),
        }
    else:
        from tracer import PER_LAYER, combine_passes, unit

        (run,) = runs
        layers = combine_passes(run["layers"])
        metrics = {name: metric(layers[name], unit(name)) for name in PER_LAYER}
        # each task ran untraced and traced back to back, so host drift cancels
        metrics["trace.overhead_frac"] = metric(run["traced_s"] / run["untraced_s"] - 1, "ratio")

    for reason in failures[:20]:
        sys.stderr.write("task failed: %s\n" % reason)
    attempted = sum(len(r["tasks"]) for r in runs)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
