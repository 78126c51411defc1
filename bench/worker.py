"""One benchmark process: set up, run a workload's task list, check it.

Started by run.py, once per measurement, so that peak memory belongs to one
workload and no state carries over between runs.  Each task is a `popi`
command run in-process through `popi.cli.main(argv)` with stdout captured;
tasks run back to back on one thread (a closed loop with one client).
Between tasks the worker times a fixed reference loop of its own, so that
run.py can scale every time to one host speed (see hostspeed.py).
Prints one JSON summary line.
"""

from __future__ import annotations

import time

from hostspeed import REFERENCE_EVERY_S, reference_time, scaled

REF0 = reference_time()
T0 = time.perf_counter()  # set-up starts here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

def import_popi():
    """Import popi from the checkout's src/, never from an installed copy."""
    sys.path.insert(0, SRC)
    import popi.cli

    if not os.path.abspath(popi.__file__).startswith(SRC + os.sep):
        raise ImportError("popi imported from %s, not from %s" % (popi.__file__, SRC))
    return popi.cli


class Capture(io.TextIOBase):
    """A stdout that keeps the strings written to it; unlike StringIO it
    copies nothing, so capturing adds no memory to the peak measured."""

    def __init__(self):
        self.chunks: list[str] = []

    def write(self, text: str) -> int:
        self.chunks.append(text)
        return len(text)

    def getvalue(self) -> str:
        return "".join(self.chunks)


def run_command(cli, argv) -> tuple[int, str, float]:
    """(exit code, stdout, seconds) of one in-process popi command."""
    out, err = Capture(), Capture()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed task, not a failed run
            code = "%s: %s" % (type(exc).__name__, exc)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def run_traced(cli, argv, tracer, request) -> tuple[int, str, float]:
    tracer.install()
    tracer.request = request
    try:
        return run_command(cli, argv)
    finally:
        tracer.request = None
        tracer.uninstall()


def run_tasks(cli, tasks, checker, tracer=None) -> list[dict]:
    """Run every task, timing only the popi call; check each output after.

    With a tracer, each task runs twice, untraced and traced, in an order
    that alternates from task to task; the traced run must print the same
    bytes.  Each record carries the reference loop's time around its task:
    the mean of the timings just before and just after it."""
    records, refs = [], [reference_time()]
    since = 0.0
    for task in tasks:
        record = {"id": task["id"], "pass": task["pass"], "argv": task["argv"], "ref": len(refs) - 1}
        order = (False,)
        if tracer is not None:
            order = (True, False) if task["id"] % 2 else (False, True)
        traced_out = None
        for traced in order:
            gc.collect()  # each command starts on a clean heap, as in a fresh process
            if traced:
                _, traced_out, record["traced_seconds"] = run_traced(cli, task["argv"], tracer, task["id"])
            else:
                code, out, elapsed = run_command(cli, task["argv"])
        since += elapsed
        if since >= REFERENCE_EVERY_S:
            refs.append(reference_time())
            since = 0.0
        reason, report = checker(task, code, out)
        if reason is None and traced_out is not None and traced_out != out:
            reason = "traced run printed different output"
        steps = None
        if task["kind"] == "decompose" and report:
            steps = Counter(s["op"] for s in report["steps"])
        record.update(
            seconds=elapsed, failed=reason, sha256=hashlib.sha256(out.encode()).hexdigest(), steps=steps
        )
        records.append(record)
        del out, traced_out, report  # free this output before the next command runs
    refs.append(reference_time())
    for record in records:
        k = record["ref"]
        record["ref"] = (refs[k] + refs[k + 1]) / 2
    return records


def summarize(records) -> dict:
    """What run.py combines across workers: (id, seconds, reference loop
    time, digest) per task and (id, reason) per failed task."""
    return {
        "tasks": [(r["id"], r["seconds"], r["ref"], r["sha256"]) for r in records],
        "failures": [(r["id"], r["failed"]) for r in records if r["failed"]],
    }


def pass_layers(tracer, records, passes) -> list[dict]:
    from tracer import layer_metrics

    out = []
    for k in range(passes):
        mine = [r for r in records if r["pass"] == k]
        steps = sum((Counter(r["steps"]) for r in mine if r["steps"]), Counter())
        requests = {r["id"] for r in mine}
        out.append(layer_metrics(tracer.spans, requests, tracer.gc_events, steps))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rotation", type=int, nargs=2, default=(0, 1), metavar=("I", "OF"),
        help="start at task I*N//OF of the N tasks and wrap around",
    )
    parser.add_argument("--out", help="write per-task records (and spans) here")
    args = parser.parse_args(argv)

    cli = import_popi()
    from checks import check
    from workloads import WARMUP_ARGV, build_tasks

    tasks = build_tasks(args.workload, args.seed, args.passes)
    code, _, _ = run_command(cli, WARMUP_ARGV)
    if code != 0:
        raise RuntimeError("warm-up command %s exited with %r" % (" ".join(WARMUP_ARGV), code))
    # set-up time first, then the reference loop that closes it
    setup_s = scaled(time.perf_counter() - T0, (REF0 + reference_time()) / 2)

    gc.freeze()  # the benchmark's own objects stay out of popi's collections
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    i, of = args.rotation
    start = i * len(tasks) // of
    records = run_tasks(cli, tasks[start:] + tasks[:start], check, tracer)
    summary = summarize(records)
    summary["setup_s"] = setup_s
    summary["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        summary["layers"] = pass_layers(tracer, records, args.passes)
        summary["untraced_s"] = sum(r["seconds"] for r in records)
        summary["traced_s"] = sum(r["traced_seconds"] for r in records)
    if args.out:
        os.makedirs(os.path.dirname(args.out), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump({"tasks": records, "spans": tracer.spans if tracer else None}, fh)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
