"""Tests of the benchmark itself: tracer arithmetic and patching, output
checkers, seeded task lists.  Run with `python -m pytest bench/tests`."""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import checks
import tracer as T
import workloads as W
from run import combine
import hostspeed
from hostspeed import scaled
from worker import import_popi, run_command, run_tasks, summarize

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

cli = import_popi()
import popi  # noqa: E402
from popi.semigroup import ElementSet  # noqa: E402


def snapshot():
    """Every attribute of popi's modules and of ElementSet, by identity."""
    out = {m: dict(vars(sys.modules[m])) for m in T.MODULES}
    out["ElementSet"] = dict(vars(ElementSet))
    return out


def same(a, b):
    return a.keys() == b.keys() and all(
        a[m].keys() == b[m].keys() and all(a[m][k] is b[m][k] for k in a[m]) for m in a
    )


IMPORT_TIME = snapshot()

SMALL = [
    W._task("green", ["green", "--n", "4", "--y", "1,3", "--rel", "H", "--check", "--json"],
            n=4, y=[1, 3], rel="H"),
    W._task("rank", ["rank", "--n", "4", "--y", "1,2", "--json"], n=4, y=[1, 2]),
    W._task("iso", ["iso", "--n", "5", "--y", "1,2,3", "--z", "1,2,4", "--oracle", "--json"],
            n=5, y=[1, 2, 3], z=[1, 2, 4]),
    W._task("decompose", ["decompose", "--n", "5", "--y", "1,3,4", "--element",
                          '{"n":5,"pairs":[[2,4]]}', "--json"], n=5, y=[1, 3, 4], pairs=[[2, 4]]),
    W._task("enumerate", ["enumerate", "--n", "4", "--y", "2,4", "--json"], n=4, y=[2, 4]),
    W._task("card", ["card", "--n", "5", "--y", "1,2,5", "--json"], n=5, y=[1, 2, 5]),
    W._task("selftest", ["selftest", "--max-n", "2", "--json"], max_n=2),
]
for i, task in enumerate(SMALL):
    task["id"], task["pass"] = i, 0


# -- tracer -----------------------------------------------------------------


def test_self_times_of_nested_tree():
    spans = [
        ["root", 0.0, 10.0, -1, 0, None],
        ["a", 1.0, 4.0, 0, 0, None],
        ["a.child", 2.0, 3.0, 1, 0, None],
        ["b", 5.0, 9.0, 0, 0, None],
        ["other", 20.0, 21.0, -1, 1, None],
    ]
    assert T.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_wrapped_calls_nest_and_recursion_counts_once():
    ticks = iter(range(100))
    tr = T.Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 1

    inner_w = tr.wrap("green.green_oracle", inner)

    def outer(depth):
        return inner_w() + (outer_w(depth - 1) if depth else 0)

    outer_w = tr.wrap("green.green_oracle", outer)
    tr.request = 7
    assert outer_w(1) == 2
    parents = [s[T.PARENT] for s in tr.spans]
    assert parents == [-1, 0, 0, 2]
    m = T.aggregate(tr.spans, {7})
    assert m["green.green_oracle.calls"] == 4
    # the outer span runs from tick 0 to 7; nested spans of the same name
    # count once in .s, and self times add up to the same 7 ticks
    assert m["green.green_oracle.s"] == 7.0
    assert m["green.green_oracle.self_s"] == 7.0
    assert T.layer_metrics(tr.spans, {8})["green.green_oracle.calls"] == 0


def test_install_patches_every_importer_and_uninstall_restores():
    tr = T.Tracer()
    tr.install()
    try:
        for mod, attr in [
            (popi.rank, "closure"), (popi.semigroup, "closure"), (popi, "closure"),
            (popi.cli, "enumerate_semigroup"), (popi.iso, "enumerate_semigroup"),
            (popi.cli, "main"), (popi.rank, "decompose_low_rank"),
        ]:
            assert hasattr(getattr(mod, attr), "__wrapped__"), (mod.__name__, attr)
        assert hasattr(ElementSet.mult_table, "__wrapped__")
        assert tr._on_gc in __import__("gc").callbacks
    finally:
        tr.uninstall()
    assert same(snapshot(), IMPORT_TIME)
    assert tr._on_gc not in __import__("gc").callbacks


def test_untraced_run_leaves_popi_as_imported():
    records = run_tasks(cli, SMALL, checks.check)
    assert [r["failed"] for r in records] == [None] * len(SMALL)
    assert same(snapshot(), IMPORT_TIME)


def test_traced_run_counts_exact_work():
    tr = T.Tracer()
    records = run_tasks(cli, SMALL, checks.check, tr)
    # each task ran untraced and traced, printing the same bytes, and every
    # wrapper is gone again
    assert same(snapshot(), IMPORT_TIME)
    assert not any(r["failed"] for r in records)
    assert all(r["traced_seconds"] > 0 for r in records)
    m = T.layer_metrics(tr.spans, {0, 1, 2, 3, 4, 5, 6}, tr.gc_events, records[3]["steps"])
    # green n=4,|Y|=2 and iso n=5,|Y|=3 form one and two tables; selftest n<=2 forms four
    green = checks.card_formula(4, 2) ** 2
    iso = 2 * checks.card_formula(5, 3) ** 2
    selftest = sum(checks.card_formula(n, r) ** 2 * math.comb(n, r) for n in (1, 2) for r in range(1, n + 1))
    assert m["semigroup.mult_table.entries"] == green + iso + selftest
    assert m["cli.main.calls"] == len(SMALL)
    # rank n=4, Y={1,2}: 6 generators; one closure in semigroup_rank, one in
    # the report, and 1 + 6 in the deletion test, each of the full semigroup
    # except the six with one generator removed
    assert m["rank.deletion_test.closures"] == 7
    assert m["semigroup.closure.calls"] == 9
    assert m["rank.top_rank_factorization.calls"] == 1
    assert m["rank.steps.raise_rank"] >= 1
    for name in T.PER_LAYER:
        assert name in m


def test_reference_loop_does_fixed_work_and_scales_times():
    # the 6-cycle and the identity on 2..6 generate 379 partial maps
    assert hostspeed.reference_loop() == 379
    assert hostspeed.reference_time() > 0
    # a host running the loop at half the reference speed halves the time
    assert scaled(3.0, 2 * hostspeed.REFERENCE_LOOP_S) == 1.5


# -- checkers ---------------------------------------------------------------


CORRUPTIONS = {
    "green": lambda r: r.update(class_count=r["class_count"] + 1),
    "rank": lambda r: r.update(deletion_test="kept:0"),
    "iso": lambda r: r.update(verdict=not r["verdict"], oracle=not r["oracle"]),
    "decompose": lambda r: r["factors"].__setitem__(0, r["factors"][-1]),
    "enumerate": lambda r: r.update(count=r["count"] - 1),
    "card": lambda r: r.update(enumerated=r["enumerated"] + 1, formula=r["formula"] + 1),
    "selftest": lambda r: r.update(ok=False, failures=["cardinality n=1 y=(1,)"]),
}


@pytest.mark.parametrize("task", SMALL, ids=lambda t: t["kind"])
def test_checker_accepts_true_report_and_flags_corrupted_one(task):
    _, out, _ = run_command(cli, task["argv"])
    assert checks.check(task, 0, out)[0] is None
    report = json.loads(out)
    CORRUPTIONS[task["kind"]](report)
    assert checks.check(task, 0, json.dumps(report))[0] is not None


def test_checker_flags_repeated_and_foreign_records():
    task = SMALL[4]
    report = json.loads(run_command(cli, task["argv"])[1])
    dup = json.loads(json.dumps(report))
    dup["elements"][-1] = dup["elements"][-2]
    assert "repeat" in checks.check(task, 0, json.dumps(dup))[0]
    out_of_y = json.loads(json.dumps(report))
    out_of_y["elements"][1]["image"] = [1]
    assert checks.check(task, 0, json.dumps(out_of_y))[0] is not None


def test_checker_flags_exit_code_and_garbage():
    assert checks.check(SMALL[0], 2, "")[0] == "exit code 2"
    assert checks.check(SMALL[0], 0, "not json")[0].startswith("malformed")


class CorruptingCli:
    """Runs popi, then corrupts the decompose report's first factor."""

    def main(self, argv):
        code, out, _ = run_command(cli, argv)
        if argv[0] == "decompose":
            report = json.loads(out)
            report["factors"][0] = "empty"
            out = json.dumps(report)
        sys.stdout.write(out)
        return code


def test_corrupted_output_counts_as_failed_without_stopping_the_run():
    records = run_tasks(CorruptingCli(), SMALL, checks.check)
    best, failed = combine([summarize(records)])
    assert len(best) == len(SMALL) and list(failed) == [(0, 3)]


def test_output_that_differs_between_runs_fails_in_each():
    good = run_tasks(cli, SMALL, checks.check)
    bad = run_tasks(CorruptingCli(), SMALL, checks.check)
    best, failed = combine([summarize(good), summarize(bad)])
    assert sorted(failed) == [(0, 3), (1, 3)]
    assert best[3] == sum(scaled(r[3]["seconds"], r[3]["ref"]) for r in (good, bad)) / 2


def test_crashing_command_is_a_failed_task():
    class Crash:
        def main(self, argv):
            raise RuntimeError("boom")

    records = run_tasks(Crash(), SMALL[:2], checks.check)
    assert all("boom" in r["failed"] for r in records)


# -- seeded task lists ------------------------------------------------------


def work(tasks):
    """Exact sizes a task list asks for: Σ|S|² of the tables it forms, the
    elements it enumerates, the task count and each iso pair's verdict."""
    entries = elements = 0
    verdicts = []
    for t in tasks:
        if t["kind"] == "green":
            entries += checks.card_formula(t["n"], len(t["y"])) ** 2
        elif t["kind"] == "iso":
            entries += 2 * checks.card_formula(t["n"], len(t["y"])) ** 2
            isomorphic = tuple(t["z"]) in W.dihedral_images(t["n"], t["y"])
            # an isomorphic pair also keeps its orbit, on which the search cost depends
            verdicts.append(min(W.dihedral_images(t["n"], t["y"])) if isomorphic else False)
        elif t["kind"] in ("enumerate", "card"):
            elements += checks.card_formula(t["n"], len(t["y"]))
    return entries, elements, len(tasks), [t["kind"] for t in tasks], verdicts


@pytest.mark.parametrize("workload", ["oracle", "factorize", "enumerate", "certify"])
def test_seeds_change_inputs_not_sizes(workload):
    passes = W.pass_count(workload, 20)
    a = W.build_tasks(workload, 1, passes)
    b = W.build_tasks(workload, 2, passes)
    assert [t["argv"] for t in a] != [t["argv"] for t in b]
    assert work(a) == work(b)
    assert [t["argv"] for t in a] == [t["argv"] for t in W.build_tasks(workload, 1, passes)]
    if workload == "oracle":
        assert work(a)[4] == [(1, 2, 3, 5), False] * passes


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_no_argv_or_range_set_repeats_within_a_run(workload, seed):
    tasks = W.build_tasks(workload, seed, min(W.MAX_PASSES[workload], 10))
    argvs = [tuple(t["argv"]) for t in tasks]
    assert len(set(argvs)) == len(argvs) and W.WARMUP_ARGV not in argvs
    # a pass's decompose commands share one range set; every other draw is fresh
    contexts = []
    for t in tasks:
        if t["kind"] == "selftest":
            continue
        if t["kind"] == "decompose" and t["id"] and tasks[t["id"] - 1]["pass"] == t["pass"]:
            continue
        contexts += [(t["n"], tuple(y)) for y in (t["y"], t.get("z")) if y]
    assert len(set(contexts)) == len(contexts)


def test_factorize_quotas():
    tasks = W.build_tasks("factorize", 5, 1)
    by_rank = {}
    for t in tasks:
        by_rank[len(t["pairs"])] = by_rank.get(len(t["pairs"]), 0) + 1
    assert by_rank == W.DECOMPOSE_QUOTA


# -- the command ------------------------------------------------------------


def test_benchmark_json_names_the_metrics_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == list(T.PER_LAYER) + ["trace.overhead_frac"]
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "task_p50_ms", "peak_rss_mib", "setup_s"}


def test_fails_without_popi_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
