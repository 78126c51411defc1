"""Outside-in span tracing of popi's layers.

`Tracer.install` replaces public functions of popi's modules with wrappers
that record a span per call: name, start, end, parent span and request id
(the task id).  Every module that imported a traced function by name is
patched, and `ElementSet.mult_table` is patched on the class.
`PartialInjection.compose` is deliberately not wrapped: it runs in
microseconds and millions of times, so a wrapper would distort every self
time.  Products are counted exactly instead, as mult_table entries and
closure edges.  `uninstall` restores every attribute it replaced.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
import weakref
from collections import defaultdict

MODULES = ("popi", "popi.cli", "popi.semigroup", "popi.green", "popi.rank", "popi.iso")

# (span name, module, attribute): the public functions traced.
TARGETS = (
    ("cli.main", "popi.cli", "main"),
    ("semigroup.enumerate_semigroup", "popi.semigroup", "enumerate_semigroup"),
    ("semigroup.closure", "popi.semigroup", "closure"),
    ("green.green_oracle", "popi.green", "green_oracle"),
    ("green.is_regular_oracle", "popi.green", "is_regular_oracle"),
    ("green.green_characterized", "popi.green", "green_characterized"),
    ("iso.bruteforce_isomorphism", "popi.iso", "bruteforce_isomorphism"),
    ("iso.decide_isomorphic", "popi.iso", "decide_isomorphic"),
    ("rank.semigroup_rank", "popi.rank", "semigroup_rank"),
    ("rank.deletion_test", "popi.rank", "deletion_test"),
    ("rank.top_rank_factorization", "popi.rank", "top_rank_factorization"),
    ("rank.decompose_low_rank", "popi.rank", "decompose_low_rank"),
)

# The per-layer metrics, as named in BENCHMARK.json.  Counts come from one
# pass; times and rates (see `is_time`) are medians over the traced passes.
PER_LAYER = (
    "semigroup.mult_table.calls",
    "semigroup.mult_table.s",
    "semigroup.mult_table.entries",
    "semigroup.mult_table.entries_per_s",
    "semigroup.closure.calls",
    "semigroup.closure.s",
    "semigroup.closure.elements",
    "semigroup.closure.edges",
    "semigroup.enumerate_semigroup.calls",
    "semigroup.enumerate_semigroup.s",
    "semigroup.enumerate_semigroup.elements",
    "cli.main.calls",
    "cli.main.self_s",
    "green.green_oracle.calls",
    "green.green_oracle.self_s",
    "green.is_regular_oracle.calls",
    "green.is_regular_oracle.self_s",
    "green.green_characterized.s",
    "iso.bruteforce_isomorphism.calls",
    "iso.bruteforce_isomorphism.self_s",
    "iso.decide_isomorphic.s",
    "rank.semigroup_rank.self_s",
    "rank.deletion_test.self_s",
    "rank.deletion_test.closures",
    "rank.top_rank_factorization.calls",
    "rank.top_rank_factorization.self_s",
    "rank.decompose_low_rank.calls",
    "rank.decompose_low_rank.s",
    "rank.steps.raise_rank",
    "rank.steps.corank_one_split",
    "rank.steps.restricted_split",
    "runtime.gc.collections",
    "runtime.gc.s",
)

NAME, START, END, PARENT, REQUEST, COUNTS = range(6)


def is_time(metric: str) -> bool:
    """Seconds and rates; every other per-layer metric is an exact count."""
    return metric.endswith((".s", "_s"))


def unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    return "s" if is_time(metric) else "count"


class Tracer:
    """Records spans in memory while installed; `request` tags new spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.request = None
        self.gc_events: list[tuple] = []  # (request, seconds)
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._gc_start = None

    def wrap(self, name, func, count=None):
        """A wrapper recording one span per call; `count(args, result)`
        returns a dict of exact counts stored on the span."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[COUNTS] = count(args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from popi.semigroup import ElementSet

        modules = [sys.modules[m] for m in MODULES]
        for name, module, attr in TARGETS:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original, _COUNTERS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        tabulated = weakref.WeakSet()

        def count_entries(args, result):
            # one table is formed per element set; later calls return it
            S = args[0]
            if S in tabulated:
                return {"entries": 0}
            tabulated.add(S)
            return {"entries": len(S) ** 2}

        mult = self.wrap("semigroup.mult_table", ElementSet.mult_table, count_entries)
        self._patch(ElementSet, "mult_table", mult)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _on_gc(self, phase, info):
        if self.request is None:
            return
        if phase == "start":
            self._gc_start = self.clock()
        elif self._gc_start is not None:
            self.gc_events.append((self.request, self.clock() - self._gc_start))
            self._gc_start = None


def _count_elements(args, result):
    return {"elements": len(result)}


def _count_closure(args, result):
    return {"elements": len(result), "edges": len(result) * len(result.generators)}


_COUNTERS = {
    "semigroup.enumerate_semigroup": _count_elements,
    "semigroup.closure": _count_closure,
}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus its children's.  Spans nest (one stack, one
    thread), so children never overlap and their durations simply add."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _outermost(spans: list[list], i: int) -> bool:
    """No ancestor of span i has its name (recursive calls count once)."""
    name, p = spans[i][NAME], spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return False
        p = spans[p][PARENT]
    return True


def aggregate(spans: list[list], requests) -> dict:
    """Sums by span name over the spans whose request is in `requests`:
    calls, self_s, s (outermost spans of the name only, so recursion counts
    once) and the exact counts the spans carry."""
    selfs = self_times(spans)
    m: dict = defaultdict(float)
    for i, s in enumerate(spans):
        if s[REQUEST] not in requests:
            continue
        name = s[NAME]
        m[name + ".calls"] += 1
        m[name + ".self_s"] += selfs[i]
        if _outermost(spans, i):
            m[name + ".s"] += s[END] - s[START]
        for key, value in (s[COUNTS] or {}).items():
            m["%s.%s" % (name, key)] += value
        if name == "semigroup.closure" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "rank.deletion_test":
            m["rank.deletion_test.closures"] += 1
    return m


def layer_metrics(spans: list[list], requests, gc_events=(), steps=None) -> dict:
    """The PER_LAYER metrics over the spans whose request is in `requests`;
    `steps` holds the decomposition step counts read from the reports."""
    m = aggregate(spans, requests)
    entries, secs = m["semigroup.mult_table.entries"], m["semigroup.mult_table.s"]
    m["semigroup.mult_table.entries_per_s"] = entries / secs if secs > 0 else 0.0
    for request, seconds in gc_events:
        if request in requests:
            m["runtime.gc.collections"] += 1
            m["runtime.gc.s"] += seconds
    for op, n in (steps or {}).items():
        m["rank.steps." + op] += n
    return {name: m[name] if is_time(name) else int(m[name]) for name in PER_LAYER}


def combine_passes(per_pass: list[dict]) -> dict:
    """Counts from the first pass (they are exact and repeat with the seed);
    times and rates as medians over all passes."""
    out = {}
    for name in PER_LAYER:
        if is_time(name):
            out[name] = statistics.median(p[name] for p in per_pass)
        else:
            out[name] = per_pass[0][name]
    return out
