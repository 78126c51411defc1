"""Seeded task lists for the four benchmark workloads.

A task is one `popi` command line plus the parameters its output checker
needs.  The seed picks which range sets and elements are used; it never
changes sizes, so every seed asks for the same amount of work.  Within one
run no range set (n, Y) is used by two tasks, so a cache shared between
commands gets no hit that a user running one process per command would not
also get.  This module does not import popi.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

WORKLOADS = ("oracle", "certify", "factorize", "enumerate")

# Seconds one pass takes at the commit that defined the benchmark, at the
# reference host speed (see hostspeed.py).  A run given S seconds per task
# list makes round(S / NOMINAL_PASS_S) passes, a fixed count, so two commits
# always do the same work for the same S.
NOMINAL_PASS_S = {"oracle": 5.5, "certify": 2.6, "factorize": 2.5, "enumerate": 3.0}

# How many fresh processes run the task list; each task keeps the median of
# its times (see run.py).  The cost of a factorize or enumerate pass barely
# depends on the seed, so their time goes to more repeats of one pass
# rather than to more draws.
REPEATS = {"oracle": 3, "certify": 3, "factorize": 5, "enumerate": 5}

# factorize: elements decomposed per pass, by rank, at n=8 with |Y|=5.
# Rank 0 holds only the empty map and rank 1 holds 40 elements per Y.
DECOMPOSE_QUOTA = {0: 1, 1: 40, 2: 360, 3: 400, 4: 400}

WARMUP_ARGV = ("card", "--n", "5", "--y", "2,4")


def dihedral_images(n: int, points) -> set[tuple[int, ...]]:
    """Images of a point set under the 2n rotations and reflections of 1..n."""
    out = set()
    for s in range(n):
        rot = [(x - 1 + s) % n + 1 for x in points]
        out.add(tuple(sorted(rot)))
        out.add(tuple(sorted(n + 1 - x for x in rot)))
    return out


def pass_count(workload: str, seconds: float) -> int:
    """Passes per run: seconds over the nominal pass time, capped by the
    number of distinct range sets the workload can draw."""
    return max(1, min(MAX_PASSES[workload], round(seconds / NOMINAL_PASS_S[workload])))


class _Pool:
    """Range sets of one (n, |Y|), shuffled by the seed, each handed out once."""

    def __init__(self, rng: random.Random, n: int, r: int):
        self.n = n
        self.sets = list(combinations(range(1, n + 1), r))
        rng.shuffle(self.sets)
        self.used: set[tuple[int, ...]] = set()

    def free(self, y) -> bool:
        return tuple(y) not in self.used

    def take(self, ok=lambda y: True) -> tuple[int, ...]:
        for y in self.sets:
            if y not in self.used and ok(y):
                self.used.add(y)
                return y
        raise ValueError("range sets of n=%d exhausted" % self.n)

    def mark(self, y) -> tuple[int, ...]:
        self.used.add(tuple(y))
        return tuple(y)


def _pts(y) -> str:
    return ",".join(map(str, y))


def _task(kind: str, argv: list[str], **params) -> dict:
    return {"kind": kind, "argv": argv, **params}


def _oracle_pass(rng, pools, k):
    # One isomorphic pair: Z is a rotation or reflection of Y other than Y.
    # The oracle's search cost depends on the orbit of Y, so both come from
    # the orbit of {1,2,3,5}, drawn before the green tasks can use it up.
    six = pools[6, 4]
    orbit = dihedral_images(6, (1, 2, 3, 5))
    y6 = six.take(lambda y: y in orbit)
    z6 = six.mark(rng.choice(sorted(z for z in orbit if six.free(z))))
    # one non-isomorphic pair of equal size, so the oracle search runs in full
    seven = pools[7, 3]
    y7 = seven.take()
    z7 = seven.take(lambda z: z not in dihedral_images(7, y7))
    tasks = []
    # Each relation gets its own range set.  Eight n=7 commands keep the
    # median command inside one cost group.
    for n, r, count in ((7, 3, 2), (6, 4, 1)):
        for _ in range(count):
            for rel in "LRHD":
                y = pools[n, r].take()
                argv = ["green", "--n", str(n), "--y", _pts(y), "--rel", rel, "--check", "--json"]
                tasks.append(_task("green", argv, n=n, y=list(y), rel=rel))
    for n, a, b in ((6, y6, z6), (7, y7, z7)):
        argv = ["iso", "--n", str(n), "--y", _pts(a), "--z", _pts(b), "--oracle", "--json"]
        tasks.append(_task("iso", argv, n=n, y=list(a), z=list(b)))
    if k == 0:
        tasks.append(_task("selftest", ["selftest", "--max-n", "4", "--json"], max_n=4))
    return tasks


def _certify_pass(rng, pools, k):
    tasks = []
    # Three (6, 3) tasks per pass put the median command inside their group.
    for n, r in ((7, 3), (6, 3), (6, 3), (6, 3)):
        y = pools[n, r].take()
        tasks.append(_task("rank", ["rank", "--n", str(n), "--y", _pts(y), "--json"], n=n, y=list(y)))
    if k == 0:
        full = list(range(1, 7))
        tasks.append(_task("rank", ["rank", "--n", "6", "--y", _pts(full), "--json"], n=6, y=full))
    return tasks


def rank_layer_elements(n: int, y, k: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every element of rank k as (domain, image sequence): an ascending
    domain of k points mapped onto a cyclic rotation of k points of Y."""
    out = []
    for dom in combinations(range(1, n + 1), k):
        for img in combinations(y, k):
            for t in range(max(k, 1)):
                out.append((dom, img[t:] + img[:t]))
    return out


def _factorize_pass(rng, pools, k):
    n = 8
    y = pools[8, 5].take()
    tasks = []
    for rank, quota in DECOMPOSE_QUOTA.items():
        for dom, img in rng.sample(rank_layer_elements(n, y, rank), quota):
            pairs = [[a, b] for a, b in zip(dom, img)]
            element = json.dumps({"n": n, "pairs": pairs}, separators=(",", ":"))
            argv = ["decompose", "--n", str(n), "--y", _pts(y), "--element", element, "--json"]
            tasks.append(_task("decompose", argv, n=n, y=list(y), pairs=pairs))
    return tasks


def _enumerate_pass(rng, pools, k):
    # Two listings per pass put the median command inside their group.
    tasks = []
    for _ in range(2):
        y = pools[12, 6].take()
        tasks.append(_task("enumerate", ["enumerate", "--n", "12", "--y", _pts(y), "--json"], n=12, y=list(y)))
    y = pools[11, 6].take()
    tasks.append(_task("card", ["card", "--n", "11", "--y", _pts(y), "--json"], n=11, y=list(y)))
    return tasks


_PASS = {
    "oracle": (_oracle_pass, ((7, 3), (6, 4))),
    "certify": (_certify_pass, ((7, 3), (6, 3))),
    "factorize": (_factorize_pass, ((8, 5),)),
    "enumerate": (_enumerate_pass, ((12, 6), (11, 6))),
}

# Range sets in the smallest pool over those one pass takes from it: 15 sets
# of n=6, |Y|=4 for oracle, 20 sets of n=6, |Y|=3 for certify.
MAX_PASSES = {"oracle": 2, "certify": 6, "factorize": 56, "enumerate": 231}


def build_tasks(workload: str, seed: int, passes: int) -> list[dict]:
    """The run's task list: `passes` seeded passes, each task tagged with
    its pass and a run-wide id."""
    make, shapes = _PASS[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    pools = {shape: _Pool(rng, *shape) for shape in shapes}
    tasks = []
    for k in range(passes):
        for task in make(rng, pools, k):
            task["pass"] = k
            task["id"] = len(tasks)
            tasks.append(task)
    return tasks
