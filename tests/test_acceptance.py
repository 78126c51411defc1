"""Acceptance gate: eight exact criteria, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete; each criterion is a separate test so a failure pinpoints itself.
"""

import math
import random
from collections import Counter

import popi as P

from conftest import (
    all_partial_injections,
    all_range_sets,
    conjugation_isomorphism,
    full_dihedral_group,
    h_class_oracle,
    is_dihedral_restriction,
    j_partition,
    proper_range_sets,
    semigroup,
)


def report(name: str, ok: bool) -> None:
    print("ACCEPTANCE %-22s %s" % (name, "PASS" if ok else "FAIL"))
    assert ok, name


class TestAcceptance:
    def test_01_cardinality(self):
        ok = True
        for n in range(1, 8):
            for pts in all_range_sets(n):
                ctx = P.RangeContext(n, pts)
                if len(P.enumerate_semigroup(ctx)) != P.cardinality_formula(n, ctx.r):
                    ok = False
        report("cardinality", ok)

    def test_02_regularity(self):
        ok = True
        for n in range(1, 7):
            for pts in all_range_sets(n):
                # not the cached sets: the n = 6 tables hold about 170 MiB together
                ctx = P.RangeContext(n, pts)
                regular = P.is_regular_characterized(ctx)
                agree = P.is_regular_oracle(P.enumerate_semigroup(ctx)) == regular
                if not agree or all(regular) != (len(pts) == n):
                    ok = False
        report("regularity", ok)

    def test_03_green_relations(self):
        ok = True
        for n in range(1, 6):
            for pts in all_range_sets(n):
                ctx, S = semigroup(n, pts)
                oracle = P.green_oracle(S, "LRHD")
                if P.green_characterized(ctx, "LRHD") != oracle:
                    ok = False
                if oracle["D"] != j_partition(S):  # D = J, J by two-sided ideals
                    ok = False
        report("green-relations", ok)

    def test_04_h_class_structure(self):
        ok = True
        for n in range(1, 6):
            for pts in all_range_sets(n):
                ctx, S = semigroup(n, pts)
                oracle = h_class_oracle(S)
                for a, regular, expected in zip(S, P.is_regular_characterized(ctx), oracle):
                    prof = P.h_class_profile(ctx, a)
                    if prof != expected:
                        ok = False
                    if regular:
                        if prof.size != max(a.rank, 1):
                            ok = False
                        if a.is_idempotent() and not (prof.is_group and prof.is_cyclic_group):
                            ok = False
                    elif prof.size != 1:
                        ok = False
        report("h-class-structure", ok)

    def test_05_decompositions(self):
        ok = True
        cases: Counter = Counter()
        for n in range(2, 6):
            for pts in proper_range_sets(n):
                ctx, S = semigroup(n, pts)
                r = len(pts)
                for a in S:
                    factors = P.top_rank_factorization(ctx, a)
                    prod = factors[0]
                    for f in factors[1:]:
                        prod = prod * f
                    if prod != a or any(f.rank != r for f in factors):
                        ok = False
                    if P.is_restricted_corank_one(ctx, a):
                        cases[P.decompose_restricted_corank_one(ctx, a).case] += 1
        expected_cases = {
            "low.ge", "low.lt", "high.ge", "high.lt",
            "gap.ge.wide", "gap.ge.narrow",
            "gap.lt.wide", "gap.lt.mid", "gap.lt.narrow",
        }
        if set(cases) != expected_cases or any(cases[c] < 1 for c in expected_cases):
            ok = False
        report("decompositions", ok)

    def test_06_rank(self):
        ok = True
        for n in range(2, 6):
            for pts in proper_range_sets(n):
                ctx, S = semigroup(n, pts)
                gens = P.canonical_generating_set(ctx)
                if len(gens) != math.comb(n, len(pts)):
                    ok = False
                if len(P.closure(ctx, gens)) != len(S):
                    ok = False
                if not all(P.deletion_test(ctx, gens)):
                    ok = False
        for n in range(1, 7):
            ctx = P.RangeContext(n, range(1, n + 1))
            cert = P.semigroup_rank(ctx)
            target = P.cardinality_formula(n, n)
            if cert.claimed_rank != 2:
                ok = False
            if len(P.closure(ctx, list(cert.generating_set))) != target:
                ok = False
            # the certificate's witness: the empty map and the identity
            if cert.lower_bound_witness != ((), tuple(range(1, n + 1))):
                ok = False
            S = P.enumerate_semigroup(ctx)
            if any(len(P.closure(ctx, [a])) == target for a in S):
                ok = False
        report("rank", ok)

    def test_07_isomorphism(self):
        ok = True
        # every range set against every other, each dihedral witness checked
        for n in (4, 5):
            sets = list(all_range_sets(n))
            for y in sets:
                for z in sets:
                    w = P.decide_isomorphic(n, y, z)
                    found = P.bruteforce_isomorphism(n, y, z)
                    if w.verdict != (found is not None):
                        ok = False
                    if w.verdict and w.reason == "dihedral":
                        if conjugation_isomorphism(n, y, z, w.delta) is None:
                            ok = False
        report("isomorphism", ok)

    def test_08_dihedral_restriction(self):
        def by_extension(a):
            if a.rank <= 1:
                return True
            return any(
                all(d(x) == a(x) for x in a.domain)
                for d in full_dihedral_group(a.n)
            )

        ok = True
        for n in range(3, 7):
            for a in all_partial_injections(n, max_rank=3):
                if is_dihedral_restriction(a) != by_extension(a):
                    ok = False
        rng = random.Random(20260824)
        for _ in range(10_000):
            n = rng.choice((3, 4, 5, 6))
            k = rng.randrange(min(4, n), n + 1)
            dom = sorted(rng.sample(range(1, n + 1), k))
            img = rng.sample(range(1, n + 1), k)
            a = P.PartialInjection(n, zip(dom, img))
            if is_dihedral_restriction(a) != by_extension(a):
                ok = False
        report("dihedral-restriction", ok)
