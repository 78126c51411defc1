import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import tracemalloc
from bisect import bisect
from functools import partial
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import popi as P
from popi import errors
from popi.cli import main

from popi import rank
from popi.rank import _checked, _gap_point, _missing_index
from popi.semigroup import element_count

from conftest import (
    BadRank,
    NotRestricted,
    all_partial_injections,
    all_range_sets,
    chain_rotation,
    corank_one_split,
    inverse,
    low_rank_split,
    member_of,
    pi,
    proper_range_sets,
    rank_layer,
    semigroup,
)


# -- reference searches -----------------------------------------------------
# Search oracles for `shift_decompose`, `decompose_low_rank` and the second
# member of `canonical_generating_set` on the full range.  Each returns the
# first factorization or generator in its search order; the constructions
# must return exactly the same.


def search_shift(a):
    """The smallest shift l whose rotation leaves an order-preserving part."""
    n = a.n
    for l in range(n):
        a1 = chain_rotation(n, -l) * a
        if a1.is_order_preserving():
            return l, a1
    return None


def search_low_rank(ctx, a):
    """Bounded search over the extra domain point c, the image set, the
    rotation t, the extra point d and its value y."""
    n, m = ctx.n, a.rank
    dom = set(a.domain)
    img = a.image
    chain = set(range(1, n + 1))
    for c in sorted(chain - dom):
        ext = tuple(sorted(dom | {c}))
        for b_img in combinations(ctx.points, m + 1):
            for t in range(m + 1):
                beta = P.PartialInjection(n, zip(ext, b_img[t:] + b_img[:t]))
                gamma0 = inverse(beta) * a
                for d in sorted(chain - set(b_img)):
                    for y in sorted(ctx.point_set - img):
                        table = list(gamma0.table)
                        table[d - 1] = y
                        gamma = P.PartialInjection.from_table(table)
                        if gamma.is_orientation_preserving() and beta * gamma == a:
                            return beta, gamma
    return None


def search_full_range_pair(ctx, S):
    """The first rank-(n-1) element that generates S together with the
    chain rotation."""
    g = chain_rotation(ctx.n)
    for i in rank_layer(S, ctx.n - 1):
        if len(P.closure(ctx, [g, S[i]])) == len(S):
            return S[i]
    return None


def reference_deletion_test(ctx, generators):
    """For each generator: does removing it strictly shrink the closure of
    the whole semigroup?  Every closure is taken in full, with no floor."""
    full = len(P.closure(ctx, generators))
    out = []
    for i in range(len(generators)):
        rest = generators[:i] + generators[i + 1 :]
        out.append(len(P.closure(ctx, rest)) < full if rest else True)
    return out


# -- object-built references ------------------------------------------------
# The factorization levels as they were built from `PartialInjection` values:
# pair lists, `order_isomorphism`, `inverse`, `chain_rotation` and products.
# The table-built levels must return exactly the same decompositions.


def reference_range_rotation_power(ctx, t):
    pts = ctx.points
    r = len(pts)
    return P.PartialInjection(ctx.n, [(pts[m], pts[(m + t) % r]) for m in range(r)])


def reference_low_rank(ctx, a):
    if not P.contains(ctx, a):
        raise errors.NotAMember("%r" % (a,))
    m, r, n = a.rank, ctx.r, ctx.n
    if m > r - 2:
        raise BadRank("rank %d exceeds %d" % (m, r - 2))
    c = next(x for x in range(1, n + 1) if x not in a.domain)
    ext = sorted(a.domain + (c,))
    b_img = ctx.points[: m + 1]
    free = sorted(ctx.point_set - a.image)
    outside = [d for d in range(1, n + 1) if d not in b_img]
    for t in range(m + 1):
        beta = P.PartialInjection(n, zip(ext, b_img[t:] + b_img[:t]))
        gamma0 = inverse(beta) * a
        q, seq = gamma0.domain, gamma0.image_seq
        for d in outside:
            y = _gap_point(free, seq, bisect(q, d))
            if y is None:
                continue
            gamma = P.PartialInjection(n, [(d, y), *zip(q, seq)])
            return _checked(ctx, a, P.Decomposition(beta, gamma, case="low"), (m + 1, m + 1))
    raise errors.DecompositionFailed("no one-higher-rank factorization for %r" % (a,))


def reference_corank_one(ctx, a):
    if not P.contains(ctx, a):
        raise errors.NotAMember("%r" % (a,))
    r, n = ctx.r, ctx.n
    if a.rank != r - 1:
        raise BadRank("expected rank %d, got %d" % (r - 1, a.rank))
    l, a1 = P.shift_decompose(a)
    dom1 = set(a1.domain)
    c = min(set(range(1, n + 1)) - dom1)
    beta = P.order_isomorphism(n, sorted(dom1 | {c}), ctx.points)
    gamma = inverse(beta) * a1
    if not P.is_restricted_corank_one(ctx, gamma):
        raise errors.DecompositionFailed("corank-one factor %r is not restricted" % (gamma,))
    d = P.Decomposition(chain_rotation(n, l) * beta, gamma, shift_exponent=l, case="corank_one")
    return _checked(ctx, a, d, (r, r - 1))


def reference_restricted_corank_one(ctx, a):
    if ctx.is_full:
        raise errors.FullRangeNotSupported("full-range sets admit no insertion point")
    if not P.contains(ctx, a):
        raise errors.NotAMember("%r" % (a,))
    if not P.is_restricted_corank_one(ctx, a):
        raise NotRestricted("%r" % (a,))
    n, r, pts = ctx.n, ctx.r, ctx.points
    i = _missing_index(ctx, a.domain)
    j = _missing_index(ctx, a.image_seq)
    ge = i >= j
    order = "ge" if ge else "lt"
    if pts[0] > 1 or pts[-1] < n:
        k, p = 0, (1 if pts[0] > 1 else n)
        case = "%s.%s" % ("low" if p == 1 else "high", order)
    else:
        k = next(k for k in range(1, r) if pts[k - 1] < pts[k] - 1)
        p = pts[k - 1] + 1
        if ge:
            width = "wide" if k >= j - 1 else "narrow"
        else:
            width = "wide" if k >= j else ("mid" if k >= j + 1 - i else "narrow")
        case = "gap.%s.%s" % (order, width)
    beta = reference_range_rotation_power(ctx, (k + ge - j) % r)
    table = [0] * n
    for x in a.domain:
        table[beta(x) - 1] = a(x)
    table[p - 1] = pts[j - 1]
    gamma = P.PartialInjection.from_table(table)
    return _checked(ctx, a, P.Decomposition(beta, gamma, case=case), (r, r))


class TestRangeRotation:
    def test_small_example(self):
        ctx = P.RangeContext(3, (1, 2))
        assert P.range_rotation_power(ctx, 1) == pi(3, (1, 2), (2, 1))

    def test_full_range_equals_chain_rotation(self):
        for n in range(1, 6):
            ctx = P.RangeContext(n, range(1, n + 1))
            assert P.range_rotation_power(ctx, 1) == chain_rotation(n)

    def test_order_divides_range_size(self):
        ctx = P.RangeContext(5, (1, 3, 4))
        gbar = P.range_rotation_power(ctx, 1)
        acc = gbar
        for _ in range(ctx.r - 1):
            acc = acc * gbar
        assert acc == P.identity_on(5, ctx.points)

    def test_powers(self):
        ctx = P.RangeContext(5, (1, 3, 4))
        gbar = P.range_rotation_power(ctx, 1)
        assert P.range_rotation_power(ctx, 0) == P.identity_on(5, ctx.points)
        assert P.range_rotation_power(ctx, 2) == gbar * gbar


class TestShiftDecompose:
    def test_order_preserving_input(self):
        a = pi(3, (1, 1), (3, 2))
        assert P.shift_decompose(a) == (0, a)

    def test_empty(self):
        assert P.shift_decompose(P.empty_map(3)) == (0, P.empty_map(3))

    def test_rotation_input(self):
        a = pi(3, (1, 2), (2, 3), (3, 1))
        l, a1 = P.shift_decompose(a)
        assert chain_rotation(3, l) * a1 == a
        assert a1.is_order_preserving() and a1.image == a.image

    def test_exhaustive_small(self):
        # every partial injection: NotAMember exactly when its images are
        # not cyclic, that is when it is no member of the full range set
        for n in range(1, 6):
            for a in all_partial_injections(n):
                if not P.is_cyclic(a.image_seq):
                    with pytest.raises(errors.NotAMember):
                        P.shift_decompose(a)
                    continue
                l, a1 = P.shift_decompose(a)
                assert 0 <= l < n
                assert a1.is_order_preserving()
                assert a1.image == a.image
                assert chain_rotation(n, l) * a1 == a


class TestDecomposeLowRank:
    def test_empty_in_small_context(self):
        ctx = P.RangeContext(3, (1, 2))
        d = rank.decompose_low_rank(ctx, P.empty_map(3))
        assert d.beta.rank == 1 and d.gamma.rank == 1
        assert d.beta * d.gamma == P.empty_map(3)

    def test_rank_one_in_bigger_context(self):
        ctx = P.RangeContext(4, (1, 2, 3))
        a = pi(4, (3, 1))
        d = rank.decompose_low_rank(ctx, a)
        assert d.beta.rank == 2 and d.gamma.rank == 2
        assert d.beta * d.gamma == a

    def test_rejects_high_rank(self):
        ctx = P.RangeContext(3, (1, 2))
        with pytest.raises(BadRank):
            low_rank_split(ctx, pi(3, (3, 1)))

    def test_rejects_non_member(self):
        ctx = P.RangeContext(4, (1, 2, 3))
        with pytest.raises(errors.NotAMember):
            low_rank_split(ctx, pi(4, (1, 4)))

    def test_all_low_rank_elements(self):
        for n in range(2, 6):
            for pts in proper_range_sets(n):
                if len(pts) < 2:
                    continue
                ctx, S = semigroup(n, pts)
                r = len(pts)
                for a in S:
                    if a.rank > r - 2:
                        continue
                    d = rank.decompose_low_rank(ctx, a)
                    assert d.beta.rank == a.rank + 1 == d.gamma.rank
                    assert P.contains(ctx, d.beta) and P.contains(ctx, d.gamma)
                    assert d.beta * d.gamma == a


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_constructions_match_searches(n):
    # every element of every Y; at n <= 6 that is 13,205 low-rank elements
    for pts in all_range_sets(n):
        ctx, S = semigroup(n, pts)
        for a in S:
            assert P.shift_decompose(a) == search_shift(a)
            if a.rank <= len(pts) - 2:
                d = rank.decompose_low_rank(ctx, a)
                assert (d.beta, d.gamma) == search_low_rank(ctx, a)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_full_range_pair_matches_search(n):
    ctx, S = semigroup(n, tuple(range(1, n + 1)))
    assert P.canonical_generating_set(ctx) == [chain_rotation(n), search_full_range_pair(ctx, S)]


class TestDecomposeCorankOne:
    def test_worked_example(self):
        ctx = P.RangeContext(3, (1, 2))
        d = corank_one_split(ctx, pi(3, (3, 1)))
        assert d.shift_exponent == 0
        assert d.beta == pi(3, (1, 1), (3, 2))
        assert d.gamma == pi(3, (2, 1))
        assert d.beta * d.gamma == pi(3, (3, 1))

    def test_all_corank_one_elements(self):
        for n in range(2, 6):
            for pts in proper_range_sets(n):
                ctx, S = semigroup(n, pts)
                r = len(pts)
                for a in S:
                    if a.rank != r - 1:
                        continue
                    d = corank_one_split(ctx, a)
                    assert d.beta.rank == r
                    assert P.is_restricted_corank_one(ctx, d.gamma)
                    assert d.beta * d.gamma == a

    def test_bad_rank(self):
        ctx = P.RangeContext(3, (1, 2))
        with pytest.raises(BadRank):
            corank_one_split(ctx, P.empty_map(3))

    def test_rejects_non_member(self):
        ctx = P.RangeContext(3, (1, 2))
        with pytest.raises(errors.NotAMember):
            corank_one_split(ctx, pi(3, (1, 3)))


class TestDecomposeRestrictedCorankOne:
    def test_worked_example(self):
        ctx = P.RangeContext(3, (1, 2))
        d = corank_one_split(ctx, pi(3, (2, 1)), restricted=True)
        assert d.case == "high.lt"
        assert d.beta == P.identity_on(3, {1, 2})
        assert d.gamma == pi(3, (2, 1), (3, 2))
        assert d.beta * d.gamma == pi(3, (2, 1))

    def test_case_dispatch(self):
        ctx = P.RangeContext(3, (2, 3))
        for a in semigroup(3, (2, 3))[1]:
            if P.is_restricted_corank_one(ctx, a):
                assert corank_one_split(ctx, a, restricted=True).case.startswith("low.")
        ctx2 = P.RangeContext(4, (1, 2, 4))
        for a in semigroup(4, (1, 2, 4))[1]:
            if P.is_restricted_corank_one(ctx2, a):
                assert corank_one_split(ctx2, a, restricted=True).case.startswith("gap.")

    def test_rejects_outsiders(self):
        ctx = P.RangeContext(3, (1, 2))
        with pytest.raises(NotRestricted):
            corank_one_split(ctx, pi(3, (3, 1)), restricted=True)
        with pytest.raises(errors.FullRangeNotSupported):
            corank_one_split(
                P.RangeContext(3, (1, 2, 3)), pi(3, (1, 1), (2, 2)), restricted=True
            )

    def test_all_restricted_elements(self):
        for n in range(2, 6):
            for pts in proper_range_sets(n):
                ctx, S = semigroup(n, pts)
                for a in S:
                    if not P.is_restricted_corank_one(ctx, a):
                        continue
                    d = corank_one_split(ctx, a, restricted=True)
                    assert d.beta.rank == ctx.r == d.gamma.rank
                    assert P.contains(ctx, d.beta) and P.contains(ctx, d.gamma)
                    assert d.beta * d.gamma == a


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_level_refuses_non_members(n):
    """Each split level and the pipeline raise NotAMember for every map
    that `contains` rejects, at every proper Y, whatever its rank."""
    calls = (
        low_rank_split,
        corank_one_split,
        partial(corank_one_split, restricted=True),
        P.top_rank_factorization,
    )
    for pts in proper_range_sets(n):
        ctx = P.RangeContext(n, pts)
        for a in all_partial_injections(n):
            if P.contains(ctx, a):
                continue
            for call in calls:
                with pytest.raises(errors.NotAMember):
                    call(ctx, a)


class TestRotationExponent:
    def test_worked_example(self):
        ctx = P.RangeContext(3, (1, 2))
        b = pi(3, (1, 1), (3, 2))
        a = pi(3, (1, 2), (3, 1))
        assert b * P.range_rotation_power(ctx, 1) == a

    def test_enumerates_full_h_class(self):
        # the r powers of the range rotation, applied after one top-rank
        # element, give exactly the r members of its domain
        for n in range(2, 6):
            for pts in proper_range_sets(n):
                ctx, S = semigroup(n, pts)
                r = len(pts)
                by_dom = {}
                for i in rank_layer(S, r):
                    by_dom.setdefault(S[i].domain, set()).add(S[i])
                for dom, members in by_dom.items():
                    assert len(members) == r
                    b = next(iter(members))
                    assert {b * P.range_rotation_power(ctx, t) for t in range(r)} == members


class TestProductDomainStability:
    def test_top_rank_products_keep_domain(self):
        # rank-preserving products of top-rank elements stay R-related
        rng = random.Random(23)
        for n, pts in [(4, (1, 3)), (5, (1, 2, 4)), (5, (2, 3, 4, 5))]:
            ctx, S = semigroup(n, pts)
            top = [S[i] for i in rank_layer(S, len(pts))]
            for _ in range(400):
                a, b = rng.choice(top), rng.choice(top)
                ab = a * b
                if ab.rank == len(pts):
                    assert ab.domain == a.domain


class TestCanonicalGeneratingSet:
    def test_small_example(self):
        ctx = P.RangeContext(3, (1, 2))
        gens = P.canonical_generating_set(ctx)
        assert [g.domain for g in gens] == [(1, 2), (1, 3), (2, 3)]
        assert gens[0] == P.range_rotation_power(ctx, 1)
        assert len(P.closure(ctx, gens)) == 13

    def test_counts_and_generation(self):
        # every Y at n <= 7, 247 range sets: members that close to all of S,
        # C(n, |Y|) of them below the full range and 2 on it, and the set
        # that `semigroup_rank` certifies
        for n in range(1, 8):
            for pts in all_range_sets(n):
                ctx = P.RangeContext(n, pts)
                gens = P.canonical_generating_set(ctx)
                assert all(P.contains(ctx, g) for g in gens)
                assert len(P.closure(ctx, gens)) == element_count(ctx)
                assert len(gens) == (2 if len(pts) == n else math.comb(n, len(pts)))
                assert tuple(gens) == P.semigroup_rank(ctx).generating_set

    def test_too_large_refused_before_building(self):
        # 10^5 tables of 10^5 slots
        ctx = P.RangeContext(100000, [1])
        tracemalloc.start()
        try:
            with pytest.raises(errors.TooLarge):
                P.canonical_generating_set(ctx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_chain_past_the_search_bound_refused(self):
        # 256 tables of 256 slots are within MAX_ELEMENTS, but no closure checks them
        with pytest.raises(errors.TooLarge, match="longer than the 255 a search takes"):
            P.canonical_generating_set(P.RangeContext(256, [1]))

    def test_removing_any_generator_loses_elements(self):
        ctx = P.RangeContext(4, (1, 3))
        gens = P.canonical_generating_set(ctx)
        assert len(gens) == 6
        assert all(P.deletion_test(ctx, gens))


class TestDeletionTest:
    """The rank-floor `deletion_test` against full closures."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_certificate_generators_match_reference(self, n):
        # the canonical sets for a proper Y, the full-range pair otherwise
        for pts in all_range_sets(n):
            ctx = P.RangeContext(n, pts)
            gens = list(P.semigroup_rank(ctx).generating_set)
            assert P.deletion_test(ctx, gens) == reference_deletion_test(ctx, gens), pts

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_mixed_rank_lists_match_reference(self, n):
        # a few members of rank >= 2, one of them twice, and a product of
        # two of them whose rank is below every other generator's, so the
        # floor sits under the other ranks; the product and both copies
        # of the duplicate are kept
        rng = random.Random(n)
        checked = 0
        for pts in all_range_sets(n):
            ctx, S = semigroup(n, pts)
            high = [a for a in S if a.rank >= 2]
            for _ in range(6):
                if len(high) < 2:
                    break
                gens = rng.sample(high, min(len(high), rng.randint(2, 4)))
                least = min(g.rank for g in gens)
                low = [a * b for a in gens for b in gens if (a * b).rank < least]
                if not low:
                    continue
                p = rng.choice(low)
                gens = gens + [p, gens[0]]
                rng.shuffle(gens)
                verdicts = P.deletion_test(ctx, gens)
                assert verdicts == reference_deletion_test(ctx, gens), (pts, gens)
                assert not verdicts[gens.index(p)]
                assert [v for g, v in zip(gens, verdicts) if gens.count(g) > 1] == [False] * 2
                checked += 1
        assert checked


def assert_witness_is_every_top_rank_domain(n, pts):
    # the witness is read off the closure; C(n, |Y|) domains, one per generator
    cert = P.semigroup_rank(P.RangeContext(n, pts))
    assert cert.lower_bound_witness == tuple(combinations(range(1, n + 1), len(pts)))
    assert cert.claimed_rank == len(cert.lower_bound_witness)


class TestSemigroupRank:
    def test_proper_cases(self):
        cert = P.semigroup_rank(P.RangeContext(3, (1, 2)))
        assert cert.claimed_rank == 3
        cert = P.semigroup_rank(P.RangeContext(4, (2,)))
        assert cert.claimed_rank == 4
        assert len(cert.lower_bound_witness) == 4

    def test_full_range_pair(self):
        ctx = P.RangeContext(4, (1, 2, 3, 4))
        cert = P.semigroup_rank(ctx)
        assert cert.claimed_rank == 2
        assert len(P.closure(ctx, list(cert.generating_set))) == P.cardinality_formula(4, 4)

    def test_certificate_invariants(self):
        ctx = P.RangeContext(4, (1, 3))
        cert = P.semigroup_rank(ctx)
        assert cert.order == P.cardinality_formula(4, 2)
        assert len(cert.generating_set) == cert.claimed_rank
        doms = sorted(g.domain for g in cert.generating_set)
        assert doms == sorted(cert.lower_bound_witness)


    def test_witness_is_every_top_rank_domain(self):
        # every proper Y at n <= 7: 240 range sets
        for n in range(2, 8):
            for pts in proper_range_sets(n):
                assert_witness_is_every_top_rank_domain(n, pts)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_witness_past_the_sweep(self, data):
        n = data.draw(st.integers(2, 10))
        pts = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=n - 1, unique=True))
        assert_witness_is_every_top_rank_domain(n, pts)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_order_counts_the_enumeration(self, n):
        # every Y at n <= 6, and the full range at n = 7
        for pts in all_range_sets(n) if n <= 6 else [tuple(range(1, n + 1))]:
            ctx, S = semigroup(n, pts)
            assert P.semigroup_rank(ctx).order == len(S)

    def test_too_large_refused_before_building(self):
        ctx = P.RangeContext(30, range(1, 31))
        tracemalloc.start()
        try:
            with pytest.raises(errors.TooLarge):
                P.semigroup_rank(ctx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


    @pytest.mark.parametrize("n, pts", [(100000, (1,)), (999, (1, 2)), (256, (1,))])
    def test_proper_range_refused_before_counting(self, monkeypatch, n, pts):
        def uncounted(ctx):
            raise AssertionError("S counted")

        monkeypatch.setattr("popi.rank.element_count", uncounted)
        with pytest.raises(errors.TooLarge):
            P.semigroup_rank(P.RangeContext(n, pts))

    @pytest.mark.parametrize("n", [11, 255, 256, 1001])
    def test_full_range_refusals(self, element_sets, n):
        # the element count refuses up to the search bound, the bound past
        # it; the set's two maps are never refused by a count of C(n, n) slots
        message = "longer than the 255 a search takes" if n > 255 else "more than 1000000 elements"
        with pytest.raises(errors.TooLarge, match=message):
            P.semigroup_rank(P.RangeContext(n, range(1, n + 1)))
        assert element_sets == []

    def test_deletion_test_past_the_search_bound(self):
        ctx = P.RangeContext(3000, [1])
        gens = [P.PartialInjection(3000, [(x, 1)]) for x in (1, 2, 3)]
        with pytest.raises(errors.TooLarge):
            P.deletion_test(ctx, gens)


class TestChecked:
    """The one check every factorization stage passes its factors through."""

    ctx = P.RangeContext(3, (1, 2))

    def test_rejects_wrong_rank(self):
        d = rank.decompose_low_rank(self.ctx, P.empty_map(3))
        assert _checked(self.ctx, P.empty_map(3), d, (1, 1)) is d
        with pytest.raises(errors.DecompositionFailed):
            _checked(self.ctx, P.empty_map(3), d, (2, 2))

    def test_rejects_non_member_factor(self):
        # 1 -> 3 -> 1 multiplies out right, but beta's image leaves Y
        d = P.Decomposition(pi(3, (1, 3)), pi(3, (3, 1)), case="low")
        assert d.beta * d.gamma == pi(3, (1, 1)) and not P.contains(self.ctx, d.beta)
        with pytest.raises(errors.DecompositionFailed):
            _checked(self.ctx, pi(3, (1, 1)), d, (1, 1))

    def test_rejects_factor_that_repeats_an_image(self):
        # gamma's table has one zero, so its zero count gives rank 2, and
        # 1 -> 1 -> 1 multiplies out right; but gamma sends 1 and 2 to 1
        a, beta = pi(3, (1, 1)), pi(3, (1, 1))
        gamma = P.PartialInjection.from_table((1, 1, 0))
        assert beta * gamma == a and 3 - gamma.table.count(0) == 2
        assert not P.contains(self.ctx, gamma)
        injective = P.Decomposition(beta, pi(3, (1, 1), (2, 2)))
        assert _checked(self.ctx, a, injective, (1, 2)) is injective
        with pytest.raises(errors.DecompositionFailed):
            _checked(self.ctx, a, P.Decomposition(beta, gamma), (1, 2))

    def test_rejects_wrong_product(self):
        a = pi(3, (3, 1))
        d = corank_one_split(self.ctx, a)
        _checked(self.ctx, a, d, (2, 1))
        with pytest.raises(errors.DecompositionFailed):
            _checked(self.ctx, pi(3, (3, 2)), d, (2, 1))


# Each certificate guard, reached by breaking the one collaborator it
# checks: the guard's message, the owner and name of the collaborator, its
# replacement made from the original, and the call that reaches the guard.
GUARDS = [
    pytest.param(
        "no rotation shift found",
        P.PartialInjection, "is_order_preserving", lambda real: lambda self: False,
        lambda: P.shift_decompose(pi(3, (1, 2), (3, 1))),
        id="shift",
    ),
    pytest.param(
        "no one-higher-rank factorization",
        rank, "_gap_point", lambda real: lambda *args: None,
        lambda: rank.decompose_low_rank(P.RangeContext(3, (1, 2)), P.empty_map(3)),
        id="low-rank",
    ),
    pytest.param(
        "corank-one factor .* is not restricted",
        rank, "is_restricted_corank_one", lambda real: lambda ctx, a: False,
        lambda: corank_one_split(P.RangeContext(3, (1, 2)), pi(3, (3, 1))),
        id="corank-one",
    ),
    pytest.param(
        "lower-bound witness is not two idempotents of S",
        P.PartialInjection, "is_idempotent", lambda real: lambda self: False,
        lambda: P.semigroup_rank(P.RangeContext(3, (1, 2, 3))),
        id="idempotents",
    ),
    pytest.param(
        "generating set failed to generate",
        rank, "closure", lambda real: lambda *args: range(len(real(*args)) - 1),
        lambda: P.semigroup_rank(P.RangeContext(3, (1, 2))),
        id="closure",
    ),
    pytest.param(
        # one redundant generator, the product of the first two, makes the
        # set one larger than the C(5, 2) top-rank domains of its closure
        "generating set is not of minimum size",
        rank, "canonical_generating_set",
        lambda real: lambda ctx: (gens := real(ctx)) + [gens[0] * gens[1]],
        lambda: P.semigroup_rank(P.RangeContext(5, (1, 3))),
        id="redundant-generator",
    ),
    pytest.param(
        # the walk's factor list loses its last factor; the one split of a
        # restricted corank-one element gives [beta] for [beta, gamma]
        "pipeline product check failed",
        rank, "_factor",
        lambda real: lambda ctx, a, steps: real(ctx, a, steps)[: -1 if a.rank < ctx.r else None],
        lambda: P.top_rank_factorization(P.RangeContext(3, (1, 2)), pi(3, (1, 2))),
        id="pipeline",
    ),
]


@pytest.mark.parametrize("message, owner, attr, replace, call", GUARDS)
def test_certificate_guards_raise(monkeypatch, message, owner, attr, replace, call):
    monkeypatch.setattr(owner, attr, replace(getattr(owner, attr)))
    with pytest.raises(errors.DecompositionFailed, match=message):
        call()


class TestRecords:
    """The records are immutable tuples of named fields that compare by value."""

    b = pi(3, (1, 2))
    g = pi(3, (2, 1), (3, 3))

    @pytest.mark.parametrize(
        "record, fields",
        [
            (P.Decomposition, ("beta", "gamma", "shift_exponent", "case")),
            (P.RankCertificate, ("claimed_rank", "generating_set", "order", "lower_bound_witness")),
            (P.IsoWitness, ("verdict", "reason", "delta")),
            (P.HClassProfile, ("size", "is_group", "is_cyclic_group")),
        ],
    )
    def test_fields(self, record, fields):
        assert record._fields == fields

    def test_defaults(self):
        d = P.Decomposition(self.b, self.g)
        assert d.shift_exponent == 0 and d.case is None
        assert P.IsoWitness(True, "small-rank").delta is None

    def test_immutable(self):
        d = P.Decomposition(self.b, self.g)
        with pytest.raises(AttributeError):
            d.case = "low"
        with pytest.raises(AttributeError):
            d.extra = 1

    def test_equal_records_hash_equal(self):
        d, e = P.Decomposition(self.b, self.g, 1, "low"), P.Decomposition(self.b, self.g, 1, "low")
        assert d == e and hash(d) == hash(e) and d != P.Decomposition(self.b, self.g)

    def test_repr(self):
        assert repr(P.Decomposition(self.b, self.g, shift_exponent=2, case="corank_one")) == (
            "Decomposition(beta=PartialInjection(n=3, {1->2}), "
            "gamma=PartialInjection(n=3, {2->1, 3->3}), shift_exponent=2, case='corank_one')"
        )
        assert repr(P.RankCertificate(2, (self.b, self.g), 7, ((1,), (2, 3)))) == (
            "RankCertificate(claimed_rank=2, generating_set=(PartialInjection(n=3, {1->2}), "
            "PartialInjection(n=3, {2->1, 3->3})), order=7, lower_bound_witness=((1,), (2, 3)))"
        )


class TestTopRankFactorization:
    def test_examples_and_steps(self):
        ctx = P.RangeContext(3, (1, 2))
        steps = []
        factors = P.top_rank_factorization(ctx, P.empty_map(3), steps)
        prod = factors[0]
        for f in factors[1:]:
            prod = prod * f
        assert prod == P.empty_map(3)
        assert all(f.rank == 2 for f in factors)
        assert steps[0][0] == "raise_rank"
        assert all(d.beta * d.gamma == a for _, a, d in steps)

    def test_full_range_rejected(self):
        with pytest.raises(errors.FullRangeNotSupported):
            P.top_rank_factorization(P.RangeContext(3, (1, 2, 3)), P.empty_map(3))

    def test_top_rank_is_identity_factorization(self):
        ctx = P.RangeContext(3, (1, 2))
        gbar = P.range_rotation_power(ctx, 1)
        assert P.top_rank_factorization(ctx, gbar) == [gbar]

    def test_top_rank_element_is_never_too_large(self):
        # one factor of r pairs, past where three would be refused
        ctx = P.RangeContext(400001, range(1, 400001))
        a = P.range_rotation_power(ctx, 1)
        assert P.top_rank_factorization(ctx, a) == [a]
        table = list(a.table)
        table[0] = 0
        with pytest.raises(errors.TooLarge):
            P.top_rank_factorization(ctx, P.PartialInjection.from_table(table))

    def test_all_elements_small_grid(self):
        for n in range(2, 5):
            for pts in proper_range_sets(n):
                ctx, S = semigroup(n, pts)
                for a in S:
                    factors = P.top_rank_factorization(ctx, a)
                    assert all(f.rank == len(pts) for f in factors)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_factor_count_bound(self, n):
        # a rank-r element is its own factor, each rank-raising split
        # doubles the factors and a rank-(r-1) element gives at most three:
        # the bound the pipeline refuses past.
        # Some element reaches it, except at n = 2: there r = 1, and the
        # empty map is restricted, so it splits into two factors at once
        reached = False
        for pts in proper_range_sets(n):
            ctx, S = semigroup(n, pts)
            r = len(pts)
            for a in S:
                bound = 1 if a.rank == r else 3 * 2 ** (r - 1 - a.rank)
                count = len(P.top_rank_factorization(ctx, a))
                assert count <= bound
                reached |= a.rank < r and count == bound
        assert reached == (n > 2)


def reference_factor(ctx, a, steps):
    """The pipeline's split walk as a recursion: each split's β factors
    before its γ, and each split's step is recorded before its children's."""
    r = ctx.r
    if a.rank == r:
        return [a]
    if a.rank <= r - 2:
        op, d = "raise_rank", low_rank_split(ctx, a)
    elif P.is_restricted_corank_one(ctx, a):
        op, d = "restricted_split", corank_one_split(ctx, a, restricted=True)
    else:
        op, d = "corank_one_split", corank_one_split(ctx, a)
    steps.append((op, a, d))
    return reference_factor(ctx, d.beta, steps) + reference_factor(ctx, d.gamma, steps)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_factor_walk_matches_recursive_reference(n):
    for pts in proper_range_sets(n):
        ctx, S = semigroup(n, pts)
        for a in S:
            steps, expected_steps = [], []
            assert rank._factor(ctx, a, steps) == reference_factor(ctx, a, expected_steps)
            assert steps == expected_steps


@pytest.mark.parametrize(
    "n, pts, steps, distinct",
    [(8, (1, 2, 4, 6, 7), 45, 15), (12, (1, 2, 4, 5, 7, 8, 10, 11), 341, 40)],
)
def test_factor_splits_each_distinct_input_once(monkeypatch, n, pts, steps, distinct):
    # the levels' bodies each see a distinct input, and `contains` checks
    # the root once and each split's two factors once
    split, checked = [], []
    for body in ("decompose_low_rank", "_corank_one", "_restricted_corank_one"):
        real = getattr(rank, body)
        monkeypatch.setattr(rank, body, lambda ctx, a, real=real: split.append(a) or real(ctx, a))
    real_contains = rank.contains
    monkeypatch.setattr(rank, "contains", lambda ctx, a: checked.append(a) or real_contains(ctx, a))
    recorded = []
    P.top_rank_factorization(P.RangeContext(n, pts), P.empty_map(n), recorded)
    assert len(recorded) == steps
    assert len({a for _, a, _ in recorded}) == len(split) == len(set(split)) == distinct
    assert len(checked) == 1 + 2 * distinct


@pytest.mark.parametrize(
    "body, n, pts, pairs",
    [
        ("decompose_low_rank", 4, (1, 2, 3), [(3, 1)]),
        ("_corank_one", 3, (1, 2), [(3, 1)]),
        ("_restricted_corank_one", 3, (1, 2), [(2, 1)]),
    ],
)
def test_wrong_split_is_refused_at_its_level(monkeypatch, body, n, pts, pairs):
    # a level's split of `a` with β and γ swapped fails the check `_factor`
    # passes it through, under that level's case, before the pipeline's product check
    ctx, a = P.RangeContext(n, pts), P.PartialInjection(n, pairs)
    real = getattr(rank, body)
    d = real(ctx, a)
    assert d.beta * d.gamma == a != d.gamma * d.beta
    monkeypatch.setattr(
        rank, body, lambda ctx, x: (s := real(ctx, x))._replace(beta=s.gamma, gamma=s.beta)
    )
    message = "^%s$" % re.escape("%s factorization failed for %r" % (d.case, a))
    with pytest.raises(errors.DecompositionFailed, match=message):
        P.top_rank_factorization(ctx, a)


def test_traced_name_is_the_split_a_command_runs(monkeypatch, capsys):
    # bench/tracer.py times the raise-rank splits by patching this name: a
    # `decompose` command calls it once for each distinct raise_rank input
    split = []
    real = rank.decompose_low_rank
    monkeypatch.setattr(rank, "decompose_low_rank", lambda ctx, a: split.append(a) or real(ctx, a))
    argv = ["decompose", "--n", "8", "--y", "1,2,4,6,7", "--element", '{"n":8,"pairs":[]}', "--json"]
    assert main(argv) == 0
    steps = json.loads(capsys.readouterr().out)["steps"]
    raised = [step["input"] for step in steps if step["op"] == "raise_rank"]
    assert len(raised) == 15 and len(split) == len(set(raised)) == 9


@st.composite
def members(draw, long_chains=False):
    """A chain size n <= 9, a proper range set Y and one member a.  With
    `long_chains`, also a chain of 256 to 1,000 points, past the `bytes`
    kernel's 255, with |Y| <= 6: the pipeline splits on tuple tables alone."""
    if long_chains and draw(st.booleans()):
        n, most = draw(st.integers(256, 1000)), 6
    else:
        n = draw(st.integers(2, 9))
        most = n - 1
    pts = sorted(draw(st.lists(st.integers(1, n), min_size=1, max_size=most, unique=True)))
    return P.RangeContext(n, pts), draw(member_of(n, pts))


@settings(max_examples=200, deadline=None)
@given(members(long_chains=True))
def test_every_step_splits_a_member_into_members(ctx_a):
    # checked from outside the pipeline, which checks each element once:
    # every step's input and factors are members of the ranks its op makes
    ctx, a = ctx_a
    r, steps = ctx.r, []
    factors = P.top_rank_factorization(ctx, a, steps)
    for op, x, d in steps:
        m = x.rank
        assert all(P.contains(ctx, f) for f in (x, d.beta, d.gamma))
        assert d.beta * d.gamma == x
        assert (m <= r - 2 if op == "raise_rank" else m == r - 1)
        ranks = {"raise_rank": (m + 1, m + 1), "corank_one_split": (r, r - 1), "restricted_split": (r, r)}
        assert (d.beta.rank, d.gamma.rank) == ranks[op]
    assert all(P.contains(ctx, f) and f.rank == r for f in factors)


def assert_factors(d, x, beta_rank, gamma_rank):
    assert d.beta * d.gamma == x
    assert (d.beta.rank, d.gamma.rank) == (beta_rank, gamma_rank)


@settings(max_examples=300, deadline=None)
@given(members())
def test_decomposition_stages_reproduce_the_element(ctx_a):
    ctx, a = ctx_a
    r, m = ctx.r, a.rank
    assert P.shift_decompose(a) == search_shift(a)
    if m <= r - 2:
        d = rank.decompose_low_rank(ctx, a)
        assert (d.beta, d.gamma) == search_low_rank(ctx, a)
        assert_factors(d, a, m + 1, m + 1)
    elif m == r - 1:
        d = corank_one_split(ctx, a)
        assert d.shift_exponent == search_shift(a)[0]
        assert_factors(d, a, r, r - 1)
        assert_factors(corank_one_split(ctx, d.gamma, restricted=True), d.gamma, r, r)
        if P.is_restricted_corank_one(ctx, a):
            assert_factors(corank_one_split(ctx, a, restricted=True), a, r, r)
    factors = P.top_rank_factorization(ctx, a)
    assert all(f.rank == r for f in factors)
    prod = factors[0]
    for f in factors[1:]:
        prod = prod * f
    assert prod == a


@st.composite
def members_of_rank(draw, level):
    """A chain size n <= 8, a proper range set Y and one member a for the
    factorization `level`: "low" (rank at most r-2), "corank_one" (rank
    r-1) or "restricted" (rank r-1, order-preserving, domain inside Y)."""
    least = 2 if level == "low" else 1
    n = draw(st.integers(least + 1, 8))
    size = draw(st.integers(least, n - 1))
    pts = sorted(draw(st.lists(st.integers(1, n), min_size=size, max_size=size, unique=True)))
    k = draw(st.integers(0, size - 2)) if level == "low" else size - 1
    chain = pts if level == "restricted" else range(1, n + 1)
    dom = sorted(draw(st.permutations(chain))[:k])
    img = sorted(draw(st.permutations(pts))[:k])
    t = 0 if level == "restricted" else draw(st.integers(0, max(k - 1, 0)))
    return P.RangeContext(n, pts), P.PartialInjection(n, zip(dom, img[t:] + img[:t]))


LEVELS = {
    "low": (low_rank_split, reference_low_rank),
    "corank_one": (corank_one_split, reference_corank_one),
    "restricted": (partial(corank_one_split, restricted=True), reference_restricted_corank_one),
}


@pytest.mark.parametrize("level", sorted(LEVELS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_table_built_levels_match_object_built_references(level, data):
    ctx, a = data.draw(members_of_rank(level))
    built, reference = LEVELS[level]
    d, ref = built(ctx, a), reference(ctx, a)
    assert (d.beta, d.gamma, d.shift_exponent, d.case) == (
        ref.beta, ref.gamma, ref.shift_exponent, ref.case
    )
    # the factors' domains are what their tables say
    for f in (d.beta, d.gamma):
        assert f.domain == tuple(x for x in range(1, ctx.n + 1) if f.table[x - 1])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_range_rotation_power_is_y_rotated(data):
    n = data.draw(st.integers(1, 9))
    pts = sorted(data.draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)))
    ctx, r = P.RangeContext(n, pts), len(pts)
    t = data.draw(st.integers(-2 * r, 2 * r))
    g = P.range_rotation_power(ctx, t)
    assert g == P.PartialInjection(n, [(pts[m], pts[(m + t) % r]) for m in range(r)])
    assert g.domain == tuple(pts) and P.contains(ctx, g)
    assert g == reference_range_rotation_power(ctx, t)


# sha256 per (n, Y) of `rank --json` stdout, captured before `closure` formed
# one product per restriction class: every Y at n <= 6, full ranges included.
GOLDEN_RANK = os.path.join(os.path.dirname(__file__), "golden", "rank.json")


def rank_digest(n: str, y: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["rank", "--n", n, "--y", y, "--json"]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def rank_digests() -> dict:
    digests = {}
    for n in range(1, 7):
        for pts in all_range_sets(n):
            y = ",".join(map(str, pts))
            digests["%d %s" % (n, y)] = rank_digest(str(n), y)
    return digests


def test_rank_reports_match_golden_digests():
    with open(GOLDEN_RANK) as fh:
        golden = json.load(fh)
    digests = rank_digests()
    assert sorted(digests) == sorted(golden)
    assert [k for k in digests if digests[k] != golden[k]] == []


# sha256 of `rank --json` stdout for seven Y at n = 7, the full range among
# them, and for (8, {1..5}), captured before `closure` returned its set of
# tables instead of sorted elements.
GOLDEN_RANK_LARGE = os.path.join(os.path.dirname(__file__), "golden", "rank_large.json")


def test_larger_rank_reports_match_golden_digests():
    with open(GOLDEN_RANK_LARGE) as fh:
        golden = json.load(fh)
    assert "7 1,2,3,4,5,6,7" in golden and "8 1,2,3,4,5" in golden and len(golden) == 8
    assert {key: rank_digest(*key.split()) for key in golden} == golden
