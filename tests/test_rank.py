import contextlib
import hashlib
import io
import json
import math
import os
import random
from bisect import bisect
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import popi as P
from popi import errors
from popi.cli import main

from popi.rank import _checked, _gap_point, _missing_index, full_range_pair

from conftest import all_range_sets, member_of, proper_range_sets, rank_layer, semigroup


def pi(n, *pairs):
    return P.PartialInjection(n, pairs)


# -- reference searches -----------------------------------------------------
# Search oracles for `shift_decompose`, `decompose_low_rank` and
# `full_range_pair`.  Each returns the first factorization or generator in its
# search order; the constructions must return exactly the same.


def search_shift(a):
    """The smallest shift l whose rotation leaves an order-preserving part."""
    n = a.n
    for l in range(n):
        a1 = P.rotation_perm(n, -l) * a
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
                gamma0 = beta.inverse() * a
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
    g = P.rotation_perm(ctx.n)
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
# pair lists, `order_isomorphism`, `inverse`, `rotation_perm` and products.
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
        raise errors.RankTooHigh("rank %d exceeds %d" % (m, r - 2))
    c = next(x for x in range(1, n + 1) if x not in a.domain)
    ext = sorted(a.domain + (c,))
    b_img = ctx.points[: m + 1]
    free = sorted(ctx.point_set - a.image)
    outside = [d for d in range(1, n + 1) if d not in b_img]
    for t in range(m + 1):
        beta = P.PartialInjection(n, zip(ext, b_img[t:] + b_img[:t]))
        gamma0 = beta.inverse() * a
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
        raise errors.BadRank("expected rank %d, got %d" % (r - 1, a.rank))
    l, a1 = P.shift_decompose(a)
    dom1 = set(a1.domain)
    c = min(set(range(1, n + 1)) - dom1)
    beta = P.order_isomorphism(n, sorted(dom1 | {c}), ctx.points)
    gamma = beta.inverse() * a1
    if not P.is_restricted_corank_one(ctx, gamma):
        raise errors.DecompositionFailed("corank-one factor %r is not restricted" % (gamma,))
    d = P.Decomposition(P.rotation_perm(n, l) * beta, gamma, shift_exponent=l, case="corank_one")
    return _checked(ctx, a, d, (r, r - 1))


def reference_restricted_corank_one(ctx, a):
    if ctx.is_full:
        raise errors.FullRangeNotSupported("full-range sets admit no insertion point")
    if not P.is_restricted_corank_one(ctx, a):
        raise errors.NotRestricted("%r" % (a,))
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
            assert P.range_rotation_power(ctx, 1) == P.rotation_perm(n)

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
        assert P.rotation_perm(3).power(l) * a1 == a
        assert a1.is_order_preserving() and a1.image == a.image

    def test_rejects_non_orientation_preserving(self):
        with pytest.raises(errors.NotOrientationPreserving):
            P.shift_decompose(pi(3, (1, 2), (2, 1), (3, 3)))

    def test_exhaustive_small(self):
        for n in range(1, 6):
            ctx, S = semigroup(n, tuple(range(1, n + 1)))
            for a in S:
                l, a1 = P.shift_decompose(a)
                assert 0 <= l < n
                assert a1.is_order_preserving()
                assert a1.image == a.image
                assert P.rotation_perm(n).power(l) * a1 == a


class TestDecomposeLowRank:
    def test_empty_in_small_context(self):
        ctx = P.RangeContext(3, (1, 2))
        d = P.decompose_low_rank(ctx, P.empty_map(3))
        assert d.beta.rank == 1 and d.gamma.rank == 1
        assert d.beta * d.gamma == P.empty_map(3)

    def test_rank_one_in_bigger_context(self):
        ctx = P.RangeContext(4, (1, 2, 3))
        a = pi(4, (3, 1))
        d = P.decompose_low_rank(ctx, a)
        assert d.beta.rank == 2 and d.gamma.rank == 2
        assert d.beta * d.gamma == a

    def test_rejects_high_rank(self):
        ctx = P.RangeContext(3, (1, 2))
        with pytest.raises(errors.RankTooHigh):
            P.decompose_low_rank(ctx, pi(3, (3, 1)))

    def test_rejects_non_member(self):
        ctx = P.RangeContext(4, (1, 2, 3))
        with pytest.raises(errors.NotAMember):
            P.decompose_low_rank(ctx, pi(4, (1, 4)))

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
                    d = P.decompose_low_rank(ctx, a)
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
                d = P.decompose_low_rank(ctx, a)
                assert (d.beta, d.gamma) == search_low_rank(ctx, a)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_full_range_pair_matches_search(n):
    ctx, S = semigroup(n, tuple(range(1, n + 1)))
    g, a = full_range_pair(n)
    assert g == P.rotation_perm(n)
    assert a == search_full_range_pair(ctx, S)


class TestDecomposeCorankOne:
    def test_worked_example(self):
        ctx = P.RangeContext(3, (1, 2))
        d = P.decompose_corank_one(ctx, pi(3, (3, 1)))
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
                    d = P.decompose_corank_one(ctx, a)
                    assert d.beta.rank == r
                    assert P.is_restricted_corank_one(ctx, d.gamma)
                    assert d.beta * d.gamma == a

    def test_bad_rank(self):
        ctx = P.RangeContext(3, (1, 2))
        with pytest.raises(errors.BadRank):
            P.decompose_corank_one(ctx, P.empty_map(3))

    def test_rejects_non_member(self):
        ctx = P.RangeContext(3, (1, 2))
        with pytest.raises(errors.NotAMember):
            P.decompose_corank_one(ctx, pi(3, (1, 3)))


class TestDecomposeRestrictedCorankOne:
    def test_worked_example(self):
        ctx = P.RangeContext(3, (1, 2))
        d = P.decompose_restricted_corank_one(ctx, pi(3, (2, 1)))
        assert d.case == "high.lt"
        assert d.beta == P.identity_on(3, {1, 2})
        assert d.gamma == pi(3, (2, 1), (3, 2))
        assert d.beta * d.gamma == pi(3, (2, 1))

    def test_case_dispatch(self):
        ctx = P.RangeContext(3, (2, 3))
        for a in semigroup(3, (2, 3))[1]:
            if P.is_restricted_corank_one(ctx, a):
                assert P.decompose_restricted_corank_one(ctx, a).case.startswith("low.")
        ctx2 = P.RangeContext(4, (1, 2, 4))
        for a in semigroup(4, (1, 2, 4))[1]:
            if P.is_restricted_corank_one(ctx2, a):
                assert P.decompose_restricted_corank_one(ctx2, a).case.startswith("gap.")

    def test_rejects_outsiders(self):
        ctx = P.RangeContext(3, (1, 2))
        with pytest.raises(errors.NotRestricted):
            P.decompose_restricted_corank_one(ctx, pi(3, (3, 1)))
        with pytest.raises(errors.FullRangeNotSupported):
            P.decompose_restricted_corank_one(
                P.RangeContext(3, (1, 2, 3)), pi(3, (1, 1), (2, 2))
            )

    def test_all_restricted_elements(self):
        for n in range(2, 6):
            for pts in proper_range_sets(n):
                ctx, S = semigroup(n, pts)
                for a in S:
                    if not P.is_restricted_corank_one(ctx, a):
                        continue
                    d = P.decompose_restricted_corank_one(ctx, a)
                    assert d.beta.rank == ctx.r == d.gamma.rank
                    assert P.contains(ctx, d.beta) and P.contains(ctx, d.gamma)
                    assert d.beta * d.gamma == a


class TestRotationExponent:
    def test_worked_example(self):
        ctx = P.RangeContext(3, (1, 2))
        b = pi(3, (1, 1), (3, 2))
        a = pi(3, (1, 2), (3, 1))
        assert P.rotation_exponent_between(ctx, a, b) == 1

    def test_zero_for_equal(self):
        ctx = P.RangeContext(3, (1, 2))
        b = pi(3, (1, 1), (3, 2))
        assert P.rotation_exponent_between(ctx, b, b) == 0

    def test_max_exponent(self):
        ctx = P.RangeContext(4, (1, 3, 4))
        b = P.order_isomorphism(4, [1, 2, 3], ctx.points)
        a = b * P.range_rotation_power(ctx, ctx.r - 1)
        assert P.rotation_exponent_between(ctx, a, b) == ctx.r - 1

    def test_domain_mismatch(self):
        ctx = P.RangeContext(3, (1, 2))
        with pytest.raises(errors.DomainMismatch):
            P.rotation_exponent_between(
                ctx, pi(3, (1, 1), (2, 2)), pi(3, (1, 1), (3, 2))
            )

    def test_rejects_rank_below_top(self):
        ctx = P.RangeContext(3, (1, 2))
        with pytest.raises(errors.BadRank):
            P.rotation_exponent_between(ctx, pi(3, (1, 1), (3, 2)), pi(3, (1, 1)))

    def test_rejects_non_member(self):
        ctx = P.RangeContext(3, (1, 2))
        with pytest.raises(errors.NotAMember):
            P.rotation_exponent_between(ctx, pi(3, (1, 1), (3, 2)), pi(3, (1, 1), (3, 3)))

    def test_enumerates_full_h_class(self):
        # two top-rank elements with a common domain differ by a unique
        # rotation power, and the powers sweep out the whole H-class
        for n in range(2, 6):
            for pts in proper_range_sets(n):
                ctx, S = semigroup(n, pts)
                r = len(pts)
                by_dom = {}
                for i in rank_layer(S, r):
                    by_dom.setdefault(S[i].domain, []).append(S[i])
                for dom, members in by_dom.items():
                    assert len(members) == r
                    b = members[0]
                    seen = {P.rotation_exponent_between(ctx, a, b) for a in members}
                    assert seen == set(range(r))


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
        for n in range(2, 6):
            for pts in proper_range_sets(n):
                ctx, S = semigroup(n, pts)
                gens = P.canonical_generating_set(ctx)
                assert len(gens) == math.comb(n, len(pts))
                assert len(P.closure(ctx, gens)) == len(S)

    def test_full_range_rejected(self):
        with pytest.raises(errors.FullRangeNotSupported):
            P.canonical_generating_set(P.RangeContext(3, (1, 2, 3)))

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


class TestChecked:
    """The one check every factorization stage passes its factors through."""

    ctx = P.RangeContext(3, (1, 2))

    def test_rejects_wrong_rank(self):
        d = P.decompose_low_rank(self.ctx, P.empty_map(3))
        assert _checked(self.ctx, P.empty_map(3), d, (1, 1)) is d
        with pytest.raises(errors.DecompositionFailed):
            _checked(self.ctx, P.empty_map(3), d, (2, 2))

    def test_rejects_non_member_factor(self):
        # 1 -> 3 -> 1 multiplies out right, but beta's image leaves Y
        d = P.Decomposition(pi(3, (1, 3)), pi(3, (3, 1)), case="low")
        assert d.beta * d.gamma == pi(3, (1, 1)) and not P.contains(self.ctx, d.beta)
        with pytest.raises(errors.DecompositionFailed):
            _checked(self.ctx, pi(3, (1, 1)), d, (1, 1))

    def test_rejects_wrong_product(self):
        a = pi(3, (3, 1))
        d = P.decompose_corank_one(self.ctx, a)
        _checked(self.ctx, a, d, (2, 1))
        with pytest.raises(errors.DecompositionFailed):
            _checked(self.ctx, pi(3, (3, 2)), d, (2, 1))


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

    def test_all_elements_small_grid(self):
        for n in range(2, 5):
            for pts in proper_range_sets(n):
                ctx, S = semigroup(n, pts)
                for a in S:
                    factors = P.top_rank_factorization(ctx, a)
                    assert all(f.rank == len(pts) for f in factors)


@st.composite
def members(draw):
    """A chain size n <= 9, a proper range set Y and one member a."""
    n = draw(st.integers(2, 9))
    pts = sorted(draw(st.lists(st.integers(1, n), min_size=1, max_size=n - 1, unique=True)))
    return P.RangeContext(n, pts), draw(member_of(n, pts))


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
        d = P.decompose_low_rank(ctx, a)
        assert (d.beta, d.gamma) == search_low_rank(ctx, a)
        assert_factors(d, a, m + 1, m + 1)
    elif m == r - 1:
        d = P.decompose_corank_one(ctx, a)
        assert d.shift_exponent == search_shift(a)[0]
        assert_factors(d, a, r, r - 1)
        assert_factors(P.decompose_restricted_corank_one(ctx, d.gamma), d.gamma, r, r)
        if P.is_restricted_corank_one(ctx, a):
            assert_factors(P.decompose_restricted_corank_one(ctx, a), a, r, r)
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
    "low": (P.decompose_low_rank, reference_low_rank),
    "corank_one": (P.decompose_corank_one, reference_corank_one),
    "restricted": (P.decompose_restricted_corank_one, reference_restricted_corank_one),
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
