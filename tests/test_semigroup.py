import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import popi as P
from popi import errors
from popi import semigroup as semigroup_module

from conftest import (
    all_partial_injections,
    all_range_sets,
    member_of,
    ordered_closure,
    rank_layer,
    semigroup,
    sort_key,
)


def brute_force_members(n, pts):
    """Independent oracle: filter every injective partial map directly."""
    yset = set(pts)
    return {
        a
        for a in all_partial_injections(n)
        if a.is_orientation_preserving() and set(a.image_seq) <= yset
    }


class TestRangeContext:
    def test_validation(self):
        with pytest.raises(errors.BadParameters):
            P.RangeContext(3, [])
        with pytest.raises(errors.BadParameters):
            P.RangeContext(0, [1])
        with pytest.raises(errors.PointOutOfRange):
            P.RangeContext(3, [4])
        ctx = P.RangeContext(5, [3, 1])
        assert ctx.points == (1, 3) and ctx.r == 2 and not ctx.is_full

    def test_value_semantics(self):
        ctx = P.RangeContext(5, [3, 1])
        assert ctx == P.RangeContext(5, (1, 3)) and hash(ctx) == hash(P.RangeContext(5, (3, 1)))
        assert ctx != P.RangeContext(5, (1,)) and ctx != P.RangeContext(6, (1, 3))
        assert ctx != (5, (1, 3))
        assert repr(ctx) == "RangeContext(n=5, Y={1, 3})"

    def test_chain_bound(self):
        # past MAX_ELEMENTS points, the rank-1 layer alone is too large
        bound = semigroup_module.MAX_ELEMENTS
        assert P.RangeContext(bound, [1, bound]).n == bound
        with pytest.raises(errors.TooLarge):
            P.RangeContext(bound + 1, [1])


class TestEnumerate:
    def test_small_counts(self):
        assert len(semigroup(3, (1, 2))[1]) == 13
        assert len(semigroup(3, (1, 2, 3))[1]) == 31
        assert len(semigroup(1, (1,))[1]) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_brute_force(self, n):
        for pts in all_range_sets(n):
            _, S = semigroup(n, pts)
            assert set(S.elements) == brute_force_members(n, pts)

    def test_every_member_passes_contains(self):
        ctx, S = semigroup(4, (1, 3))
        for a in S:
            assert P.contains(ctx, a)

    def test_closed_under_composition(self):
        ctx, S = semigroup(4, (1, 3))
        S.mult_table()  # raises if any product escapes

    def test_deterministic_order(self):
        ctx = P.RangeContext(4, (2, 4))
        again = P.enumerate_semigroup(ctx)
        assert again.elements == semigroup(4, (2, 4))[1].elements

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_built_in_sort_key_order(self, n):
        for pts in all_range_sets(n):
            S = P.enumerate_semigroup(P.RangeContext(n, pts))
            assert S.elements == tuple(sorted(S.elements, key=sort_key))
            # the domain handed to from_table is the one the table defines
            assert all(a.domain == P.PartialInjection.from_table(a.table).domain for a in S)

    def test_too_large_boundary(self, monkeypatch):
        assert P.cardinality_formula(10, 10) <= semigroup_module.MAX_ELEMENTS
        ctx = P.RangeContext(3, (1, 2))  # 13 elements
        monkeypatch.setattr(semigroup_module, "MAX_ELEMENTS", 13)
        assert len(P.enumerate_semigroup(ctx)) == 13
        monkeypatch.setattr(semigroup_module, "MAX_ELEMENTS", 12)
        with pytest.raises(errors.TooLarge):
            P.enumerate_semigroup(ctx)

    def test_table_too_large_boundary(self, monkeypatch):
        assert P.cardinality_formula(6, 6) ** 2 <= semigroup_module.MAX_TABLE_ENTRIES
        assert P.cardinality_formula(7, 7) ** 2 > semigroup_module.MAX_TABLE_ENTRIES
        ctx = P.RangeContext(3, (1, 2))  # 13 elements, 169 entries
        monkeypatch.setattr(semigroup_module, "MAX_TABLE_ENTRIES", 169)
        assert len(P.enumerate_semigroup(ctx).mult_table()) == 13
        monkeypatch.setattr(semigroup_module, "MAX_TABLE_ENTRIES", 168)
        with pytest.raises(errors.TooLarge):
            P.enumerate_semigroup(ctx).mult_table()

    def test_table_checked_from_the_chain(self, monkeypatch):
        semigroup_module.check_table_size(6, 6)
        with pytest.raises(errors.TooLarge):
            semigroup_module.check_table_size(7, 7)
        monkeypatch.setattr(semigroup_module, "MAX_TABLE_ENTRIES", 169)
        semigroup_module.check_table_size(3, 2)  # 13^2 entries
        monkeypatch.setattr(semigroup_module, "MAX_TABLE_ENTRIES", 168)
        with pytest.raises(errors.TooLarge):
            semigroup_module.check_table_size(3, 2)

    def test_rank_one_bound_decides_first(self, monkeypatch):
        size_exceeds = semigroup_module.size_exceeds
        assert not size_exceeds(3, 2, 13) and size_exceeds(3, 2, 12)  # 13 elements

        def uncomputable(n, r):
            raise AssertionError("exact count computed")

        monkeypatch.setattr(semigroup_module, "cardinality_formula", uncomputable)
        assert size_exceeds(3, 2, 6)  # 1 + 3*2 = 7 rank-0 and rank-1 elements
        assert size_exceeds(300000, 300000, semigroup_module.MAX_ELEMENTS)


@st.composite
def range_contexts(draw):
    """A chain size n <= 8 and any range set Y."""
    n = draw(st.integers(1, 8))
    pts = draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
    return P.RangeContext(n, pts)


@settings(max_examples=50, deadline=None)
@given(range_contexts())
def test_blocks_give_the_enumeration_order(ctx):
    # each element built from its (domain, image sequence) pair alone, with
    # range and injectivity validated
    built = [
        P.PartialInjection(ctx.n, zip(domain, image))
        for images, domains in semigroup_module.element_blocks(ctx)
        for domain in domains
        for image in images
    ]
    assert tuple(built) == P.enumerate_semigroup(ctx).elements
    assert all(P.contains(ctx, a) for a in built)


@settings(max_examples=50, deadline=None)
@given(range_contexts())
def test_one_block_per_rank(ctx):
    n, r = ctx.n, ctx.r
    blocks = list(semigroup_module.element_blocks(ctx))
    assert len(blocks) == r + 1
    for k, (images, domains) in enumerate(blocks):
        domains = list(domains)
        assert len(domains) == math.comb(n, k) == len(set(domains))
        assert all(len(d) == k and list(d) == sorted(d) for d in domains)
        assert len(images) == max(k, 1) * math.comb(r, k) == len(set(images))
        assert all(len(seq) == k and set(seq) <= ctx.point_set for seq in images)
    assert blocks[0][0] == [()]


def test_blocks_refuse_before_the_first_block():
    blocks = semigroup_module.element_blocks(P.RangeContext(30, range(1, 31)))
    with pytest.raises(errors.TooLarge, match="n=30 with \\|Y\\|=30 gives more than 1000000"):
        next(blocks)


class TestElementSets:
    def test_duplicate_elements_rejected(self):
        with pytest.raises(errors.BadParameters):
            P.ElementSet([P.empty_map(2), P.empty_map(2)])

    def test_closure_needs_a_generator(self):
        with pytest.raises(errors.BadParameters):
            P.closure(P.RangeContext(2, (1,)), [])


class TestCardinalityFormula:
    def test_values(self):
        assert P.cardinality_formula(3, 2) == 13
        assert P.cardinality_formula(3, 3) == 31
        for n in range(1, 9):
            assert P.cardinality_formula(n, 1) == 1 + n

    def test_bad_parameters(self):
        with pytest.raises(errors.BadParameters):
            P.cardinality_formula(3, 4)
        with pytest.raises(errors.BadParameters):
            P.cardinality_formula(3, 0)

    def test_layer_counting_identity(self):
        # the closed form sums the per-rank layer sizes
        for n in range(1, 8):
            for r in range(1, n + 1):
                layered = 1 + sum(
                    k * math.comb(n, k) * math.comb(r, k) for k in range(1, r + 1)
                )
                assert layered == P.cardinality_formula(n, r)


class TestContains:
    def test_examples(self):
        ctx = P.RangeContext(3, (1, 2))
        assert P.contains(ctx, P.PartialInjection(3, [(3, 1)]))
        assert not P.contains(ctx, P.PartialInjection(3, [(1, 3)]))
        assert P.contains(ctx, P.empty_map(3))

    def test_chain_mismatch(self):
        with pytest.raises(errors.MismatchedChainSize):
            P.contains(P.RangeContext(3, (1,)), P.empty_map(4))

    def test_rejects_non_injective_table(self):
        # `from_table` trusts its table; 1 and 2 both going to 2 is no injection
        ctx = P.RangeContext(3, (1, 2))
        assert not P.contains(ctx, P.PartialInjection.from_table([2, 2, 0]))


@st.composite
def member_pairs(draw):
    """A chain size n <= 9, any range set Y and two members a, b."""
    n = draw(st.integers(1, 9))
    pts = sorted(draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)))
    return P.RangeContext(n, pts), draw(member_of(n, pts)), draw(member_of(n, pts))


@settings(max_examples=300, deadline=None)
@given(member_pairs())
def test_products_of_members_are_members(ctx_a_b):
    ctx, a, b = ctx_a_b
    assert P.contains(ctx, a) and P.contains(ctx, b)
    assert P.contains(ctx, a * b)


class TestClosure:
    def test_zero_alone(self):
        ctx = P.RangeContext(3, (1, 2))
        C = ordered_closure(ctx, [P.empty_map(3)])
        assert C.elements == (P.empty_map(3),)

    def test_canonical_set_generates_everything(self):
        ctx, S = semigroup(3, (1, 2))
        C = ordered_closure(ctx, P.canonical_generating_set(ctx))
        assert set(C.elements) == set(S.elements)

    def test_idempotent_on_full_set(self):
        ctx, S = semigroup(3, (1, 2))
        C = ordered_closure(ctx, list(S.elements))
        assert C.elements == S.elements

    def test_rejects_outside_generator(self):
        ctx = P.RangeContext(3, (1, 2))
        with pytest.raises(errors.GeneratorOutsideSemigroup):
            P.closure(ctx, [P.PartialInjection(3, [(1, 3)])])


class TestRankLayer:
    def test_layer_sizes(self):
        _, S = semigroup(3, (1, 2))
        assert len(rank_layer(S, 1)) == 6
        assert len(rank_layer(S, 2)) == 6
        zero = rank_layer(S, 0)
        assert [S[i] for i in zero] == [P.empty_map(3)]

    def test_layer_counts_match_binomials(self):
        for n in range(1, 6):
            for pts in all_range_sets(n):
                _, S = semigroup(n, pts)
                r = len(pts)
                for k in range(1, r + 1):
                    expect = k * math.comb(n, k) * math.comb(r, k)
                    assert len(rank_layer(S, k)) == expect
