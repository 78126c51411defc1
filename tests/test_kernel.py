"""The slot-table product kernel against the definitions it replaces.

`compose`, `ElementSet.mult_table` and `closure` all multiply through
`left_multiplier`; these tests hold each of them to a definition-level
reference built from `PartialInjection` values.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import popi as P
from popi import errors
from popi.rank import full_range_pair
from popi.semigroup import _restrictions
from popi.transform import left_multiplier, padded

from conftest import (
    all_partial_injections,
    all_range_sets,
    member_of,
    ordered_closure,
    semigroup,
    sort_key,
)


def reference_table(S):
    """The definition-level table: one `PartialInjection` product per entry."""
    return [[S.index_of(a * b) for b in S] for a in S]


def pointwise_product(a, b):
    """x(ab) = (xa)b wherever both steps are defined."""
    return P.PartialInjection(
        a.n, [(x, b(a(x))) for x in a.domain if a(x) in b.domain]
    )


def naive_closure(gens):
    """Breadth-first closure under `PartialInjection.compose`, sorted."""
    elems = set(gens)
    frontier = list(elems)
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                p = a * g
                if p not in elems:
                    elems.add(p)
                    fresh.append(p)
        frontier = fresh
    return tuple(sorted(elems, key=sort_key))


class TestKernel:
    def test_one_point_chain(self):
        # a one-argument itemgetter would return a bare int
        assert left_multiplier((1,))(padded((1,))) == (1,)
        assert left_multiplier((1,))(padded((0,))) == (0,)
        assert left_multiplier((0,))(padded((1,))) == (0,)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_compose_matches_pointwise_definition(self, n):
        maps = list(all_partial_injections(n))
        for a in maps:
            for b in maps:
                assert a * b == pointwise_product(a, b)


class TestMultTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_reference_table(self, n):
        for pts in all_range_sets(n):
            _, S = semigroup(n, pts)
            assert S.mult_table() == reference_table(S), pts

    def test_one_element_set(self):
        # one class per row, and a one-argument gather
        S = ordered_closure(P.RangeContext(3, [1, 2]), [P.empty_map(3)])
        assert S.mult_table() == reference_table(S) == [[0]]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closures_match_reference_table(self, n):
        rng = random.Random(n)
        for pts in all_range_sets(n):
            ctx, S = semigroup(n, pts)
            low = [a for a in S if a.rank <= 1]
            choices = [rng.sample(S.elements, min(k, len(S))) for k in (1, 2, 3)]
            choices += [rng.sample(low, 1), [P.empty_map(n)] + rng.sample(S.elements, 2)]
            for gens in choices:
                C = ordered_closure(ctx, gens)
                assert C.mult_table() == reference_table(C), (pts, gens)

    def test_open_set_raises(self):
        a = P.PartialInjection(3, [(1, 2), (2, 3)])  # a * a = {1 -> 3}
        with pytest.raises(KeyError):
            P.ElementSet([a, P.empty_map(3)]).mult_table()

    def test_mixed_chains_raise(self):
        # (1, 2) * (1, 2, 3) would read as (1, 2) if table lengths went unchecked
        a, b = P.identity_on(2, [1, 2]), P.identity_on(3, [1, 2, 3])
        with pytest.raises(errors.MismatchedChainSize):
            P.ElementSet([a, b]).mult_table()


class TestClosure:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_naive_search(self, n):
        rng = random.Random(n)
        for pts in all_range_sets(n):
            ctx, S = semigroup(n, pts)
            choices = [rng.sample(S.elements, min(k, len(S))) for k in (1, 2, 3)]
            if len(pts) < n:
                choices.append(P.canonical_generating_set(ctx))
            else:
                choices.append(list(full_range_pair(n)))
            for gens in choices:
                C = ordered_closure(ctx, gens + gens[:1])
                assert C.elements == naive_closure(gens), (pts, gens)
                assert P.closure(ctx, gens + gens[:1]).generators == tuple(gens)

    def test_generators_agreeing_on_an_image_share_a_class(self):
        # both send 2 to 3 and leave 3 undefined, so they agree on {2, 3},
        # the image of g, and differ at 1
        ctx = P.RangeContext(3, [1, 2, 3])
        g = P.PartialInjection(3, [(1, 2), (2, 3)])
        h = P.PartialInjection(3, [(1, 1), (2, 3)])
        right = [padded(g.table), padded(h.table)]
        on_image, elsewhere = _restrictions(frozenset(g.table), right), _restrictions((1,), right)
        assert on_image[0] == on_image[1] and elsewhere[0] != elsewhere[1]
        assert ordered_closure(ctx, [g, h]).elements == naive_closure([g, h])
        assert P.closure(ctx, [g, h]).generators == (g, h)

    def test_classes_read_the_image_not_the_domain(self):
        # the generators agree on the domain {1} of the product {1->2} and
        # differ on its image {2}; classing them by the domain loses one of
        # {1->2}*g = {1->1} and {1->2}*h = {}
        ctx = P.RangeContext(3, [1, 2])
        gens = [
            P.PartialInjection(3, [(1, 2), (2, 1)]),
            P.PartialInjection(3, [(1, 2), (3, 1)]),
        ]
        C = ordered_closure(ctx, gens)
        assert C.elements == naive_closure(gens) and len(C) == 11

    def test_duplicate_generators_keep_first_seen_order(self):
        ctx, S = semigroup(4, (1, 3))
        a, b = S[5], S[9]
        assert P.closure(ctx, [b, a, b, a, b]).generators == (b, a)
        assert ordered_closure(ctx, [b, a, b, a, b]).elements == naive_closure([b, a])

    def test_floor_keeps_the_top_layers_and_checks_every_generator(self):
        ctx = P.RangeContext(4, (1, 3))
        gens = P.canonical_generating_set(ctx)
        S = ordered_closure(ctx, gens)
        assert ordered_closure(ctx, gens, 2).elements == tuple(a for a in S if a.rank == 2)
        assert ordered_closure(ctx, gens, 3).elements == ()
        # below the floor a generator seeds nothing, but is still checked
        low = P.PartialInjection(4, [(2, 1)])
        C = ordered_closure(ctx, [low] + gens, 2)
        assert C.elements == ordered_closure(ctx, gens, 2).elements
        assert P.closure(ctx, [low] + gens, 2).generators == (low, *gens)
        with pytest.raises(errors.GeneratorOutsideSemigroup):
            P.closure(ctx, [P.PartialInjection(4, [(2, 2)])] + gens, 2)

    def test_one_point_chain(self):
        # a one-slot table multiplies through the one-point kernel
        ctx = P.RangeContext(1, [1])
        one, zero = P.identity_on(1, [1]), P.empty_map(1)
        assert ordered_closure(ctx, [one]).elements == (one,)
        assert ordered_closure(ctx, [zero]).elements == (zero,)
        assert ordered_closure(ctx, [one, zero]).elements == (zero, one)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_closure_matches_naive_search(data):
    n = data.draw(st.integers(1, 7))
    pts = sorted(data.draw(st.sets(st.integers(1, n), min_size=1)))
    gens = data.draw(st.lists(member_of(n, pts), min_size=1, max_size=4))
    ctx = P.RangeContext(n, pts)
    assert ordered_closure(ctx, gens).elements == naive_closure(gens)
    assert P.closure(ctx, gens).generators == tuple(dict.fromkeys(gens))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_closure_is_the_set_of_its_tables(data):
    n = data.draw(st.integers(1, 7))
    pts = sorted(data.draw(st.sets(st.integers(1, n), min_size=1)))
    gens = data.draw(st.lists(member_of(n, pts), min_size=1, max_size=4))
    k = data.draw(st.integers(-1, n + 1))
    C = P.closure(P.RangeContext(n, pts), gens, k)
    assert isinstance(C, frozenset)
    assert C == {a.table for a in naive_closure(gens) if a.rank >= k}
    assert C.generators == tuple(dict.fromkeys(gens))


@st.composite
def maps_on(draw, n):
    images = draw(st.permutations(range(1, n + 1)))
    defined = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return P.PartialInjection(
        n, [(x, y) for x, (y, keep) in enumerate(zip(images, defined), 1) if keep]
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_closure_table_matches_reference(data):
    n = data.draw(st.integers(1, 6))
    pts = sorted(data.draw(st.sets(st.integers(1, n), min_size=1)))
    gens = data.draw(st.lists(member_of(n, pts), min_size=1, max_size=3))
    S = ordered_closure(P.RangeContext(n, pts), gens)
    # the reference forms |S|^2 products: 7.7 M for the 2,773 elements of
    # the full range at n = 6, about 20 s.  The bound still passes the
    # 631-element full range at n = 5, which the exhaustive sweep covers.
    assume(len(S) <= 1000)
    assert S.mult_table() == reference_table(S)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_closure_above_a_floor_is_the_top_of_the_full_closure(data):
    n = data.draw(st.integers(1, 7))
    pts = sorted(data.draw(st.sets(st.integers(1, n), min_size=1)))
    gens = data.draw(st.lists(member_of(n, pts), min_size=1, max_size=4))
    k = data.draw(st.integers(-1, n + 1))
    ctx = P.RangeContext(n, pts)
    C = ordered_closure(ctx, gens, k)
    assert C.elements == tuple(a for a in ordered_closure(ctx, gens) if a.rank >= k)
    assert P.closure(ctx, gens, k).generators == tuple(dict.fromkeys(gens))
    outsider = data.draw(maps_on(n))
    if not P.contains(ctx, outsider):
        with pytest.raises(errors.GeneratorOutsideSemigroup):
            P.closure(ctx, gens + [outsider], max(k, outsider.rank + 1))


triples = st.integers(1, 9).flatmap(lambda n: st.tuples(maps_on(n), maps_on(n), maps_on(n)))


@settings(max_examples=300, deadline=None)
@given(triples)
def test_product_is_associative_and_pointwise(abc):
    a, b, c = abc
    assert (a * b) * c == a * (b * c)
    assert a * b == pointwise_product(a, b)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(maps_on))
def test_inverse_is_a_generalized_inverse(a):
    b = a.inverse()
    assert a * b * a == a
    assert b * a * b == b
