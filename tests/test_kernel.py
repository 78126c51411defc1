"""The two product kernels against the definitions they replace.

Each table format has one owner and one product.  `transform` owns the
tuple table of an element, which `compose` multiplies in one `itemgetter`
call.  `semigroup` owns the `bytes` table of the searches, which
`ElementSet.mult_table` and `closure` multiply through `bytes.translate` and
`_right_factor`.  These tests hold each product to a definition-level
reference built from `PartialInjection` values, and the search kernel to
`compose`.  `mult_table` forms one row per domain and gathers the others
from it; the tests below shuffle, thin and break the sets it reads so that
every branch of that row loop runs against the reference.
"""

import math
import random
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import popi as P
from popi import errors
from popi.semigroup import _restrictions, _right_factor

from conftest import (
    all_partial_injections,
    all_range_sets,
    full_table,
    member_of,
    ordered_closure,
    semigroup,
    sort_key,
    table_index,
)


def reference_table(S):
    """The definition-level table: one `PartialInjection` product per entry."""
    elements = list(S)
    at = table_index(S)
    return [[at[bytes((a * b).table)] for b in elements] for a in elements]


def bytes_reference(S):
    """The table of a set of `bytes` tables of any maps at all, injective or
    not, by the definition x(ab) = (xa)b: one product per entry."""
    index = {t: i for i, t in enumerate(S.tables)}
    return [
        [index[bytes(b[x - 1] if x else 0 for x in a)] for b in S.tables] for a in S.tables
    ]


class CountingIndex(dict):
    """A table index that counts its lookups: each is one product formed."""

    lookups = 0

    def __getitem__(self, table):
        self.lookups += 1
        return super().__getitem__(table)


def products_formed(S):
    """The products `S.mult_table()` forms, counted through its index."""
    S._index = CountingIndex(S._index)
    S.mult_table()
    return S._index.lookups


def first_of_domain(S):
    """Each element's index -> the index of the first element of its domain."""
    first = {}
    return [first.setdefault(tuple(map(bool, t)), i) for i, t in enumerate(S.tables)]


def gathered_floor(S):
    """The products `mult_table` forms if it gathers every row it may: the
    rows of each domain's first element, and the rows of one class."""
    rows, _ = S.mult_table()
    first = first_of_domain(S)
    return sum(len(row) for i, row in enumerate(rows) if first[i] == i or len(row) == 1)


def c(k, r):
    """The restriction classes on a k-set: the orientation-preserving
    partial injections from it into an r-set, one per image of j points
    (C(k, j) domains, C(r, j) images, j rotations) and the empty one."""
    return 1 + sum(math.comb(k, j) * j * math.comb(r, j) for j in range(1, k + 1))


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
        one, zero = P.identity_on(1, [1]), P.empty_map(1)
        assert (one * one).table == (1,)
        assert (one * zero).table == (0,)
        assert (zero * one).table == (0,)

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
            assert full_table(S) == reference_table(S), pts

    def test_one_element_set(self):
        # one class per row, and a one-argument gather
        S = ordered_closure(P.RangeContext(3, [1, 2]), [P.empty_map(3)])
        assert full_table(S) == reference_table(S) == [[0]]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closures_match_reference_table(self, n):
        rng = random.Random(n)
        for pts in all_range_sets(n):
            ctx, S = semigroup(n, pts)
            low = [a for a in S if a.rank <= 1]
            choices = [rng.sample(tuple(S), min(k, len(S))) for k in (1, 2, 3)]
            choices += [rng.sample(low, 1), [P.empty_map(n)] + rng.sample(tuple(S), 2)]
            for gens in choices:
                C = ordered_closure(ctx, gens)
                assert full_table(C) == reference_table(C), (pts, gens)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_shuffled_sets_match_reference_table(self, n):
        # a domain's first element is then any of its rotations, and every
        # other row of the domain is gathered from that one
        rng = random.Random(n)
        for pts in all_range_sets(n):
            _, S = semigroup(n, pts)
            for _ in range(2):
                tables = list(S.tables)
                rng.shuffle(tables)
                T = P.ElementSet(tables)
                formed = products_formed(T)
                assert formed == gathered_floor(T) == products_formed(P.ElementSet(S.tables))
                assert full_table(T) == reference_table(T), pts

    @pytest.mark.parametrize(
        "n, pts, formed",
        [
            # Σ_k C(7, k)·c(k, 3) = 1 + 7·4 + 21·13 + 35·31
            (7, (1, 2, 4), 1387),
            # Σ_k C(6, k)·c(k, 4) = 1 + 6·5 + 15·21 + 20·61 + 15·141
            (6, (2, 4, 5, 6), 3681),
            # Σ_k C(6, k)·c(k, 6) = 1 + 6·7 + 15·43 + 20·169 + 15·505
            #                       + 6·1,261 + 2,773
            (6, (1, 2, 3, 4, 5, 6), 21982),
        ],
    )
    def test_one_row_formed_per_domain(self, n, pts, formed):
        # each k-point domain forms the c(k) products of one row, of the
        # k·C(r, k)·c(k) the rows of that domain hold
        _, S = semigroup(n, pts)
        T = P.ElementSet(S.tables)
        assert formed == sum(math.comb(n, k) * c(k, len(pts)) for k in range(len(pts) + 1))
        assert products_formed(T) == formed

    def test_closures_without_a_class_form_their_rows(self):
        # σ·h on im b need not be a restriction of any member of a closure;
        # then the row of a is formed, not gathered, and still exact
        rng = random.Random(4)
        fallbacks = 0
        for pts in all_range_sets(4):
            ctx, S = semigroup(4, pts)
            for k in (1, 2, 3):
                C = ordered_closure(ctx, rng.sample(tuple(S), min(k, len(S))))
                fallbacks += products_formed(C) > gathered_floor(C)
                assert full_table(C) == reference_table(C), (pts, k)
        assert fallbacks > 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_maps_that_are_not_injective(self, seed):
        # all 64 partial maps of {1, 2, 3}, in a random order; between two
        # of one domain, maketrans keeps the last of the values one point
        # takes, so b·σ = a fails for pairs such as b = (1, 1, 2), a = (2, 3, 2)
        tables = [bytes(t) for t in product(range(4), repeat=3)]
        random.Random(seed).shuffle(tables)
        S = P.ElementSet(tables)
        first = first_of_domain(S)
        rejected = sum(
            tables[j].translate(bytes.maketrans(tables[j], a)) != a
            for a, j in zip(tables, first)
        )
        assert rejected > 0
        assert full_table(S) == bytes_reference(S)

    def test_later_left_of_one_class(self):
        # (1, 1) reads its right factor at 1 alone, so its row has one class
        S = P.ElementSet([bytes((1, 2)), bytes((1, 1))])
        assert full_table(S) == bytes_reference(S) == [[0, 1], [1, 1]]

    def test_open_set_raises_from_a_later_row(self):
        # every product of (1, 2) and of the maps of rank at most one is a
        # member; only (2, 1)·(1, 0) = (0, 1) and (2, 1)·(2, 0) = (0, 2) are
        # not, and (2, 1) is the second element of its domain
        tables = [bytes(t) for t in ((1, 2), (2, 1), (1, 0), (2, 0), (0, 0))]
        S = P.ElementSet(tables)
        for a in tables:
            missing = {bytes(b[x - 1] if x else 0 for x in a) for b in tables} - set(tables)
            assert missing == ({bytes((0, 1)), bytes((0, 2))} if a == tables[1] else set())
        with pytest.raises(KeyError):
            S.mult_table()

    def test_open_set_raises(self):
        a = P.PartialInjection(3, [(1, 2), (2, 3)])  # a * a = {1 -> 3}
        with pytest.raises(KeyError):
            P.ElementSet([bytes(a.table), bytes(3)]).mult_table()

    def test_mixed_chains_raise(self):
        # (1, 2) * (1, 2, 3) would read as (1, 2) if table lengths went
        # unchecked; they are checked when the set is built
        with pytest.raises(errors.MismatchedChainSize):
            P.ElementSet([bytes((1, 2)), bytes((1, 2, 3))])


class TestClosure:
    @pytest.mark.parametrize(
        "n, floors",
        [pytest.param(n, False, id=str(n)) for n in range(1, 6)]
        + [pytest.param(n, True, id="%d-floors" % n) for n in range(1, 6)],
    )
    def test_matches_naive_search(self, n, floors):
        # without floors the whole closure; with them every floor from 1,
        # which drops the empty map, to |Y| + 1, which keeps nothing
        rng = random.Random(n)
        for pts in all_range_sets(n):
            ctx, S = semigroup(n, pts)
            choices = [rng.sample(tuple(S), min(k, len(S))) for k in (1, 2, 3)]
            choices.append(P.canonical_generating_set(ctx))
            for gens in choices:
                naive = naive_closure(gens)
                for k in range(1, len(pts) + 2) if floors else (0,):
                    C = ordered_closure(ctx, gens + gens[:1], k)
                    assert tuple(C) == tuple(a for a in naive if a.rank >= k), (pts, gens, k)
                    assert P.closure(ctx, gens + gens[:1], k).generators == tuple(gens)

    def test_generators_agreeing_on_an_image_share_a_class(self):
        # both send 2 to 3 and leave 3 undefined, so they agree on {2, 3},
        # the image of g, and differ at 1
        ctx = P.RangeContext(3, [1, 2, 3])
        g = P.PartialInjection(3, [(1, 2), (2, 3)])
        h = P.PartialInjection(3, [(1, 1), (2, 3)])
        right = [_right_factor(g.table), _right_factor(h.table)]
        on_image, elsewhere = _restrictions(frozenset(g.table), right), _restrictions((1,), right)
        assert on_image[0] == on_image[1] and elsewhere[0] != elsewhere[1]
        assert tuple(ordered_closure(ctx, [g, h])) == naive_closure([g, h])
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
        assert tuple(C) == naive_closure(gens) and len(C) == 11

    def test_duplicate_generators_keep_first_seen_order(self):
        ctx, S = semigroup(4, (1, 3))
        a, b = S[5], S[9]
        assert P.closure(ctx, [b, a, b, a, b]).generators == (b, a)
        assert tuple(ordered_closure(ctx, [b, a, b, a, b])) == naive_closure([b, a])

    def test_floor_keeps_the_top_layers_and_checks_every_generator(self):
        ctx = P.RangeContext(4, (1, 3))
        gens = P.canonical_generating_set(ctx)
        S = ordered_closure(ctx, gens)
        assert tuple(ordered_closure(ctx, gens, 2)) == tuple(a for a in S if a.rank == 2)
        assert tuple(ordered_closure(ctx, gens, 3)) == ()
        # below the floor a generator seeds nothing, but is still checked
        low = P.PartialInjection(4, [(2, 1)])
        C = ordered_closure(ctx, [low] + gens, 2)
        assert tuple(C) == tuple(ordered_closure(ctx, gens, 2))
        assert P.closure(ctx, [low] + gens, 2).generators == (low, *gens)
        with pytest.raises(errors.NotAMember):
            P.closure(ctx, [P.PartialInjection(4, [(2, 2)])] + gens, 2)

    def test_one_point_chain(self):
        # a one-slot table, the shortest the search kernel reads
        ctx = P.RangeContext(1, [1])
        one, zero = P.identity_on(1, [1]), P.empty_map(1)
        assert tuple(ordered_closure(ctx, [one])) == (one,)
        assert tuple(ordered_closure(ctx, [zero])) == (zero,)
        assert tuple(ordered_closure(ctx, [one, zero])) == (zero, one)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_closure_matches_naive_search(data):
    n = data.draw(st.integers(1, 7))
    pts = sorted(data.draw(st.sets(st.integers(1, n), min_size=1)))
    gens = data.draw(st.lists(member_of(n, pts), min_size=1, max_size=4))
    ctx = P.RangeContext(n, pts)
    assert tuple(ordered_closure(ctx, gens)) == naive_closure(gens)
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
    assert C == {bytes(a.table) for a in naive_closure(gens) if a.rank >= k}
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
    assert full_table(S) == reference_table(S)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_closure_above_a_floor_is_the_top_of_the_full_closure(data):
    n = data.draw(st.integers(1, 7))
    pts = sorted(data.draw(st.sets(st.integers(1, n), min_size=1)))
    gens = data.draw(st.lists(member_of(n, pts), min_size=1, max_size=4))
    k = data.draw(st.integers(-1, n + 1))
    ctx = P.RangeContext(n, pts)
    C = ordered_closure(ctx, gens, k)
    assert tuple(C) == tuple(a for a in ordered_closure(ctx, gens) if a.rank >= k)
    assert P.closure(ctx, gens, k).generators == tuple(dict.fromkeys(gens))
    outsider = data.draw(maps_on(n))
    if not P.contains(ctx, outsider):
        with pytest.raises(errors.NotAMember):
            P.closure(ctx, gens + [outsider], max(k, outsider.rank + 1))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_search_kernel_matches_compose(data):
    n = data.draw(st.integers(1, 9))
    pts = sorted(data.draw(st.sets(st.integers(1, n), min_size=1)))
    a = data.draw(member_of(n, pts))
    bs = data.draw(st.lists(member_of(n, pts), min_size=1, max_size=6))
    right = [_right_factor(b.table) for b in bs]
    for b, h in zip(bs, right):
        assert bytes(a.table).translate(h) == bytes((a * b).table)
    # b and c share a restriction class on im a iff a * b == a * c; the
    # closure passes the image with 0 when a is not total
    products = [(a * b).table for b in bs]
    by_product = [products.index(p) for p in products]
    for image in (a.image, frozenset(a.table)):
        restrictions = _restrictions(image, right)
        assert [restrictions.index(r) for r in restrictions] == by_product


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
