import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import popi as P
from popi import errors

from conftest import all_partial_injections, member_of


def pi(n, *pairs):
    return P.PartialInjection(n, pairs)


class TestConstruction:
    def test_empty(self):
        a = pi(3)
        assert a.rank == 0 and a.domain == () and a == P.empty_map(3)

    def test_basic_map(self):
        a = pi(3, (1, 2), (3, 1))
        assert a.domain == (1, 3)
        assert a.image_seq == (2, 1)
        assert a(1) == 2 and a(3) == 1 and a.table[1] == 0

    def test_duplicate_value_rejected(self):
        with pytest.raises(errors.DuplicateValue):
            pi(3, (1, 2), (3, 2))

    def test_duplicate_key_rejected(self):
        with pytest.raises(errors.DuplicateKey):
            pi(3, (1, 2), (1, 3))

    def test_out_of_range_rejected(self):
        with pytest.raises(errors.PointOutOfRange):
            pi(3, (1, 4))
        with pytest.raises(errors.PointOutOfRange):
            pi(3, (0, 1))

    def test_chain_size_must_be_an_int(self):
        for n in (True, False, "3", 3.0, None):
            with pytest.raises(errors.BadParameters):
                P.PartialInjection(n, [])

    def test_point_outside_domain(self):
        a = P.PartialInjection(3, [(1, 2)])
        with pytest.raises(KeyError):
            a(2)

    def test_equality_requires_same_chain(self):
        assert pi(3, (1, 1)) != pi(4, (1, 1))

    def test_json_round_trip(self):
        a = pi(3, (1, 2), (3, 1))
        assert P.PartialInjection.from_json_dict(a.to_json_dict()) == a
        assert a.to_json_dict() == {"n": 3, "pairs": [[1, 2], [3, 1]]}

    @pytest.mark.parametrize(
        "data",
        [[1], None, {"pairs": []}, {"n": 3}, {"n": "3", "pairs": []},
         {"n": 3, "pairs": 5}, {"n": 3, "pairs": [1]}, {"n": 3, "pairs": [[1, None]]}],
    )
    def test_json_shape_rejected(self, data):
        with pytest.raises(errors.BadParameters):
            P.PartialInjection.from_json_dict(data)


class TestCompose:
    def test_hand_composition(self):
        a = pi(3, (1, 1), (3, 2))
        b = pi(3, (2, 1))
        assert a * b == pi(3, (3, 1))

    def test_zero_absorbs(self):
        a = pi(3, (1, 2), (3, 1))
        assert a * P.empty_map(3) == P.empty_map(3)
        assert P.empty_map(3) * a == P.empty_map(3)

    def test_identity_law(self):
        a = pi(3, (1, 2), (3, 1))
        full = P.identity_on(3, [1, 2, 3])
        assert full * a == a and a * full == a

    def test_mismatched_chain(self):
        with pytest.raises(errors.MismatchedChainSize):
            pi(3, (1, 1)) * pi(4, (1, 1))

    def test_left_to_right_action(self):
        a = pi(3, (1, 2))
        b = pi(3, (2, 3))
        assert (a * b)(1) == 3


class TestInverse:
    def test_swap_pairs(self):
        assert pi(3, (1, 2), (3, 1)).inverse() == pi(3, (2, 1), (1, 3))

    def test_empty(self):
        assert P.empty_map(3).inverse() == P.empty_map(3)

    def test_involution_and_round_trip(self):
        rng = random.Random(7)
        for a in _random_maps(rng, 60, 6):
            assert a.inverse().inverse() == a
            assert a * a.inverse() == P.identity_on(a.n, a.domain)
            assert a * a.inverse() * a == a


class TestIdentityOn:
    def test_basic(self):
        e = P.identity_on(3, {1, 2})
        assert e == pi(3, (1, 1), (2, 2)) and e.is_idempotent()

    def test_empty_set(self):
        assert P.identity_on(3, set()) == P.empty_map(3)

    def test_intersection(self):
        assert P.identity_on(3, {1, 2}) * P.identity_on(3, {2, 3}) == P.identity_on(3, {2})

    def test_out_of_range(self):
        with pytest.raises(errors.PointOutOfRange):
            P.identity_on(3, {4})


class TestCyclicPredicate:
    def test_one_descent(self):
        assert P.is_cyclic((2, 3, 1))

    def test_two_descents(self):
        assert not P.is_cyclic((2, 1, 3))

    def test_degenerate(self):
        assert P.is_cyclic(())
        assert P.is_cyclic((4,))
        assert P.is_cyclic((5, 5, 5))


class TestOrientation:
    def test_rotation_is_orientation_preserving(self):
        assert pi(3, (1, 2), (2, 3), (3, 1)).is_orientation_preserving()

    def test_swap_with_fixed_point_is_not(self):
        assert not pi(3, (1, 2), (2, 1), (3, 3)).is_orientation_preserving()

    def test_rank_at_most_two_always(self):
        for a in all_partial_injections(4, max_rank=2):
            assert a.is_orientation_preserving()

    def test_order_preserving(self):
        assert pi(3, (1, 1), (3, 2)).is_order_preserving()
        assert not pi(3, (1, 2), (3, 1)).is_order_preserving()
        assert P.empty_map(3).is_order_preserving()


def _random_maps(rng, count, n):
    out = []
    for _ in range(count):
        k = rng.randrange(0, n + 1)
        dom = rng.sample(range(1, n + 1), k)
        img = rng.sample(range(1, n + 1), k)
        out.append(P.PartialInjection(n, zip(dom, img)))
    return out


class TestAlgebraProperties:
    def test_associativity(self):
        rng = random.Random(11)
        maps = _random_maps(rng, 40, 5)
        for _ in range(300):
            a, b, c = rng.choice(maps), rng.choice(maps), rng.choice(maps)
            assert (a * b) * c == a * (b * c)

    def test_orientation_closed_under_composition(self):
        rng = random.Random(13)
        pool = [a for a in _random_maps(rng, 400, 6) if a.is_orientation_preserving()]
        for _ in range(500):
            a, b = rng.choice(pool), rng.choice(pool)
            assert (a * b).is_orientation_preserving()

    def test_rank_submultiplicative(self):
        rng = random.Random(17)
        maps = _random_maps(rng, 60, 6)
        for _ in range(300):
            a, b = rng.choice(maps), rng.choice(maps)
            assert (a * b).rank <= min(a.rank, b.rank)

    def test_order_preserving_implies_orientation_preserving(self):
        for a in all_partial_injections(5):
            if a.is_order_preserving():
                assert a.is_orientation_preserving()


class TestChainPermutations:
    def test_rotation(self):
        assert P.rotation_perm(3) == pi(3, (1, 2), (2, 3), (3, 1))
        assert P.rotation_perm(1) == P.identity_on(1, {1})
        assert P.rotation_perm(5).power(5) == P.identity_on(5, range(1, 6))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_rotation_power_closed_form(self, n):
        g = P.rotation_perm(n)
        identity = P.identity_on(n, range(1, n + 1))
        for k in range(2 * n + 1):
            assert P.rotation_perm(n, k) == g.power(k)
            assert P.rotation_perm(n, -k) * P.rotation_perm(n, k) == identity

    def test_reflection(self):
        # the order-reversing permutation, from its table
        assert P.PartialInjection.from_table((3, 2, 1)) == pi(3, (1, 3), (2, 2), (3, 1))
        h = P.PartialInjection.from_table((4, 3, 2, 1))
        assert h.power(2) == P.identity_on(4, range(1, 5))

    def test_negative_power_rejected(self):
        with pytest.raises(errors.BadParameters):
            P.rotation_perm(3).power(-1)

    def test_order_isomorphism_needs_equal_sizes(self):
        with pytest.raises(errors.BadParameters):
            P.order_isomorphism(4, [1, 2], [3])

    def test_order_isomorphism(self):
        assert P.order_isomorphism(5, [2, 4], [1, 3]) == pi(5, (2, 1), (4, 3))


@st.composite
def members(draw):
    """A member of the semigroup on n <= 8 points with any range set."""
    n = draw(st.integers(1, 8))
    pts = sorted(draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)))
    return draw(member_of(n, pts))


@settings(max_examples=300, deadline=None)
@given(members())
def test_image_seq_reads_the_table_per_domain_point(a):
    assert a.image_seq == tuple(a.table[x - 1] for x in a.domain)


def descents(seq):
    """Descents of a sequence read circularly, by definition."""
    t = len(seq)
    return sum(1 for i in range(t) if seq[i] > seq[(i + 1) % t])


@st.composite
def raw_tables(draw):
    """A chain size n <= 8 and any slot table on it, repeated values
    included, so not every table is injective."""
    n = draw(st.integers(1, 8))
    return n, draw(st.lists(st.integers(0, n), min_size=n, max_size=n))


@settings(max_examples=500, deadline=None)
@given(raw_tables(), st.data())
def test_table_predicates_match_their_definitions(n_table, data):
    n, table = n_table
    a = P.PartialInjection.from_table(table)
    domain = tuple(x for x in range(1, n + 1) if table[x - 1])
    seq = tuple(table[x - 1] for x in domain)
    assert a.domain == domain and a.image_seq == seq and a.rank == len(domain)
    for s in (seq, list(seq)):
        assert P.is_cyclic(s) == (descents(seq) <= 1)
    assert a.is_order_preserving() == all(seq[i] < seq[i + 1] for i in range(len(seq) - 1))
    pts = sorted(data.draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)))
    injective = len(set(seq)) == len(seq)
    member = injective and set(seq) <= set(pts) and descents(seq) <= 1
    assert P.contains(P.RangeContext(n, pts), a) == member
    if not injective:
        # a repeated value is refused, whatever Y holds
        assert not P.contains(P.RangeContext(n, range(1, n + 1)), a)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rotation_perm_is_i_to_i_plus_k(data):
    n = data.draw(st.integers(1, 12))
    k = data.draw(st.integers(-2 * n, 2 * n))
    g = P.rotation_perm(n, k)
    assert g.table == tuple((i + k - 1) % n + 1 for i in range(1, n + 1))
    assert g.domain == tuple(range(1, n + 1))
    assert g == P.PartialInjection(n, [(i, (i + k - 1) % n + 1) for i in range(1, n + 1)])


@pytest.mark.parametrize(
    "build",
    [
        lambda: P.RangeContext(5, [1.5, 2]),
        lambda: P.RangeContext(5.0, [1, 2]),
        lambda: P.RangeContext(True, [1]),
        lambda: P.RangeContext(3, [True, 2]),
        lambda: P.PartialInjection(3, [(1, True)]),
        lambda: P.PartialInjection(3, [(1.0, 2)]),
        lambda: P.PartialInjection.from_json_dict({"n": 3, "pairs": [[1, 2.0]]}, chain=3),
    ],
    ids=["float-point", "float-n", "bool-n", "bool-point", "bool-image", "float-pair",
         "json-float"],
)
def test_non_int_input_refused(build):
    with pytest.raises(errors.BadParameters):
        build()


@st.composite
def same_chain_tables(draw):
    """A chain size n <= 8 and a few slot tables on it, any values, so not
    every table is injective; some repeat and some share their domain."""
    n = draw(st.integers(1, 8))
    table = st.lists(st.integers(0, n), min_size=n, max_size=n).map(tuple)
    tables = draw(st.lists(table, min_size=1, max_size=8))
    # the first table's values moved onto the same domain: equal domains,
    # usually different tables
    first = tables[0]
    values = [v for v in first if v]
    shifted = iter(values[1:] + values[:1])
    return n, tables + [tuple(next(shifted) if v else 0 for v in first), first]


@settings(max_examples=300, deadline=None)
@given(same_chain_tables())
def test_an_element_is_its_table(n_tables):
    n, tables = n_tables
    elems = [P.PartialInjection.from_table(t) for t in tables]
    assert all(a.n == len(t) == n for a, t in zip(elems, tables))
    for a, s in zip(elems, tables):
        for b, t in zip(elems, tables):
            assert (a == b) == (s == t)
            if a == b:
                assert hash(a) == hash(b)
    # a set of the distinct elements, probed by every table
    index = {t: i for i, t in enumerate(dict.fromkeys(tables[::2]))}
    S = P.ElementSet([P.PartialInjection.from_table(t) for t in index])
    for a, t in zip(elems, tables):
        assert (a in S) == (t in index)
        if t in index:
            assert S.index_of(a) == index[t]
        # the same graph on a longer chain: another element, never a member
        longer = P.PartialInjection.from_table(t + (0,))
        assert longer.n == n + 1 and longer != a and longer not in S
        with pytest.raises(errors.MismatchedChainSize):
            a * longer
