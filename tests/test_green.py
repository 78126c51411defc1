import random
import tracemalloc
import weakref
from functools import lru_cache
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import popi as P
from popi import errors, green
from popi.cli import main
from popi.semigroup import element_blocks

from conftest import (
    all_range_sets,
    class_map,
    full_table,
    h_class_oracle,
    j_partition,
    join_partition,
    member_of,
    ordered_closure,
    pi,
    rank_layer,
    semigroup,
)


def d_from_composition(S):
    """D-classes computed as L∘R, element by element, not read off the egg-box."""
    oracle = P.green_oracle(S, "LR")
    lmap = class_map(oracle["L"])
    rparts = oracle["R"]
    rmap = class_map(rparts)
    by_l = {}
    for i in range(len(S)):
        by_l.setdefault(lmap[i], []).append(i)
    classes = set()
    for i in range(len(S)):
        # all j with some c: (i, c) in L and (c, j) in R
        cls = set()
        for c in by_l[lmap[i]]:
            cls.update(rparts[rmap[c]])
        classes.add(tuple(sorted(cls)))
    return tuple(sorted(classes))


class TestRegularity:
    def test_characterized_examples(self):
        ctx, S = semigroup(3, (1, 2))
        regular = P.is_regular_characterized(ctx)
        assert len(regular) == len(S)
        assert regular[S.index_of(pi(3, (1, 2)))]
        assert not regular[S.index_of(pi(3, (3, 1)))]
        assert regular[S.index_of(P.empty_map(3))]

    def test_oracle_examples(self):
        _, S = semigroup(3, (1, 2, 3))
        regular = P.is_regular_oracle(S)
        assert len(regular) == len(S) and all(regular)
        _, S2 = semigroup(3, (1, 2))
        regular = P.is_regular_oracle(S2)
        assert len(regular) == len(S2)
        # on Y = {1, 2} the non-regular elements are those defined at 3
        irregular = [i for i, flag in enumerate(regular) if not flag]
        assert irregular == [i for i, a in enumerate(S2) if 3 in a.domain]
        assert S2.index_of(pi(3, (3, 1))) in irregular
        assert regular[S2.index_of(P.empty_map(3))]

    def test_oracle_agrees_with_characterization(self):
        for n in range(1, 5):
            for pts in all_range_sets(n):
                ctx, S = semigroup(n, pts)
                assert P.is_regular_oracle(S) == P.is_regular_characterized(ctx)

    def test_fully_regular_iff_full_range(self):
        for n in range(1, 5):
            for pts in all_range_sets(n):
                ctx = P.RangeContext(n, pts)
                assert all(P.is_regular_characterized(ctx)) == (len(pts) == n)


class TestCharacterizedExamples:
    def test_nonregular_same_domain(self):
        ctx, S = semigroup(3, (1, 2))
        a = S.index_of(pi(3, (3, 1)))
        b = S.index_of(pi(3, (3, 2)))
        rmap, dmap, lmap = map(class_map, P.green_characterized(ctx, "RDL").values())
        assert rmap[a] == rmap[b]
        assert dmap[a] == dmap[b]
        assert lmap[a] != lmap[b]

    def test_h_related_pair(self):
        ctx, S = semigroup(3, (1, 2))
        e = S.index_of(P.identity_on(3, {1, 2}))
        c = S.index_of(pi(3, (1, 2), (2, 1)))
        hmap = class_map(P.green_characterized(ctx, "H")["H"])
        assert hmap[e] == hmap[c]

    def test_top_regular_d_class_content(self):
        ctx, S = semigroup(3, (1, 2))
        dmap = class_map(P.green_characterized(ctx, "D")["D"])
        e = S.index_of(P.identity_on(3, {1, 2}))
        members = [i for i, c in dmap.items() if c == dmap[e]]
        expected = {e, S.index_of(pi(3, (1, 2), (2, 1)))}
        assert set(members) == expected


class TestRowProducts:
    """`mult_table`'s factored (rows, classes): each row's distinct products
    in the order of their first columns, and one class map per image set,
    shared; the one-sided ideals read from it match the whole table's."""

    @staticmethod
    def check(S):
        table = rows, classes = S.mult_table()
        full = full_table(S)
        assert len(rows) == len(classes) == len(S)
        for products, row in zip(rows, full):
            assert products == tuple(dict.fromkeys(row))
        # classes[a] is classes[b] exactly when a and b have one image set:
        # each is its image's first member's, and no two images share one
        images = list(map(frozenset, S.tables))
        first = {}
        for a, image in enumerate(images):
            first.setdefault(image, a)
        assert all(classes[a] is classes[first[image]] for a, image in enumerate(images))
        assert len(set(map(id, classes))) == len(first)
        TestRowProducts.check_left_ideals(table, full)
        assert list(green._right_ideals(table)) == [frozenset((a, *row)) for a, row in enumerate(full)]

    @staticmethod
    def check_left_ideals(table, full):
        # one (members, Sa) pair per class vector: the members partition the
        # indices, and each member's S¹a is Sa with it, as the whole table's;
        # returns the members of each pair
        columns = list(zip(*full))
        groups = []
        for members, ideal in green._left_ideals(table):
            assert members and all(ideal | {a} == frozenset((a, *columns[a])) for a in members)
            groups.append(members)
        assert sorted(chain.from_iterable(groups)) == list(range(len(full)))
        return groups

    def test_every_range_set_to_five(self):
        for n in range(1, 6):
            for pts in all_range_sets(n):
                self.check(semigroup(n, pts)[1])

    def test_full_range_at_six(self):
        # built here, not through the cached `semigroup`, so its table is freed
        self.check(P.enumerate_semigroup(P.RangeContext(6, range(1, 7))))

    def test_shuffled_element_order(self):
        # the members of one class vector need not be contiguous in index order
        rng = random.Random(37)
        scattered = 0
        for n in range(1, 5):
            for pts in all_range_sets(n):
                tables = list(semigroup(n, pts)[1].tables)
                rng.shuffle(tables)
                S = P.ElementSet(tables)
                groups = self.check_left_ideals(S.mult_table(), full_table(S))
                scattered += any(m[-1] - m[0] >= len(m) for m in groups)
        assert scattered

    def test_an_element_outside_its_sa_is_alone_in_its_l_class(self):
        outside = 0
        for n in range(1, 6):
            for pts in all_range_sets(n):
                S = semigroup(n, pts)[1]
                alone = {c[0] for c in P.green_oracle(S, "L")["L"] if len(c) == 1}
                for members, ideal in green._left_ideals(S.mult_table()):
                    out = {a for a in members if a not in ideal}
                    assert out <= alone
                    outside += len(out)
        assert outside

    def test_open_set_raises_as_the_table_does(self):
        # the square of the rotation on {1, 2, 3} is not in the set
        S = P.ElementSet([bytes(P.rotation_perm(3).table)])
        with pytest.raises(KeyError):
            S.mult_table()


class TestLabels:
    """`_labels` numbers keys by first occurrence, equal exactly for equal
    keys, in one pass that keeps only the first key of each class."""

    def test_numbered_by_first_occurrence(self):
        assert green._labels("abacbd") == [0, 1, 0, 2, 1, 3]
        assert green._labels([]) == []

    @given(st.lists(st.frozensets(st.integers(0, 3), max_size=3), max_size=30))
    def test_equal_exactly_for_equal_keys(self, keys):
        labels = green._labels(keys)
        assert len(labels) == len(keys)
        assert all((x == y) == (k == m) for x, k in zip(labels, keys) for y, m in zip(labels, keys))
        firsts = [labels[keys.index(k)] for k in dict.fromkeys(keys)]
        assert firsts == list(range(len(firsts)))

    def test_one_shot_generator_read_once(self):
        reads = []

        def keys():
            for key in "xyxz":
                reads.append(key)
                yield key

        gen = keys()
        assert green._labels(gen) == [0, 1, 0, 2]
        assert reads == list("xyxz") and next(gen, None) is None

    def test_later_keys_of_a_class_are_dropped(self):
        class Key:
            __slots__ = ("v", "__weakref__")

            def __init__(self, v):
                self.v = v

            def __eq__(self, other):
                return self.v == other.v

            def __hash__(self):
                return hash(self.v)

        values = (0, 1, 0, 0, 1, 2, 2)
        is_first = [values.index(v) == i for i, v in enumerate(values)]
        refs = []

        def keys():
            for v in values:
                # every key before the one still being read lives exactly
                # when it is the first of its class
                read = refs[:-1]
                assert [r() is not None for r in read] == is_first[: len(read)]
                key = Key(v)
                refs.append(weakref.ref(key))
                yield key

        assert green._labels(keys()) == [0, 1, 0, 0, 1, 2, 2]
        assert len(refs) == len(values)


class TestDFromTheEggBox:
    """The oracle reads D off the L- and R-labels; its reference is the
    definition-level join of L and R (`conftest.join_partition`)."""

    @staticmethod
    def check(S):
        oracle = P.green_oracle(S, "LR")
        assert P.green_oracle(S, "D")["D"] == join_partition(oracle["L"], oracle["R"])

    def test_every_range_set_to_five(self):
        for n in range(1, 6):
            for pts in all_range_sets(n):
                self.check(semigroup(n, pts)[1])

    def test_full_range_at_six(self):
        # built here, not through the cached `semigroup`, so its table is freed
        self.check(P.enumerate_semigroup(P.RangeContext(6, range(1, 7))))

    def test_shuffled_element_order(self):
        # in index order every R-class of a regular D-class starts with the
        # same image sequence, so an R-class's first L-label would pass
        # above; a shuffled order leaves the sets of L-labels to decide
        rng = random.Random(36)
        for n in range(1, 5):
            for pts in all_range_sets(n):
                tables = list(semigroup(n, pts)[1].tables)
                rng.shuffle(tables)
                self.check(P.ElementSet(tables))


class TestOracleMemory:
    """At the table bound the oracle holds one one-sided ideal per class, not
    one per element: traced peaks of `green_oracle` with the table prebuilt."""

    def test_peaks_at_the_full_range_on_six(self):
        S = P.enumerate_semigroup(P.RangeContext(6, range(1, 7)))
        S.mult_table()
        peaks = {}
        for relations in ("R", "LRHD"):
            tracemalloc.start()
            try:
                P.green_oracle(S, relations)
                _, peaks[relations] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # with one ideal kept per element: 62.4 and 99.8 MiB (Python 3.11, 64-bit)
        assert peaks["R"] < 8 * 2**20, peaks
        assert peaks["LRHD"] < 48 * 2**20, peaks


class TestOracleMatchesCharacterized:
    @pytest.mark.parametrize("relations", ["L", "R", "H", "D", "LRHD"])
    def test_small_grid(self, relations):
        # one call shape on both sides: a letter string in, {letter: partition} out
        for n in range(1, 6):
            for pts in all_range_sets(n):
                ctx, S = semigroup(n, pts)
                assert P.green_characterized(ctx, relations) == P.green_oracle(S, relations)

    @settings(max_examples=10, deadline=None)
    @given(st.sets(st.integers(1, 6), min_size=1, max_size=5))
    def test_proper_range_sets_at_six(self, points):
        # built here, not through the cached `semigroup`, so no table outlives its example
        ctx = P.RangeContext(6, sorted(points))
        S = P.enumerate_semigroup(ctx)
        assert P.green_characterized(ctx, "LRHD") == P.green_oracle(S, "LRHD")

    def test_unknown_relation_rejected(self):
        ctx, S = semigroup(3, (1, 2))
        # both sides share one letter check and one alphabet, "LRHD": J is
        # the tests' own reference (`conftest.j_partition`)
        for relations in ("", "Q", "LX", "J", "DJ", ["L"], None):
            for side, arg in ((P.green_characterized, ctx), (P.green_oracle, S)):
                with pytest.raises(errors.BadParameters, match="unknown relations"):
                    side(arg, relations)

    def test_singleton_set(self):
        ctx = P.RangeContext(3, (1, 2))
        single = ordered_closure(ctx, [P.empty_map(3)])
        assert P.green_oracle(single, "L") == {"L": ((0,),)}

    def test_partitions_of_one_build_match_single_relations(self):
        for pts in [(1, 3), (1, 2, 3, 4)]:
            _, S = semigroup(4, pts)
            both = P.green_oracle(S, "LRHD")
            assert all(both[rel] == P.green_oracle(S, rel)[rel] for rel in "LRHD")


    def test_classes_ascend_in_order_of_least_index(self):
        # both paths read their keys in index order and never sort a class
        for n in range(1, 5):
            for pts in all_range_sets(n):
                ctx, S = semigroup(n, pts)
                parts = [*P.green_characterized(ctx, "LRHD").values()]
                parts += P.green_oracle(S, "LRHD").values()
                for part in parts:
                    assert all(list(c) == sorted(set(c)) for c in part), (n, pts)
                    least = [c[0] for c in part]
                    assert least == sorted(least), (n, pts)
                    assert sorted(i for c in part for i in c) == list(range(len(S)))

    def test_d_equals_j(self):
        # D = J in every finite semigroup; J from the two-sided ideals
        for pts in [(1, 3), (1, 2, 3, 4)]:
            _, S = semigroup(4, pts)
            assert P.green_oracle(S, "D")["D"] == j_partition(S)

    def test_d_equals_l_compose_r(self):
        for pts in [(1, 2), (1, 2, 3)]:
            _, S = semigroup(3, pts)
            assert d_from_composition(S) == P.green_oracle(S, "D")["D"]

    def test_r_class_count_at_top_rank(self):
        import math

        for n in range(2, 6):
            for pts in all_range_sets(n):
                ctx, S = semigroup(n, pts)
                r = len(pts)
                rmap = class_map(P.green_characterized(ctx, "R")["R"])
                top_classes = {rmap[i] for i in rank_layer(S, r)}
                assert len(top_classes) == math.comb(n, r)


@lru_cache(maxsize=None)
def h_class_oracle_at_six(pts):
    """{member: `h_class_oracle` profile} at n = 6; the members and their
    profiles are kept, not the element set, so no table outlives its example."""
    S = P.enumerate_semigroup(P.RangeContext(6, pts))
    return dict(zip(S, h_class_oracle(S)))


class TestHClassProfile:
    def test_idempotent_of_rank_two(self):
        ctx = P.RangeContext(3, (1, 2))
        prof = P.h_class_profile(ctx, P.identity_on(3, {1, 2}))
        assert prof == (2, True, True)

    def test_nonregular_singleton(self):
        ctx = P.RangeContext(3, (1, 2))
        prof = P.h_class_profile(ctx, pi(3, (3, 1)))
        assert prof == (1, False, False)

    def test_zero(self):
        ctx = P.RangeContext(3, (1, 2))
        prof = P.h_class_profile(ctx, P.empty_map(3))
        assert prof.size == 1 and prof.is_group and prof.is_cyclic_group

    def test_non_member_refused(self):
        ctx = P.RangeContext(3, (1, 2))
        with pytest.raises(errors.NotAMember):
            P.h_class_profile(ctx, pi(3, (1, 3)))
        with pytest.raises(errors.MismatchedChainSize):
            P.h_class_profile(ctx, P.empty_map(4))

    @staticmethod
    def closed_form(monkeypatch, elements_built, ctx, members):
        """The profiles of `members`, read with no element set built, no
        element built and no product formed."""

        def refuse(*args):
            raise AssertionError("a product was formed")

        monkeypatch.setattr(P.ElementSet, "__init__", None)
        monkeypatch.setattr(P.PartialInjection, "compose", refuse)
        monkeypatch.setattr(P.PartialInjection, "__mul__", refuse)
        del elements_built[:]  # the members themselves
        profiles = [P.h_class_profile(ctx, a) for a in members]
        assert elements_built == []
        return profiles

    def test_full_range_identity_at_seven(self, monkeypatch, elements_built):
        # |S| = 12,013 is past the multiplication table's bound; the identity
        # and the last element, the last rotation of the identity's image
        ctx = P.RangeContext(7, range(1, 8))
        *_, (images, [domain]) = element_blocks(ctx)  # the top rank has one domain
        members = [P.identity_on(7, ctx.points), pi(7, *zip(domain, images[-1]))]
        profiles = self.closed_form(monkeypatch, elements_built, ctx, members)
        assert profiles == [(7, True, True)] * 2

    def test_past_the_table_bound(self, monkeypatch, elements_built):
        # n = 40, |Y| = 20: far past every bound, each profile is closed form
        ctx = P.RangeContext(40, range(1, 40, 2))
        odd, even = ctx.points, tuple(range(2, 41, 2))
        members = [
            P.identity_on(40, odd),  # an idempotent: a group of 20
            pi(40, *zip(odd, odd[5:] + odd[:5])),  # the same class
            pi(40, *zip(odd[:19], odd[1:])),  # image is not the domain: no group
            pi(40, *zip(even[:3], odd[:3])),  # not regular: alone
            P.empty_map(40),
        ]
        profiles = self.closed_form(monkeypatch, elements_built, ctx, members)
        assert profiles == [
            (20, True, True), (20, True, True), (19, False, False), (1, False, False), (1, True, True)
        ]

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_matches_oracle_at_six(self, data):
        pts = tuple(sorted(data.draw(st.sets(st.integers(1, 6), min_size=1))))
        a = data.draw(member_of(6, pts))
        assert P.h_class_profile(P.RangeContext(6, pts), a) == h_class_oracle_at_six(pts)[a]

    def test_regular_class_sizes(self):
        for n in range(1, 5):
            for pts in all_range_sets(n):
                ctx, S = semigroup(n, pts)
                for a, regular in zip(S, P.is_regular_characterized(ctx)):
                    prof = P.h_class_profile(ctx, a)
                    if regular:
                        assert prof.size == max(a.rank, 1)
                    else:
                        assert prof.size == 1


class TestOracleBuilds:
    """Each list of one-sided ideals is built at most once per call, and only
    when a relation asked for reads it."""

    @pytest.fixture
    def builds(self, monkeypatch):
        counts = {"left": 0, "right": 0}
        for side in counts:
            original = getattr(green, "_%s_ideals" % side)

            def counted(S, side=side, original=original):
                counts[side] += 1
                return original(S)

            monkeypatch.setattr(green, "_%s_ideals" % side, counted)
        return counts

    @pytest.mark.parametrize(
        "rel, expected",
        [("L", (1, 0)), ("R", (0, 1)), ("H", (1, 1)), ("D", (1, 1))],
    )
    def test_one_relation(self, builds, rel, expected):
        _, S = semigroup(3, (1, 2))
        P.green_oracle(S, rel)
        assert (builds["left"], builds["right"]) == expected

    def test_selftest_builds_each_list_once_per_range_set(self, builds, capsys):
        assert main(["selftest", "--max-n", "3", "--json"]) == 0
        # one of each per range set: 1 + 3 + 7 of them at n <= 3
        assert builds == {"left": 11, "right": 11}

    def test_selftest_calls_each_side_once_per_range_set(self, monkeypatch, capsys):
        import popi.cli

        calls = dict.fromkeys(
            ("green_characterized", "green_oracle", "is_regular_characterized", "is_regular_oracle"), 0
        )
        for name in calls:
            original = getattr(popi.cli, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(popi.cli, name, counted)
        assert main(["selftest", "--max-n", "3", "--json"]) == 0
        # 1 + 3 + 7 range sets at n <= 3
        assert calls == dict.fromkeys(calls, 11)
