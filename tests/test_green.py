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
    chain_rotation,
    class_map,
    full_table,
    h_class_oracle,
    j_partition,
    join_partition,
    member_of,
    one_sided_ideals,
    ordered_closure,
    pi,
    rank_layer,
    semigroup,
    table_index,
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
        at = table_index(S)
        regular = P.is_regular_characterized(ctx)
        assert len(regular) == len(S)
        assert regular[at[bytes(pi(3, (1, 2)).table)]]
        assert not regular[at[bytes(pi(3, (3, 1)).table)]]
        assert regular[at[bytes(P.empty_map(3).table)]]

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
        at = table_index(S2)
        assert at[bytes(pi(3, (3, 1)).table)] in irregular
        assert regular[at[bytes(P.empty_map(3).table)]]

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
        at = table_index(S)
        a = at[bytes(pi(3, (3, 1)).table)]
        b = at[bytes(pi(3, (3, 2)).table)]
        rmap, dmap, lmap = map(class_map, P.green_characterized(ctx, "RDL").values())
        assert rmap[a] == rmap[b]
        assert dmap[a] == dmap[b]
        assert lmap[a] != lmap[b]

    def test_h_related_pair(self):
        ctx, S = semigroup(3, (1, 2))
        at = table_index(S)
        e = at[bytes(P.identity_on(3, {1, 2}).table)]
        c = at[bytes(pi(3, (1, 2), (2, 1)).table)]
        hmap = class_map(P.green_characterized(ctx, "H")["H"])
        assert hmap[e] == hmap[c]

    def test_top_regular_d_class_content(self):
        ctx, S = semigroup(3, (1, 2))
        dmap = class_map(P.green_characterized(ctx, "D")["D"])
        at = table_index(S)
        e = at[bytes(P.identity_on(3, {1, 2}).table)]
        members = [i for i, c in dmap.items() if c == dmap[e]]
        expected = {e, at[bytes(pi(3, (1, 2), (2, 1)).table)]}
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
        assert list(green._right_ideals(table)) == [((a,), frozenset(row)) for a, row in enumerate(full)]

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
        S = P.ElementSet([bytes(chain_rotation(3).table)])
        with pytest.raises(KeyError):
            S.mult_table()


class TestLabels:
    """`_labels(pairs, size)` keys each member of a (members, ideal) pair by
    the ideal when the member lies in it and by the member otherwise, and
    numbers the keys by first occurrence, in one pass that keeps only the
    first ideal of each class."""

    def test_numbered_by_first_occurrence(self):
        a, b = frozenset({1, 2, 3}), frozenset({0, 4, 6})
        # 3 lies outside b, and 5 outside its own pair's ideal a
        pairs = [((2, 1), a), ((4, 0), b), ((3,), b), ((5,), a), ((6,), b)]
        assert green._labels(pairs, 7) == [1, 0, 0, 2, 1, 3, 1]
        assert green._labels([], 0) == []

    @given(st.data())
    def test_equal_exactly_for_equal_keys(self, data):
        size = data.draw(st.integers(0, 12))
        ideals = data.draw(st.lists(st.frozensets(st.integers(0, 11), max_size=4), min_size=1, max_size=5))
        owner = data.draw(st.lists(st.integers(0, len(ideals) - 1), min_size=size, max_size=size))
        pairs = [(tuple(a for a in range(size) if owner[a] == j), ideal) for j, ideal in enumerate(ideals)]
        pairs = [(members, ideal) for members, ideal in pairs if members]
        labels = green._labels(pairs, size)
        keys = [ideals[j] if a in ideals[j] else ("alone", a) for a, j in enumerate(owner)]
        assert len(labels) == size
        assert all((x == y) == (k == m) for x, k in zip(labels, keys) for y, m in zip(labels, keys))
        read = [labels[a] for members, _ in pairs for a in members]
        firsts = list(dict.fromkeys(read))
        assert firsts == list(range(len(firsts)))

    def test_one_shot_generator_read_once(self):
        reads = []

        def pairs():
            for members, ideal in [((0,), "x"), ((1, 3), "y"), ((2,), "x"), ((4,), "z")]:
                reads.append(members)
                yield members, frozenset({*members, ideal})

        gen = pairs()
        assert green._labels(gen, 5) == [0, 1, 2, 1, 3]
        assert reads == [(0,), (1, 3), (2,), (4,)] and next(gen, None) is None

    def test_later_keys_of_a_class_are_dropped(self):
        class Ideal:
            # holds every member, and equal ideals share a value
            __slots__ = ("v", "__weakref__")

            def __init__(self, v):
                self.v = v

            def __contains__(self, a):
                return True

            def __eq__(self, other):
                return self.v == other.v

            def __hash__(self):
                return hash(self.v)

        values = (0, 1, 0, 0, 1, 2, 2)
        is_first = [values.index(v) == i for i, v in enumerate(values)]
        refs = []

        def pairs():
            for a, v in enumerate(values):
                # every ideal before the one still being read lives exactly
                # when it is the first of its class
                read = refs[:-1]
                assert [r() is not None for r in read] == is_first[: len(read)]
                ideal = Ideal(v)
                refs.append(weakref.ref(ideal))
                yield (a,), ideal

        assert green._labels(pairs(), len(values)) == [0, 1, 0, 0, 1, 2, 2]
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


def green_by_definition(S):
    """L, R, H and D of any finite S by definition: S¹a and aS¹ per
    element, H the pairs of them, and D the join of L and R."""
    left, right = one_sided_ideals(S)
    L, R = green._group_by_key(left), green._group_by_key(right)
    return {"L": L, "R": R, "H": green._group_by_key(zip(left, right)), "D": join_partition(L, R)}


def is_nilpotent(a):
    """Whether some power of a is the empty map; on n points a^n is then."""
    power = a
    for _ in range(a.n - 1):
        power = power * a
    return power.rank == 0


class TestClosuresByDefinition:
    """In a whole semigroup a lies in aS, since the identity on im a is a
    member, so R keys a member by itself only on a closure: there a
    nilpotent a can lie outside aS.  The oracle must match the definitions
    on such closures, of one nilpotent generator at n <= 4 and of a
    nilpotent and any member at n <= 3."""

    def test_outside_its_as_at_three(self):
        # the closure of {1->2} is {∅, 1->2}, and (1->2)S = {∅}
        ctx = P.RangeContext(3, (1, 2, 3))
        S = ordered_closure(ctx, [pi(3, (1, 2))])
        assert list(S) == [P.empty_map(3), pi(3, (1, 2))]
        assert green_by_definition(S)["R"] == ((0,), (1,))
        assert P.green_oracle(S, "LRHD") == green_by_definition(S)

    def test_nilpotent_generators_to_four(self):
        outside = merged = 0
        for n in range(1, 5):
            for pts in all_range_sets(n):
                ctx, S = semigroup(n, pts)
                nilpotent = [g for g in S if is_nilpotent(g)]
                gens = [[g] for g in nilpotent]
                if n <= 3:
                    gens += [[g, h] for g in nilpotent for h in S]
                for generators in gens:
                    C = ordered_closure(ctx, generators)
                    oracle = P.green_oracle(C, "LRHD")
                    assert oracle == green_by_definition(C), (n, pts, generators)
                    outside += sum(a not in row for a, row in enumerate(C.mult_table()[0]))
                    merged += len(oracle["R"]) < len(C)
        # both R keys are taken: members outside their aS, and classes of two or more
        assert outside and merged


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
