import pytest

import popi as P
from popi import errors, green
from popi.cli import main
from popi.green import _oracle_partitions

from conftest import all_range_sets, class_map, ordered_closure, rank_layer, semigroup


def pi(n, *pairs):
    return P.PartialInjection(n, pairs)


def d_from_composition(S):
    """D-classes computed as L∘R instead of the oracle's transitive closure."""
    lmap = class_map(P.green_oracle(S, "L"))
    rparts = P.green_oracle(S, "R")
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
        ctx, _ = semigroup(3, (1, 2))
        assert P.is_regular_characterized(ctx, pi(3, (1, 2)))
        assert not P.is_regular_characterized(ctx, pi(3, (3, 1)))
        assert P.is_regular_characterized(ctx, P.empty_map(3))

    def test_non_member_rejected(self):
        ctx, _ = semigroup(3, (1, 2))
        with pytest.raises(errors.NotAMember):
            P.is_regular_characterized(ctx, pi(3, (1, 3)))

    def test_oracle_examples(self):
        ctx, S = semigroup(3, (1, 2, 3))
        assert all(P.is_regular_oracle(S, i) for i in range(len(S)))
        ctx2, S2 = semigroup(3, (1, 2))
        bad = S2.index_of(pi(3, (3, 1)))
        assert not P.is_regular_oracle(S2, bad)
        assert P.is_regular_oracle(S2, S2.index_of(P.empty_map(3)))

    def test_oracle_agrees_with_characterization(self):
        for n in range(1, 5):
            for pts in all_range_sets(n):
                ctx, S = semigroup(n, pts)
                for i, a in enumerate(S.elements):
                    assert P.is_regular_oracle(S, i) == P.is_regular_characterized(ctx, a)

    def test_fully_regular_iff_full_range(self):
        for n in range(1, 5):
            for pts in all_range_sets(n):
                ctx, S = semigroup(n, pts)
                fully = all(P.is_regular_characterized(ctx, a) for a in S)
                assert fully == (len(pts) == n)


class TestCharacterizedExamples:
    def test_nonregular_same_domain(self):
        ctx, S = semigroup(3, (1, 2))
        a = S.index_of(pi(3, (3, 1)))
        b = S.index_of(pi(3, (3, 2)))
        rmap = class_map(P.green_characterized(ctx, S, "R"))
        dmap = class_map(P.green_characterized(ctx, S, "D"))
        lmap = class_map(P.green_characterized(ctx, S, "L"))
        assert rmap[a] == rmap[b]
        assert dmap[a] == dmap[b]
        assert lmap[a] != lmap[b]

    def test_h_related_pair(self):
        ctx, S = semigroup(3, (1, 2))
        e = S.index_of(P.identity_on(3, {1, 2}))
        c = S.index_of(pi(3, (1, 2), (2, 1)))
        hmap = class_map(P.green_characterized(ctx, S, "H"))
        assert hmap[e] == hmap[c]

    def test_top_regular_d_class_content(self):
        ctx, S = semigroup(3, (1, 2))
        dmap = class_map(P.green_characterized(ctx, S, "D"))
        e = S.index_of(P.identity_on(3, {1, 2}))
        members = [i for i, c in dmap.items() if c == dmap[e]]
        expected = {e, S.index_of(pi(3, (1, 2), (2, 1)))}
        assert set(members) == expected


class TestOracleMatchesCharacterized:
    @pytest.mark.parametrize("rel", ["L", "R", "H", "D"])
    def test_small_grid(self, rel):
        for n in range(1, 5):
            for pts in all_range_sets(n):
                ctx, S = semigroup(n, pts)
                assert P.green_characterized(ctx, S, rel) == P.green_oracle(S, rel)

    def test_unknown_relation_rejected(self):
        ctx, S = semigroup(3, (1, 2))
        with pytest.raises(errors.BadParameters):
            P.green_characterized(ctx, S, "J")  # the oracle's alone
        with pytest.raises(errors.BadParameters):
            P.green_oracle(S, "Q")

    def test_singleton_set(self):
        ctx = P.RangeContext(3, (1, 2))
        single = ordered_closure(ctx, [P.empty_map(3)])
        assert P.green_oracle(single, "L") == ((0,),)

    def test_partitions_of_one_build_match_single_relations(self):
        for pts in [(1, 3), (1, 2, 3, 4)]:
            _, S = semigroup(4, pts)
            both = _oracle_partitions(S, "LRHDJ")
            assert all(both[rel] == P.green_oracle(S, rel) for rel in "LRHDJ")


    def test_d_equals_j(self):
        _, S = semigroup(4, (1, 3))
        assert P.green_oracle(S, "D") == P.green_oracle(S, "J")

    def test_d_equals_l_compose_r(self):
        for pts in [(1, 2), (1, 2, 3)]:
            _, S = semigroup(3, pts)
            assert d_from_composition(S) == P.green_oracle(S, "D")

    def test_r_class_count_at_top_rank(self):
        import math

        for n in range(2, 6):
            for pts in all_range_sets(n):
                ctx, S = semigroup(n, pts)
                r = len(pts)
                rmap = class_map(P.green_characterized(ctx, S, "R"))
                top_classes = {rmap[i] for i in rank_layer(S, r)}
                assert len(top_classes) == math.comb(n, r)


class TestHClassProfile:
    def test_idempotent_of_rank_two(self):
        ctx, S = semigroup(3, (1, 2))
        prof = P.h_class_profile(ctx, S, S.index_of(P.identity_on(3, {1, 2})))
        assert prof == (2, True, True, frozenset({1, 2}), frozenset({1, 2}))

    def test_nonregular_singleton(self):
        ctx, S = semigroup(3, (1, 2))
        prof = P.h_class_profile(ctx, S, S.index_of(pi(3, (3, 1))))
        assert prof == (1, False, False, frozenset({3}), frozenset({1}))

    def test_zero(self):
        ctx, S = semigroup(3, (1, 2))
        prof = P.h_class_profile(ctx, S, S.index_of(P.empty_map(3)))
        assert prof.size == 1 and prof.is_group and prof.is_cyclic_group

    def test_full_range_identity_at_seven(self):
        # |S| = 12,013 is past the multiplication table's bound; the profile
        # needs only the seven rotations in the identity's class, the last
        # of which ends the element order
        ctx, S = semigroup(7, tuple(range(1, 8)))
        for i in (S.index_of(P.identity_on(7, ctx.points)), len(S) - 1):
            prof = P.h_class_profile(ctx, S, i)
            assert prof.size == 7 and prof.is_group and prof.is_cyclic_group

    def test_regular_class_sizes(self):
        for n in range(1, 5):
            for pts in all_range_sets(n):
                ctx, S = semigroup(n, pts)
                for i, a in enumerate(S.elements):
                    prof = P.h_class_profile(ctx, S, i)
                    if P.is_regular_characterized(ctx, a):
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
        [("L", (1, 0)), ("R", (0, 1)), ("H", (1, 1)), ("D", (1, 1)), ("J", (1, 1))],
    )
    def test_one_relation(self, builds, rel, expected):
        _, S = semigroup(3, (1, 2))
        P.green_oracle(S, rel)
        assert (builds["left"], builds["right"]) == expected

    def test_selftest_builds_each_list_once_per_range_set(self, builds, capsys):
        assert main(["selftest", "--max-n", "3", "--json"]) == 0
        # one of each per range set: 1 + 3 + 7 of them at n <= 3
        assert builds == {"left": 11, "right": 11}
