import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import popi as P
from popi import errors, green
from popi.cli import main
from popi.semigroup import element_blocks

from conftest import all_range_sets, class_map, ordered_closure, pi, rank_layer, semigroup


def d_from_composition(S):
    """D-classes computed as L∘R instead of the oracle's transitive closure."""
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
    """Each row's distinct products, kept as the table is formed, in the
    order of their first columns."""

    @staticmethod
    def check(S):
        m = S.mult_table()
        rows = S.row_products()
        assert len(rows) == len(S)
        for products, row in zip(rows, m):
            assert products == tuple(dict.fromkeys(row))
        assert green._right_ideals(S) == [frozenset((a, *row)) for a, row in enumerate(m)]

    def test_every_range_set_to_five(self):
        for n in range(1, 6):
            for pts in all_range_sets(n):
                self.check(semigroup(n, pts)[1])

    def test_full_range_at_six(self):
        # built here, not through the cached `semigroup`, so its table is freed
        self.check(P.enumerate_semigroup(P.RangeContext(6, range(1, 7))))

    def test_open_set_raises_as_the_table_does(self):
        # the square of the rotation on {1, 2, 3} is not in the set
        S = P.ElementSet([bytes(P.rotation_perm(3).table)])
        with pytest.raises(KeyError):
            S.row_products()
        with pytest.raises(KeyError):
            S.mult_table()


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
        # both sides share one letter check
        for relations in ("", "Q", "LX", ["L"], None):
            for side, arg in ((P.green_characterized, ctx), (P.green_oracle, S)):
                with pytest.raises(errors.BadParameters, match="unknown relations"):
                    side(arg, relations)
        with pytest.raises(errors.BadParameters):
            P.green_characterized(ctx, "J")  # the oracle's alone
        assert P.green_oracle(S, "J")["J"] == P.green_oracle(S, "D")["D"]

    def test_singleton_set(self):
        ctx = P.RangeContext(3, (1, 2))
        single = ordered_closure(ctx, [P.empty_map(3)])
        assert P.green_oracle(single, "L") == {"L": ((0,),)}

    def test_partitions_of_one_build_match_single_relations(self):
        for pts in [(1, 3), (1, 2, 3, 4)]:
            _, S = semigroup(4, pts)
            both = P.green_oracle(S, "LRHDJ")
            assert all(both[rel] == P.green_oracle(S, rel)[rel] for rel in "LRHDJ")


    def test_classes_ascend_in_order_of_least_index(self):
        # both paths read their keys in index order and never sort a class
        for n in range(1, 5):
            for pts in all_range_sets(n):
                ctx, S = semigroup(n, pts)
                parts = [*P.green_characterized(ctx, "LRHD").values()]
                parts += P.green_oracle(S, "LRHDJ").values()
                for part in parts:
                    assert all(list(c) == sorted(set(c)) for c in part), (n, pts)
                    least = [c[0] for c in part]
                    assert least == sorted(least), (n, pts)
                    assert sorted(i for c in part for i in c) == list(range(len(S)))

    def test_d_equals_j(self):
        _, S = semigroup(4, (1, 3))
        oracle = P.green_oracle(S, "DJ")
        assert oracle["D"] == oracle["J"]

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

    def test_full_range_identity_at_seven(self, monkeypatch):
        # |S| = 12,013 is past the multiplication table's bound; the profile
        # needs only the seven rotations in the identity's class, the last
        # of which ends the element order, and builds no element set
        monkeypatch.setattr(P.ElementSet, "__init__", None)
        ctx = P.RangeContext(7, range(1, 8))
        *_, (images, [domain]) = element_blocks(ctx)  # the top rank has one domain
        last = pi(7, *zip(domain, images[-1]))
        for a in (P.identity_on(7, ctx.points), last):
            prof = P.h_class_profile(ctx, a)
            assert prof.size == 7 and prof.is_group and prof.is_cyclic_group

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
