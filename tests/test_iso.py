import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from itertools import combinations, permutations, product

import pytest

import popi as P
import popi.iso
from popi import errors
from popi.cli import main
from popi.iso import _extend

from conftest import (
    all_pairs_extend,
    all_range_sets,
    conjugation_isomorphism,
    full_dihedral_group,
    full_table,
    is_dihedral_restriction,
    pi,
    reflection,
    semigroup,
    table_index,
)


class TestDihedralElements:
    def test_n3_is_full_symmetric_group(self):
        elems = set(full_dihedral_group(3))
        assert len(elems) == 6
        assert all(a.rank == a.n for a in elems)

    def test_n4_excludes_transposition(self):
        elems = set(full_dihedral_group(4))
        assert len(elems) == 8
        swap = pi(4, (1, 2), (2, 1), (3, 3), (4, 4))
        assert swap not in elems

    def test_defining_relation(self):
        for n in (3, 4, 5, 6):
            g = P.rotation_perm(n)
            h = reflection(n)
            assert g * h == h * P.rotation_perm(n, n - 1)


class TestDihedralRestriction:
    def test_members(self):
        for n in (3, 4, 5):
            for a in full_dihedral_group(n):
                assert is_dihedral_restriction(a)

    def test_restriction_of_member(self):
        g = P.rotation_perm(5)
        e = P.identity_on(5, {1, 3})
        assert is_dihedral_restriction(e * g * g)

    def test_counterexample(self):
        assert not is_dihedral_restriction(pi(4, (1, 1), (2, 3)))

    def test_small_rank_always_passes(self):
        assert is_dihedral_restriction(pi(5, (2, 4)))
        assert is_dihedral_restriction(P.empty_map(5))


class TestDecide:
    def test_positive_dihedral(self):
        w = P.decide_isomorphic(4, (1, 2, 3), (1, 2, 4))
        assert w.verdict and w.reason == "dihedral"
        assert frozenset(w.delta(p) for p in (1, 2, 3)) == frozenset({1, 2, 4})

    def test_small_rank_always_isomorphic(self):
        w = P.decide_isomorphic(4, (1, 2), (1, 3))
        assert w.verdict and w.reason == "small-rank"

    def test_negative_size_mismatch(self):
        assert not P.decide_isomorphic(4, (1, 2), (1, 2, 3)).verdict

    def test_negative_same_size(self):
        w = P.decide_isomorphic(5, (1, 2, 3), (1, 2, 4))
        assert not w.verdict and w.reason == "none"

    def test_reflexive(self):
        w = P.decide_isomorphic(5, (2, 4, 5), (2, 4, 5))
        assert w.verdict

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_full_group_scan(self, n):
        group = full_dihedral_group(n) if n >= 3 else []
        sets = list(all_range_sets(n))
        for y in sets:
            for z in sets:
                if len(y) == len(z):
                    assert P.decide_isomorphic(n, y, z) == scan_decide(group, y, z), (y, z)

    def test_non_isomorphic_at_a_million_points_within_a_second(self):
        # a child process, so that a decision tabulating all 2n maps is killed
        # before it fills memory
        argv = ["iso", "--n", str(10**6), "--y", "1,2,3", "--z", "1,2,5", "--json"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-m", "popi.cli", *argv],
            capture_output=True, text=True, env=env, timeout=1.0,
        )
        assert done.returncode == 0
        assert json.loads(done.stdout)["verdict"] is False


def scan_decide(group, y, z):
    """The reference decision for range sets of equal size: the first
    member of the whole group, in order, that carries y onto z."""
    if len(y) <= 2:
        return P.IsoWitness(True, "small-rank")
    for delta in group:
        if frozenset(delta(p) for p in y) == frozenset(z):
            return P.IsoWitness(True, "dihedral", delta=delta)
    return P.IsoWitness(False, "none")


class TestConjugation:
    def test_dihedral_conjugator(self):
        w = P.decide_isomorphic(4, (1, 2, 3), (1, 2, 4))
        phi = conjugation_isomorphism(4, (1, 2, 3), (1, 2, 4), w.delta)
        assert len(phi) == P.cardinality_formula(4, 3)
        assert phi[P.empty_map(4)] == P.empty_map(4)

    def test_small_rank_any_permutation(self):
        sigma = pi(5, (1, 2), (2, 1), (3, 3), (4, 5), (5, 4))
        phi = conjugation_isomorphism(5, (1, 3), (2, 3), sigma)
        assert len(phi) == P.cardinality_formula(5, 2)

    def test_sigma_off_the_range_set(self):
        # the rotation carries {1, 2, 3} onto {2, 3, 4}, not onto {1, 2, 4}
        assert conjugation_isomorphism(4, (1, 2, 3), (1, 2, 4), P.rotation_perm(4)) is None


class TestBruteforceOracle:
    def test_identity_case(self):
        found = P.bruteforce_isomorphism(3, (1, 2), (1, 2))
        assert found is not None
        assert self._is_isomorphism(3, (1, 2), (1, 2), found)

    def test_positive_pair(self):
        found = P.bruteforce_isomorphism(4, (1, 2, 3), (2, 3, 4))
        assert found is not None
        assert self._is_isomorphism(4, (1, 2, 3), (2, 3, 4), found)

    def test_negative_pair(self):
        assert P.bruteforce_isomorphism(5, (1, 2, 3), (1, 2, 4)) is None

    def test_size_mismatch_shortcut(self, element_sets):
        assert P.bruteforce_isomorphism(5, (1, 2), (1, 2, 3)) is None
        assert element_sets == []

    def test_too_large_refused_before_building(self, element_sets):
        with pytest.raises(errors.TooLarge):
            P.bruteforce_isomorphism(10, range(1, 11), range(1, 11))
        assert element_sets == []

    def test_map_respects_structure(self):
        _, S = semigroup(4, (1, 3))
        _, T = semigroup(4, (2, 4))
        found = P.bruteforce_isomorphism(4, (1, 3), (2, 4))
        assert found is not None
        for i, a in enumerate(S):
            b = T[found[i]]
            assert a.rank == b.rank
            assert a.is_idempotent() == b.is_idempotent()
        assert T[found[table_index(S)[bytes(P.empty_map(4).table)]]] == P.empty_map(4)

    @staticmethod
    def _is_isomorphism(n, y, z, found):
        _, S = semigroup(n, y)
        _, T = semigroup(n, z)
        if sorted(found.values()) != list(range(len(T))):
            return False
        m_s, m_t = full_table(S), full_table(T)
        return all(
            found[m_s[i][j]] == m_t[found[i]][found[j]]
            for i in range(len(S))
            for j in range(len(S))
        )


def associative_tables(size: int) -> list[list[tuple[int, ...]]]:
    """Every associative operation on {0..size-1}, as rows of products."""
    elems = range(size)
    tables = []
    for flat in product(elems, repeat=size * size):
        m = [flat[i * size : (i + 1) * size] for i in elems]
        if all(m[m[a][b]][c] == m[a][m[b][c]] for a in elems for b in elems for c in elems):
            tables.append(m)
    return tables


def factored(m):
    """A table of rows in `_extend`'s factored shape: each row whole, under
    the identity class map."""
    return m, [tuple(range(len(m)))] * len(m)


class TestExtend:
    def test_matches_every_bijection_on_three_element_semigroups(self):
        # with every element a candidate for every other, the search alone
        # decides; each of its conflicts (an element forced to a second image,
        # an image used twice, a clash on either side's product) is met here
        tables = associative_tables(3)
        assert len(tables) == 113
        everything = [dict.fromkeys(range(3))] * 3
        for m_s in tables:
            for m_t in tables:
                isos = [
                    dict(enumerate(p))
                    for p in permutations(range(3))
                    if all(p[m_s[a][b]] == m_t[p[a]][p[b]] for a in range(3) for b in range(3))
                ]
                found = _extend(everything, factored(m_s), factored(m_t), [0, 1, 2])
                assert found in isos if isos else found is None, (m_s, m_t)

    def test_search_deeper_than_the_recursion_limit(self):
        # left zeros (a*b = a) force nothing, so each element is its own
        # choice: 1,200 open choices, past Python's default limit of 1,000
        size = 1200
        m = [(a,) * size for a in range(size)]
        cand = [dict.fromkeys((i,)) for i in range(size)]
        table = factored(m)
        assert _extend(cand, table, table, list(range(size))) == dict(enumerate(range(size)))


def benchmark_iso_triples():
    """The benchmark's two iso shapes: {1,2,3,5} against its dihedral orbit
    at n = 6, and {1,2,3} against the 3-sets holding 1 at n = 7."""
    orbit = sorted({tuple(sorted(d(p) for p in (1, 2, 3, 5))) for d in full_dihedral_group(6)})
    return [(6, (1, 2, 3, 5), z) for z in orbit] + [
        (7, (1, 2, 3), z) for z in combinations(range(1, 8), 3) if z[0] == 1
    ]


class TestChoicePropagation:
    """Forced elements are checked against the search's choices alone; a
    search through the all-pairs reference returns the same map."""

    @pytest.mark.parametrize(
        "n, y, z",
        [(5, y, z) for y in all_range_sets(5) for z in all_range_sets(5) if len(y) == len(z)]
        + benchmark_iso_triples(),
    )
    def test_same_map_as_all_pairs_reference(self, monkeypatch, n, y, z):
        found = P.bruteforce_isomorphism(n, y, z)
        monkeypatch.setattr(popi.iso, "_extend", all_pairs_extend)
        assert found == P.bruteforce_isomorphism(n, y, z)

    def test_same_map_as_all_pairs_reference_on_three_element_semigroups(self):
        # every candidate open, so the propagation alone prunes
        everything = [dict.fromkeys(range(3))] * 3
        tables = associative_tables(3)
        for m_s in tables:
            for m_t in tables:
                table_s, table_t = factored(m_s), factored(m_t)
                found = _extend(everything, table_s, table_t, [0, 1, 2])
                reference = all_pairs_extend(everything, table_s, table_t, [0, 1, 2])
                assert found == reference, (m_s, m_t)


class TestDecideAgreesWithOracle:
    def test_n4_grid(self):
        from itertools import combinations

        sets = [c for k in (1, 2, 3) for c in combinations(range(1, 5), k)]
        for y in sets:
            for z in sets:
                verdict = P.decide_isomorphic(4, y, z).verdict
                found = P.bruteforce_isomorphism(4, y, z)
                assert verdict == (found is not None), (y, z)


# sha256 of `iso ... --oracle --json` stdout, captured before the decision
# and the oracle were rewritten around point images: every pair of equal
# size at n <= 4, and the benchmark's two iso shapes, {1,2,3,5} against its
# dihedral orbit at n = 6 and {1,2,3} against the 3-sets holding 1 at n = 7;
# and {1,2} against {3,9} at n = 30, captured before the search counted its
# free candidates per key class.
GOLDEN_ISO = os.path.join(os.path.dirname(__file__), "golden", "iso_oracle.json")


def iso_oracle_argvs():
    triples = [
        (n, y, z)
        for n in range(1, 5)
        for y in all_range_sets(n)
        for z in all_range_sets(n)
        if len(y) == len(z)
    ]
    triples += benchmark_iso_triples()
    triples.append((30, (1, 2), (3, 9)))  # key classes of dozens of elements
    pts = lambda s: ",".join(map(str, s))  # noqa: E731
    return [
        ["iso", "--n", str(n), "--y", pts(y), "--z", pts(z), "--oracle", "--json"]
        for n, y, z in triples
    ]


def stdout_digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_iso_oracle_reports_match_golden_digests():
    with open(GOLDEN_ISO) as fh:
        golden = json.load(fh)
    argvs = iso_oracle_argvs()
    assert sorted(" ".join(a) for a in argvs) == sorted(golden)
    mismatched = [a for a in argvs if stdout_digest(a) != golden[" ".join(a)]]
    assert mismatched == []
