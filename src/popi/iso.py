"""Isomorphism between two range-restricted semigroups on the same chain.

`decide_isomorphic` applies the closed criterion (equal sizes up to two, or
a rotation/reflection carrying one range set onto the other).
`bruteforce_isomorphism` is an independent oracle: backtracking over
element bijections, pruned only by a fact that holds for every semigroup
isomorphism: it conjugates each element's restriction to the range set by
the induced point bijection, keeping ranks and mapping images.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable

from . import errors
from .semigroup import ElementSet, RangeContext, contains, enumerate_semigroup
from .transform import PartialInjection


@dataclass(frozen=True)
class IsoWitness:
    verdict: bool
    reason: str  # "small-rank" | "dihedral" | "none"
    delta: PartialInjection | None = None


def _dihedral_map(n: int, k: int, reflected: bool) -> Callable[[int], int]:
    """The rotation x -> (x+k-1) mod n + 1, or the reflection
    x -> (k-x) mod n + 1, of the chain."""
    if reflected:
        return lambda x: (k - x) % n + 1
    return lambda x: (x + k - 1) % n + 1


def _tabulate(n: int, f: Callable[[int], int]) -> PartialInjection:
    return PartialInjection.from_table(tuple(map(f, range(1, n + 1))))


def dihedral_elements(n: int) -> list[PartialInjection]:
    """The 2n rotations and reflections of the chain, as permutations:
    the rotations for k = 0..n-1, then the reflections for k = 0..n-1.

    Undefined for n <= 2, where the group does not embed in the symmetric
    group on the chain.
    """
    if n <= 2:
        raise errors.ChainTooSmall("need n >= 3, got %d" % n)
    return [_tabulate(n, _dihedral_map(n, k, s)) for s in (False, True) for k in range(n)]


def is_dihedral_restriction(a: PartialInjection) -> bool:
    """Pairwise criterion: every defined pair of points keeps its circular
    distance, possibly reflected."""
    n = a.n
    dom = a.domain
    for s in range(len(dom)):
        for t in range(s + 1, len(dom)):
            i, j = dom[s], dom[t]
            gap = j - i
            if abs(a(j) - a(i)) not in (gap, n - gap):
                return False
    return True


def decide_isomorphic(n: int, y, z) -> IsoWitness:
    """Closed-form decision with witness.

    A map carrying Y onto Z sends min Y into Z, so only those 2|Y| maps are
    tried, in `dihedral_elements` order; only the one found is tabulated.
    """
    yset = frozenset(y)
    zset = frozenset(z)
    cy = RangeContext(n, yset)  # validates the subsets
    cz = RangeContext(n, zset)
    if cy.r != cz.r:
        return IsoWitness(False, "none")
    if cy.r <= 2:
        return IsoWitness(True, "small-rank")
    y0 = cy.points[0]
    for reflected in (False, True):
        # the k whose map sends y0 to p
        for k in sorted((p + y0 - 1 if reflected else p - y0) % n for p in zset):
            f = _dihedral_map(n, k, reflected)
            if {f(p) for p in yset} == zset:
                return IsoWitness(True, "dihedral", delta=_tabulate(n, f))
    return IsoWitness(False, "none")


def conjugation_isomorphism(
    n: int, y, z, sigma: PartialInjection
) -> dict[PartialInjection, PartialInjection]:
    """The map a -> sigma^-1 * a * sigma, verified as an isomorphism.

    The conjugator must carry the first range set onto the second and be a
    rotation/reflection of the chain, unless both range sets have at most
    two points, where any permutation works.
    """
    cy = RangeContext(n, y)
    cz = RangeContext(n, z)
    if not sigma.is_permutation() or sigma.n != n:
        raise errors.InvalidConjugator("conjugator must be a permutation of the chain")
    if frozenset(sigma(p) for p in cy.points) != cz.point_set:
        raise errors.NotARangeMap("conjugator does not carry one range set to the other")
    if cy.r > 2 and not is_dihedral_restriction(sigma):
        raise errors.InvalidConjugator(
            "range sets with more than two points need a rotation/reflection"
        )
    inv = sigma.inverse()
    S = enumerate_semigroup(cy)
    T = enumerate_semigroup(cz)
    phi = {a: inv * a * sigma for a in S}
    if len(set(phi.values())) != len(S) or len(S) != len(T):
        raise errors.DecompositionFailed("conjugation map is not a bijection")
    for b in phi.values():
        if not contains(cz, b):
            raise errors.DecompositionFailed("conjugation map leaves the target semigroup")
    for a in S:
        for b in S:
            if phi[a * b] != phi[a] * phi[b]:
                raise errors.DecompositionFailed("conjugation map is not a homomorphism")
    return phi


# -- independent brute-force oracle ----------------------------------------


def bruteforce_isomorphism(S: ElementSet, T: ElementSet) -> dict[int, int] | None:
    """Search for a product-preserving bijection between two element sets.

    Tries every bijection phi between the two range sets (forced by the
    images of the singleton identities).  An element's candidates are the
    elements of T whose key (rank, image, graph on the range set) is its own
    key mapped through phi.  The search then extends over elements by
    backtracking with constraint propagation: assigning one element forces
    every product with already-assigned elements.
    """
    if len(S) != len(T):
        return None
    ypts = sorted({p for a in S for p in a.image_seq})
    zpts = sorted({p for a in T for p in a.image_seq})
    if len(ypts) != len(zpts):
        return None
    m_s = S.mult_table()
    m_t = T.mult_table()

    def keys(E: ElementSet, pts: list[int]) -> list[tuple]:
        inside = set(pts)
        return [
            (a.rank, a.image, frozenset((x, a(x)) for x in a.domain if x in inside)) for a in E
        ]

    t_keys: dict = {}
    for j, k in enumerate(keys(T, zpts)):
        t_keys.setdefault(k, []).append(j)
    s_keys = keys(S, ypts)
    order = sorted(range(len(S)), key=lambda i: (-s_keys[i][0], i))

    for image_choice in permutations(zpts):
        phi = dict(zip(ypts, image_choice)).__getitem__
        cand: list = [None] * len(S)
        for i in order:
            rank, image, graph = s_keys[i]
            mapped = (
                rank,
                frozenset(map(phi, image)),
                frozenset((phi(x), phi(v)) for x, v in graph),
            )
            cand[i] = t_keys.get(mapped)
            if cand[i] is None:
                break
        else:
            result = _extend(len(S), cand, m_s, m_t, order)
            if result is not None:
                return result
    return None


def _extend(size, cand, m_s, m_t, order):
    assign = [-1] * size
    used = [False] * size
    cand_sets = [set(c) for c in cand]
    assigned: list[int] = []

    def try_assign(i0, j0, trail):
        queue = [(i0, j0)]
        while queue:
            i, j = queue.pop()
            if assign[i] != -1:
                if assign[i] != j:
                    return False
                continue
            if used[j] or j not in cand_sets[i]:
                return False
            assign[i] = j
            used[j] = True
            assigned.append(i)
            trail.append(i)
            for k in assigned:
                p = m_s[i][k]
                q = m_t[j][assign[k]]
                if assign[p] == -1:
                    queue.append((p, q))
                elif assign[p] != q:
                    return False
                p = m_s[k][i]
                q = m_t[assign[k]][j]
                if assign[p] == -1:
                    queue.append((p, q))
                elif assign[p] != q:
                    return False
        return True

    def undo(trail):
        for i in reversed(trail):
            used[assign[i]] = False
            assign[i] = -1
            assigned.pop()

    def solve():
        best_i, best_opts = None, None
        for i in order:
            if assign[i] != -1:
                continue
            opts = [j for j in cand[i] if not used[j]]
            if not opts:
                return None
            if best_opts is None or len(opts) < len(best_opts):
                best_i, best_opts = i, opts
                if len(opts) == 1:
                    break
        if best_i is None:
            # complete: the propagation already checked every product pair
            return dict(enumerate(assign))
        for j in best_opts:
            trail: list[int] = []
            if try_assign(best_i, j, trail):
                found = solve()
                if found is not None:
                    return found
            undo(trail)
        return None

    return solve()
