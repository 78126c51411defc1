"""Isomorphism between two range-restricted semigroups on the same chain.

`decide_isomorphic` applies the closed criterion (equal sizes up to two, or
a rotation/reflection carrying one range set onto the other).
`bruteforce_isomorphism` is an independent oracle: backtracking over
element bijections, pruned only by structural facts that hold for every
semigroup isomorphism (zero to zero, idempotents to idempotents, induced
point bijection on images, fixed points and range-set parts of domains).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from . import errors
from .semigroup import ElementSet, RangeContext, contains, enumerate_semigroup
from .transform import PartialInjection, reflection_perm, rotation_perm


@dataclass(frozen=True)
class IsoWitness:
    verdict: bool
    reason: str  # "small-rank" | "dihedral" | "oracle-map" | "none"
    delta: PartialInjection | None = None
    element_map: tuple[tuple[int, int], ...] | None = None


def dihedral_elements(n: int) -> list[PartialInjection]:
    """The 2n rotations and reflections of the chain, as permutations.

    Undefined for n <= 2, where the group does not embed in the symmetric
    group on the chain.
    """
    if n <= 2:
        raise errors.ChainTooSmall("need n >= 3, got %d" % n)
    rotations = [rotation_perm(n, k) for k in range(n)]
    h = reflection_perm(n)
    return rotations + [h * g for g in rotations]


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
    """Closed-form decision with witness."""
    yset = frozenset(y)
    zset = frozenset(z)
    cy = RangeContext(n, yset)  # validates the subsets
    cz = RangeContext(n, zset)
    if cy.r != cz.r:
        return IsoWitness(False, "none")
    if cy.r <= 2:
        return IsoWitness(True, "small-rank")
    for delta in dihedral_elements(n):
        if frozenset(delta(p) for p in yset) == zset:
            return IsoWitness(True, "dihedral", delta=delta)
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


def _range_points(S: ElementSet) -> list[int]:
    pts: set[int] = set()
    for a in S:
        pts.update(a.image_seq)
    return sorted(pts)


def bruteforce_isomorphism(S: ElementSet, T: ElementSet) -> dict[int, int] | None:
    """Search for a product-preserving bijection between two element sets.

    Tries every bijection between the two range sets (forced by the images
    of the singleton identities), then extends over elements by
    backtracking with constraint propagation: assigning one element forces
    every product with already-assigned elements.
    """
    if len(S) != len(T):
        return None
    ypts = _range_points(S)
    zpts = _range_points(T)
    if len(ypts) != len(zpts):
        return None
    size = len(S)
    if size == 0:
        return {}
    yset = set(ypts)
    zset = set(zpts)
    m_s = S.mult_table()
    m_t = T.mult_table()

    # per-element structural data
    def info(E: ElementSet, pts: set[int]):
        ranks, ims, fixes, dom_in = [], [], [], []
        for a in E:
            ranks.append(a.rank)
            ims.append(a.image)
            fixes.append(a.fixed_points())
            dom_in.append(tuple(x for x in a.domain if x in pts))
        return ranks, ims, fixes, dom_in

    s_rank, s_im, s_fix, s_domy = info(S, yset)
    t_rank, t_im, t_fix, t_domz = info(T, zset)

    t_sig: dict = {}
    for j in range(size):
        key = (t_rank[j], t_im[j], t_fix[j], frozenset(t_domz[j]))
        t_sig.setdefault(key, []).append(j)

    order = sorted(range(size), key=lambda i: (-s_rank[i], i))

    for image_choice in permutations(zpts):
        phi = dict(zip(ypts, image_choice))
        cand: list[list[int]] = []
        feasible = True
        for i in range(size):
            key = (
                s_rank[i],
                frozenset(phi[p] for p in s_im[i]),
                frozenset(phi[p] for p in s_fix[i]),
                frozenset(phi[p] for p in s_domy[i]),
            )
            opts = [
                j
                for j in t_sig.get(key, ())
                if all(
                    T[j].get(phi[x]) == phi[S[i](x)] for x in s_domy[i]
                )
            ]
            if not opts:
                feasible = False
                break
            cand.append(opts)
        if not feasible:
            continue
        result = _extend(size, cand, m_s, m_t, order)
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
