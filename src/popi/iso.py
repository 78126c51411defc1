"""Isomorphism between two range-restricted semigroups on the same chain.

`decide_isomorphic` applies the closed criterion (equal sizes up to two, or
a rotation/reflection carrying one range set onto the other).
`bruteforce_isomorphism` is an independent oracle: backtracking over
element bijections, pruned only by a fact that holds for every semigroup
isomorphism: it conjugates each element's restriction to the range set by
the induced point bijection, keeping ranks and mapping images.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from itertools import permutations

from .semigroup import RangeContext, check_table_size, enumerate_semigroup
from .transform import PartialInjection


class IsoWitness(namedtuple("IsoWitness", "verdict reason delta", defaults=(None,))):
    """`reason` is "small-rank", "dihedral" or "none"; `delta` is the point
    map that carries one range set onto the other, for "dihedral" alone."""

    __slots__ = ()


def _dihedral_map(n: int, k: int, reflected: bool) -> Callable[[int], int]:
    """The rotation x -> (x+k-1) mod n + 1, or the reflection
    x -> (k-x) mod n + 1, of the chain."""
    if reflected:
        return lambda x: (k - x) % n + 1
    return lambda x: (x + k - 1) % n + 1


def decide_isomorphic(n: int, y, z) -> IsoWitness:
    """Closed-form decision with witness.

    A map carrying Y onto Z sends min Y into Z, so only those 2|Y| maps are
    tried, rotations before reflections; only the one found is tabulated.
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
                table = tuple(map(f, range(1, n + 1)))
                return IsoWitness(True, "dihedral", delta=PartialInjection.from_table(table))
    return IsoWitness(False, "none")


# -- independent brute-force oracle ----------------------------------------


def bruteforce_isomorphism(n: int, y, z) -> dict[int, int] | None:
    """Search for a product-preserving bijection between the semigroups on
    n points with range sets y and z, as a map of `enumerate_semigroup`
    indices, or None.

    Range sets of unequal size give semigroups of unequal size: None, before
    anything is built.  Past the table bound, TooLarge before anything is
    built.  Tries every bijection phi between the two range sets (forced by
    the images of the singleton identities).  S and T are grouped once into
    classes by key (image, so rank, and graph on the range set, read from
    the `bytes` tables); under phi each class of S, rank down, takes the T
    class of its mapped key as its members' candidates.  Backtracking with
    constraint propagation then extends over elements: a choice forces its
    products with every assigned element, and each element forced its
    products with the choices (see `_extend`).
    """
    cy = RangeContext(n, y)
    cz = RangeContext(n, z)
    if cy.r != cz.r:
        return None
    check_table_size(n, cy.r)
    S = enumerate_semigroup(cy)
    T = enumerate_semigroup(cz)
    table_s, table_t = S.mult_table(), T.mult_table()

    def classes(tables: tuple[bytes, ...], pts: frozenset[int]) -> dict:
        out: dict = {}  # key -> its indices; a slot table's nonzero values are the image
        for i, t in enumerate(tables):
            key = (frozenset(filter(None, t)), frozenset((x, t[x - 1]) for x in pts if t[x - 1]))
            out.setdefault(key, {})[i] = None
        return out

    t_classes = classes(T.tables, cz.point_set)
    # rank down: every injection of at most two points preserves orientation,
    # so classes of rank <= 2 never fail, and a failing phi is caught sooner
    s_classes = sorted(classes(S.tables, cy.point_set).items(), key=lambda kv: -len(kv[0][0]))
    order = sorted(range(len(S)), key=lambda i: S.tables[i].count(0))  # rank down, then index

    for image_choice in permutations(cz.points):
        phi = dict(zip(cy.points, image_choice)).__getitem__
        cand: list = [None] * len(S)
        for (image, graph), members in s_classes:
            mapped = (frozenset(map(phi, image)), frozenset((phi(x), phi(v)) for x, v in graph))
            if mapped not in t_classes:
                break
            for i in members:
                cand[i] = t_classes[mapped]
        else:
            result = _extend(cand, table_s, table_t, order)
            if result is not None:
                return result
    return None


def _extend(cand, table_s, table_t, order):
    """A bijection i -> j, each j a key of the dict `cand[i]`, carrying the
    associative table table_s onto the associative table table_t, each
    factored as `ElementSet.mult_table` returns it, or None.  Distinct dicts
    must be disjoint, as the caller's key classes of T are, so one count of
    free candidates per dict is exact and only the element picked lists its
    own.  Depth-first: the open element with the fewest free candidates
    (first in `order`) tries each in turn.  One log holds the assignments,
    and a second the choices; an open choice rewinds both to the lengths
    they had when it was made.

    A choice c is checked both ways against every assigned element, and
    each element its propagation forces is checked both ways against the
    choices alone; each product checked forces its image.  That is enough.
    Every assigned element x is a word in the choices, and the assigned set
    is closed under products with them, so it is the subsemigroup they
    generate.  If phi(x*c) = phi(x)*phi(c) and phi(c*x) = phi(c)*phi(x) for
    every assigned x and chosen c, then by associativity and induction on
    the length of the word v, phi(x*v) = phi(x)*phi(v) for every assigned
    x: phi is a homomorphism on the assigned set.  An all-pairs check
    forces the same images and no more, so a propagation succeeds exactly
    when it would: the search tree and the map returned are the same.
    """
    (rows_s, classes_s), (rows_t, classes_t) = table_s, table_t
    assign = [-1] * len(cand)
    used = [False] * len(cand)
    assigned: list[int] = []
    chosen: list[int] = []
    free = {id(c): len(c) for c in cand}

    def propagate(i0, j0):
        chosen.append(i0)
        queue = [(i0, j0)]
        while queue:
            i, j = queue.pop()
            if assign[i] != -1:
                if assign[i] != j:
                    return False
                continue
            if used[j] or j not in cand[i]:
                return False
            assign[i] = j
            used[j] = True
            free[id(cand[i])] -= 1
            assigned.append(i)
            row_i, class_i, row_j, class_j = rows_s[i], classes_s[i], rows_t[j], classes_t[j]
            for k in assigned if i == i0 else chosen:
                ak = assign[k]
                p = row_i[class_i[k]]
                q = row_j[class_j[ak]]
                if assign[p] == -1:
                    queue.append((p, q))
                elif assign[p] != q:
                    return False
                p = rows_s[k][classes_s[k][i]]
                q = rows_t[ak][classes_t[ak][j]]
                if assign[p] == -1:
                    queue.append((p, q))
                elif assign[p] != q:
                    return False
        return True

    stack = []  # open choices: (log length before it, element, untried candidates)
    while True:
        best_i, best_free = None, None
        for i in order:
            if assign[i] == -1 and (best_free is None or free[id(cand[i])] < best_free):
                best_i, best_free = i, free[id(cand[i])]
                if best_free <= 1:
                    break
        if best_i is None:
            # complete: a homomorphism on the whole of S, as shown above
            return dict(enumerate(assign))
        stack.append((len(assigned), best_i, iter([j for j in cand[best_i] if not used[j]])))
        while True:
            if not stack:
                return None
            mark, i, opts = stack[-1]
            for k in assigned[mark:]:
                used[assign[k]] = False
                free[id(cand[k])] += 1
                assign[k] = -1
            del assigned[mark:]
            del chosen[len(stack) - 1 :]  # chosen[d] is the choice of stack[d]
            j = next(opts, None)
            if j is None:
                stack.pop()
            elif propagate(i, j):
                break
