"""Shared helpers: cached enumerations and independent brute-force builders."""

from functools import lru_cache
from itertools import combinations, compress, permutations

import pytest
from hypothesis import strategies as st

import popi as P
from popi import errors, rank
from popi.green import _group_by_key


@lru_cache(maxsize=None)
def semigroup(n: int, pts: tuple[int, ...]):
    """Context plus enumerated element set, cached across tests."""
    ctx = P.RangeContext(n, pts)
    return ctx, P.enumerate_semigroup(ctx)


@pytest.fixture
def element_sets(monkeypatch):
    """The element sets built while the test runs."""
    built = []
    real_init = P.ElementSet.__init__

    def counting_init(self, tables):
        built.append(self)
        real_init(self, tables)

    monkeypatch.setattr(P.ElementSet, "__init__", counting_init)
    return built


@pytest.fixture
def elements_built(monkeypatch):
    """The elements built while the test runs, by either constructor."""
    built = []
    real_init, real_from_table = P.PartialInjection.__init__, P.PartialInjection.from_table

    def counting_init(self, *args):
        built.append(self)
        real_init(self, *args)

    def counting_from_table(cls, table):
        built.append(table)
        return real_from_table(table)

    monkeypatch.setattr(P.PartialInjection, "__init__", counting_init)
    monkeypatch.setattr(P.PartialInjection, "from_table", classmethod(counting_from_table))
    return built


def pi(n, *pairs):
    """The partial injection on n points with the given (point, image) pairs."""
    return P.PartialInjection(n, pairs)


def inverse(a):
    """The partial injection that sends each image of `a` back to its point."""
    table = [0] * a.n
    for x in a.domain:
        table[a(x) - 1] = x
    return P.PartialInjection.from_table(table)


def to_json_dict(a):
    """`a` in the wire format that `PartialInjection.from_json_dict` reads."""
    return {"n": a.n, "pairs": [[x, a(x)] for x in a.domain]}


def chain_rotation(n, k=1):
    """The k-th power of the chain rotation i -> i+1 (mod n), a negative k
    for an inverse power: `range_rotation_power` on Y = {1..n}."""
    return P.range_rotation_power(P.RangeContext(n, range(1, n + 1)), k)


class NotRestricted(errors.PopiError):
    """Element is not an order-preserving corank-one map with domain in the range set."""


class BadRank(errors.PopiError):
    """Element's rank is not the one a split level takes."""


def low_rank_split(ctx, a):
    """The split `_factor` makes of a member of rank at most r-2:
    `rank.decompose_low_rank`, behind the checks that keep it to its
    inputs, NotAMember, then BadRank, and passed through `rank._checked`
    with that level's factor ranks, as `_factor` passes it."""
    if not P.contains(ctx, a):
        raise errors.NotAMember("%r" % (a,))
    m = a.rank
    if m > ctx.r - 2:
        raise BadRank("rank %d exceeds %d" % (m, ctx.r - 2))
    return rank._checked(ctx, a, rank.decompose_low_rank(ctx, a), (m + 1, m + 1))


def corank_one_split(ctx, a, restricted=False):
    """The split `_factor` makes of a rank-(r-1) member: `rank._corank_one`,
    or `rank._restricted_corank_one` when `restricted`, behind the checks
    that keep those bodies to their inputs, and passed through
    `rank._checked` with that level's factor ranks, as `_factor` passes it.
    Restricted: FullRangeNotSupported on the full range set, then
    NotAMember, then NotRestricted.  Otherwise: NotAMember, then BadRank."""
    if restricted and ctx.is_full:
        raise errors.FullRangeNotSupported("full-range sets admit no insertion point")
    if not P.contains(ctx, a):
        raise errors.NotAMember("%r" % (a,))
    r = ctx.r
    if restricted:
        if not P.is_restricted_corank_one(ctx, a):
            raise NotRestricted("%r" % (a,))
        return rank._checked(ctx, a, rank._restricted_corank_one(ctx, a), (r, r))
    if a.rank != r - 1:
        raise BadRank("expected rank %d, got %d" % (r - 1, a.rank))
    return rank._checked(ctx, a, rank._corank_one(ctx, a), (r, r - 1))


def reflection(n):
    """The order-reversing permutation i -> n+1-i."""
    return P.PartialInjection.from_table(tuple(range(n, 0, -1)))


def full_dihedral_group(n):
    """The 2n rotations and reflections, as the rotation powers followed by
    the reflection times each of them."""
    rotations = [chain_rotation(n, k) for k in range(n)]
    h = reflection(n)
    return rotations + [h * g for g in rotations]


def is_dihedral_restriction(a):
    """The pairwise criterion for a restriction of a rotation or reflection:
    every two points of the domain keep their circular distance."""
    n, dom = a.n, a.domain
    return all(
        abs(a(j) - a(i)) in (j - i, n - j + i) for s, i in enumerate(dom) for j in dom[s + 1 :]
    )


def conjugation_isomorphism(n, y, z, sigma):
    """The map a -> sigma^-1 * a * sigma on the semigroup S for y, if it is a
    bijection onto the semigroup for z that preserves every product; None
    otherwise.

    Products are checked against a generating set A of S alone,
    phi(a*g) = phi(a)*phi(g) for every a in S and g in A, which is enough:
    every b in S is a word g1...gk over A, and by induction on k,
    phi(a*b) = phi(a*g1...g(k-1))*phi(gk) = phi(a)*phi(g1...g(k-1))*phi(gk)
    = phi(a)*phi(b).  The first and last steps are the checked identity for
    the members a*g1...g(k-1) and g1...g(k-1) of S, the middle one the
    induction hypothesis.  So 2*|S|*|A| products are formed, not |S|^2.
    """
    ctx, S = semigroup(n, y)
    T = semigroup(n, z)[1]
    gens = P.canonical_generating_set(ctx)
    assert len(P.closure(ctx, gens)) == len(S)
    inv = inverse(sigma)
    phi = {a: inv * a * sigma for a in S}
    if set(phi.values()) != set(T) or len(S) != len(T):
        return None
    if any(phi[a * g] != phi[a] * phi[g] for a in S for g in gens):
        return None
    return phi


def full_table(S):
    """The |S| x |S| list of lists that `S.mult_table()`'s factored
    `(rows, classes)` stands for: entry [a][b] is rows[a][classes[a][b]]."""
    rows, classes = S.mult_table()
    return [[row[c] for c in cls] for row, cls in zip(rows, classes)]


def table_index(S):
    """{`bytes` table: index} over `S.tables`; a member a is at
    `table_index(S)[bytes(a.table)]`."""
    return dict(zip(S.tables, range(len(S))))


def one_sided_ideals(S):
    """(S¹a per a, aS¹ per a) of any finite S, in index order, read from the
    whole multiplication table."""
    table = full_table(S)
    left = [frozenset((a, *col)) for a, col in enumerate(zip(*table))]
    return left, [frozenset((a, *row)) for a, row in enumerate(table)]


def j_partition(S):
    """The J-classes of S by definition: a and b are J-related when their
    two-sided ideals S¹aS¹ and S¹bS¹ are equal.  Each ideal is the union of
    the right ideals bS¹ over the members b of the left ideal S¹a;
    L-related elements share it."""
    left, right = one_sided_ideals(S)
    ideals = {ideal: frozenset().union(*map(right.__getitem__, ideal)) for ideal in set(left)}
    return _group_by_key(map(ideals.__getitem__, left))


def join_partition(L, R):
    """The D-classes by definition: the join of the partitions L and R, the
    transitive closure of L union R, by union-find over their classes."""
    parent = list(range(sum(map(len, L))))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for members in L + R:
        for i in members[1:]:
            parent[find(i)] = find(members[0])
    roots = [find(i) for i in range(len(parent))]
    return _group_by_key(roots)


def h_class_oracle(S):
    """`HClassProfile`s by definition, one per element in index order, from
    the H-classes of `green_oracle`: a class is a group when its products
    stay in it and one member is an identity for all of them, and a cyclic
    group when the powers of one member fill it.  Products are read from
    `S.mult_table()`; no element is built."""
    rows, classes = S.mult_table()

    def m(a, b):
        return rows[a][classes[a][b]]

    def powers(x):
        seen, p = {x}, m(x, x)
        while p not in seen:
            seen.add(p)
            p = m(p, x)
        return seen

    profiles = [None] * len(S)
    for members in P.green_oracle(S, "H")["H"]:
        member_set = set(members)
        is_group = all(m(x, y) in member_set for x in members for y in members) and any(
            all(m(e, x) == x == m(x, e) for x in members) for e in members
        )
        is_cyclic = is_group and any(len(powers(x)) == len(members) for x in members)
        for i in members:
            profiles[i] = P.HClassProfile(len(members), is_group, is_cyclic)
    return tuple(profiles)


def all_pairs_extend(cand, table_s, table_t, order):
    """The definition-level reference for `popi.iso._extend`, with its
    signature and search order: assigning one element forces and checks its
    products, both ways, with every assigned element."""
    (rows_s, classes_s), (rows_t, classes_t) = table_s, table_t

    def m_s(a, b):
        return rows_s[a][classes_s[a][b]]

    def m_t(a, b):
        return rows_t[a][classes_t[a][b]]

    assign = [-1] * len(cand)
    used = [False] * len(cand)
    assigned: list[int] = []
    free = {id(c): len(c) for c in cand}

    def propagate(i0, j0):
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
            for k in assigned:
                for p, q in ((m_s(i, k), m_t(j, assign[k])), (m_s(k, i), m_t(assign[k], j))):
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
            j = next(opts, None)
            if j is None:
                stack.pop()
            elif propagate(i, j):
                break


def table_key(table):
    """The reference element order of `enumerate_semigroup` and of
    `ordered_closure`, read from a slot table, a tuple or `bytes`: by rank,
    then domain, then image sequence."""
    domain = tuple(compress(range(1, len(table) + 1), table))
    return (len(domain), domain, tuple(filter(None, table)))


def sort_key(a):
    """`table_key` of an element."""
    return table_key(a.table)


def ordered_closure(ctx, gens, min_rank: int = 0):
    """`closure`'s tables as an `ElementSet`, in `sort_key` order."""
    return P.ElementSet(sorted(P.closure(ctx, gens, min_rank), key=table_key))


def rank_layer(S, k: int) -> list[int]:
    """Indices of the elements of S whose image has exactly k points."""
    return [i for i, a in enumerate(S) if a.rank == k]


def class_map(partition) -> dict[int, int]:
    """Element index -> position of its class in a partition."""
    return {i: c for c, members in enumerate(partition) for i in members}


def all_range_sets(n: int, max_size: int | None = None):
    top = max_size if max_size is not None else n
    for size in range(1, min(top, n) + 1):
        for pts in combinations(range(1, n + 1), size):
            yield pts


def proper_range_sets(n: int):
    for size in range(1, n):
        for pts in combinations(range(1, n + 1), size):
            yield pts


def all_partial_injections(n: int, max_rank: int | None = None):
    """Every injective partial self-map of the chain, by direct enumeration."""
    top = max_rank if max_rank is not None else n
    universe = range(1, n + 1)
    for k in range(0, min(top, n) + 1):
        for dom in combinations(universe, k):
            for img in combinations(universe, k):
                for arranged in permutations(img):
                    yield P.PartialInjection(n, zip(dom, arranged))


def text_report(report: dict, indent: str = "") -> str:
    """A report as text, the reference for `cli._text_report` and for the
    records the commands write after it: a dict value is indented under its
    key, and a list of dicts is one line per dict of "key=value" pairs."""
    lines = []
    for k, v in report.items():
        if isinstance(v, dict):
            lines.append("%s%s:" % (indent, k))
            lines.append(text_report(v, indent + "  ").rstrip("\n"))
        elif isinstance(v, list) and v and isinstance(v[0], dict):
            lines.append("%s%s:" % (indent, k))
            for row in v:
                lines.append(indent + "  " + "  ".join("%s=%s" % kv for kv in row.items()))
        else:
            lines.append("%s%s: %s" % (indent, k, v))
    return "\n".join(lines) + "\n"


@st.composite
def member_of(draw, n: int, pts, max_rank: int | None = None):
    """One member of the semigroup on n points with range set `pts`, of
    rank at most `max_rank` (at most |pts|) when given: a domain, an image
    set of equal size and a rotation of it."""
    k = draw(st.integers(0, len(pts) if max_rank is None else max_rank))
    dom = sorted(draw(st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True)))
    img = sorted(draw(st.lists(st.sampled_from(pts), min_size=k, max_size=k, unique=True)))
    t = draw(st.integers(0, max(k - 1, 0)))
    return P.PartialInjection(n, zip(dom, img[t:] + img[:t]))
