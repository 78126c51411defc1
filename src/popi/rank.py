"""Generating sets, rank certificates, and the step-down factorizations.

The pipeline passes every split it makes through one check: both factors
are members of the ranks the split's level makes and their product is the
input.  A failed check raises `DecompositionFailed` rather than returning a
wrong witness.
"""

from __future__ import annotations

import math
from bisect import bisect, insort
from collections import namedtuple
from collections.abc import Iterable
from functools import reduce
from itertools import combinations, compress, count, filterfalse, islice
from operator import gt, mul

from . import errors
from .semigroup import (
    MAX_ELEMENTS,
    RangeContext,
    check_search_size,
    closure,
    contains,
    element_count,
)
from .transform import (
    PartialInjection,
    empty_map,
    identity_on,
    order_isomorphism,
)


class Decomposition(
    namedtuple("Decomposition", "beta gamma shift_exponent case", defaults=(0, None))
):
    """A two-factor product with optional case bookkeeping.

    `shift_exponent` records the power of the chain rotation split off
    before factoring; `case` labels which construction produced the pair.
    """

    __slots__ = ()


class RankCertificate(
    namedtuple("RankCertificate", "claimed_rank generating_set order lower_bound_witness")
):
    """`generating_set` is `canonical_generating_set`, for every range set.
    `order` is |S| as counted by `semigroup_rank`, which raises unless
    `generating_set` closes to all of S.  `lower_bound_witness` holds the
    domains that bound the rank from below.  For a proper range set they are
    the domains of the closure's top-rank elements, read off that closure,
    and `semigroup_rank` raises unless there are as many as generators; for
    the full one, those of the two idempotents."""

    __slots__ = ()


# -- range-set rotation -----------------------------------------------------


def range_rotation_power(ctx: RangeContext, t: int) -> PartialInjection:
    """The t-th power of the cycle on the range set that sends each point to
    the next one, wrapping: each point of Y moves t places on.  Its table
    holds Y rotated t places in Y's slots."""
    pts = ctx.points
    t %= len(pts)
    table = [0] * ctx.n
    for x, y in zip(pts, pts[t:] + pts[:t]):
        table[x - 1] = y
    return PartialInjection.from_table(table)


# -- shift decomposition ----------------------------------------------------


def shift_decompose(a: PartialInjection) -> tuple[int, PartialInjection]:
    """Split off a power of the chain rotation leaving an order-preserving part.

    Returns the smallest l with a == rotation^l * a1 and a1 order-preserving;
    a1 keeps a's image.  A descent after the k-th image, at domain point
    d_{k+1}, gives l = n + 1 - d_{k+1}, both found by C-level scans of the
    table; no descent, l = 0.  x a1 = (x - l) a, so a1's table is a's rotated
    l slots to the right.  a1's images are a's rotated, so they ascend only
    if a's are cyclic: orientation is tested only when they do not, for NotAMember.
    """
    n, table, seq = len(a.table), a.table, tuple(filter(None, a.table))
    k = next(compress(count(1), map(gt, seq, seq[1:])), None)
    l = 0 if k is None else n + 1 - next(islice(compress(count(1), table), k, None))
    a1 = PartialInjection.from_table(table[n - l :] + table[: n - l])
    if not a1.is_order_preserving():
        if not a.is_orientation_preserving():
            raise errors.NotAMember("%r" % (a,))
        raise errors.DecompositionFailed("no rotation shift found for %r" % (a,))
    return l, a1


# -- the three factorization levels ----------------------------------------


def _checked(
    ctx: RangeContext, a: PartialInjection, d: Decomposition, ranks: tuple[int, int]
) -> Decomposition:
    """`d`, once both factors are `contains` members, of ranks `ranks` read as
    zero counts, whose product is `a`; DecompositionFailed otherwise."""
    beta, gamma = d.beta, d.gamma
    if not (
        (ctx.n - beta.table.count(0), ctx.n - gamma.table.count(0)) == ranks
        and contains(ctx, beta)
        and contains(ctx, gamma)
        and beta * gamma == a
    ):
        raise errors.DecompositionFailed("%s factorization failed for %r" % (d.case, a))
    return d


def _onto(n: int, table, ext, targets) -> tuple[list[int], list[int]]:
    """The slot tables of beta, which sends ext[i] to targets[i], and of
    beta^-1 * a, which sends targets[i] to a(ext[i]), for a's table `table`."""
    beta, gamma = [0] * n, [0] * n
    for x, y in zip(ext, targets):
        beta[x - 1] = y
        gamma[y - 1] = table[x - 1]
    return beta, gamma


def decompose_low_rank(ctx: RangeContext, a: PartialInjection) -> Decomposition:
    """Two factors of rank m+1 whose product is `a`, a member of rank m at
    most r-2.  Neither the input nor the split is checked: `_factor` passes
    only checked members of that rank and checks the split.  This is the
    pipeline's raise-rank split, and `bench/tracer.py` times each one under
    this name, the construction alone.

    beta sends the domain plus its least missing point onto the first m+1
    points of Y, rotated t places.  gamma is beta^-1 * a plus one pair d -> y
    with d outside beta's image, so beta * gamma == a; y is the least free
    point of Y in the circular gap at d's slot, which keeps gamma
    orientation-preserving.  The first (t, d) with such a y wins.  ext and
    the free points are read off a's table, and both factors are `_onto`'s.
    """
    n, table = ctx.n, a.table
    universe = range(1, n + 1)
    ext = list(compress(universe, table))
    m = len(ext)
    insort(ext, table.index(0) + 1)
    b_img = ctx.points[: m + 1]
    free = sorted(ctx.point_set.difference(table))
    for t in range(m + 1):
        beta, gamma0 = _onto(n, table, ext, b_img[t:] + b_img[:t])
        q, seq = tuple(compress(universe, gamma0)), tuple(filter(None, gamma0))
        for d in filterfalse(b_img.__contains__, universe):
            y = _gap_point(free, seq, bisect(q, d))
            if y is None:
                continue
            gamma0[d - 1] = y
            return Decomposition(*map(PartialInjection.from_table, (beta, gamma0)), case="low")
    raise errors.DecompositionFailed("no one-higher-rank factorization for %r" % (a,))


def _gap_point(free: list[int], images: tuple[int, ...], j: int) -> int | None:
    """By bisection, the least of `free` (sorted, nonempty) in the circular gap
    from images[j-1] up to images[j], or any of them beside fewer than two images."""
    if len(images) <= 1:
        return free[0]
    lo, hi = images[j - 1], images[j % len(images)]
    i = 0 if lo > hi and free[0] < hi else bisect(free, lo)
    return free[i] if i < len(free) and (lo > hi or free[i] < hi) else None


def _corank_one(ctx: RangeContext, a: PartialInjection) -> Decomposition:
    """(top-rank) * (restricted corank-one) factors of `a`, a member of
    rank r-1; neither the input nor the split is checked.

    The first factor is a rotation shift composed with the order
    isomorphism beta from the extended domain onto the range set; the
    second, `_onto`'s beta^-1 * a1, is order-preserving with domain inside
    the range set.  x (rotation^l * beta) = (x + l) beta, so the first
    factor's table is beta's rotated l slots to the left.
    """
    n = ctx.n
    l, a1 = shift_decompose(a)
    a1_table = a1.table
    ext = list(compress(range(1, n + 1), a1_table))
    insort(ext, a1_table.index(0) + 1)
    beta, gamma_table = _onto(n, a1_table, ext, ctx.points)
    gamma = PartialInjection.from_table(gamma_table)
    if not is_restricted_corank_one(ctx, gamma):
        raise errors.DecompositionFailed("corank-one factor %r is not restricted" % (gamma,))
    shifted = PartialInjection.from_table(beta[l:] + beta[:l])
    return Decomposition(shifted, gamma, shift_exponent=l, case="corank_one")


def is_restricted_corank_one(ctx: RangeContext, a: PartialInjection) -> bool:
    """Order-preserving, rank r-1, with domain inside the range set.  It
    does not test membership: the image may leave the range set."""
    table = a.table
    n = len(table)
    return (
        n == ctx.n
        and n - table.count(0) == len(ctx.points) - 1
        and ctx.point_set.issuperset(compress(range(1, n + 1), table))
        and a.is_order_preserving()
    )


def _missing_index(ctx: RangeContext, points: Iterable[int]) -> int:
    """1-based position of the one range-set point absent from `points`."""
    (missing,) = ctx.point_set.difference(points)
    return ctx.points.index(missing) + 1


def _restricted_corank_one(ctx: RangeContext, a: PartialInjection) -> Decomposition:
    """Two top-rank factors of `a`, a member that `is_restricted_corank_one`
    accepts, on a proper range set; neither the input nor the split is checked.

    The first factor, beta, is a rotation of the range set; the second is
    `_onto`'s beta^-1 * a plus one extra pair anchored at an
    insertion point taken, in order of preference, below the range set,
    above it, or inside its first interior gap; the case is recorded for
    coverage accounting.  The missing points are read off a's table.
    """
    n, r, pts, table = ctx.n, ctx.r, ctx.points, a.table
    i = _missing_index(ctx, compress(range(1, n + 1), table))
    j = _missing_index(ctx, table)
    ge = i >= j
    order = "ge" if ge else "lt"
    if pts[0] > 1 or pts[-1] < n:
        # the insertion point lies below or above the range set
        k, p = 0, (1 if pts[0] > 1 else n)
        case = "%s.%s" % ("low" if p == 1 else "high", order)
    else:
        k = next(k for k in range(1, r) if pts[k - 1] < pts[k] - 1)
        p = pts[k - 1] + 1
        if ge:
            width = "wide" if k >= j - 1 else "narrow"
        else:
            width = "wide" if k >= j else ("mid" if k >= j + 1 - i else "narrow")
        case = "gap.%s.%s" % (order, width)
    s = (k + ge - j) % r
    beta, gamma = _onto(n, table, pts, pts[s:] + pts[:s])
    gamma[p - 1] = pts[j - 1]
    return Decomposition(*map(PartialInjection.from_table, (beta, gamma)), case=case)


# -- top-layer structure ----------------------------------------------------


def canonical_generating_set(ctx: RangeContext) -> list[PartialInjection]:
    """The generating set of S for every range set: one top-rank
    representative per domain, the order isomorphism onto the range set,
    except that the representative with domain equal to the range set is the
    range rotation.  On the full range set that rule gives the chain rotation
    alone, and one order-preserving map of {1..n-1} onto the chain minus one
    point is appended.  Every product of the rotation with a restriction of
    one of its powers is again such a restriction, so for n >= 3 that map
    must not be one: it fixes 1..n-2 and sends n-1 to n.  For n <= 2 it is
    the partial identity on {1..n-1}, the empty map at n = 1.

    Past MAX_ELEMENTS slots, and then on a chain that `closure` cannot check
    it on, TooLarge is raised before any is built."""
    n, r = ctx.n, ctx.r
    # a proper range set gives C(n, r) >= n, so n*n decides first, and the
    # exact binomial is only computed when n*n is within the bound; the two
    # maps of the full range set fit wherever the search bound holds
    if not ctx.is_full and (n * n > MAX_ELEMENTS or n * math.comb(n, r) > MAX_ELEMENTS):
        raise errors.TooLarge(
            "n=%d with |Y|=%d gives C(%d, %d) generators of %d slots, more than %d slots"
            % (n, r, n, r, n, MAX_ELEMENTS)
        )
    check_search_size(n)
    gens = []
    for dom in combinations(range(1, n + 1), r):
        if dom == ctx.points:
            gens.append(range_rotation_power(ctx, 1))
        else:
            gens.append(order_isomorphism(n, dom, ctx.points))
    if ctx.is_full:
        skip = n - 1 if n >= 3 else n
        gens.append(order_isomorphism(n, range(1, n), [y for y in range(1, n + 1) if y != skip]))
    return gens


def deletion_test(ctx: RangeContext, generators: list[PartialInjection]) -> list[bool]:
    """For each generator g of G: does removing it strictly shrink the closure?

    ⟨G∖g⟩ lies inside ⟨G⟩, and equals it iff it holds g.  For any floor
    k ≤ rank g, it holds g iff its elements of rank at least k are as many
    as those of ⟨G⟩: g is one of them.  So every closure here, of G and of
    each G∖g, is taken at the one floor k = the least rank in G, which
    `closure` builds without the layers below it.
    """
    k = min((g.rank for g in generators), default=0)
    full = len(closure(ctx, generators, k))
    out = []
    for i in range(len(generators)):
        rest = generators[:i] + generators[i + 1 :]
        out.append(len(closure(ctx, rest, k)) < full if rest else True)
    return out


def semigroup_rank(ctx: RangeContext) -> RankCertificate:
    """Rank with a constructive certificate, checked by one closure of
    `canonical_generating_set`.

    Proper range set: a word's domain lies in its first letter's and its
    rank is at most each letter's, so every generating set holds an element
    of each top-rank domain.  The witness is those domains, read off the
    closure, and the set must be no larger.  Full range set: a finite
    monogenic semigroup has exactly one idempotent, so the two idempotents
    of S, the empty map and the identity, show that no single element
    generates it.  |S| is `element_count`, so no element set is built.

    `canonical_generating_set` raises TooLarge before anything is counted or
    built when the set passes MAX_ELEMENTS slots or the chain passes the
    closure's MAX_SEARCH_POINTS; `element_count` then raises it past
    MAX_ELEMENTS elements.
    """
    n, r = ctx.n, ctx.r
    gens = tuple(canonical_generating_set(ctx))
    order = element_count(ctx)
    tables = closure(ctx, gens)
    if len(tables) != order:
        raise errors.DecompositionFailed("generating set failed to generate")
    if ctx.is_full:
        idempotents = (empty_map(n), identity_on(n, ctx.points))
        if not all(contains(ctx, e) and e.is_idempotent() for e in idempotents):
            raise errors.DecompositionFailed("lower-bound witness is not two idempotents of S")
        witness = tuple(e.domain for e in idempotents)
    else:
        top = {tuple(compress(range(1, n + 1), t)) for t in tables if t.count(0) == n - r}
        witness = tuple(sorted(top))
        if len(witness) != len(gens):
            raise errors.DecompositionFailed("generating set is not of minimum size")
    return RankCertificate(len(gens), gens, order, witness)


# -- full pipeline ----------------------------------------------------------


def top_rank_factorization(
    ctx: RangeContext, a: PartialInjection, steps: list | None = None
) -> list[PartialInjection]:
    """Express any element (proper range set) as a product of top-rank
    elements by iterating the three factorization levels.

    When `steps` is given, one `(op, input, Decomposition)` triple is
    appended per factorization, in the order they are made.

    A rank-r element is its own single factor, a rank-(r-1) element gives
    at most three, and each rank-raising split doubles the factors, so a
    rank-m element with m < r gives at most 3 * 2^(r-1-m) factors, each a
    table of n slots.  Past MAX_ELEMENTS slots, TooLarge is raised before
    the first split.
    """
    if ctx.is_full:
        raise errors.FullRangeNotSupported("pipeline is defined for proper range sets")
    if not contains(ctx, a):
        raise errors.NotAMember("%r" % (a,))
    splits = ctx.r - 1 - a.rank
    if splits >= 0 and 3 * 2**splits * ctx.n > MAX_ELEMENTS:
        raise errors.TooLarge(
            "a rank-%d element with |Y|=%d gives up to 3*2^%d factors of %d slots,"
            " more than %d slots"
            % (a.rank, ctx.r, splits, ctx.n, MAX_ELEMENTS)
        )
    factors = _factor(ctx, a, steps)
    zeros = ctx.n - ctx.r
    if reduce(mul, factors) != a or any(f.table.count(0) != zeros for f in factors):
        raise errors.DecompositionFailed("pipeline product check failed for %r" % (a,))
    return factors


def _factor(ctx, a, steps) -> list[PartialInjection]:
    """The top-rank factors of `a` in order, each β's split before its γ's.

    `a` is a checked member.  Each distinct input is split once per call,
    by the level its rank picks, and that split passes `_checked` here, with
    the factor ranks its level makes: so every factor is a checked member,
    and no level's body checks its input or its split.  A repeat reuses its
    split and still records its step.  The stack holds each element with its
    rank: the root's is read once, and each factor's is the one `_checked`
    has verified.  Each body is read from the module's globals when it is
    called, so a patch on `rank.decompose_low_rank` sees every raise-rank split."""
    r = ctx.r
    factors = []
    splits: dict = {}
    stack = [(a, a.rank)]
    while stack:
        a, m = stack.pop()
        if m == r:
            factors.append(a)
            continue
        split = splits.get(a.table)
        if split is None:
            if m <= r - 2:
                op, body, ranks = "raise_rank", decompose_low_rank, (m + 1, m + 1)
            elif is_restricted_corank_one(ctx, a):
                op, body, ranks = "restricted_split", _restricted_corank_one, (r, r)
            else:
                op, body, ranks = "corank_one_split", _corank_one, (r, r - 1)
            split = splits[a.table] = op, _checked(ctx, a, body(ctx, a), ranks), ranks
        op, d, (beta_rank, gamma_rank) = split
        if steps is not None:
            steps.append((op, a, d))
        stack += (d.gamma, gamma_rank), (d.beta, beta_rank)
    return factors
