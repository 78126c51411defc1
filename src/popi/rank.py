"""Generating sets, rank certificates, and the step-down factorizations.

Every factorization routine returns a `Decomposition` that has passed
one check: both factors are members of the expected ranks and their product
is the input.  A failed check raises `DecompositionFailed` rather than
returning a wrong witness.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from itertools import combinations, compress
from typing import Iterable

from . import errors
from .semigroup import RangeContext, closure, contains, enumerate_semigroup
from .transform import (
    PartialInjection,
    empty_map,
    identity_on,
    order_isomorphism,
    rotation_perm,
)


@dataclass(frozen=True)
class Decomposition:
    """A two-factor product with optional case bookkeeping.

    `shift_exponent` records the power of the chain rotation split off
    before factoring; `case` labels which construction produced the pair.
    """

    beta: PartialInjection
    gamma: PartialInjection
    shift_exponent: int = 0
    case: str | None = None


@dataclass(frozen=True)
class RankCertificate:
    """`order` is |S| as enumerated by `semigroup_rank`, which raises unless
    `generating_set` closes to all of S.  `lower_bound_witness` holds the
    domains that bound the rank from below: one per top-rank R-class for a
    proper range set, and those of the two idempotents for the full one."""

    claimed_rank: int
    generating_set: tuple[PartialInjection, ...]
    order: int
    lower_bound_witness: tuple[tuple[int, ...], ...]


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
    return PartialInjection.from_table(table, pts)


# -- shift decomposition ----------------------------------------------------


def shift_decompose(a: PartialInjection) -> tuple[int, PartialInjection]:
    """Split off a power of the chain rotation leaving an order-preserving part.

    Returns the smallest l with a == rotation^l * a1 and a1 order-preserving;
    a1 keeps the image of a.  A descent after the k-th image, at domain
    point d_{k+1}, gives l = n + 1 - d_{k+1}; an ascending sequence, l = 0.
    x a1 = (x - l) a, so a1's table is a's rotated l slots to the right.
    """
    if not a.is_orientation_preserving():
        raise errors.NotOrientationPreserving("%r" % (a,))
    n, seq, table = a.n, a.image_seq, a.table
    k = next((k for k in range(1, len(seq)) if seq[k - 1] > seq[k]), None)
    l = 0 if k is None else n + 1 - a.domain[k]
    a1 = PartialInjection.from_table(table[n - l :] + table[: n - l])
    if not a1.is_order_preserving():
        raise errors.DecompositionFailed("no rotation shift found for %r" % (a,))
    return l, a1


# -- the three factorization levels ----------------------------------------


def _checked(
    ctx: RangeContext, a: PartialInjection, d: Decomposition, ranks: tuple[int, int]
) -> Decomposition:
    """`d`, once both factors are members of ranks `ranks` whose product is
    `a`; DecompositionFailed otherwise."""
    if not (
        (d.beta.rank, d.gamma.rank) == ranks
        and contains(ctx, d.beta)
        and contains(ctx, d.gamma)
        and d.beta * d.gamma == a
    ):
        raise errors.DecompositionFailed("%s factorization failed for %r" % (d.case, a))
    return d


def decompose_low_rank(ctx: RangeContext, a: PartialInjection) -> Decomposition:
    """Factor an element of rank at most r-2 into two factors of one higher rank.

    beta sends the domain plus its least missing point onto the first m+1
    points of Y, rotated t places.  gamma is beta^-1 * a plus one pair d -> y
    with d outside beta's image, so beta * gamma == a; y is the least free
    point of Y in the circular gap at d's slot, which keeps gamma
    orientation-preserving.  The first (t, d) with such a y wins.  Both
    factors are written as slot tables: beta sends ext[i] to the i-th of
    its images, and beta^-1 * a sends that image to a(ext[i]).
    """
    if not contains(ctx, a):
        raise errors.NotAMember("%r" % (a,))
    m = a.rank
    r = ctx.r
    if m > r - 2:
        raise errors.RankTooHigh("rank %d exceeds %d" % (m, r - 2))
    n, table = ctx.n, a.table
    c = table.index(0) + 1
    ext = sorted(a.domain + (c,))
    b_img = ctx.points[: m + 1]
    free = sorted(ctx.point_set - a.image)
    outside = [d for d in range(1, n + 1) if d not in b_img]
    universe = range(1, n + 1)
    for t in range(m + 1):
        beta, gamma0 = [0] * n, [0] * n
        for x, y in zip(ext, b_img[t:] + b_img[:t]):
            beta[x - 1] = y
            gamma0[y - 1] = table[x - 1]
        q, seq = tuple(compress(universe, gamma0)), tuple(filter(None, gamma0))
        for d in outside:
            y = _gap_point(free, seq, bisect(q, d))
            if y is None:
                continue
            gamma0[d - 1] = y
            factors = PartialInjection.from_table(beta), PartialInjection.from_table(gamma0)
            return _checked(ctx, a, Decomposition(*factors, case="low"), (m + 1, m + 1))
    raise errors.DecompositionFailed("no one-higher-rank factorization for %r" % (a,))


def _gap_point(free: list[int], images: tuple[int, ...], j: int) -> int | None:
    """The least of `free` in the circular gap from images[j-1] up to
    images[j], or any of them beside fewer than two images."""
    if len(images) <= 1:
        return free[0]
    lo, hi = images[j - 1], images[j % len(images)]
    return next((y for y in free if (lo < y < hi if lo < hi else not hi <= y <= lo)), None)


def decompose_corank_one(ctx: RangeContext, a: PartialInjection) -> Decomposition:
    """Factor a rank-(r-1) element as (top-rank) * (restricted corank-one).

    The first factor is a rotation shift composed with the order
    isomorphism beta from the extended domain onto the range set; the
    second is order-preserving with domain inside the range set.  Each is
    written as a slot table: gamma = beta^-1 * a1 sends the i-th point of Y
    to a1(ext[i]), and x (rotation^l * beta) = (x + l) beta, so the first
    factor's table is beta's rotated l slots to the left.
    """
    if not contains(ctx, a):
        raise errors.NotAMember("%r" % (a,))
    r = ctx.r
    if a.rank != r - 1:
        raise errors.BadRank("expected rank %d, got %d" % (r - 1, a.rank))
    n, pts = ctx.n, ctx.points
    l, a1 = shift_decompose(a)
    a1_table = a1.table
    c = a1_table.index(0) + 1
    ext = sorted(a1.domain + (c,))
    beta, gamma_table = [0] * n, [0] * n
    for x, y in zip(ext, pts):
        beta[x - 1] = y
        gamma_table[y - 1] = a1_table[x - 1]
    gamma = PartialInjection.from_table(gamma_table)
    if not is_restricted_corank_one(ctx, gamma):
        raise errors.DecompositionFailed("corank-one factor %r is not restricted" % (gamma,))
    shifted = PartialInjection.from_table(beta[l:] + beta[:l])
    d = Decomposition(shifted, gamma, shift_exponent=l, case="corank_one")
    return _checked(ctx, a, d, (r, r - 1))


def is_restricted_corank_one(ctx: RangeContext, a: PartialInjection) -> bool:
    """Order-preserving, rank r-1, with domain inside the range set."""
    return (
        a.n == ctx.n
        and a.rank == ctx.r - 1
        and set(a.domain) <= ctx.point_set
        and a.is_order_preserving()
    )


def _missing_index(ctx: RangeContext, points: Iterable[int]) -> int:
    """1-based position of the unique range-set point absent from `points`."""
    missing = ctx.point_set - set(points)
    if len(missing) != 1:
        raise errors.BadRank("expected exactly one missing range point")
    return ctx.points.index(next(iter(missing))) + 1


def decompose_restricted_corank_one(ctx: RangeContext, a: PartialInjection) -> Decomposition:
    """Factor a restricted corank-one element into two top-rank factors.

    The first factor is a rotation of the range set; the second is forced
    by the product identity except for one extra pair anchored at an
    insertion point taken, in order of preference, below the range set,
    above it, or inside its first interior gap.  The chosen case is
    recorded for coverage accounting.
    """
    if ctx.is_full:
        raise errors.FullRangeNotSupported("full-range sets admit no insertion point")
    if not is_restricted_corank_one(ctx, a):
        raise errors.NotRestricted("%r" % (a,))
    n, r, pts = ctx.n, ctx.r, ctx.points
    i = _missing_index(ctx, a.domain)
    j = _missing_index(ctx, a.image_seq)
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
    beta = range_rotation_power(ctx, (k + ge - j) % r)
    beta_table = beta.table
    table = [0] * n
    for x, y in zip(a.domain, a.image_seq):
        table[beta_table[x - 1] - 1] = y
    table[p - 1] = pts[j - 1]
    gamma = PartialInjection.from_table(table)
    return _checked(ctx, a, Decomposition(beta, gamma, case=case), (r, r))


# -- top-layer structure ----------------------------------------------------


def rotation_exponent_between(
    ctx: RangeContext, a: PartialInjection, b: PartialInjection
) -> int:
    """The unique t with a == b * (range rotation)^t for two top-rank
    elements sharing a domain."""
    if a.rank != ctx.r or b.rank != ctx.r:
        raise errors.BadRank("both elements must have full range rank")
    if not (contains(ctx, a) and contains(ctx, b)):
        raise errors.NotAMember("arguments must belong to the semigroup")
    if a.domain != b.domain:
        raise errors.DomainMismatch("domains differ")
    first = a.domain[0]
    pa = ctx.points.index(a(first))
    pb = ctx.points.index(b(first))
    t = (pa - pb) % ctx.r
    if b * range_rotation_power(ctx, t) != a:
        raise errors.DecompositionFailed("rotation exponent check failed")
    return t


def canonical_generating_set(ctx: RangeContext) -> list[PartialInjection]:
    """One top-rank representative per domain: the order isomorphism onto
    the range set, except that the representative with domain equal to the
    range set is the range rotation."""
    if ctx.is_full:
        raise errors.FullRangeNotSupported(
            "full-range rank is certified by a constructed pair, not by representatives"
        )
    gens = []
    for dom in combinations(range(1, ctx.n + 1), ctx.r):
        if dom == ctx.points:
            gens.append(range_rotation_power(ctx, 1))
        else:
            gens.append(order_isomorphism(ctx.n, dom, ctx.points))
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


def full_range_pair(n: int) -> tuple[PartialInjection, PartialInjection]:
    """The chain rotation and an order-preserving map of {1..n-1} onto the
    chain minus one point, which together generate the full-range semigroup.

    Every product of the rotation with a restriction of one of its powers is
    again such a restriction, so for n >= 3 the second map must not be one:
    it fixes 1..n-2 and sends n-1 to n.  For n <= 2 it is the partial
    identity on {1..n-1}, the empty map at n = 1.
    """
    skip = n - 1 if n >= 3 else n
    return rotation_perm(n), order_isomorphism(
        n, range(1, n), [y for y in range(1, n + 1) if y != skip]
    )


def semigroup_rank(ctx: RangeContext) -> RankCertificate:
    """Rank with a constructive certificate, checked by one closure.

    Proper range set: the canonical representatives, one per top-rank
    R-class, whose domains bound the rank from below.  Full range set: the
    constructed pair of `full_range_pair`.  A finite monogenic semigroup
    has exactly one idempotent, so the two idempotents of S, the empty map
    and the identity, show that no single element generates it.
    """
    S = enumerate_semigroup(ctx)
    n = ctx.n
    if ctx.is_full:
        gens = full_range_pair(n)
        idempotents = (empty_map(n), identity_on(n, ctx.points))
        if not all(e in S and e.is_idempotent() for e in idempotents):
            raise errors.DecompositionFailed("lower-bound witness is not two idempotents of S")
        witness = tuple(e.domain for e in idempotents)
    else:
        gens = tuple(canonical_generating_set(ctx))
        witness = tuple(combinations(range(1, n + 1), ctx.r))
    if len(closure(ctx, gens)) != len(S):
        raise errors.DecompositionFailed("generating set failed to generate")
    return RankCertificate(len(gens), gens, len(S), witness)


# -- full pipeline ----------------------------------------------------------


def top_rank_factorization(
    ctx: RangeContext, a: PartialInjection, steps: list | None = None
) -> list[PartialInjection]:
    """Express any element (proper range set) as a product of top-rank
    elements by iterating the three factorization levels.

    When `steps` is given, one `(op, input, Decomposition)` triple is
    appended per factorization, in the order they are made.
    """
    if ctx.is_full:
        raise errors.FullRangeNotSupported("pipeline is defined for proper range sets")
    if not contains(ctx, a):
        raise errors.NotAMember("%r" % (a,))
    factors = _factor(ctx, a, steps)
    prod = factors[0]
    for f in factors[1:]:
        prod = prod * f
    if prod != a or any(f.rank != ctx.r for f in factors):
        raise errors.DecompositionFailed("pipeline product check failed for %r" % (a,))
    return factors


def _factor(ctx, a, steps) -> list[PartialInjection]:
    r = ctx.r
    if a.rank == r:
        return [a]
    if a.rank <= r - 2:
        op, d = "raise_rank", decompose_low_rank(ctx, a)
    elif is_restricted_corank_one(ctx, a):
        op, d = "restricted_split", decompose_restricted_corank_one(ctx, a)
    else:
        op, d = "corank_one_split", decompose_corank_one(ctx, a)
    if steps is not None:
        steps.append((op, a, d))
    return _factor(ctx, d.beta, steps) + _factor(ctx, d.gamma, steps)
