"""Enumeration and closure for orientation-preserving partial injections
with range restricted to a fixed subset of the chain.
"""

from __future__ import annotations

import math
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from . import errors
from .transform import (
    PartialInjection,
    Table,
    _check_chain_size,
    _is_int,
    is_cyclic,
    left_multiplier,
    padded,
)


# The largest semigroup `enumerate_semigroup` builds; n = 10 with the full
# range (923,781 elements) fits.  It also bounds the chain: past it, the
# rank-1 layer alone, n*|Y| elements, is larger.
MAX_ELEMENTS = 10**6
# The largest `ElementSet.mult_table`, at 8 bytes of list slot per entry
# about 80 MiB; n = 6 with the full range (2,773^2 entries) fits.
MAX_TABLE_ENTRIES = 10**7


class RangeContext:
    """The ambient chain size n together with the restricted range Y."""

    __slots__ = ("n", "points", "point_set")

    def __init__(self, n: int, points: Iterable[int]):
        _check_chain_size(n)
        if n > MAX_ELEMENTS:
            raise errors.TooLarge(
                "a chain of %d points gives more than %d elements" % (n, MAX_ELEMENTS)
            )
        pts = list(points)
        if not all(map(_is_int, pts)):
            raise errors.BadParameters("range points must be ints, got %r" % (pts,))
        pts = sorted(set(pts))
        if not pts:
            raise errors.BadParameters("range set must be nonempty")
        if pts[0] < 1 or pts[-1] > n:
            raise errors.PointOutOfRange("range set not contained in 1..%d" % n)
        self.n = n
        self.points = tuple(pts)
        self.point_set = frozenset(pts)

    @property
    def r(self) -> int:
        return len(self.points)

    @property
    def is_full(self) -> bool:
        return self.r == self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeContext):
            return NotImplemented
        return self.n == other.n and self.points == other.points

    def __hash__(self) -> int:
        return hash((self.n, self.points))

    def __repr__(self) -> str:
        return "RangeContext(n=%d, Y={%s})" % (self.n, ", ".join(map(str, self.points)))


def _restrictions(image: Iterable[int], right: Sequence[Table]) -> list[tuple[int, ...]]:
    """Each padded right factor's values on slot 0 and the points of `image`.

    x(ab) = (xa)b reads b only on im(a), so right factors with equal
    restrictions give one product after any left factor with this image.
    Slot 0, 0 in every padded table, keeps the getter from having no
    argument (the empty map's image) or one (a one-argument itemgetter
    returns the item, not a tuple).
    """
    return list(map(itemgetter(0, *image), right))


class ElementSet:
    """A deduplicated, deterministically indexed collection of elements.
    Immutable after construction.
    """

    def __init__(self, elements: Sequence[PartialInjection]):
        self.elements = tuple(elements)
        # by slot table, which is the element
        self._index = {a.table: i for i, a in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise errors.BadParameters("duplicate elements")
        self._mult: list[list[int]] | None = None

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[PartialInjection]:
        return iter(self.elements)

    def __getitem__(self, i: int) -> PartialInjection:
        return self.elements[i]

    def __contains__(self, a: PartialInjection) -> bool:
        return a.table in self._index

    def index_of(self, a: PartialInjection) -> int:
        return self._index[a.table]

    def mult_table(self) -> list[list[int]]:
        """Full multiplication table over element indices (cached).

        Requires closure under composition; raises KeyError otherwise.
        Raises TooLarge, before building anything, past MAX_TABLE_ENTRIES.
        """
        if self._mult is None:
            size = len(self.elements)
            if size * size > MAX_TABLE_ENTRIES:
                raise errors.TooLarge("%d^2 table entries exceed %d" % (size, MAX_TABLE_ENTRIES))
            if len({a.n for a in self.elements}) > 1:
                # the kernel reads tables without their chain size
                raise errors.MismatchedChainSize("elements live on different chains")
            index_of_table = self._index.__getitem__
            right = [padded(b.table) for b in self.elements]
            lefts_by_image: dict[frozenset[int], list[int]] = {}
            for i, a in enumerate(self.elements):
                lefts_by_image.setdefault(a.image, []).append(i)
            mult: list = [None] * size
            for image, lefts in lefts_by_image.items():
                restrictions = _restrictions(sorted(image), right)
                representatives = dict(zip(restrictions, right))
                class_of = dict(zip(representatives, range(len(representatives))))
                # the kernel as a plain gather: spread(p)[j] = p[class of j]
                spread = left_multiplier(tuple(map(class_of.__getitem__, restrictions)))
                for i in lefts:
                    # a lookup per class still raises KeyError for an open set
                    left = left_multiplier(self.elements[i].table)
                    products = tuple(map(index_of_table, map(left, representatives.values())))
                    mult[i] = list(spread(products))
            self._mult = mult
        return self._mult


def cardinality_formula(n: int, r: int) -> int:
    """Closed-form element count: 1 + r * C(n+r-1, r), exact."""
    if not 1 <= r <= n:
        raise errors.BadParameters("need 1 <= r <= n, got r=%r, n=%r" % (r, n))
    return 1 + r * math.comb(n + r - 1, r)


def contains(ctx: RangeContext, a: PartialInjection) -> bool:
    """Membership test: injective and orientation-preserving, with image
    inside the range set.  Injectivity is tested because `from_table`
    trusts its table."""
    if a.n != ctx.n:
        raise errors.MismatchedChainSize(
            "element lives on a chain of size %d, context has %d" % (a.n, ctx.n)
        )
    seq = a.image_seq
    image = frozenset(seq)
    return len(image) == a.rank and image <= ctx.point_set and is_cyclic(seq)


def _rotations(points: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The cyclic rotations of a sequence; the empty one has itself alone."""
    for t in range(max(len(points), 1)):
        yield points[t:] + points[:t]


def size_exceeds(n: int, r: int, limit: int) -> bool:
    """Whether `cardinality_formula(n, r)` is larger than `limit`.

    The rank-1 layer alone has n*r elements, so the bound 1 + n*r decides
    first: the exact count, thousands of digits long at large n, is only
    computed when the bound is within the limit.
    """
    return 1 + n * r > limit or cardinality_formula(n, r) > limit


def check_table_size(n: int, r: int) -> None:
    """TooLarge if the table of the semigroup for n and |Y| = r would pass
    MAX_TABLE_ENTRIES."""
    if size_exceeds(n, r, math.isqrt(MAX_TABLE_ENTRIES)):
        raise errors.TooLarge(
            "n=%d with |Y|=%d gives more than %d table entries" % (n, r, MAX_TABLE_ENTRIES)
        )


def element_blocks(
    ctx: RangeContext,
) -> Iterator[tuple[list[tuple[int, ...]], Iterable[tuple[int, ...]]]]:
    """The semigroup's elements as blocks `(image sequences, domains)`, one
    per rank, in enumeration order.

    For each pair of equal-sized sets (A, B) with A in the chain and B in Y,
    the elements with domain A and image B are the |B| cyclic rotations of
    the order isomorphism A -> B.  So an element is a domain together with an
    image sequence of its size: the images of its points in ascending order.
    The rank-k block pairs every k-point domain, in `combinations` order,
    with every image sequence of length k (all rotations of all k-subsets of
    Y), sorted; its elements are the domains in order, each with every image
    sequence in order.  Rank 0 comes first, with `[()]` and the one empty
    domain.  The domains are an iterator, read once.  Raises TooLarge,
    before yielding anything, past MAX_ELEMENTS elements.
    """
    n = ctx.n
    if size_exceeds(n, ctx.r, MAX_ELEMENTS):
        raise errors.TooLarge(
            "n=%d with |Y|=%d gives more than %d elements" % (n, ctx.r, MAX_ELEMENTS)
        )
    universe = range(1, n + 1)
    for k in range(ctx.r + 1):
        images = sorted(rot for img in combinations(ctx.points, k) for rot in _rotations(img))
        yield images, combinations(universe, k)


def enumerate_semigroup(ctx: RangeContext) -> ElementSet:
    """All orientation-preserving partial injections with image inside Y,
    built from `element_blocks`, in its order: by rank, then domain, then
    image sequence.  Raises TooLarge, before building anything, past
    MAX_ELEMENTS elements.
    """
    n = ctx.n
    out = []
    for seqs, domains in element_blocks(ctx):
        right = [padded(seq) for seq in seqs]
        for dom in domains:
            # the order isomorphism dom -> {1..k}; the kernel then reads each
            # padded image sequence through it
            place = [0] * n
            for j, x in enumerate(dom, 1):
                place[x - 1] = j
            out.extend(
                PartialInjection.from_table(t, dom) for t in map(left_multiplier(place), right)
            )
    return ElementSet(out)


class Closure(frozenset):
    """The slot tables of a closure, with the generators it was given."""

    __slots__ = ("generators",)

    generators: tuple[PartialInjection, ...]


def closure(
    ctx: RangeContext, generators: Iterable[PartialInjection], min_rank: int = 0
) -> Closure:
    """The slot tables of the elements of rank at least `min_rank` in the
    subsemigroup generated by the given elements; with the default 0, all
    of it.

    A product's rank is at most the rank of each factor, so every prefix of
    a word for an element of rank at least `min_rank` has that rank too, and
    so has every generator in the word.  The search therefore starts from
    the generators at or above the floor and keeps only the products that
    stay there.  It is breadth-first right-multiplication on slot tables,
    one product per restriction class of those generators on each image met
    (`_restrictions`).  A class's restriction has |im a ∩ dom h| nonzero
    values, the rank of its product, so classes below the floor are dropped
    before any product is formed.  No identity or zero is adjoined unless
    generated.  The result is a set, in no order, and builds no element.
    Every generator is checked for membership, and the result's
    `generators` holds them all, deduplicated in first-seen order, those
    below the floor included.
    """
    gens: list[PartialInjection] = []
    seen: set[PartialInjection] = set()
    for a in generators:
        if not contains(ctx, a):
            raise errors.GeneratorOutsideSemigroup("generator %r is not a member" % (a,))
        if a not in seen:
            seen.add(a)
            gens.append(a)
    if not gens:
        raise errors.BadParameters("need at least one generator")
    seeds = [g for g in gens if g.rank >= min_rank]
    right = [padded(g.table) for g in seeds]
    # image set (with 0 when not total) -> one right factor per restriction
    # class whose product stays at or above the floor
    representatives: dict[frozenset[int], list[Table]] = {}
    tables = {g.table for g in seeds}
    frontier = list(tables)
    while frontier:
        fresh = []
        for a in frontier:
            image = frozenset(a)
            reps = representatives.get(image)
            if reps is None:
                classes = {
                    r: h
                    for r, h in zip(_restrictions(image, right), right)
                    if len(r) - r.count(0) >= min_rank
                }
                reps = representatives[image] = list(classes.values())
            for p in map(left_multiplier(a), reps):
                if p not in tables:
                    tables.add(p)
                    fresh.append(p)
        frontier = fresh
    result = Closure(tables)
    result.generators = tuple(gens)
    return result
