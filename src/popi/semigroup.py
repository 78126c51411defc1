"""Enumeration and closure for orientation-preserving partial injections
with range restricted to a fixed subset of the chain.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from itertools import combinations, repeat
from operator import itemgetter

from . import errors
from .transform import PartialInjection, _check_chain_size, _is_int, is_cyclic


# The largest semigroup `enumerate_semigroup` builds; n = 10 with the full
# range (923,781 elements) fits.  It also bounds the chain: past it, the
# rank-1 layer alone, n*|Y| elements, is larger.
MAX_ELEMENTS = 10**6
# The longest chain the searches take, `closure` and `ElementSet.mult_table`:
# they multiply `bytes` tables, and a byte holds at most 255.
MAX_SEARCH_POINTS = 255
# The largest `ElementSet.mult_table`, counted as |S|^2 entries.  It caps the
# table, the Green oracle's left-ideal column sets (about three indices per
# product held) and the isomorphism search; n = 6 with the full range (2,773^2
# entries) fits, and `green --check` there peaks at 57 MiB (Python 3.11).
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


def check_search_size(n: int) -> None:
    """TooLarge if a chain of n points is past MAX_SEARCH_POINTS."""
    if n > MAX_SEARCH_POINTS:
        raise errors.TooLarge(
            "a chain of %d points is longer than the %d a search takes" % (n, MAX_SEARCH_POINTS)
        )


def _right_factor(table: Sequence[int]) -> bytes:
    """The search kernel's right factor: b's table as the 256-byte
    translation table that sends 0 to 0 and each point v to its image.

    A search table a is `bytes(a.table)`, and the product x(ab) = (xa)b is
    `a.translate(_right_factor(b.table))`: one C call, whose result is
    hashable and not tracked by the garbage collector.  The chain has at
    most MAX_SEARCH_POINTS points.
    """
    return b"\0" + bytes(table) + bytes(MAX_SEARCH_POINTS - len(table))


def _restrictions(image: Iterable[int], right: Sequence[bytes]) -> list[bytes]:
    """Each right factor's values on the points of `image`, in ascending
    order.

    x(ab) = (xa)b reads b only on im(a), so right factors with equal
    restrictions give one product after any left factor with this image.
    """
    return list(map(bytes(sorted(image)).translate, right))


# The translation table that sends 0 to 0 and every other byte to 1: a
# search table's domain, as the slots it defines.
_DEFINED = b"\0" + b"\1" * 255


class ElementSet:
    """A semigroup's elements as the search kernel's `bytes` slot tables,
    all of one chain, in a fixed order and indexed by table.  Immutable.

    The tables are checked once, here: one length of at most
    MAX_SEARCH_POINTS, and no table twice.  An element is built only when
    one is read, by `S[i]` or by iteration.
    """

    def __init__(self, tables: Iterable[bytes]):
        self.tables = tuple(tables)
        chains = set(map(len, self.tables))
        if len(chains) > 1:
            # the kernel reads tables without their chain size
            raise errors.MismatchedChainSize("tables of %s points" % sorted(chains))
        check_search_size(max(chains, default=0))
        self._index = dict(zip(self.tables, range(len(self.tables))))
        if len(self._index) != len(self.tables):
            raise errors.BadParameters("duplicate elements")
        self._table: tuple[list[tuple[int, ...]], list[tuple[int, ...]]] | None = None

    def __len__(self) -> int:
        return len(self.tables)

    def __iter__(self) -> Iterator[PartialInjection]:
        return map(PartialInjection.from_table, self.tables)

    def __getitem__(self, i: int) -> PartialInjection:
        return PartialInjection.from_table(self.tables[i])

    def mult_table(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """The multiplication table over element indices (cached), factored
        as `(rows, classes)` with a*b = rows[a][classes[a][b]].

        a*b reads b only on im a, onto which a maps, so the b of one
        restriction to im a (with 0 when not total) share one product.
        `rows[a]` holds the distinct ones in the order of their first columns;
        `classes[a]` maps each b to its class, one tuple for every a of one
        image set.  Only the first left factor of each domain forms its row,
        one product per class by `_right_factor` as `closure` forms them.
        Each later left a of that domain gathers its row from that first
        left b: with σ = `bytes.maketrans(b, a)`, b·σ = a, so a·h = b·(σ·h)
        by associativity, and a's class of h is b's class of σ·h on im b.
        a forms its row itself when b·σ ≠ a (tables that are not injective),
        when some σ·h has no class on im b (a set that is not the whole
        semigroup), or when its row has one class.  A gathered entry is a
        product b's row looked up, so a set not closed under products raises
        KeyError; past MAX_TABLE_ENTRIES TooLarge is raised before anything
        is built.
        """
        if self._table is None:
            tables = self.tables
            size = len(tables)
            if size * size > MAX_TABLE_ENTRIES:
                raise errors.TooLarge("%d^2 table entries exceed %d" % (size, MAX_TABLE_ENTRIES))
            index_of_table = self._index.__getitem__
            right = list(map(_right_factor, tables))
            images = list(map(frozenset, tables))
            # image set -> (its points as a key, the class representatives,
            # restriction -> class, the class of every right factor)
            groups = {}
            for image in dict.fromkeys(images):
                key = bytes(sorted(image))
                restrictions = _restrictions(image, right)
                representatives = dict(zip(restrictions, right))
                class_of = dict(zip(representatives, range(len(representatives))))
                image_classes = tuple(map(class_of.__getitem__, restrictions))
                groups[image] = key, list(representatives.values()), class_of, image_classes
            first_of_domain: dict[bytes, int] = {}
            gathers: dict[tuple[bytes, bytes], itemgetter | None] = {}
            rows: list = [None] * size
            classes: list = [None] * size
            for i, a in enumerate(tables):
                _, reps, _, classes[i] = groups[images[i]]
                j = first_of_domain.setdefault(a.translate(_DEFINED), i)
                gather = None
                if j != i and len(reps) > 1:
                    b = tables[j]
                    sigma = bytes.maketrans(b, a)
                    if b.translate(sigma) == a:
                        key_b, _, class_of_b, _ = groups[images[j]]
                        moved = key_b.translate(sigma)
                        try:
                            gather = gathers[key_b, moved]
                        except KeyError:
                            perm = [class_of_b.get(moved.translate(h)) for h in reps]
                            gather = None if None in perm else itemgetter(*perm)
                            gathers[key_b, moved] = gather
                if gather is None:
                    # a lookup per class still raises KeyError for an open set
                    rows[i] = tuple(map(index_of_table, map(a.translate, reps)))
                else:
                    rows[i] = gather(rows[j])
            self._table = rows, classes
        return self._table


def cardinality_formula(n: int, r: int) -> int:
    """Closed-form element count: 1 + r * C(n+r-1, r), exact."""
    if not (_is_int(n) and _is_int(r) and 1 <= r <= n):
        raise errors.BadParameters("need ints 1 <= r <= n, got r=%r, n=%r" % (r, n))
    return 1 + r * math.comb(n + r - 1, r)


def contains(ctx: RangeContext, a: PartialInjection) -> bool:
    """Membership test: injective and orientation-preserving, with image
    inside the range set.  Injectivity is tested because `from_table` trusts
    its table: one `filter` of the table gives the image sequence, whose
    points in Y are as many as its entries iff both hold."""
    if len(a.table) != ctx.n:
        raise errors.MismatchedChainSize(
            "element lives on a chain of size %d, context has %d" % (a.n, ctx.n)
        )
    seq = tuple(filter(None, a.table))
    return len(ctx.point_set.intersection(seq)) == len(seq) and is_cyclic(seq)


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
    MAX_TABLE_ENTRIES, or its chain MAX_SEARCH_POINTS."""
    if size_exceeds(n, r, math.isqrt(MAX_TABLE_ENTRIES)):
        raise errors.TooLarge(
            "n=%d with |Y|=%d gives more than %d table entries" % (n, r, MAX_TABLE_ENTRIES)
        )
    check_search_size(n)


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


def element_count(ctx: RangeContext) -> int:
    """|S|: the pairs of `element_blocks`, counted unbuilt, not the formula."""
    return sum(len(seqs) * sum(1 for _ in domains) for seqs, domains in element_blocks(ctx))


def enumerate_semigroup(ctx: RangeContext) -> ElementSet:
    """All orientation-preserving partial injections with image inside Y,
    as the `bytes` tables of `element_blocks`, in its order: by rank, then
    domain, then image sequence.  Raises TooLarge, before building anything,
    on a chain past MAX_SEARCH_POINTS or past MAX_ELEMENTS elements.
    """
    n = ctx.n
    check_search_size(n)
    tables: list[bytes] = []
    for seqs, domains in element_blocks(ctx):
        right = list(map(_right_factor, seqs))
        for dom in domains:
            # the order isomorphism dom -> {1..k}; the search kernel then
            # reads each image sequence through it
            place = [0] * n
            for j, x in enumerate(dom, 1):
                place[x - 1] = j
            tables.extend(map(bytes(place).translate, right))
    return ElementSet(tables)


class Closure(frozenset):
    """The slot tables of a closure, as `bytes`, with the generators it was
    given."""

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
    stay there.  It is breadth-first right-multiplication on `bytes` slot
    tables through the search kernel (`_right_factor`), one product per
    restriction class of those generators on each image met
    (`_restrictions`).  A class's restriction has |im a ∩ dom h| nonzero
    values, the rank of its product, so classes below the floor are dropped
    before any product is formed.  Its set of values is the image set of
    the product (with 0 exactly when the product is not total, as h sends 0
    to 0), so each round's frontier is kept grouped by image set: one
    lookup finds the classes of a whole group, each class multiplies the
    group in one pass, and its new products join the group of the class's
    image set without their own image being read.  No identity or zero is
    adjoined unless generated.  The result is a set of `bytes` tables, in
    no order, and builds no element.  Every generator is checked for
    membership, and the result's `generators` holds them all, deduplicated
    in first-seen order, those below the floor included.  A chain past
    MAX_SEARCH_POINTS raises TooLarge before anything is checked or built.
    """
    check_search_size(ctx.n)
    gens: dict[PartialInjection, None] = {}  # first-seen order
    for a in generators:
        if not contains(ctx, a):
            raise errors.NotAMember("generator %r is not a member" % (a,))
        gens.setdefault(a)
    if not gens:
        raise errors.BadParameters("need at least one generator")
    seeds = [bytes(g.table) for g in gens if g.rank >= min_rank]
    right = list(map(_right_factor, seeds))
    # image set (with 0 when not total) -> (right factor, image set of its
    # products) for each restriction class whose product stays at or above
    # the floor
    classes: dict[frozenset[int], list[tuple[bytes, frozenset[int]]]] = {}
    tables = set(seeds)
    # image set -> the tables of the last round with that image set
    frontier: dict[frozenset[int], list[bytes]] = {}
    for a in tables:
        frontier.setdefault(frozenset(a), []).append(a)
    while frontier:
        fresh: dict[frozenset[int], list[bytes]] = {}
        for image, group in frontier.items():
            steps = classes.get(image)
            if steps is None:
                reps = {
                    r: h
                    for r, h in zip(_restrictions(image, right), right)
                    if len(r) - r.count(0) >= min_rank
                }
                steps = classes[image] = [(h, frozenset(r)) for r, h in reps.items()]
            for h, product_image in steps:
                new = []
                for p in map(bytes.translate, group, repeat(h)):
                    if p not in tables:
                        tables.add(p)
                        new.append(p)
                if new:
                    fresh.setdefault(product_image, []).extend(new)
        frontier = fresh
    result = Closure(tables)
    result.generators = tuple(gens)
    return result
