"""Injective partial transformations of the chain {1, ..., n}.

A partial injection is stored as a fixed-length table: slot x-1 holds the
image of x, or 0 when x is undefined.  Points are 1-based throughout the
package, including the CLI and the JSON wire format.

Each table format has one owner and one product.  This module owns the
tuple table of a `PartialInjection`, and `compose` multiplies two of them.
`semigroup` owns the `bytes` table of the searches, `ElementSet`, `closure`
and `enumerate_semigroup`, which multiply with `bytes.translate`
(`semigroup._right_factor`) and share the restriction classes of
`semigroup._restrictions`: x(ab) = (xa)b reads b only on im(a), so they form
one product per class of right factors that agree there.  Elements are built
from `bytes` tables only where one is read.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import compress
from operator import gt, itemgetter, lt

from . import errors


def is_cyclic(items: Sequence[int]) -> bool:
    """True if the sequence has at most one descent when read circularly.

    Empty, one-element and constant sequences count as cyclic.  The
    descents are counted by one C-level `map` over the sequence and its
    rotation by one place, a tuple or a list alike.
    """
    return sum(map(gt, items, items[1:] + items[:1])) <= 1


class PartialInjection:
    """An injective partial self-map of the chain {1, ..., n}.

    Immutable value type: freely shareable, hashable, and compared by its
    slot table, whose length is the chain size n.  Composition acts left to
    right: x(a*b) == (xa)b.
    """

    __slots__ = ("table",)

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]] = ()):
        _check_chain_size(n)
        table = [0] * n
        values = set()
        for x, y in pairs:
            if not (_is_int(x) and _is_int(y)):
                raise errors.BadParameters("points must be ints, got (%r, %r)" % (x, y))
            if not (1 <= x <= n and 1 <= y <= n):
                raise errors.PointOutOfRange("pair (%r, %r) outside 1..%d" % (x, y, n))
            if table[x - 1]:
                raise errors.DuplicateKey("point %d mapped twice" % x)
            if y in values:
                raise errors.DuplicateValue("value %d used twice" % y)
            table[x - 1] = y
            values.add(y)
        self.table = tuple(table)

    @classmethod
    def from_table(cls, table: Sequence[int]) -> "PartialInjection":
        """Fast constructor trusting an already-valid slot table: the product
        kernel's door, which checks neither range nor injectivity (`contains`
        does)."""
        obj = cls.__new__(cls)
        obj.table = tuple(table)
        return obj

    # -- basic accessors ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.table)

    @property
    def domain(self) -> tuple[int, ...]:
        """The defined points in ascending order: the nonzero slots."""
        return tuple(compress(range(1, len(self.table) + 1), self.table))

    @property
    def image_seq(self) -> tuple[int, ...]:
        """Images listed in ascending domain order: the table's nonzero
        slots, read by C-level calls."""
        return tuple(filter(None, self.table))

    @property
    def image(self) -> frozenset[int]:
        return frozenset(self.image_seq)

    @property
    def rank(self) -> int:
        return len(self.table) - self.table.count(0)

    def __call__(self, x: int) -> int:
        v = self.table[x - 1] if 1 <= x <= len(self.table) else 0
        if not v:
            raise KeyError("point %d not in domain" % x)
        return v

    # -- algebra ------------------------------------------------------------

    def compose(self, other: "PartialInjection") -> "PartialInjection":
        """self followed by other: the element product, in one C-level
        `itemgetter` call on tuple tables."""
        if len(self.table) != len(other.table):
            raise errors.MismatchedChainSize(
                "cannot compose maps on chains of size %d and %d" % (self.n, other.n)
            )
        # x(ab) = (xa)b: slot v of `right` holds the image of v, and slot 0
        # sends "undefined" to "undefined"
        right = (0, *other.table)
        # a one-index itemgetter returns the item, not a 1-tuple
        table = itemgetter(*self.table)(right) if len(self.table) > 1 else (right[self.table[0]],)
        return PartialInjection.from_table(table)

    __mul__ = compose

    # -- predicates ---------------------------------------------------------

    def is_order_preserving(self) -> bool:
        seq = self.image_seq
        return all(map(lt, seq, seq[1:]))

    def is_orientation_preserving(self) -> bool:
        return is_cyclic(self.image_seq)

    def is_idempotent(self) -> bool:
        return self * self == self

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialInjection):
            return NotImplemented
        return self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        body = ", ".join("%d->%d" % (x, self.table[x - 1]) for x in self.domain)
        return "PartialInjection(n=%d, {%s})" % (self.n, body)

    # -- wire format --------------------------------------------------------

    @classmethod
    def from_json_dict(cls, data: dict, chain: int | None = None) -> "PartialInjection":
        """The element written `{"n": n, "pairs": [[x, y], ...]}`, one pair
        per defined point x with image y; BadParameters for any other shape,
        points that are not ints included (the constructor refuses those).

        Given `chain`, an element on a chain of another size raises
        MismatchedChainSize before its table is built.
        """
        try:
            n, pairs = data["n"], [(x, y) for x, y in data["pairs"]]
            if len(data) != 2:  # a key besides n and pairs
                raise ValueError(data)
        except (TypeError, KeyError, ValueError) as exc:
            raise errors.BadParameters("not a partial injection: %r" % (data,)) from exc
        _check_chain_size(n)
        if chain is not None and n != chain:
            raise errors.MismatchedChainSize(
                "element lives on a chain of size %d, context has %d" % (n, chain)
            )
        return cls(n, pairs)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_chain_size(n) -> None:
    if not _is_int(n) or n < 1:
        raise errors.BadParameters("chain size must be a positive int, got %r" % (n,))


def empty_map(n: int) -> PartialInjection:
    """The zero transformation: nowhere defined."""
    return PartialInjection(n)


def identity_on(n: int, points: Iterable[int]) -> PartialInjection:
    """The partial identity fixing the given points and undefined elsewhere."""
    return PartialInjection(n, ((x, x) for x in points))


def order_isomorphism(n: int, source: Iterable[int], target: Iterable[int]) -> PartialInjection:
    """The unique order-preserving bijection between two equal-sized point sets."""
    src = sorted(source)
    dst = sorted(target)
    if len(src) != len(dst):
        raise errors.BadParameters("point sets differ in size")
    return PartialInjection(n, zip(src, dst))
