"""Injective partial transformations of the chain {1, ..., n}.

A partial injection is stored as a fixed-length table: slot x-1 holds the
image of x, or 0 when x is undefined.  Points are 1-based throughout the
package, including the CLI and the JSON wire format.

`left_multiplier` and `padded` form the package's single product kernel:
`compose`, `ElementSet.mult_table` and `closure` all multiply through them.
The table and the closure also share the restriction classes of
`semigroup._restrictions`: x(ab) = (xa)b reads b only on im(a), so they form
one product per class of right factors that agree there.
"""

from __future__ import annotations

from itertools import compress
from operator import gt, itemgetter, lt
from typing import Callable, Iterable, Sequence

from . import errors

Table = tuple[int, ...]


def padded(table: Table) -> Table:
    """A right factor's table in the form `left_multiplier` reads: slot v
    holds the image of v, and slot 0 sends "undefined" to "undefined"."""
    return (0,) + table


def left_multiplier(table: Table) -> Callable[[Table], Table]:
    """The product kernel: left multiplication by the map with this table.

    The returned function takes `padded(b)` and returns the table of the
    product, x(ab) = (xa)b, in one C-level `itemgetter` call.  Build it once
    per left factor and apply it to many right factors.
    """
    if len(table) == 1:
        # a one-argument itemgetter returns the item, not a 1-tuple
        (v,) = table
        return lambda right: (right[v],)
    return itemgetter(*table)


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

    __slots__ = ("n", "table", "domain")

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
        self._finish(tuple(table))

    def _finish(self, table: Table, domain: tuple[int, ...] | None = None) -> None:
        self.n = len(table)
        self.table = table
        if domain is None:
            domain = tuple(compress(range(1, self.n + 1), table))
        self.domain = domain

    @classmethod
    def from_table(
        cls, table: Sequence[int], domain: tuple[int, ...] | None = None
    ) -> "PartialInjection":
        """Fast constructor trusting an already-valid slot table, and its
        ascending domain tuple when given: the product kernel's door, which
        checks neither range nor injectivity (`contains` does).  The chain
        size is the table's length."""
        obj = cls.__new__(cls)
        obj._finish(tuple(table), domain)
        return obj

    # -- basic accessors ----------------------------------------------------

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
        return len(self.domain)

    def __call__(self, x: int) -> int:
        v = self.table[x - 1]
        if not v:
            raise KeyError("point %d not in domain" % x)
        return v

    def is_empty(self) -> bool:
        return not self.domain

    # -- algebra ------------------------------------------------------------

    def compose(self, other: "PartialInjection") -> "PartialInjection":
        """self followed by other."""
        if self.n != other.n:
            raise errors.MismatchedChainSize(
                "cannot compose maps on chains of size %d and %d" % (self.n, other.n)
            )
        return PartialInjection.from_table(left_multiplier(self.table)(padded(other.table)))

    __mul__ = compose

    def inverse(self) -> "PartialInjection":
        table = [0] * self.n
        for x in self.domain:
            table[self.table[x - 1] - 1] = x
        return PartialInjection.from_table(table)

    def power(self, k: int) -> "PartialInjection":
        """k-fold composition with itself; k=0 gives the identity on the chain."""
        if k < 0:
            raise errors.BadParameters("negative powers are not defined")
        result = identity_on(self.n, range(1, self.n + 1))
        for _ in range(k):
            result = result * self
        return result

    # -- predicates ---------------------------------------------------------

    def is_order_preserving(self) -> bool:
        seq = self.image_seq
        return all(map(lt, seq, seq[1:]))

    def is_orientation_preserving(self) -> bool:
        return is_cyclic(self.image_seq)

    def is_idempotent(self) -> bool:
        return self * self == self

    def is_permutation(self) -> bool:
        return self.rank == self.n

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

    def to_json_dict(self) -> dict:
        return {"n": self.n, "pairs": [[x, self.table[x - 1]] for x in self.domain]}

    @classmethod
    def from_json_dict(cls, data: dict, chain: int | None = None) -> "PartialInjection":
        """Inverse of `to_json_dict`; BadParameters for any other shape,
        points that are not ints included (the constructor refuses those).

        Given `chain`, an element on a chain of another size raises
        MismatchedChainSize before its table is built.
        """
        try:
            n, pairs = data["n"], [(x, y) for x, y in data["pairs"]]
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
    return PartialInjection.from_table((0,) * n)


def identity_on(n: int, points: Iterable[int]) -> PartialInjection:
    """The partial identity fixing the given points and undefined elsewhere."""
    table = [0] * n
    for x in points:
        if not (1 <= x <= n):
            raise errors.PointOutOfRange("point %r outside 1..%d" % (x, n))
        table[x - 1] = x
    return PartialInjection.from_table(table)


def order_isomorphism(n: int, source: Iterable[int], target: Iterable[int]) -> PartialInjection:
    """The unique order-preserving bijection between two equal-sized point sets."""
    src = sorted(source)
    dst = sorted(target)
    if len(src) != len(dst):
        raise errors.BadParameters("point sets differ in size")
    return PartialInjection(n, zip(src, dst))


def rotation_perm(n: int, k: int = 1) -> PartialInjection:
    """The k-th power of the full cycle i -> i+1 (mod n) on the chain,
    i -> i+k (mod n), built directly; a negative k gives an inverse power.
    Its table is 1..n rotated k places: slot i-1 holds (i-1+k mod n) + 1."""
    _check_chain_size(n)
    points = tuple(range(1, n + 1))
    k %= n
    return PartialInjection.from_table(points[k:] + points[:k], points)

