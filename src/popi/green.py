"""Regularity and Green's relations, computed two ways.

The "oracle" path works from the ideal definitions over the finite element
set with an external identity adjoined.  The "characterized" path uses the
closed-form descriptions (regularity by domain containment; L/R/H/D by
image, domain and rank).  A partition is its classes: a tuple of tuples of
`enumerate_semigroup` indices, each sorted and ordered by its least index,
so two partitions of one semigroup are equal exactly when their tuples are.
Both paths take a string of relation letters and return {letter: partition},
and both regularity paths return one bool per element in index order; tests
assert each pair coincides.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, repeat, starmap

from . import errors
from .semigroup import ElementSet, RangeContext, _rotations, contains, element_blocks
from .transform import PartialInjection


Partition = tuple[tuple[int, ...], ...]


def _group_by_key(keys) -> Partition:
    """The classes of indices whose keys are equal; read in index order, each
    class is ascending and the classes are ordered by their least index."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return tuple(map(tuple, groups.values()))


# -- regularity -------------------------------------------------------------


def _domain_walk(ctx: RangeContext) -> list:
    """(domain, regular, image sets, indices) per domain of `element_blocks`, in
    index order; regular exactly when the domain lies inside the range set."""
    walk = []
    i = 0
    for seqs, domains in element_blocks(ctx):
        images = list(map(frozenset, seqs))
        for domain in domains:
            block = range(i, i + len(seqs))
            i = block.stop
            walk.append((domain, ctx.point_set.issuperset(domain), images, block))
    return walk


def is_regular_characterized(ctx: RangeContext) -> tuple[bool, ...]:
    """Closed form: whether each element is regular, in index order."""
    walk = _domain_walk(ctx)
    return tuple(chain.from_iterable(repeat(reg, len(block)) for _, reg, _, block in walk))


def is_regular_oracle(S: ElementSet) -> tuple[bool, ...]:
    """Definition level: whether each a in S has some b in S with aba = a,
    in index order, tried once for each distinct product ab in row a."""
    m = S.mult_table()
    return tuple(any(m[x][a] == a for x in row) for a, row in enumerate(S.row_products()))


# -- characterized partitions ----------------------------------------------


def _check_relations(relations, letters: str) -> None:
    if not (isinstance(relations, str) and relations and set(relations) <= set(letters)):
        raise errors.BadParameters("unknown relations %r" % (relations,))


# letter -> the keys of one domain's elements, from the domain, whether it
# is regular, their image sets and their indices: D keys regular elements by
# rank and the rest by domain, and an index keys a class of one
_KEYS = {
    "L": lambda dom, reg, images, block: images if reg else block,
    "R": lambda dom, reg, images, block: repeat(dom, len(block)),
    "H": lambda dom, reg, images, block: zip(repeat(dom), images) if reg else block,
    "D": lambda dom, reg, images, block: repeat(len(dom) if reg else dom, len(block)),
}


def green_characterized(ctx: RangeContext, relations: str) -> dict[str, Partition]:
    """The partition of each relation named in `relations` (a nonempty
    string of letters from "LRHD"; J is the oracle's alone), from the
    closed-form descriptions of L, R, H and D over the domain walk."""
    _check_relations(relations, "LRHD")
    walk = _domain_walk(ctx)
    keys = {rel: chain.from_iterable(starmap(_KEYS[rel], walk)) for rel in relations}
    return {rel: _group_by_key(rel_keys) for rel, rel_keys in keys.items()}


# -- oracle partitions ------------------------------------------------------


def _left_ideals(S: ElementSet) -> list[frozenset[int]]:
    # column a of the table is S*a
    return [frozenset((a, *column)) for a, column in enumerate(zip(*S.mult_table()))]


def _right_ideals(S: ElementSet) -> list[frozenset[int]]:
    # row a of the table is a*S, whose distinct products S keeps
    return [frozenset((a, *row)) for a, row in enumerate(S.row_products())]


def _two_sided_ideal(right: list[frozenset[int]], left: frozenset[int]) -> frozenset[int]:
    """The two-sided ideal of an element, the union of the right ideals of
    the members of its left ideal (all with the identity adjoined)."""
    return frozenset().union(*map(right.__getitem__, left))


def green_oracle(S: ElementSet, relations: str) -> dict[str, Partition]:
    """The oracle partition of each relation named in `relations` (a
    nonempty string of letters from "LRHDJ"), from one build of each list
    of one-sided ideals they need: R alone needs no left ideals, and L alone
    no right ideals.

    L and R compare one-sided ideals directly; H compares the pairs of
    them; D is the transitive closure of L union R; J groups D-classes
    whose representatives generate the same two-sided ideal (D refines J
    in any semigroup).
    """
    _check_relations(relations, "LRHDJ")
    left = _left_ideals(S) if relations != "R" else None
    right = _right_ideals(S) if relations != "L" else None
    joined = "D" in relations or "J" in relations
    classes = {}
    if "L" in relations or joined:
        classes["L"] = _group_by_key(left)
    if "R" in relations or joined:
        classes["R"] = _group_by_key(right)
    if "H" in relations:
        classes["H"] = _group_by_key(zip(left, right))
    if joined:
        # union-find over the L- and R-classes
        parent = list(range(len(S)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for members in classes["L"] + classes["R"]:
            for i in members[1:]:
                parent[find(i)] = find(members[0])
        roots = [find(i) for i in range(len(S))]
        classes["D"] = _group_by_key(roots)
    if "J" in relations:
        # each element keyed by the two-sided ideal of its D-class's root
        ideals = {r: _two_sided_ideal(right, left[r]) for r in set(roots)}
        classes["J"] = _group_by_key(map(ideals.__getitem__, roots))
    return {rel: classes[rel] for rel in relations}


# -- H-class structure ------------------------------------------------------


class HClassProfile(namedtuple("HClassProfile", "size is_group is_cyclic_group")):
    __slots__ = ()


def _powers(x) -> set:
    """The distinct powers x, x^2, ... of one element."""
    powers = {x}
    p = x * x
    while p not in powers:
        powers.add(p)
        p = p * x
    return powers


def h_class_profile(ctx: RangeContext, a: PartialInjection) -> HClassProfile:
    """Size and group structure of the H-class of one member.

    Regular elements share their H-class with everything of equal domain
    and image: the rotations of the image sequence on the domain, one per
    point (the empty map is its own class).  Non-regular elements sit alone.
    """
    if not contains(ctx, a):
        raise errors.NotAMember("%r is not in the semigroup" % (a,))
    members = [a]
    if ctx.point_set.issuperset(a.domain):
        members = [PartialInjection(a.n, zip(a.domain, seq)) for seq in _rotations(a.image_seq)]
    member_set = set(members)
    is_group = all(x * y in member_set for x in members for y in members) and any(
        all(e * x == x == x * e for x in members) for e in members
    )
    is_cyclic = is_group and any(len(_powers(x)) == len(members) for x in members)
    return HClassProfile(len(members), is_group, is_cyclic)
