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
from .semigroup import ElementSet, RangeContext, contains, element_blocks
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
    rows, classes = S.mult_table()
    return tuple(any(rows[x][classes[x][a]] == a for x in row) for a, row in enumerate(rows))


# -- characterized partitions ----------------------------------------------


def _check_relations(relations) -> None:
    if not (isinstance(relations, str) and relations and set(relations) <= set("LRHD")):
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
    string of letters from "LRHD"), from the closed-form descriptions of L,
    R, H and D over the domain walk."""
    _check_relations(relations)
    walk = _domain_walk(ctx)
    keys = {rel: chain.from_iterable(starmap(_KEYS[rel], walk)) for rel in relations}
    return {rel: _group_by_key(rel_keys) for rel, rel_keys in keys.items()}


# -- oracle partitions ------------------------------------------------------


def _left_ideals(table):
    # (members, Sa) per class vector, from `mult_table`'s (rows, classes): the
    # lefts x of one image share one class map c, so their products x*a are
    # entry c[a], and Sa reads a only through its class vector, c[a] per map
    rows, classes = table
    lefts_by_image: dict = {}  # id of a shared class map -> (it, its lefts)
    for x, c in enumerate(classes):
        lefts_by_image.setdefault(id(c), (c, []))[1].append(x)
    groups = list(lefts_by_image.values())
    columns = [list(map(frozenset, zip(*map(rows.__getitem__, xs)))) for _, xs in groups]
    members_by_vector: dict = {}  # class vector -> the a that have it
    for a, vector in enumerate(zip(*[c for c, _ in groups])):
        members_by_vector.setdefault(vector, []).append(a)
    return (
        (members, frozenset().union(*map(list.__getitem__, columns, vector)))
        for vector, members in members_by_vector.items()
    )


def _right_ideals(table):
    # ((a,), aS) in index order, as `_left_ideals` pairs: aS is row a's products
    return (((a,), frozenset(row)) for a, row in enumerate(table[0]))


def _labels(ideals, size: int) -> list[int]:
    """One int per index below `size` from (members, Sa or aS) pairs whose
    members partition the indices, equal exactly for equal S¹a (or aS¹).
    S¹a = Sa when a is in Sa, and otherwise a is alone in its L-class: b L a
    with b != a gives a = xb and b = ya, so a = xya is in Sa (for R, a = ayx
    is in aS).  So a member is keyed by its ideal when in it and by itself
    otherwise, keys are numbered by first occurrence, and only the first
    ideal of each class is kept."""
    labels = [0] * size
    first: dict = {}
    for members, ideal in ideals:
        for a in members:
            labels[a] = first.setdefault(ideal if a in ideal else a, len(first))
    return labels


def green_oracle(S: ElementSet, relations: str) -> dict[str, Partition]:
    """The oracle partition of each relation named in `relations` (a
    nonempty string of letters from "LRHD"), from one pass over each side's
    one-sided ideals they need: R alone builds no left ideals, and L alone
    no right ideals.  Each element is labelled by its ideals as they are
    built, so one ideal per class is held, and a left ideal is built once
    per class vector for every element that has it.  L and R compare those
    labels, and H the pairs of them.  D = L∘R = R∘L, so a D b exactly when
    R_a and R_b meet the same L-classes: then L_a meets R_b, and a L c R b
    for some c.
    """
    _check_relations(relations)
    table = S.mult_table()
    left = _labels(_left_ideals(table), len(S)) if relations != "R" else None
    right = _labels(_right_ideals(table), len(S)) if relations != "L" else None
    classes = {}
    if "L" in relations:
        classes["L"] = _group_by_key(left)
    if "R" in relations:
        classes["R"] = _group_by_key(right)
    if "H" in relations:
        classes["H"] = _group_by_key(zip(left, right))
    if "D" in relations:
        met: dict = {}  # R-label -> the L-labels its class meets
        for l, r in zip(left, right):
            met.setdefault(r, set()).add(l)
        eggbox = {r: frozenset(ls) for r, ls in met.items()}
        classes["D"] = _group_by_key(map(eggbox.__getitem__, right))
    return {rel: classes[rel] for rel in relations}


# -- H-class structure ------------------------------------------------------


class HClassProfile(namedtuple("HClassProfile", "size is_group is_cyclic_group")):
    __slots__ = ()


def h_class_profile(ctx: RangeContext, a: PartialInjection) -> HClassProfile:
    """Size and group structure of the H-class of one member, in closed form.

    Regular elements share their H-class with everything of equal domain
    and image: the rotations of the image sequence on the domain, one per
    point (the empty map is its own class).  Non-regular elements sit alone,
    and their class is no group.  A regular class is a group exactly when it
    holds an idempotent, that is when the image equals the domain, and the
    group is then cyclic, generated by the rotation of the domain.
    """
    if not contains(ctx, a):
        raise errors.NotAMember("%r is not in the semigroup" % (a,))
    if not ctx.point_set.issuperset(a.domain):
        return HClassProfile(1, False, False)
    group = a.image == frozenset(a.domain)
    return HClassProfile(max(a.rank, 1), group, group)
