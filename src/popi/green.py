"""Regularity and Green's relations, computed two ways.

The "oracle" path works from the ideal definitions over the finite element
set with an external identity adjoined.  The "characterized" path uses the
closed-form descriptions (regularity by domain containment; L/R/H/D by
image, domain and rank).  A partition is its classes: a tuple of tuples of
element indices, each sorted and ordered by its least index, so two
partitions of one element set are equal exactly when their tuples are.
Tests assert the two partitions coincide.
"""

from __future__ import annotations

from typing import NamedTuple

from . import errors
from .semigroup import ElementSet, RangeContext, contains
from .transform import PartialInjection


Partition = tuple[tuple[int, ...], ...]


def _normalize(groups) -> Partition:
    classes = [tuple(sorted(g)) for g in groups]
    classes.sort(key=lambda c: c[0])
    return tuple(classes)


# -- regularity -------------------------------------------------------------


def _domain_inside_range(ctx: RangeContext, a) -> bool:
    """The closed form of regularity for a member: its domain lies inside Y."""
    return ctx.point_set.issuperset(a.domain)


def is_regular_characterized(ctx: RangeContext, a) -> bool:
    """Closed form: regular exactly when the domain lies inside the range set."""
    if not contains(ctx, a):
        raise errors.NotAMember("%r is not in the semigroup" % (a,))
    return _domain_inside_range(ctx, a)


def is_regular_oracle(S: ElementSet, a_index: int) -> bool:
    """Definition-level check: some b in S satisfies aba = a, tried once
    for each distinct product ab."""
    m = S.mult_table()
    return any(m[x][a_index] == a_index for x in set(m[a_index]))


# -- characterized partitions ----------------------------------------------


def green_characterized(ctx: RangeContext, S: ElementSet, relation: str) -> Partition:
    """Partition from the closed-form descriptions of L, R, H and D."""
    if relation not in ("L", "R", "H", "D"):
        raise errors.BadParameters("unknown relation %r" % relation)
    groups: dict = {}
    for i, a in enumerate(S.elements):
        regular = _domain_inside_range(ctx, a)
        if relation == "L":
            key = ("reg", a.image) if regular else ("one", i)
        elif relation == "R":
            key = a.domain
        elif relation == "H":
            key = ("reg", a.domain, a.image) if regular else ("one", i)
        else:  # D: regular classes by rank, non-regular by shared domain
            key = ("reg", a.rank) if regular else ("non", a.domain)
        groups.setdefault(key, []).append(i)
    return _normalize(groups.values())


# -- oracle partitions ------------------------------------------------------


def _left_ideals(S: ElementSet) -> list[frozenset[int]]:
    # column a of the table is S*a
    return [frozenset((a, *column)) for a, column in enumerate(zip(*S.mult_table()))]


def _right_ideals(S: ElementSet) -> list[frozenset[int]]:
    # row a of the table is a*S
    return [frozenset((a, *row)) for a, row in enumerate(S.mult_table())]


def _group_by_key(keys) -> Partition:
    """The classes of indices whose keys are equal."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return _normalize(groups.values())


def _two_sided_ideal(S: ElementSet, left: frozenset[int]) -> frozenset[int]:
    """The two-sided ideal of an element, given its left ideal (both with
    the identity adjoined)."""
    m = S.mult_table()
    out = set(left)
    for u in left:
        out.update(m[u])
    return frozenset(out)


def green_oracle(S: ElementSet, relation: str) -> Partition:
    """Partition computed from principal-ideal comparisons (see
    `_oracle_partitions`)."""
    if relation not in ("L", "R", "H", "D", "J"):
        raise errors.BadParameters("unknown relation %r" % relation)
    return _oracle_partitions(S, relation)[relation]


def _oracle_partitions(S: ElementSet, relations: str) -> dict[str, Partition]:
    """The oracle partition of each relation named, from one build of each
    list of one-sided ideals they need: R alone needs no left ideals, and L
    alone no right ideals.

    L and R compare one-sided ideals directly; H compares the pairs of
    them; D is the transitive closure of L union R; J groups D-classes
    whose representatives generate the same two-sided ideal (D refines J
    in any semigroup).
    """
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
        classes["D"] = _group_by_key(find(i) for i in range(len(S)))
    if "J" in relations:
        # D-classes whose representatives generate equal two-sided ideals
        d_classes = classes["D"]
        ideals = [_two_sided_ideal(S, left[c[0]]) for c in d_classes]
        merged = (sum((d_classes[k] for k in ks), ()) for ks in _group_by_key(ideals))
        classes["J"] = _normalize(merged)
    return {rel: classes[rel] for rel in relations}


# -- H-class structure ------------------------------------------------------


class HClassProfile(NamedTuple):
    size: int
    is_group: bool
    is_cyclic_group: bool
    common_domain: frozenset[int]
    common_image: frozenset[int]


def _powers(x) -> set:
    """The distinct powers x, x^2, ... of one element."""
    powers = {x}
    p = x * x
    while p not in powers:
        powers.add(p)
        p = p * x
    return powers


def h_class_profile(ctx: RangeContext, S: ElementSet, a_index: int) -> HClassProfile:
    """Size and group structure of the H-class of one element.

    Regular elements share their H-class with everything of equal domain
    and image: the rotations of the image sequence on the domain, one per
    point (the empty map is its own class).  Non-regular elements sit alone.
    """
    a = S[a_index]
    if _domain_inside_range(ctx, a):
        seq = a.image_seq
        members = [
            PartialInjection(a.n, zip(a.domain, seq[t:] + seq[:t])) for t in range(max(a.rank, 1))
        ]
    else:
        members = [a]
    member_set = set(members)
    is_group = all(x * y in member_set for x in members for y in members) and any(
        all(e * x == x == x * e for x in members) for e in members
    )
    is_cyclic = is_group and any(len(_powers(x)) == len(members) for x in members)
    return HClassProfile(
        len(members), is_group, is_cyclic, frozenset(a.domain), a.image
    )
