"""Shared helpers: cached enumerations and independent brute-force builders."""

from functools import lru_cache
from itertools import combinations, permutations

from hypothesis import strategies as st

import popi as P


@lru_cache(maxsize=None)
def semigroup(n: int, pts: tuple[int, ...]):
    """Context plus enumerated element set, cached across tests."""
    ctx = P.RangeContext(n, pts)
    return ctx, P.enumerate_semigroup(ctx)


def sort_key(a):
    """The reference element order of `enumerate_semigroup` and of
    `ordered_closure`: by rank, then domain, then image sequence."""
    return (a.rank, a.domain, a.image_seq)


def ordered_closure(ctx, gens, min_rank: int = 0):
    """`closure`'s tables as an `ElementSet`, in `sort_key` order."""
    tables = P.closure(ctx, gens, min_rank)
    return P.ElementSet(sorted(map(P.PartialInjection.from_table, tables), key=sort_key))


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


@st.composite
def member_of(draw, n: int, pts):
    """One member of the semigroup on n points with range set `pts`: a
    domain, an image set of equal size and a rotation of it."""
    k = draw(st.integers(0, len(pts)))
    dom = sorted(draw(st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True)))
    img = sorted(draw(st.lists(st.sampled_from(pts), min_size=k, max_size=k, unique=True)))
    t = draw(st.integers(0, max(k - 1, 0)))
    return P.PartialInjection(n, zip(dom, img[t:] + img[:t]))
