"""Exact minor tests for the three minors the toolkit cares about.

C4 uses the block characterization (every block an edge or a triangle).
K5 and K33 read the one decomposition of each block
(`spqr.decompose_blocks`).  Both are 3-connected, so a block has either
minor only inside one R skeleton, and R skeletons come classified:
planar ones have neither minor, a K5 has no K33 minor, and any other
non-planar 3-connected graph has a K33 minor.  K5 minors in the rare
non-planar, non-K5 skeletons are found by an exhaustive contraction
search, which doubles as the certifying oracle in tests.
"""

from __future__ import annotations

import itertools

from .graphs import Graph, GraphError, blocks
from . import spqr as spqr_mod

MINORS = ("K5", "K33", "C4")


def has_minor(g: Graph, h: str) -> bool:
    """Exact test for an H minor, H in {"K5", "K33", "C4"}."""
    if h not in MINORS:
        raise GraphError(f"unsupported minor {h!r}")
    if h == "C4":
        return not is_c4_minor_free(g)
    return any(_block_has_minor(b, h) for b in spqr_mod.decompose_blocks(g))


def _block_has_minor(block: spqr_mod.Block, h: str) -> bool:
    """K5 or K33 minor in one decomposed block."""
    if h == "K33":
        return block.witness is not None
    return any(cls == "K5" or (cls == "NonPlanar"
                               and minor_exhaustive(sg, "K5"))
               for cls, _emb, sg in block.r_skeletons.values())


def c4_minor_block(g: Graph) -> tuple[frozenset[int], tuple[int, ...]] | None:
    """First block (nodes, edge indices) that is neither an edge nor a
    triangle, or None.  Such a block carries a C4 minor."""
    return next((b for b in blocks(g).blocks
                 if len(b[1]) > 1 and not (len(b[0]) == 3 and len(b[1]) == 3)),
                None)


def is_c4_minor_free(g: Graph) -> bool:
    """True iff every block of every component is an edge or a triangle."""
    return c4_minor_block(g) is None


# -- exhaustive oracle -------------------------------------------------------

def minor_exhaustive(g: Graph, h: str) -> bool:
    """Certifying oracle: recursive contraction search with memoization.

    Exponential; intended for graphs up to a dozen nodes.  A minor model
    with a non-singleton branch set survives contracting an edge inside
    it, so H is a minor iff H is a subgraph or some contraction has the
    minor.
    """
    if h not in MINORS:
        raise GraphError(f"unsupported minor {h!r}")
    adj = [0] * g.node_count
    for u, v, _w in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return _minor_rec(tuple(adj), h, {})


def _minor_rec(adj: tuple[int, ...], h: str, memo: dict) -> bool:
    key = adj
    hit = memo.get(key)
    if hit is not None:
        return hit
    n = len(adj)
    m = sum(a.bit_count() for a in adj) // 2
    need_n, need_m = {"K5": (5, 10), "K33": (6, 9), "C4": (4, 4)}[h]
    if n < need_n or m < need_m:
        memo[key] = False
        return False
    if _has_subgraph(adj, h):
        memo[key] = True
        return True
    for u in range(n):
        nb = adj[u]
        while nb:
            v = (nb & -nb).bit_length() - 1
            nb &= nb - 1
            if v < u:
                continue
            if _minor_rec(_contract(adj, u, v), h, memo):
                memo[key] = True
                return True
    memo[key] = False
    return False


def _contract(adj: tuple[int, ...], u: int, v: int) -> tuple[int, ...]:
    """Contract edge uv (u < v), drop v, compact labels above v."""
    n = len(adj)
    merged = list(adj)
    merged[u] = (adj[u] | adj[v]) & ~((1 << u) | (1 << v))
    for x in range(n):
        if x != u and (adj[v] >> x) & 1:
            merged[x] |= 1 << u
    out = []
    for x in range(n):
        if x == v:
            continue
        row = merged[x] & ~(1 << v)
        low = row & ((1 << v) - 1)
        high = row >> (v + 1)
        out.append(low | (high << v))
    return tuple(out)


def _has_subgraph(adj: tuple[int, ...], h: str) -> bool:
    n = len(adj)
    if h == "K5":
        cand = [x for x in range(n) if adj[x].bit_count() >= 4]
        for combo in itertools.combinations(cand, 5):
            if all((adj[a] >> b) & 1 for a, b in itertools.combinations(combo, 2)):
                return True
        return False
    if h == "C4":
        for a, b in itertools.combinations(range(n), 2):
            common = adj[a] & adj[b] & ~((1 << a) | (1 << b))
            if common.bit_count() >= 2:
                return True
        return False
    # K33: two disjoint triples with all nine cross edges
    cand = [x for x in range(n) if adj[x].bit_count() >= 3]
    for left in itertools.combinations(cand, 3):
        lmask = sum(1 << x for x in left)
        common = ~lmask
        for x in left:
            common &= adj[x]
        common &= (1 << n) - 1
        if common.bit_count() >= 3:
            return True
    return False
