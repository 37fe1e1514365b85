"""Simple weighted graphs with stable edge indices.

Everything downstream (decomposition, planarity, the solvers, the polytope
code) works on this one representation: nodes 0..n-1, edges kept in the
order they were given, each edge a (u, v, weight) triple with u < v.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Parser bound on |weight| so that any sum of weights stays far below 2**63.
MAX_WEIGHT = 1 << 40


class GraphError(ValueError):
    """Base class for graph construction and parsing problems."""


class ParseError(GraphError):
    """Malformed graph file (bad header, bad line, wrong counts)."""


class SelfLoopError(GraphError):
    """An edge joins a node to itself."""


class DuplicateEdgeError(GraphError):
    """The same node pair appears twice."""


class NodeRangeError(GraphError):
    """A node id is outside 0..n-1 (1..n in files)."""


class SizeLimitError(GraphError):
    """An exhaustive operation was asked to exceed its size guard."""


class NotTwoConnectedError(GraphError):
    """Operation requires a 2-connected input."""


class CertificationError(RuntimeError):
    """An internal check of a computed result failed: a bug, not bad input
    (so deliberately not a GraphError, which the CLI reports as input)."""


class Graph:
    """Immutable simple undirected graph with integer edge weights.

    The edge index (position in `edges`) never changes after construction;
    it is the coordinate used by cuts and inequalities.
    """

    __slots__ = ("node_count", "edges", "_adj", "_pair_index")

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int, int]]):
        if node_count < 0:
            raise GraphError("node_count must be non-negative")
        self.node_count = node_count
        canon = []
        pair_index: dict[tuple[int, int], int] = {}
        for u, v, w in edges:
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise NodeRangeError(f"node id out of range in edge ({u}, {v})")
            if u == v:
                raise SelfLoopError(f"self-loop at node {u}")
            if u > v:
                u, v = v, u
            if (u, v) in pair_index:
                raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
            pair_index[(u, v)] = len(canon)
            canon.append((u, v, int(w)))
        self.edges: tuple[tuple[int, int, int], ...] = tuple(canon)
        self._pair_index = pair_index
        adj: list[list[tuple[int, int]]] = [[] for _ in range(node_count)]
        for i, (u, v, _w) in enumerate(self.edges):
            adj[u].append((v, i))
            adj[v].append((u, i))
        self._adj = tuple(tuple(sorted(a)) for a in adj)

    # -- basic accessors ---------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[tuple[int, int], ...]:
        """Sorted (neighbor, edge_index) pairs of v."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._pair_index

    def edge_index(self, u: int, v: int) -> int:
        return self._pair_index[(min(u, v), max(u, v))]

    def weight(self, index: int) -> int:
        return self.edges[index][2]

    def abs_weight(self) -> int:
        return sum(abs(w) for _u, _v, w in self.edges)

    # -- derived graphs ----------------------------------------------------

    def with_edge(self, u: int, v: int, w: int) -> "Graph":
        """New graph with one edge appended (index = old edge_count)."""
        return Graph(self.node_count, list(self.edges) + [(u, v, w)])

    def without_edge(self, index: int) -> "Graph":
        """New graph with one edge removed; later indices shift down by one."""
        if not 0 <= index < len(self.edges):
            raise GraphError(f"edge index {index} is not an edge of the graph")
        kept = [e for i, e in enumerate(self.edges) if i != index]
        return Graph(self.node_count, kept)

    def reweighted(self, weights: Sequence[int]) -> "Graph":
        """The graph with new weights, sharing adjacency and pair index."""
        if len(weights) != len(self.edges):
            raise GraphError("weight vector length mismatch")
        g = object.__new__(Graph)
        g.node_count, g._adj, g._pair_index = (self.node_count, self._adj,
                                               self._pair_index)
        g.edges = tuple((u, v, int(w))
                        for (u, v, _), w in zip(self.edges, weights))
        return g

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.node_count == other.node_count and self.edges == other.edges

    def __hash__(self):
        return hash((self.node_count, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.node_count}, m={len(self.edges)})"


def compact_graph(nodes: Sequence[int],
                  edges: Iterable[tuple[int, int, int]]) -> tuple[Graph, dict[int, int]]:
    """Build a Graph on 0..k-1 from arbitrary node labels.

    Returns the graph and the label -> compact-id mapping.  Edge order is
    preserved, so edge indices line up with the input sequence.
    """
    order = sorted(set(nodes))
    to_compact = {x: i for i, x in enumerate(order)}
    g = Graph(len(order), [(to_compact[u], to_compact[v], w) for u, v, w in edges])
    return g, to_compact


# -- file format -----------------------------------------------------------
#
#   c <comment>        ignored
#   p cut <n> <m>      header, exactly once, first non-comment line
#   e <u> <v> <w>      edge with 1-indexed endpoints; exactly m lines

def parse_graph(text: str) -> Graph:
    """Parse the `p cut` text format into a Graph."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if header is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            if len(parts) != 4 or parts[1] != "cut":
                raise ParseError(f"line {lineno}: bad header {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise ParseError(f"line {lineno}: bad header numbers") from None
            if header[0] < 0 or header[1] < 0:
                raise ParseError(f"line {lineno}: negative header counts")
        elif parts[0] == "e":
            if header is None:
                raise ParseError(f"line {lineno}: edge before header")
            if len(parts) != 4:
                raise ParseError(f"line {lineno}: bad edge line {line!r}")
            try:
                u, v, w = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: bad edge numbers") from None
            n = header[0]
            if not (1 <= u <= n and 1 <= v <= n):
                raise NodeRangeError(f"line {lineno}: node id outside 1..{n}")
            if u == v:
                raise SelfLoopError(f"line {lineno}: self-loop at node {u}")
            if abs(w) > MAX_WEIGHT:
                raise ParseError(f"line {lineno}: |weight| exceeds {MAX_WEIGHT}")
            edges.append((u - 1, v - 1, w))
        else:
            raise ParseError(f"line {lineno}: unrecognized record {parts[0]!r}")
    if header is None:
        raise ParseError("missing 'p cut' header")
    if len(edges) != header[1]:
        raise ParseError(f"header announced {header[1]} edges, found {len(edges)}")
    return Graph(header[0], edges)


def format_graph(g: Graph) -> str:
    """Inverse of parse_graph (1-indexed output)."""
    lines = [f"p cut {g.node_count} {len(g.edges)}"]
    lines.extend(f"e {u + 1} {v + 1} {w}" for u, v, w in g.edges)
    return "\n".join(lines) + "\n"


# -- connectivity ----------------------------------------------------------

def connected_components(g: Graph) -> list[list[int]]:
    """Node lists of the connected components, each sorted, in min-node order."""
    return disjoint_sets(g.node_count, [e[:2] for e in g.edges])


def disjoint_sets(count: int, pairs) -> list[list[int]]:
    """Classes of 0..count-1 under the union of the given pairs (repeated
    pairs and pairs (x, x) are fine), by union-find with path halving.
    Each class is sorted; classes come in order of their smallest item."""
    parent = list(range(count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    classes: dict[int, list[int]] = {}
    for x in range(count):
        classes.setdefault(find(x), []).append(x)
    return list(classes.values())


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (2-connected pieces or single edges) and cut nodes."""
    blocks: tuple[tuple[frozenset[int], tuple[int, ...]], ...]  # (nodes, edge indices)
    cut_nodes: frozenset[int]


def _lowpoint(adj, masked: int | None = None
              ) -> tuple[list[list[int]], set[int], int]:
    """Iterative lowpoint DFS (Hopcroft-Tarjan) over `adj`, the
    (neighbour, edge index) lists of nodes 0..n-1, never entering node
    `masked`.  Returns the blocks as edge-index lists, the cut nodes and
    the number of DFS trees."""
    n = len(adj)
    disc = [0] * n          # 0 = unvisited, -1 = masked, else discovery time
    if masked is not None:
        disc[masked] = -1
    low = [0] * n
    timer = 1
    cut: set[int] = set()
    parts: list[list[int]] = []
    edge_stack: list[int] = []
    trees = 0
    for root in range(n):
        if disc[root]:
            continue
        trees += 1
        disc[root] = low[root] = timer
        timer += 1
        children = 0
        # each stack frame: (node, parent, parent edge, neighbour iterator)
        stack = [(root, -1, -1, iter(adj[root]))]
        while stack:
            x, px, pedge, it = stack[-1]
            for y, i in it:
                dy = disc[y]
                if not dy:
                    edge_stack.append(i)
                    disc[y] = low[y] = timer
                    timer += 1
                    stack.append((y, x, i, iter(adj[y])))
                    break
                if 0 < dy < disc[x] and i != pedge:
                    edge_stack.append(i)
                    low[x] = min(low[x], dy)
            else:
                stack.pop()
                if px < 0:
                    continue
                low[px] = min(low[px], low[x])
                if low[x] >= disc[px]:
                    # px closes a block: everything pushed after the tree
                    # edge (px, x), plus that edge, is one block
                    part: list[int] = []
                    while not part or part[-1] != pedge:
                        part.append(edge_stack.pop())
                    parts.append(part)
                    if px == root:
                        children += 1
                    else:
                        cut.add(px)
        if children >= 2:
            cut.add(root)
    return parts, cut, trees


def blocks(g: Graph) -> BlockDecomposition:
    """Standard block / cut-node decomposition (one lowpoint DFS).

    Every edge lands in exactly one block; isolated nodes are in none.
    """
    parts, cut, _trees = _lowpoint(g._adj)
    raw_blocks = sorted(((frozenset(itertools.chain.from_iterable(
        g.edges[i][:2] for i in part)), tuple(sorted(part)))
        for part in parts), key=lambda b: b[1])
    return BlockDecomposition(tuple(raw_blocks), frozenset(cut))


def masked_cut_nodes(adj, v: int | None) -> tuple[set[int], bool]:
    """Cut nodes of G-v, and whether G-v is connected, by one lowpoint
    DFS over the shared adjacency `adj` of G (as in `_lowpoint`) with v
    masked (v None masks nothing); no Graph is built per G-v."""
    _parts, cut, trees = _lowpoint(adj, v)
    return cut, trees <= 1


def is_k_connected(g: Graph, k: int) -> bool:
    """k-connectivity (k in {1,2,3}).

    Requires node_count > k for k >= 2, so K2 is connected but not
    2-connected.  G is 2-connected iff it is connected without cut nodes,
    and 3-connected iff every G-v is: the cut nodes of G-v by one masked
    lowpoint sweep.
    """
    if k not in (1, 2, 3):
        raise GraphError("k must be 1, 2 or 3")
    if k == 1:
        return is_connected(g)
    if g.node_count <= k or any(g.degree(v) < k for v in range(g.node_count)):
        return False
    masked = [None] if k == 2 else range(g.node_count)
    return all(masked_cut_nodes(g._adj, v) == (set(), True) for v in masked)


# -- substructures ---------------------------------------------------------

def triangles(g: Graph) -> list[tuple[int, int, int]]:
    """All triangles as sorted node triples, lexicographic order."""
    out = []
    for u, v, _w in g.edges:
        for x, _i in g.neighbors(u):
            if x > v and g.has_edge(v, x):
                out.append((u, v, x))
    return sorted(set(out))


def chordless_cycles(g: Graph, cap: int = 1_000_000) -> list[tuple[int, ...]]:
    """Every induced cycle of length >= 3, once up to rotation/reflection.

    Canonical form: starts at its smallest node v0, second node smaller
    than the last.  Raises SizeLimitError past `cap` cycles.
    """
    n = g.node_count
    adj_mask = [0] * n
    for u, v, _w in g.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    out: list[tuple[int, ...]] = []
    for v0 in range(n):
        above = ~((1 << (v0 + 1)) - 1)
        if (adj_mask[v0] & above).bit_count() < 2:
            continue  # a cycle whose least node is v0 has two neighbours above it
        for v1, _i in g.neighbors(v0):
            if v1 <= v0:
                continue
            # depth-first over the induced paths v0, v1, ...: one frame per
            # node of `path`, holding the path's node mask, the nodes next
            # to its internal nodes path[1:-1] (an extension must avoid
            # them to keep the path induced) and the extensions left to try
            path = [v0, v1]
            mask = (1 << v0) | (1 << v1)
            stack = [(mask, 0, adj_mask[v1] & ~mask & above)]
            while stack:
                path_mask, blocked, cand = stack[-1]
                if not cand:
                    stack.pop()
                    path.pop()
                    continue
                w = (cand & -cand).bit_length() - 1
                stack[-1] = (path_mask, blocked, cand & (cand - 1))
                if adj_mask[w] >> v0 & 1:
                    # closes a cycle; record, never extend through w
                    if path[1] < w:
                        out.append(tuple(path) + (w,))
                        if len(out) > cap:
                            raise SizeLimitError("chordless cycle cap exceeded")
                    continue
                blocked |= adj_mask[path[-1]]
                path_mask |= 1 << w
                path.append(w)
                stack.append((path_mask, blocked,
                              adj_mask[w] & ~path_mask & above & ~blocked))
    return sorted(out, key=lambda c: (len(c), c))


def initial_cycle(g: Graph) -> list[int]:
    """The cycle closed by the first back edge of a DFS from node 0, as a
    node walk from the back edge's ancestor end (in an undirected DFS the
    first non-tree edge always reaches an ancestor)."""
    parent = {0: -1}
    dfs = [(0, iter(g.neighbors(0)))]
    while dfs:
        x, it = dfs[-1]
        for y, _i in it:
            if y == parent[x]:
                continue
            if y in parent:
                walk = [x]
                while walk[-1] != y:
                    walk.append(parent[walk[-1]])
                return list(reversed(walk))
            parent[y] = x
            dfs.append((y, iter(g.neighbors(y))))
            break
        else:
            dfs.pop()
    raise NotTwoConnectedError("no cycle through the component of node 0")


# -- cuts ------------------------------------------------------------------

@dataclass(frozen=True)
class Cut:
    """A cut: node side S (bitmask, node 0 never inside) and its edge
    indicator vector (bitmask over edge indices)."""
    side: int
    indicator: int

    def side_nodes(self) -> tuple[int, ...]:
        return _bits(self.side)

    def edge_indices(self) -> tuple[int, ...]:
        return _bits(self.indicator)

    def vector(self, num_edges: int) -> tuple[int, ...]:
        return tuple((self.indicator >> i) & 1 for i in range(num_edges))


def _bits(x: int) -> tuple[int, ...]:
    """Positions of the set bits of x >= 0, ascending (from a list: a
    generator here raised the peak RSS of long `maxcut` runs)."""
    return tuple([i for i in range(x.bit_length()) if x >> i & 1])


def cut_from_side(g: Graph, side: Iterable[int]) -> Cut:
    """Cut for a node subset; canonicalized so node 0 is not in the side."""
    mask = 0
    for v in side:
        if not 0 <= v < g.node_count:
            raise NodeRangeError(f"node {v} out of range")
        mask |= 1 << v
    if mask & 1:
        mask = ((1 << g.node_count) - 1) & ~mask
    return Cut(mask, sum(1 << i for i, (u, v, _w) in enumerate(g.edges)
                         if (mask >> u ^ mask >> v) & 1))


def cut_weight(g: Graph, cut: Cut) -> int:
    return sum(g.edges[i][2] for i in cut.edge_indices())


# entries per chunk of _crossings, which bounds its temporary memory
_CELLS = 1 << 16


def _crossings(g: Graph):
    """Every side of g in increasing mask order, node 0 never in a side,
    in chunks of about `_CELLS` entries: yields (sides, rows), the side
    masks and the 0/1 rows of the edges each side cuts."""
    us, vs = np.array([e[:2] for e in g.edges],
                      dtype=np.int64).reshape(-1, 2).T
    count = 1 << max(g.node_count - 1, 0)
    step = max(1, _CELLS // max(1, len(g.edges)))
    for start in range(0, count, step):
        sides = np.arange(start, min(count, start + step), dtype=np.int64) << 1
        yield sides, ((sides[:, None] >> us) ^ (sides[:, None] >> vs)) & 1


def _distinct_cuts(g: Graph) -> tuple[list[int], np.ndarray, list[bytes]]:
    """The 2^(n-c) distinct cuts of g (c components), each with the first
    (smallest) side mask that cuts its edges: side masks, 0/1 rows and the
    rows packed little-endian, in side order.  Guarded at 24 nodes."""
    if g.node_count > 24:
        raise SizeLimitError("enumerate_cuts guard: node_count <= 24")
    sides, rows = map(np.concatenate, zip(*_crossings(g)))
    first: dict[bytes, int] = {}
    for i, key in enumerate(np.packbits(rows, axis=1, bitorder="little")):
        first.setdefault(key.tobytes(), i)
    keep = list(first.values())
    return sides[keep].tolist(), rows[keep], list(first)


def enumerate_cuts(g: Graph) -> list[Cut]:
    """All distinct cuts (2^(n-c) indicator vectors for c components),
    each with its smallest side mask, sorted by side mask.  Guarded at 24
    nodes."""
    sides, _rows, packed = _distinct_cuts(g)
    return [Cut(s, int.from_bytes(p, "little")) for s, p in zip(sides, packed)]


def cut_vectors(g: Graph) -> list[tuple[int, ...]]:
    """Indicator vectors of all distinct cuts as 0/1 tuples."""
    return list(map(tuple, _distinct_cuts(g)[1].tolist()))
