"""Simple weighted graphs with stable edge indices.

Everything downstream (decomposition, planarity, the solvers, the polytope
code) works on this one representation: nodes 0..n-1, edges kept in the
order they were given, each edge a (u, v, weight) triple with u < v.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

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

    def total_weight(self) -> int:
        return sum(w for _u, _v, w in self.edges)

    def abs_weight(self) -> int:
        return sum(abs(w) for _u, _v, w in self.edges)

    # -- derived graphs ----------------------------------------------------

    def with_edge(self, u: int, v: int, w: int) -> "Graph":
        """New graph with one edge appended (index = old edge_count)."""
        return Graph(self.node_count, list(self.edges) + [(u, v, w)])

    def without_edge(self, index: int) -> "Graph":
        """New graph with one edge removed; later indices shift down by one."""
        kept = [e for i, e in enumerate(self.edges) if i != index]
        return Graph(self.node_count, kept)

    def reweighted(self, weights: Sequence[int]) -> "Graph":
        if len(weights) != len(self.edges):
            raise GraphError("weight vector length mismatch")
        return Graph(self.node_count,
                     [(u, v, w) for (u, v, _), w in zip(self.edges, weights)])

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
    try:
        return Graph(header[0], edges)
    except (SelfLoopError, DuplicateEdgeError, NodeRangeError):
        raise


def format_graph(g: Graph) -> str:
    """Inverse of parse_graph (1-indexed output)."""
    lines = [f"p cut {g.node_count} {len(g.edges)}"]
    lines.extend(f"e {u + 1} {v + 1} {w}" for u, v, w in g.edges)
    return "\n".join(lines) + "\n"


# -- connectivity ----------------------------------------------------------

def connected_components(g: Graph) -> list[list[int]]:
    """Node lists of the connected components, each sorted, in min-node order."""
    seen = [False] * g.node_count
    comps = []
    for s in range(g.node_count):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            x = stack.pop()
            comp.append(x)
            for y, _i in g.neighbors(x):
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (2-connected pieces or single edges) and cut nodes."""
    blocks: tuple[tuple[frozenset[int], tuple[int, ...]], ...]  # (nodes, edge indices)
    cut_nodes: frozenset[int]


def blocks(g: Graph) -> BlockDecomposition:
    """Standard block / cut-node decomposition (iterative lowpoint DFS).

    Every edge lands in exactly one block; isolated nodes are in none.
    """
    n = g.node_count
    disc = [0] * n          # 0 = unvisited, else discovery time
    low = [0] * n
    timer = 1
    cut_nodes: set[int] = set()
    edge_stack: list[int] = []
    raw_blocks: list[tuple[frozenset[int], tuple[int, ...]]] = []

    for root in range(n):
        if disc[root]:
            continue
        # each stack frame: (node, parent_edge_index, neighbor iterator)
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, iter(g.neighbors(root)))]
        root_children = 0
        while stack:
            x, pedge, it = stack[-1]
            advanced = False
            for y, i in it:
                if i == pedge:
                    continue
                if not disc[y]:
                    edge_stack.append(i)
                    disc[y] = low[y] = timer
                    timer += 1
                    stack.append((y, i, iter(g.neighbors(y))))
                    if x == root:
                        root_children += 1
                    advanced = True
                    break
                if disc[y] < disc[x]:
                    edge_stack.append(i)
                    low[x] = min(low[x], disc[y])
            if advanced:
                continue
            stack.pop()
            if stack:
                px = stack[-1][0]
                low[px] = min(low[px], low[x])
                if low[x] >= disc[px]:
                    # px closes a block: everything pushed after the tree
                    # edge (px, x), plus that edge, is one block
                    part: list[int] = []
                    while True:
                        i = edge_stack.pop()
                        part.append(i)
                        if i == pedge:
                            break
                    nodes = frozenset(itertools.chain.from_iterable(
                        g.edges[i][:2] for i in part))
                    raw_blocks.append((nodes, tuple(sorted(part))))
                    if px != root:
                        cut_nodes.add(px)
        if root_children >= 2:
            cut_nodes.add(root)
    raw_blocks.sort(key=lambda b: b[1])
    return BlockDecomposition(tuple(raw_blocks), frozenset(cut_nodes))


def _is_biconnected(g: Graph) -> bool:
    """One block spanning every node (callers guarantee node_count >= 3)."""
    bd = blocks(g)
    return len(bd.blocks) == 1 and len(bd.blocks[0][0]) == g.node_count


def is_k_connected(g: Graph, k: int) -> bool:
    """k-connectivity (k in {1,2,3}) from the block decomposition.

    Requires node_count > k for k >= 2, so K2 is connected but not
    2-connected, matching the ear-decomposition characterization.  G is
    2-connected iff it is a single block on all nodes, and 3-connected iff
    moreover every G-v is 2-connected.
    """
    if k not in (1, 2, 3):
        raise GraphError("k must be 1, 2 or 3")
    if k == 1:
        return is_connected(g)
    if g.node_count <= k:
        return False
    if not is_connected(g):
        return False
    if any(g.degree(v) < k for v in range(g.node_count)):
        return False
    if not _is_biconnected(g):
        return False
    if k == 2:
        return True
    return all(_is_biconnected(compact_graph(
        [x for x in range(g.node_count) if x != v],
        [e for e in g.edges if v not in e[:2]])[0])
        for v in range(g.node_count))


# -- substructures ---------------------------------------------------------

def triangles(g: Graph) -> list[tuple[int, int, int]]:
    """All triangles as sorted node triples, lexicographic order."""
    out = []
    for u, v, _w in g.edges:
        for x, _i in g.neighbors(u):
            if x > v and g.has_edge(v, x):
                out.append((u, v, x))
    return sorted(set(out))


def k5_subgraphs(g: Graph) -> list[tuple[int, ...]]:
    """All 5-node sets inducing a complete graph."""
    cand = [v for v in range(g.node_count) if g.degree(v) >= 4]
    out = []
    for combo in itertools.combinations(cand, 5):
        if all(g.has_edge(a, b) for a, b in itertools.combinations(combo, 2)):
            out.append(combo)
    return out


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

    def extend(v0: int, path: list[int], path_mask: int, blocked: int) -> None:
        # blocked: nodes adjacent to internal path nodes (path[1:-1]);
        # extensions must avoid them to keep the path induced.
        last = path[-1]
        above = ~((1 << (v0 + 1)) - 1)
        cand = adj_mask[last] & ~path_mask & above & ~blocked
        while cand:
            w = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if adj_mask[w] >> v0 & 1:
                # closes a cycle; record, never extend through w
                if len(path) >= 2 and path[1] < w:
                    out.append(tuple(path) + (w,))
                    if len(out) > cap:
                        raise SizeLimitError("chordless cycle cap exceeded")
            else:
                extend(v0, path + [w], path_mask | (1 << w),
                       blocked | (adj_mask[last] if len(path) >= 2 else 0))

    for v0 in range(n):
        for v1, _i in g.neighbors(v0):
            if v1 > v0:
                extend(v0, [v0, v1], (1 << v0) | (1 << v1), 0)
    return sorted(out, key=lambda c: (len(c), c))


def ear_decomposition(g: Graph) -> list[list[int]]:
    """Open ear decomposition of a 2-connected graph.

    First element is a cycle (closed node walk without the repeat); each
    later element is a path whose endpoints, and only they, lie in the
    union of the earlier pieces.
    """
    if not is_k_connected(g, 2):
        raise NotTwoConnectedError("ear decomposition needs a 2-connected graph")
    # initial cycle: first back edge of a DFS from node 0 (in an undirected
    # DFS the first flagged non-tree edge always reaches an ancestor)
    parent = {0: -1}
    dfs = [(0, iter(g.neighbors(0)))]
    cycle: list[int] | None = None
    while dfs and cycle is None:
        x, it = dfs[-1]
        advanced = False
        for y, _i in it:
            if y == parent[x]:
                continue
            if y in parent:
                walk = [x]
                while walk[-1] != y:
                    walk.append(parent[walk[-1]])
                cycle = list(reversed(walk))
                break
            parent[y] = x
            dfs.append((y, iter(g.neighbors(y))))
            advanced = True
            break
        if cycle is None and not advanced:
            dfs.pop()
    assert cycle is not None
    pieces = [cycle]
    in_h = set(cycle)
    used = {g.edge_index(cycle[i], cycle[(i + 1) % len(cycle)])
            for i in range(len(cycle))}
    while len(used) < len(g.edges):
        cand = min(i for i in range(len(g.edges)) if i not in used
                   and (g.edges[i][0] in in_h or g.edges[i][1] in in_h))
        u, v, _w = g.edges[cand]
        if v in in_h and u not in in_h:
            u, v = v, u
        if v in in_h:
            pieces.append([u, v])
            used.add(cand)
            continue
        # walk from v through new nodes until hitting H again, avoiding u
        pred = {v: u}
        frontier = [v]
        hit = None
        while hit is None:
            nxt = []
            for x in frontier:
                for y, _i in g.neighbors(x):
                    if y == u or y in pred:
                        continue
                    pred[y] = x
                    if y in in_h:
                        hit = y
                        break
                    nxt.append(y)
                if hit is not None:
                    break
            frontier = nxt
        path = [hit]
        while path[-1] != u:
            path.append(pred[path[-1]])
        path.reverse()  # u ... hit
        pieces.append(path)
        for i in range(len(path) - 1):
            used.add(g.edge_index(path[i], path[i + 1]))
        in_h.update(path)
    return pieces


# -- cuts ------------------------------------------------------------------

@dataclass(frozen=True)
class Cut:
    """A cut: node side S (bitmask, node 0 never inside) and its edge
    indicator vector (bitmask over edge indices)."""
    side: int
    indicator: int

    def side_nodes(self) -> tuple[int, ...]:
        s, out, v = self.side, [], 0
        while s:
            if s & 1:
                out.append(v)
            s >>= 1
            v += 1
        return tuple(out)

    def edge_indices(self) -> tuple[int, ...]:
        s, out, i = self.indicator, [], 0
        while s:
            if s & 1:
                out.append(i)
            s >>= 1
            i += 1
        return tuple(out)

    def vector(self, num_edges: int) -> tuple[int, ...]:
        return tuple((self.indicator >> i) & 1 for i in range(num_edges))


def _node_edge_masks(g: Graph) -> list[int]:
    masks = [0] * g.node_count
    for i, (u, v, _w) in enumerate(g.edges):
        masks[u] |= 1 << i
        masks[v] |= 1 << i
    return masks


def cut_from_side(g: Graph, side: Iterable[int]) -> Cut:
    """Cut for a node subset; canonicalized so node 0 is not in the side."""
    mask = 0
    for v in side:
        if not 0 <= v < g.node_count:
            raise NodeRangeError(f"node {v} out of range")
        mask |= 1 << v
    if mask & 1:
        mask = ((1 << g.node_count) - 1) & ~mask
    masks = _node_edge_masks(g)
    ind = 0
    m = mask
    v = 0
    while m:
        if m & 1:
            ind ^= masks[v]
        m >>= 1
        v += 1
    return Cut(mask, ind)


def cut_weight(g: Graph, cut: Cut) -> int:
    return sum(g.edges[i][2] for i in cut.edge_indices())


def enumerate_cuts(g: Graph) -> list[Cut]:
    """All distinct cuts (2^(n-c) indicator vectors for c components).

    Deduplicated by indicator, keeping the smallest side mask; output
    sorted by side mask.  Guarded at 24 nodes.
    """
    n = g.node_count
    if n > 24:
        raise SizeLimitError("enumerate_cuts guard: node_count <= 24")
    if n == 0:
        return [Cut(0, 0)]
    masks = _node_edge_masks(g)
    best: dict[int, int] = {}
    ind = 0
    side = 0
    best[0] = 0
    # Gray-code walk over subsets of nodes 1..n-1
    for t in range(1, 1 << (n - 1)):
        bit = (t & -t).bit_length() - 1  # node bit+1 flips
        side ^= 1 << (bit + 1)
        ind ^= masks[bit + 1]
        prev = best.get(ind)
        if prev is None or side < prev:
            best[ind] = side
    return [Cut(s, i) for i, s in sorted(best.items(), key=lambda kv: kv[1])]


def cut_vectors(g: Graph) -> list[tuple[int, ...]]:
    """Indicator vectors of all distinct cuts as 0/1 tuples."""
    m = len(g.edges)
    return [c.vector(m) for c in enumerate_cuts(g)]
