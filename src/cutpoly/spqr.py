"""3-connectivity decomposition (SPR-tree) via recursive Tutte splits.

Skeletons are S (cycles), P (two nodes with >= 3 parallel edges) and R
(simple 3-connected graphs), linked in a tree by paired virtual edges.
Construction splits at split pairs until every piece is a bond, a cycle
or 3-connected, then merges adjacent same-kind S/P nodes; the result is
the canonical decomposition regardless of split order.  `decompose_blocks`
builds it once per block of a graph, with the class of each R skeleton,
for the minor tests, the MaxCut solver and the facet code to share.

A component is 3-connected by its shape alone when it is one of the two
piece types of K33-minor-free graphs: K5-shaped (5 nodes, 10 edges, so
complete), or triangulation-shaped (m = 3n - 6) with a planar embedding,
so maximal planar and 3-connected (Whitney).  Such a component needs no
sweep of any G-v, and the embedding that certified it is the skeleton's
only one.  Every other shape is tested by sweeping each G-v.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

from .graphs import (CertificationError, Graph, GraphError,
                     NotTwoConnectedError, blocks, compact_graph,
                     disjoint_sets, is_connected, is_k_connected,
                     masked_cut_nodes)
from . import planar as planar_mod


@dataclass(frozen=True)
class SkelEdge:
    """Skeleton edge: original (ref = edge index of G) or virtual (ref =
    pair id shared by exactly two skeletons)."""
    u: int
    v: int
    kind: str  # "orig" | "virt"
    ref: int
    weight: int = 0

    def endpoints(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


@dataclass(frozen=True)
class SkeletonNode:
    id: int
    kind: str  # "S" | "P" | "R"
    nodes: tuple[int, ...]
    edges: tuple[SkelEdge, ...]

    def virtuals(self) -> tuple[SkelEdge, ...]:
        return tuple(e for e in self.edges if e.kind == "virt")

    def originals(self) -> tuple[SkelEdge, ...]:
        return tuple(e for e in self.edges if e.kind == "orig")


@dataclass(frozen=True)
class SprTree:
    nodes: tuple[SkeletonNode, ...]
    tree_edges: tuple[tuple[int, int, int], ...]  # (node_id, node_id, pair_id)

    def node(self, i: int) -> SkeletonNode:
        return self.nodes[i]


# decomposition works on lists of (u, v, tag) with tag ("orig", idx, weight)
# or ("virt", pair_id); a final component is (kind, nodes, edges, `_Sweep`)

def _skeleton_order(edge: tuple[int, int, tuple]) -> tuple[bool, int]:
    """Edge order of a skeleton: originals by index, then virtuals by id."""
    return edge[2][0] != "orig", edge[2][1]


class _Sweep:
    """Connectivity oracle of one component: `cuts(v)` is (cut nodes of
    G-v, whether G-v is connected), v None for G itself.  Each answer is
    one `masked_cut_nodes` DFS over a single shared adjacency list,
    computed at most once, so the R test, the split search and the kind
    re-check of a component share them.  `embedding` is the component's
    embedding as a skeleton (edges in `_skeleton_order`), or None when it
    is non-planar, also computed at most once."""

    def __init__(self, nodes: list[int], edges: list[tuple[int, int, tuple]]):
        self.nodes, self.edges = nodes, edges
        self.index = {x: i for i, x in enumerate(nodes)}
        self.adj: list[list[tuple[int, int]]] = [[] for _ in nodes]
        for i, (a, b) in enumerate({(self.index[u], self.index[v])
                                    for u, v, _t in edges}):
            self.adj[a].append((b, i))
            self.adj[b].append((a, i))
        self._cuts: dict[int | None, tuple[set[int], bool]] = {}

    def __call__(self, v: int | None) -> tuple[set[int], bool]:
        if v not in self._cuts:
            found, connected = masked_cut_nodes(self.adj, self.index.get(v))
            self._cuts[v] = {self.nodes[c] for c in found}, connected
        return self._cuts[v]

    @functools.cached_property
    def embedding(self) -> planar_mod.Embedding | None:
        sg, _ = compact_graph(self.nodes, [
            (u, v, t[2] if t[0] == "orig" else 0)
            for u, v, t in sorted(self.edges, key=_skeleton_order)])
        return planar_mod.planar_embed(sg)

    def has_k5_at_degree_4(self) -> bool:
        """Whether some node of degree 4 has pairwise adjacent neighbors:
        a K5 subgraph, so the component is not planar."""
        nbrs = [{y for y, _i in a} for a in self.adj]
        return any(len(ns) == 4 and all(nbrs[x] >= ns - {x} for x in ns)
                   for ns in nbrs)


def _shape_certified(n: int, m: int, cuts: _Sweep) -> bool:
    """Whether a simple 2-connected component with n >= 4 nodes and m
    edges is 3-connected by its shape alone: K5-shaped (complete, so
    4-connected), or triangulation-shaped (m = 3n - 6) with an embedding,
    so maximal planar and 3-connected by Whitney's theorem.  A component
    that shows a K5 at a degree-4 node is not planar, so it is not
    embedded."""
    if n == 5 and m == 10:
        return True
    return (m == 3 * n - 6 and not cuts.has_k5_at_degree_4()
            and cuts.embedding is not None)


def _classify(nodes: list[int], edges: list[tuple[int, int, tuple]],
              cuts: _Sweep) -> str | None:
    """Final-component test: 'P', 'S', 'R' or None (must split further).

    Every component is 2-connected: the input block is (its caller proves
    that once), and a Tutte split keeps both sides 2-connected.  So a
    simple component with as many edges as nodes is a cycle, and one on
    n >= 4 nodes is R when its shape certifies it or else when every G-v
    is connected and cut-node free (one sweep of `cuts` per node)."""
    if len(nodes) == 2:
        return "P"
    if len({(min(u, v), max(u, v)) for u, v, _t in edges}) < len(edges):
        return None  # parallel edges on >= 3 nodes: split at that pair
    n, m = len(nodes), len(edges)
    if m == n:
        return "S"
    if n > 3 and (_shape_certified(n, m, cuts)
                  or all(cuts(v) == (set(), True) for v in nodes)):
        return "R"
    return None


def _split_classes(edges: list[tuple[int, int, tuple]],
                   v: int, w: int) -> list[list[int]]:
    """Split classes of pair {v, w}: edge-index groups connected through
    internal nodes outside {v, w}.  Each parallel v-w edge is a singleton."""
    first_edge: dict[int, int] = {}
    pairs = []
    for i, (a, b, _t) in enumerate(edges):
        for x in (a, b):
            if x not in (v, w):
                pairs.append((first_edge.setdefault(x, i), i))
    return disjoint_sets(len(edges), pairs)


def _find_split(nodes: list[int], edges: list[tuple[int, int, tuple]], cuts):
    """A split pair with a bipartition of its classes, both sides >= 2 edges.

    Pairs are tried in lexicographic order; only the partners below can
    succeed, so the first split found is the same as in a scan over all
    pairs.
    """
    for v in sorted(nodes):
        # partners w > v that can form a split pair with v: the cut nodes
        # of G-v (then G-{v, w} is disconnected, giving two classes of >= 2
        # edges) and the nodes joined to v by parallel edges (two singleton
        # classes)
        partners = Counter(b if a == v else a for a, b, _t in edges if v in (a, b))
        found = cuts(v)[0] | {w for w, c in partners.items() if c >= 2}
        for w in sorted(w for w in found if w > v):
            classes = _split_classes(edges, v, w)
            singles = [c for c in classes if len(c) == 1]
            bigs = [c for c in classes if len(c) >= 2]
            if len(bigs) >= 2:
                side_a = bigs[0]
            elif len(singles) >= 2:
                side_a = [i for c in singles for i in c]
            else:
                continue
            taken = set(side_a)
            rest = [i for i in range(len(edges)) if i not in taken]
            if len(rest) >= 2:
                return v, w, side_a, rest
    return None


def _decompose(nodes: list[int], edges: list[tuple[int, int, tuple]],
               next_pid: list[int]) -> list[tuple]:
    cuts = _Sweep(nodes, edges)
    kind = _classify(nodes, edges, cuts)
    if kind is not None:
        return [(kind, nodes, edges, cuts)]
    found = _find_split(nodes, edges, cuts)
    if found is None:
        raise CertificationError("non-final component must have a split pair")
    v, w, side_a, side_b = found
    pid = next_pid[0]
    next_pid[0] += 1
    out = []
    for side in (side_a, side_b):
        sedges = [edges[i] for i in side] + [(v, w, ("virt", pid))]
        snodes = sorted({x for a, b, _t in sedges for x in (a, b)})
        out.extend(_decompose(snodes, sedges, next_pid))
    return out


def _merge_same_kind(comps: list[tuple]):
    """Merge adjacent S-S and P-P components along their shared pair id."""
    while True:
        owner: dict[int, list[int]] = {}
        for ci, (_k, _n, es, _c) in enumerate(comps):
            for _u, _v, t in es:
                if t[0] == "virt":
                    owner.setdefault(t[1], []).append(ci)
        todo = None
        for pid, cs in sorted(owner.items()):
            _check_pair(cs)
            a, b = cs
            if a != b and comps[a][0] == comps[b][0] and comps[a][0] in ("S", "P"):
                todo = (pid, a, b)
                break
        if todo is None:
            return comps
        pid, a, b = todo
        (ka, na, ea, _ca), (_kb, nb, eb, _cb) = comps[a], comps[b]
        merged_edges = [e for e in ea + eb if e[2] != ("virt", pid)]
        merged_nodes = sorted(set(na) | set(nb))
        comps = [c for i, c in enumerate(comps) if i not in (a, b)]
        comps.append((ka, merged_nodes, merged_edges,
                      _Sweep(merged_nodes, merged_edges)))


def spr_tree(g: Graph) -> SprTree:
    """Canonical SPR-tree of a 2-connected graph with >= 3 edges."""
    if not is_k_connected(g, 2):
        raise NotTwoConnectedError("spr_tree needs a 2-connected graph")
    if len(g.edges) < 3:
        raise GraphError("spr_tree needs at least 3 edges")
    return _spr_tree(g)[0]


def _spr_tree(g: Graph) -> tuple[SprTree, tuple[_Sweep, ...]]:
    """`spr_tree` of a graph already known to be 2-connected with >= 3
    edges, with the `_Sweep` of each skeleton, indexed by node id."""
    edges = [(u, v, ("orig", i, w)) for i, (u, v, w) in enumerate(g.edges)]
    comps = _decompose(sorted(range(g.node_count)), edges, [0])
    comps = _merge_same_kind(comps)
    return _build_tree(g, comps)


def _build_tree(g: Graph,
                comps: list[tuple]) -> tuple[SprTree, tuple[_Sweep, ...]]:
    # deterministic node ids: sort by (smallest original ref, kind, nodes)
    def sort_key(comp):
        kind, nodes, edges, _cuts = comp
        origs = sorted(t[1] for _u, _v, t in edges if t[0] == "orig")
        return (origs[0] if origs else len(g.edges), kind, tuple(nodes))

    comps = sorted(comps, key=sort_key)
    skel_nodes = []
    owner: dict[int, list[int]] = {}
    for i, (kind, nodes, edges, cuts) in enumerate(comps):
        skel_edges = []
        for u, v, t in sorted(edges, key=_skeleton_order):
            if t[0] == "orig":
                skel_edges.append(SkelEdge(u, v, "orig", t[1], t[2]))
            else:
                skel_edges.append(SkelEdge(u, v, "virt", t[1], 0))
                owner.setdefault(t[1], []).append(i)
        # re-derive and check the kind (on the component's own sweep and
        # embedding)
        check = _classify(list(nodes), [(e.u, e.v, None) for e in skel_edges],
                          cuts)
        if check != kind:
            raise CertificationError(f"skeleton kind drift: {check} != {kind}")
        skel_nodes.append(SkeletonNode(i, kind, tuple(nodes), tuple(skel_edges)))
    tree_edges = []
    for pid, cs in sorted(owner.items()):
        _check_pair(cs)
        a, b = sorted(cs)
        if skel_nodes[a].kind == skel_nodes[b].kind in ("S", "P"):
            raise CertificationError("same-kind adjacency")
        tree_edges.append((a, b, pid))
    return (SprTree(tuple(skel_nodes), tuple(tree_edges)),
            tuple(cuts for _k, _n, _e, cuts in comps))


def _check_pair(owners: list[int]) -> None:
    if len(owners) != 2:
        raise CertificationError(
            "virtual pair id must occur in exactly two skeletons")


def recompose(t: SprTree, node_count: int) -> Graph:
    """Rebuild the graph by 2-summing all skeletons: virtual pairs cancel,
    original edges (with weights) reappear at their original indices."""
    edge_map: dict[int, tuple[int, int, int]] = {}
    for sn in t.nodes:
        for e in sn.edges:
            if e.kind == "orig":
                if e.ref in edge_map:
                    raise CertificationError("original edge in two skeletons")
                edge_map[e.ref] = (e.u, e.v, e.weight)
    if sorted(edge_map) != list(range(len(edge_map))):
        raise CertificationError("missing edge index")
    return Graph(node_count, [edge_map[i] for i in range(len(edge_map))])


def augment_with_parallel_originals(g: Graph, t: SprTree) -> tuple[Graph, SprTree]:
    """Insert weight-0 original edges so every virtual edge has a parallel
    original: all-virtual P skeletons gain one, in node order, and then
    every tree edge between two non-P nodes, in sorted order, is
    subdivided by a fresh P node carrying one.  The first step of
    `maximal_completion`."""
    new_edges = list(g.edges)
    skels: dict[int, dict] = {
        sn.id: {"kind": sn.kind, "nodes": list(sn.nodes), "edges": list(sn.edges)}
        for sn in t.nodes}
    tree_edges = list(t.tree_edges)
    next_id = max(skels) + 1 if skels else 0
    next_pid = max((pid for _a, _b, pid in tree_edges), default=-1) + 1

    for sid in sorted(skels):
        sk = skels[sid]
        if sk["kind"] == "P" and not any(e.kind == "orig" for e in sk["edges"]):
            a, b = sk["nodes"][0], sk["nodes"][1]
            if a > b:
                a, b = b, a
            idx = len(new_edges)
            new_edges.append((a, b, 0))
            sk["edges"].append(SkelEdge(a, b, "orig", idx, 0))

    for a, b, pid in sorted(tree_edges):
        if skels[a]["kind"] == "P" or skels[b]["kind"] == "P":
            continue
        ea = next(e for e in skels[a]["edges"] if e.kind == "virt" and e.ref == pid)
        u, v = ea.endpoints()
        idx = len(new_edges)
        new_edges.append((u, v, 0))
        pid_a, pid_b = next_pid, next_pid + 1
        next_pid += 2
        skels[a]["edges"] = [
            SkelEdge(e.u, e.v, "virt", pid_a, 0) if e.kind == "virt" and e.ref == pid else e
            for e in skels[a]["edges"]]
        skels[b]["edges"] = [
            SkelEdge(e.u, e.v, "virt", pid_b, 0) if e.kind == "virt" and e.ref == pid else e
            for e in skels[b]["edges"]]
        skels[next_id] = {"kind": "P", "nodes": [u, v], "edges": [
            SkelEdge(u, v, "orig", idx, 0),
            SkelEdge(u, v, "virt", pid_a, 0),
            SkelEdge(u, v, "virt", pid_b, 0)]}
        tree_edges.remove((a, b, pid))
        tree_edges.append((min(a, next_id), max(a, next_id), pid_a))
        tree_edges.append((min(b, next_id), max(b, next_id), pid_b))
        next_id += 1

    new_g = Graph(g.node_count, new_edges)
    nodes = tuple(SkeletonNode(i, skels[i]["kind"], tuple(skels[i]["nodes"]),
                               tuple(skels[i]["edges"]))
                  for i in sorted(skels))
    remap = {sn.id: k for k, sn in enumerate(nodes)}
    nodes = tuple(SkeletonNode(remap[sn.id], sn.kind, sn.nodes, sn.edges)
                  for sn in nodes)
    tes = tuple(sorted((min(remap[a], remap[b]), max(remap[a], remap[b]), pid)
                       for a, b, pid in tree_edges))
    return new_g, SprTree(nodes, tes)


# -- one decomposition per block ----------------------------------------------

def _skeleton_graph(sn: SkeletonNode) -> tuple[Graph, dict[int, int]]:
    """Skeleton as a simple Graph (virtual edges treated as real, weight 0)."""
    return compact_graph(sn.nodes, [(e.u, e.v, e.weight) for e in sn.edges])


def _classify_r_skeleton(sn: SkeletonNode, sweep: _Sweep
                         ) -> tuple[str, planar_mod.Embedding | None]:
    """Class of an R skeleton, with the embedding of `_skeleton_graph(sn)`
    that shows it planar (None for K5 and non-planar skeletons).  The
    embedding is the one its component's shape certificate built, if it
    built one."""
    n, m = len(sn.nodes), len(sn.edges)
    if n == 5 and m == 10:
        return "K5", None
    emb = sweep.embedding
    if emb is None:
        return "NonPlanar", None
    if m == 3 * n - 6:
        return "PlanarTriangulation", emb
    return "Planar", emb


@dataclass(frozen=True)
class Block:
    """One block of a graph, decomposed once for every consumer.

    `graph` is the block on nodes 0..k-1: its node i is node `nodes[i]` of
    the graph and its edge j is edge `edges[j]`.  `tree` is its SPR-tree
    (None for a single-edge block) and `r_skeletons` maps each R skeleton
    id to `_classify_r_skeleton`'s class and embedding.
    """
    nodes: tuple[int, ...]
    edges: tuple[int, ...]
    graph: Graph
    tree: SprTree | None
    r_skeletons: dict[int, tuple[str, planar_mod.Embedding | None]]

    def relabel(self, sn: SkeletonNode) -> SkeletonNode:
        """Skeleton `sn` of the tree in the graph's node labels and edge
        indices."""
        edges = tuple(SkelEdge(self.nodes[e.u], self.nodes[e.v], e.kind,
                               self.edges[e.ref] if e.kind == "orig" else e.ref,
                               e.weight)
                      for e in sn.edges)
        return SkeletonNode(sn.id, sn.kind,
                            tuple(self.nodes[v] for v in sn.nodes), edges)

    @property
    def witness(self) -> SkeletonNode | None:
        """The first non-planar, non-K5 R skeleton (it carries a K33
        minor), relabelled; None when the block is K33-minor-free."""
        sid = next((sid for sid, (cls, _emb) in self.r_skeletons.items()
                    if cls == "NonPlanar"), None)
        return None if sid is None else self.relabel(self.tree.node(sid))


def decompose_blocks(g: Graph) -> tuple[Block, ...]:
    """Every block of g, in the order of `blocks(g)`, with its SPR-tree
    and the class and embedding of each R skeleton."""
    out = []
    for bnodes, bedges in blocks(g).blocks:
        nodes = tuple(sorted(bnodes))
        sub, _ = compact_graph(nodes, [g.edges[i] for i in bedges])
        # a block of >= 3 edges is 2-connected, so it skips spr_tree's check
        tree, sweeps = _spr_tree(sub) if len(bedges) >= 3 else (None, ())
        r_skeletons = {sn.id: _classify_r_skeleton(sn, sweeps[sn.id])
                       for sn in (tree.nodes if tree else ()) if sn.kind == "R"}
        out.append(Block(nodes, bedges, sub, tree, r_skeletons))
    return tuple(out)


def _first_witness(decomposition: tuple[Block, ...]) -> SkeletonNode | None:
    """The witness of the first block that has one."""
    return next((w for b in decomposition if (w := b.witness) is not None),
                None)


# -- K33-minor-free classification ------------------------------------------

@dataclass(frozen=True)
class K33Decomposition:
    is_k33_minor_free: bool
    components: tuple[tuple[SkeletonNode, str], ...]  # skeleton, class label
    is_maximal: bool
    witness: SkeletonNode | None  # a non-planar, non-K5 R-component, if any


def k33_decompose(g: Graph) -> K33Decomposition:
    """Classify every S/R component; decide K33-minor-freeness and whether
    the graph is a strict 2-sum of planar triangulations and K5s.

    Reported skeletons use g's node labels and edge indices.
    """
    decomposition = decompose_blocks(g)
    comps = tuple((b.relabel(sn),
                   "Cycle" if sn.kind == "S" else b.r_skeletons[sn.id][0])
                  for b in decomposition if b.tree
                  for sn in b.tree.nodes if sn.kind != "P")
    witness = _first_witness(decomposition)
    if not is_connected(g) or len(decomposition) > 1:
        maximal = False  # a cut node always admits a safe new edge
    elif not decomposition or decomposition[0].tree is None:
        maximal = True  # K1 / K2: nothing can be added
    else:
        maximal = witness is None and not _completion(decomposition[0])[0]
    return K33Decomposition(witness is None, comps, maximal, witness)


class K33MinorError(GraphError):
    """Raised when an operation requires a K33-minor-free input."""

    def __init__(self, message: str, witness: SkeletonNode | None = None):
        super().__init__(message)
        self.witness = witness


def maximal_completion(g: Graph) -> tuple[Graph, list[tuple[int, int]]]:
    """Extend a connected K33-minor-free graph to a maximal one.

    Blocks are first joined at cut nodes, one edge at a time, until the
    graph is 2-connected.  The rest is added in one pass over the SPR-tree
    of that block (`_completion`), in this order: the pair of every P
    skeleton without an original edge and the pair of every tree edge
    between two non-P skeletons (`augment_with_parallel_originals`);
    then, skeleton by skeleton in tree order, a fan from the minimum node
    of every S cycle with >= 4 nodes, and a fan from the first node of
    every face longer than 3 of every planar R skeleton.  Returns the completed graph and the list of added node
    pairs, in insertion order.
    """
    if not is_connected(g):
        raise GraphError("maximal_completion needs a connected graph")
    decomposition = decompose_blocks(g)
    witness = _first_witness(decomposition)
    if witness is not None:
        raise K33MinorError("input has a K33 minor", witness)
    h = g
    added: list[tuple[int, int]] = []
    while (bd := blocks(h)).cut_nodes:
        c = min(bd.cut_nodes)
        w1, w2 = [min(u + v - c for u, v, _w in (h.edges[i] for i in bedges)
                      if c in (u, v))
                  for bnodes, bedges in bd.blocks if c in bnodes][:2]
        h = h.with_edge(w1, w2, 0)
        added.append((min(w1, w2), max(w1, w2)))
    if added:
        decomposition = decompose_blocks(h)
    if decomposition and decomposition[0].tree:
        (block,) = decomposition
        more = [(block.nodes[u], block.nodes[v])
                for u, v in _completion(block)[0]]
        h = Graph(h.node_count, list(h.edges) + [(u, v, 0) for u, v in more])
        added += more
    return h, added


# a piece of a completed block: sorted node tuple, edge pairs
_Piece = tuple[tuple[int, ...], list[tuple[int, int]]]


def _completion(block: Block) -> tuple[list[tuple[int, int]], list[_Piece]]:
    """The additions of `maximal_completion` for a K33-minor-free block
    with a tree, in the block's labels and in that order; the first are
    the pairs `augment_with_parallel_originals` inserts.  They are
    distinct and new: skeletons share only virtual pairs, and faces of
    3-connected planar graphs have no chords.

    Also returns the pieces of the completed block: its triangles, planar
    triangulations and K5s, glued along real edges.
    """
    g = block.graph
    aug, _tree = augment_with_parallel_originals(g, block.tree)
    added = [e[:2] for e in aug.edges[len(g.edges):]]
    pieces = []
    for sn in block.tree.nodes:
        pairs = [e.endpoints() for e in sn.edges]
        cls, emb = block.r_skeletons.get(sn.id, (sn.kind, None))
        if sn.kind == "S" and len(sn.nodes) >= 4:
            v0, *rest = _cycle_order(sn)  # starts at the minimum node
            added += [(v0, x) for x in rest[1:-1]]
            for x, y in zip(rest, rest[1:]):
                tri = (v0, min(x, y), max(x, y))
                pieces.append((tri, [tri[:2], tri[::2], tri[1:]]))
        elif cls == "Planar":
            chords = []
            for face in emb.faces:
                walk = [sn.nodes[x] for x, _y in face]
                chords += [(min(walk[0], x), max(walk[0], x))
                           for x in walk[2:-1]]
            added += chords
            pieces.append((sn.nodes, pairs + chords))
        elif sn.kind != "P":
            pieces.append((sn.nodes, pairs))
    if len(set(added)) != len(added) or any(g.has_edge(*e) for e in added):
        raise CertificationError("completion tried to re-add an edge")
    return added, pieces


def _cycle_order(sn: SkeletonNode) -> list[int]:
    """Vertices of an S skeleton in cycle order, from its first node."""
    adj: dict[int, list[int]] = {v: [] for v in sn.nodes}
    for e in sn.edges:
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    start = sn.nodes[0]
    order = [start]
    prev = None
    while len(order) < len(sn.nodes):
        nxts = [x for x in adj[order[-1]] if x != prev]
        prev = order[-1]
        order.append(nxts[0])
    return order

