"""Planarity testing, combinatorial embeddings, faces and dual graphs.

The embedding algorithm is the classic incremental face/fragment method:
start from a cycle, repeatedly pick a fragment of the remaining graph and
route one of its paths through an admissible face.  Quadratic, exact, and
it produces a rotation system; that is all the solvers need at this scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (Graph, GraphError, blocks, compact_graph, initial_cycle,
                     is_connected)


class DisconnectedError(GraphError):
    """planar_embed requires a connected input."""


@dataclass(frozen=True)
class Embedding:
    """Rotation system of a planar graph.

    rotation[v] lists the edge indices around v in cyclic order; faces are
    recovered by the usual next-dart traversal.
    """
    graph: Graph
    rotation: tuple[tuple[int, ...], ...]
    face_count: int


@dataclass(frozen=True)
class DualGraph:
    """One node per face; one edge per primal edge (parallels and loops
    allowed), each carrying its primal edge index and weight."""
    node_count: int
    edges: tuple[tuple[int, int, int, int], ...]  # (face_a, face_b, primal_index, weight)


def _embed_biconnected(g: Graph) -> list[list[int]] | None:
    """Oriented face cycles of a 2-connected planar graph, else None.

    Faces are vertex cycles; across all faces every directed edge occurs
    exactly once.
    """
    cycle = initial_cycle(g)
    faces: list[list[int]] = [list(cycle), list(reversed(cycle))]
    embedded = {g.edge_index(cycle[i], cycle[(i + 1) % len(cycle)])
                for i in range(len(cycle))}
    h_nodes = set(cycle)

    while len(embedded) < len(g.edges):
        # fragments of G relative to the embedded subgraph H
        fragments: list[tuple[tuple[int, ...], list[int]]] = []  # (attachments, edges)
        for i, (u, v, _w) in enumerate(g.edges):
            if i in embedded:
                continue
            if u in h_nodes and v in h_nodes:
                fragments.append(((min(u, v), max(u, v)), [i]))
        visited = set()
        for s in range(g.node_count):
            if s in h_nodes or s in visited:
                continue
            comp = {s}
            stack = [s]
            while stack:
                x = stack.pop()
                for y, _i in g.neighbors(x):
                    if y not in h_nodes and y not in comp:
                        comp.add(y)
                        stack.append(y)
            visited |= comp
            att = set()
            fedges = []
            for i, (u, v, _w) in enumerate(g.edges):
                if u in comp or v in comp:
                    fedges.append(i)
                    if u in h_nodes:
                        att.add(u)
                    if v in h_nodes:
                        att.add(v)
            fragments.append((tuple(sorted(att)), sorted(fedges)))
        fragments.sort()

        # admissible faces per fragment
        choice = None
        for att, fedges in fragments:
            admissible = [fi for fi, f in enumerate(faces)
                          if set(att) <= set(f)]
            if not admissible:
                return None
            if choice is None or (len(admissible) == 1 and choice[2] > 1):
                choice = (att, fedges, len(admissible), admissible[0])
            if len(admissible) == 1:
                break
        assert choice is not None
        att, fedges, _k, face_id = choice

        # a path through the fragment between two attachment nodes
        a, b = att[0], att[1] if len(att) > 1 else att[0]
        assert a != b, "fragment of a 2-connected graph has >= 2 attachments"
        fset = set(fedges)
        pred = {a: -1}
        frontier = [a]
        while b not in pred:
            assert frontier, "fragment must connect its attachments"
            nxt = []
            for x in frontier:
                for y, i in g.neighbors(x):
                    if i not in fset or y in pred:
                        continue
                    if y in h_nodes and y != b:
                        continue  # paths may only touch H at the endpoints
                    pred[y] = x
                    nxt.append(y)
            frontier = nxt
        path = [b]
        while path[-1] != a:
            path.append(pred[path[-1]])
        path.reverse()  # a .. b

        face = faces[face_id]
        ia, ib = face.index(a), face.index(b)
        if ia < ib:
            arc1 = face[ia:ib + 1]          # a .. b along the face
            arc2 = face[ib:] + face[:ia + 1]  # b .. a along the face
        else:
            arc1 = face[ia:] + face[:ib + 1]
            arc2 = face[ib:ia + 1]
        interior = path[1:-1]
        new1 = arc1[:-1] + list(reversed(path))[:-1]  # a..b then b..a via path
        new2 = arc2[:-1] + path[:-1]                  # b..a then a..b via path
        faces[face_id] = new1
        faces.append(new2)
        for i in range(len(path) - 1):
            embedded.add(g.edge_index(path[i], path[i + 1]))
        h_nodes.update(interior)
    return faces


def _rotation_from_faces(g: Graph, nodes: set[int],
                         faces: list[list[int]]) -> dict[int, list[int]]:
    """Neighbor rotation (as successor orbits) from oriented face cycles."""
    succ: dict[int, dict[int, int]] = {v: {} for v in nodes}
    for f in faces:
        k = len(f)
        for j in range(k):
            u, v, w = f[j - 1], f[j], f[(j + 1) % k]
            succ[v][u] = w
    rot: dict[int, list[int]] = {}
    for v in nodes:
        per = succ[v]
        start = min(per)
        orbit = [start]
        while True:
            nxt = per[orbit[-1]]
            if nxt == start:
                break
            orbit.append(nxt)
        assert len(orbit) == len(per), "embedding darts at a node form one orbit"
        rot[v] = orbit
    return rot


def planar_embed(g: Graph) -> Embedding | None:
    """Return a combinatorial embedding, or None if g is non-planar.

    Requires a connected graph.  Blocks are embedded independently and
    their rotations concatenated at the cut nodes.
    """
    if g.node_count == 0:
        raise DisconnectedError("empty graph")
    if not is_connected(g):
        raise DisconnectedError("planar_embed needs a connected graph")
    if len(g.edges) > 3 * g.node_count - 6 and g.node_count >= 3:
        return None
    rotation: list[list[int]] = [[] for _ in range(g.node_count)]
    for bnodes, bedges in blocks(g).blocks:
        if len(bedges) == 1:
            u, v, _w = g.edges[bedges[0]]
            rotation[u].append(bedges[0])
            rotation[v].append(bedges[0])
            continue
        sub, to_sub = compact_graph(sorted(bnodes), [g.edges[i] for i in bedges])
        faces = _embed_biconnected(sub)
        if faces is None:
            return None
        back = {i: v for v, i in to_sub.items()}
        rot = _rotation_from_faces(sub, set(range(sub.node_count)), faces)
        for sv, orbit in rot.items():
            v = back[sv]
            rotation[v].extend(bedges[sub.edge_index(sv, su)]
                               for su in orbit)
    emb = Embedding(g, tuple(tuple(r) for r in rotation), 0)
    fcount = len(faces_of(emb))
    return Embedding(g, emb.rotation, fcount)


def _other(g: Graph, edge_index: int, v: int) -> int:
    u, w, _ = g.edges[edge_index]
    return w if u == v else u


def _face_walks(emb: Embedding) -> tuple[list[list[int]], dict[tuple[int, int], int]]:
    """Traverse all faces; return (edge-index walks, dart -> face id map).

    Traversal starts from the lexicographically smallest unused dart, so
    face ids are deterministic.
    """
    g = emb.graph
    pos: dict[tuple[int, int], int] = {}
    for v, orbit in enumerate(emb.rotation):
        for j, i in enumerate(orbit):
            pos[(v, _other(g, i, v))] = j
    all_darts = sorted(d for u, v, _w in g.edges for d in ((u, v), (v, u)))
    used: set[tuple[int, int]] = set()
    walks: list[list[int]] = []
    face_of_dart: dict[tuple[int, int], int] = {}
    for start in all_darts:
        if start in used:
            continue
        fid = len(walks)
        walk: list[int] = []
        u, v = start
        while (u, v) not in used:
            used.add((u, v))
            face_of_dart[(u, v)] = fid
            walk.append(g.edge_index(u, v))
            orbit = emb.rotation[v]
            nxt = orbit[(pos[(v, u)] + 1) % len(orbit)]
            u, v = v, _other(g, nxt, v)
        walks.append(walk)
    if not walks:
        walks = [[]]  # single node: one (outer) face
    return walks, face_of_dart


def faces_of(emb: Embedding) -> list[list[int]]:
    """Face boundary walks as edge-index lists; each directed edge used once."""
    return _face_walks(emb)[0]


def dual_graph(emb: Embedding) -> DualGraph:
    """Dual graph of an embedding: a node per face, an edge per primal edge.

    A bridge shows up as a self-loop; parallel dual edges are normal.
    """
    g = emb.graph
    walks, face_of_dart = _face_walks(emb)
    dual_edges = []
    for i, (u, v, w) in enumerate(g.edges):
        dual_edges.append((face_of_dart[(u, v)], face_of_dart[(v, u)], i, w))
    return DualGraph(len(walks), tuple(dual_edges))
