"""Planarity testing, combinatorial embeddings, faces and dual graphs.

The embedding is the Demoucron-Malgrange-Pertuiset face/fragment method,
made incremental: from a cycle, route fragment paths through admissible
faces; each step splits only the routed fragment into its remaining pieces
and re-tests only the fragments that listed the face it split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import (CertificationError, Graph, GraphError, blocks,
                     compact_graph, initial_cycle, masked_cut_nodes)


class DisconnectedError(GraphError):
    """planar_embed requires a connected input."""


@dataclass(frozen=True)
class Embedding:
    """Rotation system of a planar graph, with its faces.

    rotation[v] lists the edge indices around v in cyclic order.  The faces
    are walked once, when the embedding is built: `faces` holds each face
    boundary as a walk of darts (u, v), and `face_of_dart` maps every dart
    to its face id.  Both name nodes, not edge indices, so they stay valid
    when the rotation is re-indexed to another numbering of the same node
    pairs.
    """
    graph: Graph
    rotation: tuple[tuple[int, ...], ...]
    faces: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False)
    face_of_dart: dict[tuple[int, int], int] = field(repr=False,
                                                     compare=False)

    @property
    def face_count(self) -> int:
        return len(self.faces)


@dataclass(frozen=True)
class DualGraph:
    """One node per face; one edge per primal edge (parallels and loops
    allowed), each carrying its primal edge index and weight."""
    node_count: int
    edges: tuple[tuple[int, int, int, int], ...]  # (face_a, face_b, primal_index, weight)


def _embed_biconnected(g: Graph) -> list[list[int]] | None:
    """Oriented face cycles of a 2-connected planar graph, else None.

    Faces are vertex cycles; across all faces every directed edge occurs
    exactly once.  Each step routes a path of one fragment through one of
    its admissible faces: the first fragment, in (attachments, edges)
    order, with a single admissible face, else the first fragment and its
    lowest admissible face id.  A fragment without an admissible face
    means g is non-planar.
    """
    cycle = initial_cycle(g)
    faces: list[list[int]] = [list(cycle), list(reversed(cycle))]
    face_sets = [set(cycle), set(cycle)]
    h_nodes = set(cycle)
    # live fragments, keyed (attachments, edges): admissible face ids and
    # inner nodes (the fragment's nodes outside H)
    admissible: dict[tuple, set[int]] = {}
    inner: dict[tuple, set[int]] = {}

    def add_fragments(edge_ids, free: set[int], fids) -> None:
        """Register the fragments formed by the given unembedded edges and
        non-H nodes, with their admissible faces among `fids`."""
        new = [((g.edges[i][:2], (i,)), set()) for i in edge_ids
               if h_nodes.issuperset(g.edges[i][:2])]
        while free:
            comp = {free.pop()}
            stack = list(comp)
            while stack:
                for y, _i in g.neighbors(stack.pop()):
                    if y not in h_nodes and y not in comp:
                        comp.add(y)
                        stack.append(y)
            free -= comp
            att = {y for x in comp for y, _i in g.neighbors(x) if y in h_nodes}
            fedges = {i for x in comp for _y, i in g.neighbors(x)}
            new.append(((tuple(sorted(att)), tuple(sorted(fedges))), comp))
        for key, comp in new:
            inner[key] = comp
            admissible[key] = {f for f in fids
                               if face_sets[f].issuperset(key[0])}

    cycle_edges = {g.edge_index(x, y)
                   for x, y in zip(cycle, cycle[1:] + cycle[:1])}
    add_fragments([i for i in range(len(g.edges)) if i not in cycle_edges],
                  set(range(g.node_count)) - h_nodes, (0, 1))
    while admissible:
        if not all(admissible.values()):
            return None  # a fragment that fits no face
        singles = [key for key, adm in admissible.items() if len(adm) == 1]
        key = min(singles) if singles else min(admissible)
        face_id = min(admissible.pop(key))
        att, fedges = key

        # a path through the fragment between two attachment nodes
        if len(att) < 2:
            raise CertificationError(
                "fragment of a 2-connected graph has >= 2 attachments")
        a, b = att[:2]
        fset = set(fedges)
        pred = {a: -1}
        frontier = [a]
        while b not in pred:
            if not frontier:
                raise CertificationError(
                    "fragment must connect its attachments")
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
            path.append(pred[path[-1]])  # b .. a

        ia = faces[face_id].index(a)
        face = faces[face_id][ia:] + faces[face_id][:ia]  # from a
        ib = face.index(b)
        new_id = len(faces)
        faces[face_id] = face[:ib] + path[:-1]  # a..b, then back via path
        faces.append(face[ib:] + path[:0:-1])   # b..a, then on via path
        face_sets[face_id] = set(faces[face_id])
        face_sets.append(set(faces[new_id]))
        h_nodes.update(path)

        # only the fragments that listed the split face change
        for other, adm in admissible.items():
            if face_id in adm:
                adm.discard(face_id)
                adm.update(f for f in (face_id, new_id)
                           if face_sets[f].issuperset(other[0]))
        # the rest of the fragment falls apart into pieces that each
        # attach to the path's interior, which only the two new faces hold
        used = {g.edge_index(x, y) for x, y in zip(path, path[1:])}
        add_fragments([i for i in fedges if i not in used],
                      inner.pop(key) - h_nodes, (face_id, new_id))
    return faces


def _rotation_from_faces(g: Graph,
                         faces: list[list[int]]) -> dict[int, list[int]]:
    """Neighbor rotation (as successor orbits) from oriented face cycles."""
    succ: dict[int, dict[int, int]] = {v: {} for v in range(g.node_count)}
    for f in faces:
        k = len(f)
        for j in range(k):
            u, v, w = f[j - 1], f[j], f[(j + 1) % k]
            succ[v][u] = w
    rot: dict[int, list[int]] = {}
    for v, per in succ.items():
        start = min(per)
        orbit = [start]
        while True:
            nxt = per[orbit[-1]]
            if nxt == start:
                break
            orbit.append(nxt)
        if len(orbit) != len(per):
            raise CertificationError("embedding darts at a node form one orbit")
        rot[v] = orbit
    return rot


def planar_embed(g: Graph) -> Embedding | None:
    """Return a combinatorial embedding, or None if g is non-planar.

    Requires a connected graph, checked by one lowpoint sweep.  A
    2-connected graph is embedded as it is; otherwise blocks are embedded
    independently and their rotations concatenated at the cut nodes.
    """
    if g.node_count == 0:
        raise DisconnectedError("empty graph")
    cut, connected = masked_cut_nodes(g._adj, None)
    if not connected:
        raise DisconnectedError("planar_embed needs a connected graph")
    if len(g.edges) > 3 * g.node_count - 6 and g.node_count >= 3:
        return None
    rotation: list[list[int]] = [[] for _ in range(g.node_count)]
    if g.node_count >= 3 and not cut:
        parts = [(range(g.node_count), range(len(g.edges)), g)]
    else:
        parts = [(sorted(bnodes), bedges, None)
                 for bnodes, bedges in blocks(g).blocks]
    for bnodes, bedges, sub in parts:
        if len(bedges) == 1:
            u, v, _w = g.edges[bedges[0]]
            rotation[u].append(bedges[0])
            rotation[v].append(bedges[0])
            continue
        if sub is None:
            sub, _ = compact_graph(bnodes, [g.edges[i] for i in bedges])
        faces = _embed_biconnected(sub)
        if faces is None:
            return None
        for sv, orbit in _rotation_from_faces(sub, faces).items():
            rotation[bnodes[sv]].extend(bedges[sub.edge_index(sv, su)]
                                        for su in orbit)
    frozen = tuple(tuple(r) for r in rotation)
    return Embedding(g, frozen, *_face_walks(g, frozen))


def _other(g: Graph, edge_index: int, v: int) -> int:
    u, w, _ = g.edges[edge_index]
    return w if u == v else u


def _face_walks(g: Graph, rotation: tuple[tuple[int, ...], ...]
                ) -> tuple[tuple[tuple[tuple[int, int], ...], ...],
                           dict[tuple[int, int], int]]:
    """Traverse all faces of a rotation system of the connected graph g;
    return (dart walks, dart -> face id map).

    Traversal starts from the lexicographically smallest unused dart, so
    face ids are deterministic.  The face count must satisfy Euler's
    formula f = m - n + 2, which certifies the rotation system as a
    planar (genus 0) embedding.
    """
    pos: dict[tuple[int, int], int] = {}
    for v, orbit in enumerate(rotation):
        for j, i in enumerate(orbit):
            pos[(v, _other(g, i, v))] = j
    all_darts = sorted(d for u, v, _w in g.edges for d in ((u, v), (v, u)))
    walks: list[tuple[tuple[int, int], ...]] = []
    face_of_dart: dict[tuple[int, int], int] = {}
    for start in all_darts:
        if start in face_of_dart:
            continue
        fid = len(walks)
        walk: list[tuple[int, int]] = []
        u, v = start
        while (dart := (u, v)) not in face_of_dart:
            face_of_dart[dart] = fid
            walk.append(dart)
            orbit = rotation[v]
            nxt = orbit[(pos[(v, u)] + 1) % len(orbit)]
            u, v = v, _other(g, nxt, v)
        walks.append(tuple(walk))
    if not walks:
        walks = [()]  # single node: one (outer) face
    if len(walks) != len(g.edges) - g.node_count + 2:
        raise CertificationError(
            "face count breaks Euler's formula f = m - n + 2")
    return tuple(walks), face_of_dart


def faces_of(emb: Embedding) -> list[list[int]]:
    """Face boundary walks as edge-index lists; each directed edge used once."""
    g = emb.graph
    return [[g.edge_index(u, v) for u, v in face] for face in emb.faces]


def dual_graph(emb: Embedding) -> DualGraph:
    """Dual graph of an embedding: a node per face, an edge per primal edge.

    A bridge shows up as a self-loop; parallel dual edges are normal.
    """
    face_of_dart = emb.face_of_dart
    return DualGraph(emb.face_count, tuple(
        (face_of_dart[(u, v)], face_of_dart[(v, u)], i, w)
        for i, (u, v, w) in enumerate(emb.graph.edges)))
