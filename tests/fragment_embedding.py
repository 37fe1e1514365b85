"""The face/fragment embedding as it stood before it became incremental.

A frozen copy kept as a differential oracle: every step recomputes all
fragments of G relative to the embedded subgraph and the admissible faces
of each, so `cutpoly.planar._embed_biconnected` must return the very same
face lists (and None exactly when this does).
"""

from __future__ import annotations

from cutpoly import Graph
from cutpoly.graphs import initial_cycle


def embed_biconnected(g: Graph) -> list[list[int]] | None:
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
