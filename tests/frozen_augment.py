"""The SPR-tree augmentation as it stood before it shared untouched skeletons.

A frozen copy kept as a differential oracle: every skeleton is copied
into a dict of lists, the copies are mutated, each subdivided tree edge
is removed from a list, every `SkeletonNode` is rebuilt, and node ids
are renumbered 0..N-1 in id order.
`cutpoly.spqr.augment_with_parallel_originals` must return an equal
graph and a `repr`-identical tree on every tree whose ids are already
0..N-1.
"""

from __future__ import annotations

from cutpoly.graphs import Graph
from cutpoly.spqr import SkelEdge, SkeletonNode, SprTree


def augment(g: Graph, t: SprTree) -> tuple[Graph, SprTree]:
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
