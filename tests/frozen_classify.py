"""The final-component test as it stood before shape certificates.

A frozen copy kept as a differential oracle: a component is R only when a
sweep shows G and every G-v connected and cut-node free, whatever its
shape.  `cutpoly.spqr._classify` in its place must give the same trees.
"""

from __future__ import annotations


def classify(nodes, edges, cuts) -> str | None:
    """'P', 'S', 'R' or None (must split further); `cuts` is the
    component's sweep, cuts(v) = (cut nodes of G-v, G-v connected)."""
    if len(nodes) == 2:
        return "P"
    if len({(min(u, v), max(u, v)) for u, v, _t in edges}) < len(edges):
        return None
    if cuts(None) != (set(), True):
        return None
    if len(edges) == len(nodes):
        return "S"
    if len(nodes) > 3 and all(cuts(v) == (set(), True) for v in nodes):
        return "R"
    return None
