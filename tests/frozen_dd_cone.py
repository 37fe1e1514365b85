"""The double-description cone as it stood before tight sets were carried.

A frozen copy kept as a differential oracle: every new ray's tight set is
recomputed with a product over every processed row, tight sets are
frozensets, and every keep/drop pair gets the combinatorial adjacency
scan.  `cutpoly.polytope.brute_hull` must return the very same facet
lists with this in place of `polytope._dd_cone`.
"""

from __future__ import annotations

import itertools

from cutpoly import CertificationError
from cutpoly.polytope import _eliminate, _primitive


def dd_cone(rows: list[list[int]]) -> list[tuple[int, ...]]:
    """Extreme rays of {x : rows . x <= 0} by incremental double description.

    The cone must be pointed and full-dimensional (true for the cone of
    homogenized points in `brute_hull`).  Rays come back as primitive integer
    vectors; adjacency of rays is decided combinatorially on exact tight
    sets.
    """
    d = len(rows[0])
    # Eliminate [rows^T | I].  The pivot columns among the rows are the
    # first basis B in row order.  The row operations E make E B^T
    # diagonal, so row j of E, the identity block, is its pivot entry
    # times row j of (B^T)^-1, which is column j of B^-1.
    work = [[r[j] for r in rows] + [int(i == j) for i in range(d)]
            for j in range(d)]
    basis = _eliminate(work)
    if len(basis) != d or basis[-1] >= len(rows):
        raise CertificationError("constraint rows must span the space")
    done = list(basis)

    def dot(i: int, vec: tuple[int, ...]) -> int:
        return sum(a * b for a, b in zip(rows[i], vec))

    rays: list[tuple[tuple[int, ...], frozenset[int]]] = []
    for j, row in enumerate(work):
        sign = 1 if row[basis[j]] > 0 else -1
        vec = _primitive([-sign * x for x in row[len(rows):]])
        rays.append((vec, frozenset(i for i in done if dot(i, vec) == 0)))
    for idx, row in enumerate(rows):
        if idx in basis:
            continue
        vals = {ray[0]: dot(idx, ray[0]) for ray in rays}
        keep = [r for r in rays if vals[r[0]] < 0]
        drop = [r for r in rays if vals[r[0]] > 0]
        zero = [r for r in rays if vals[r[0]] == 0]
        new_rays = []
        for rk, rd in itertools.product(keep, drop):
            common = rk[1] & rd[1]
            if any(o is not rk and o is not rd and common <= o[1]
                   for o in rays):
                continue
            a, b = vals[rd[0]], vals[rk[0]]
            vec = _primitive([a * x - b * y for x, y in zip(rk[0], rd[0])])
            tight = frozenset(i for i in done if dot(i, vec) == 0) | {idx}
            new_rays.append((vec, tight))
        done.append(idx)
        rays = ([(v, t | {idx}) for v, t in zero]
                + keep + new_rays)
        seen: dict[tuple[int, ...], frozenset[int]] = {}
        for v, t in rays:
            seen[v] = t | seen.get(v, frozenset())
        rays = list(seen.items())
    return [v for v, _t in rays]
