"""The hull oracle as it stood when it enumerated the centred polar.

A frozen copy kept as a differential oracle: the points are translated to
their centroid and scaled by their count, the double description runs on
the polar's homogenization with an extra `t >= 0` row, and each facet is
read off a polar vertex.  The cone below is the bitmask double
description that ran with it.  `cutpoly.polytope.brute_hull`, which runs
on the homogenized points themselves, must return the very same lists.
"""

from __future__ import annotations

import itertools
from operator import mul

from cutpoly import CertificationError, GraphError, LinearInequality
from cutpoly.polytope import _eliminate, _primitive


def brute_hull(points) -> list[LinearInequality]:
    """Facet list of conv(points) by the centred polar; points must
    affinely span their space (no size guards)."""
    pts = sorted(set(tuple(int(c) for c in p) for p in points))
    if not pts:
        raise GraphError("hull of nothing")
    dim = len(pts[0])
    if dim == 0:
        return []
    k = len(pts)
    sums = [sum(p[i] for p in pts) for i in range(dim)]
    # polar constraints (p_i - centroid) . y <= 1, homogenized and scaled
    # by k to integer rows (k*p_i - sum, -k) . (y, t) <= 0; plus t >= 0.
    rows = [[k * p[i] - sums[i] for i in range(dim)] + [-k] for p in pts]
    rows.append([0] * dim + [-1])
    rays = dd_cone(rows)
    if rays is None:
        raise GraphError("brute_hull needs full-dimensional input")
    out = []
    for ray in rays:
        t = ray[dim]
        if t <= 0:
            raise CertificationError(
                "polar of a full-dimensional polytope is bounded")
        # vertex y = ray/t of the scaled polar; facet y.(x - centroid) <= 1
        coeffs = [k * c for c in ray[:dim]]
        rhs = k * t + sum(rc * sc for rc, sc in zip(ray[:dim], sums))
        out.append(LinearInequality.canonical(coeffs, rhs))
    return sorted(set(out), key=lambda q: (q.coeffs, q.rhs))


def dd_cone(rows: list[list[int]]) -> list[tuple[int, ...]] | None:
    """Extreme rays of the full-dimensional cone {x : rows . x <= 0} as
    primitive integer vectors, tight sets carried as bitmasks; None when
    the rows do not span the space."""
    d = len(rows[0])
    work = [[r[j] for r in rows] + [int(i == j) for i in range(d)]
            for j in range(d)]
    basis = _eliminate(work)
    if basis[-1] >= len(rows):
        return None
    basis_mask = sum(1 << i for i in basis)
    rays = [(_primitive([-x if row[b] > 0 else x
                         for x in row[len(rows):]]), basis_mask & ~(1 << b))
            for row, b in zip(work, basis)]
    for idx, row in enumerate(rows):
        if basis_mask >> idx & 1:
            continue
        keep, drop, zero = [], [], []
        for vec, tight in rays:
            val = sum(map(mul, row, vec))
            (keep if val < 0 else drop if val > 0 else zero).append(
                (vec, tight, val))
        lacks = [~tight for _v, tight in rays]
        bit = 1 << idx
        new_rays = []
        for vk, tk, ak in keep:
            for vd, td, ad in drop:
                common = tk & td
                if common.bit_count() < d - 2:
                    continue
                # rk and rd hold common; a third holder means not adjacent
                holders = (o for o in lacks if not common & o)
                if next(itertools.islice(holders, 2, None), None) is None:
                    vec = _primitive([ad * x - ak * y for x, y in zip(vk, vd)])
                    new_rays.append((vec, common | bit))
        rays = ([(v, t | bit) for v, t, _a in zero]
                + [(v, t) for v, t, _a in keep] + new_rays)
    return [v for v, _t in rays]

