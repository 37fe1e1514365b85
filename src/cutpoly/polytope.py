"""Cut-polytope machinery.

Inequality classes (edge, cycle, metric, the K5 inequality), switching,
facet certification against enumerated cuts, complete facet descriptions
for K5-minor-free and K33-minor-free graphs, variable elimination for edge
deletions, and an exact convex-hull oracle (double description on
primitive integer rays of the cone of valid inequalities, one row (p, 1)
per point).  Exact linear algebra (`affine_rank`, and the
starting basis and rays of the hull oracle) is one fraction-free
integer elimination, `_eliminate`.

Facet certification (`is_facet`, and every Fourier-Motzkin projection)
decides a batch of candidate inequalities in three steps, all exact:

1. one integer product of the candidates with the cut matrix gives each
   candidate's validity and its tight cuts;
2. a valid candidate whose tight set lies inside another valid
   candidate's is rejected, with no rank computed (the cut polytope is
   full-dimensional, so a facet has one canonical inequality);
3. a surviving candidate is accepted when its tight points [x, 1],
   compressed by a fixed pseudo-random matrix, have rank |E| modulo a
   prime; any candidate still undecided gets the exact `affine_rank`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import gcd
from operator import mul

import numpy as np

from .graphs import (CertificationError, Cut, Graph, GraphError,
                     SizeLimitError, _distinct_cuts, chordless_cycles,
                     compact_graph, cut_vectors, enumerate_cuts)
from . import minors as minors_mod
from . import spqr as spqr_mod
from .spqr import K33MinorError


@dataclass(frozen=True)
class LinearInequality:
    """a^T x <= rhs over edge indices, canonical: gcd of entries is 1."""
    coeffs: tuple[int, ...]
    rhs: int

    @staticmethod
    def canonical(coeffs, rhs: int) -> "LinearInequality":
        coeffs = tuple(map(int, coeffs))
        if not any(coeffs):
            raise GraphError("inequality needs a nonzero coefficient")
        g = gcd(*coeffs, rhs)
        if g > 1:
            coeffs, rhs = tuple(c // g for c in coeffs), rhs // g
        return LinearInequality(coeffs, rhs)

    def evaluate(self, x) -> int:
        return sum(c * v for c, v in zip(self.coeffs, x))

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coeffs) if c)


@dataclass(frozen=True)
class InequalitySystem:
    graph: Graph
    inequalities: tuple[LinearInequality, ...]

    @staticmethod
    def of(graph: Graph, ineqs) -> "InequalitySystem":
        return InequalitySystem(graph, tuple(sorted(set(ineqs),
                                                    key=lambda q: (q.coeffs, q.rhs))))

    def as_set(self) -> frozenset[LinearInequality]:
        return frozenset(self.inequalities)


# -- inequality generators -----------------------------------------------------

def metric_inequalities(g: Graph, tri_edges) -> list[LinearInequality]:
    """The four facet forms of one triangle: the sum form and the three
    rooted difference forms."""
    es = tuple(tri_edges)
    if len(set(es)) != 3:
        raise GraphError("triangle must consist of three distinct edges")
    nodes = set()
    for i in es:
        nodes.update(g.edges[i][:2])
    if len(nodes) != 3:
        raise GraphError("edges do not form a triangle")
    for a, b in itertools.combinations(sorted(nodes), 2):
        if not g.has_edge(a, b):
            raise GraphError("edges do not form a triangle")
    m = len(g.edges)
    out = []
    base = [0] * m
    for i in es:
        base[i] = 1
    out.append(LinearInequality.canonical(base, 2))
    for root in es:
        coeffs = [0] * m
        for i in es:
            coeffs[i] = 1 if i == root else -1
        out.append(LinearInequality.canonical(coeffs, 0))
    return out


def edge_inequalities(g: Graph, edge_index: int) -> list[LinearInequality]:
    """Both bounds 0 <= x_e <= 1 when e lies in no triangle (then they are
    facets), else the empty list."""
    u, v, _w = g.edges[edge_index]
    common = {x for x, _i in g.neighbors(u)} & {x for x, _i in g.neighbors(v)}
    if common:
        return []
    m = len(g.edges)
    lo = [0] * m
    lo[edge_index] = -1
    hi = [0] * m
    hi[edge_index] = 1
    return [LinearInequality.canonical(lo, 0), LinearInequality.canonical(hi, 1)]


def cycle_inequality(g: Graph, cycle, odd_set) -> LinearInequality:
    """sum_{f in F} x_f - sum_{e in C\\F} x_e <= |F| - 1 for odd F."""
    cyc = list(cycle)
    if len(cyc) < 3 or len(set(cyc)) != len(cyc):
        raise GraphError("not a cycle")
    try:
        cyc_edges = {g.edge_index(cyc[i], cyc[(i + 1) % len(cyc)])
                     for i in range(len(cyc))}
    except KeyError:
        raise GraphError("node sequence is not a cycle of the graph") from None
    f = set(odd_set)
    if len(f) % 2 == 0:
        raise GraphError("F must have odd size")
    if not f <= cyc_edges:
        raise GraphError("F must be a subset of the cycle's edges")
    coeffs = [0] * len(g.edges)
    for i in cyc_edges:
        coeffs[i] = 1 if i in f else -1
    return LinearInequality.canonical(coeffs, len(f) - 1)


def hypermetric_k5(g: Graph, five_nodes) -> LinearInequality:
    """sum of x over the 10 edges of an induced K5 <= 6."""
    nodes = sorted(set(five_nodes))
    if len(nodes) != 5:
        raise GraphError("need five distinct nodes")
    coeffs = [0] * len(g.edges)
    for a, b in itertools.combinations(nodes, 2):
        if not g.has_edge(a, b):
            raise GraphError("nodes do not induce a K5")
        coeffs[g.edge_index(a, b)] = 1
    return LinearInequality.canonical(coeffs, 6)


def switch(q: LinearInequality, w: Cut) -> LinearInequality:
    """Switching by the cut w: negate coefficients on w's edges and drop
    their original values from the right-hand side."""
    coeffs = list(q.coeffs)
    drop = 0
    for i in range(len(coeffs)):
        if (w.indicator >> i) & 1:
            drop += coeffs[i]
            coeffs[i] = -coeffs[i]
    return LinearInequality.canonical(coeffs, q.rhs - drop)


# -- exact certification -------------------------------------------------------

def _guard(g: Graph, q: LinearInequality | None = None) -> None:
    if q is not None and len(q.coeffs) != len(g.edges):
        raise GraphError(f"inequality has {len(q.coeffs)} coefficients, "
                         f"the graph {len(g.edges)} edges")
    if g.node_count > 22:
        raise SizeLimitError("cut enumeration guard: node_count <= 22")


def is_valid(g: Graph, q: LinearInequality) -> bool:
    _guard(g, q)
    values = _distinct_cuts(g)[1] @ np.array(q.coeffs, dtype=object)
    return bool((values <= q.rhs).all())


def is_facet(g: Graph, q: LinearInequality) -> bool:
    _guard(g, q)
    if max(map(abs, (*q.coeffs, q.rhs))) >= 1 << 31:
        raise SizeLimitError("is_facet guard: |coefficients| < 2^31")
    coeffs = np.array([q.coeffs], dtype=np.int64).reshape(1, len(g.edges))
    return bool(_facet_mask(_distinct_cuts(g)[1], coeffs,
                            np.array([q.rhs], dtype=np.int64))[0])


# modulus of the rank proof: a product of two residues fits in an int64
_PRIME = 2_147_483_647
_WEIGHT_SEED = 2019
# entries per temporary array in the batched steps, which bounds their memory
_CELLS = 1 << 10


def _facet_mask(cuts: np.ndarray, coeffs: np.ndarray,
                rhs: np.ndarray) -> np.ndarray:
    """Which rows of coeffs . x <= rhs are facets of conv(cuts).

    `cuts` are the cut vectors of a graph, so conv(cuts) is full-dimensional
    in R^dim; the rows are distinct canonical inequalities.

    1. Validity and tight sets come from coeffs @ cuts.T, in row chunks.
    2. Containment: a valid row whose tight set lies inside the tight set
       of another valid row is not a facet.  If it were, the other row
       would be tight on that facet's affine hull, a hyperplane, and a
       valid inequality of a full-dimensional polytope that is tight on a
       facet is a positive multiple of it, so the two canonical rows would
       be equal.  Tight sets are packed into 64-bit words and compared
       with AND-NOT, in row chunks.
    3. Rank: for each surviving row, M holds its tight points [x, 1] and W
       is a fixed pseudo-random dim x |cuts| matrix.  Rank mod p of W.M is
       at most the rank of M over Q, which is at most dim because the
       points lie on the row's hyperplane; so rank dim mod p proves a
       facet.  Rows short of it are decided by the exact `affine_rank`.
    """
    count, (points, dim) = len(rhs), cuts.shape
    nbytes = -(-points // 8)
    valid = np.zeros(count, dtype=bool)
    tight = np.zeros((count, -(-points // 64) * 8), dtype=np.uint8)
    step = max(1, _CELLS // points)
    for s in range(0, count, step):
        values = coeffs[s:s + step] @ cuts.T
        bound = rhs[s:s + step, None]
        valid[s:s + step] = (values <= bound).all(axis=1)
        tight[s:s + step, :nbytes] = np.packbits(values == bound, axis=1)

    rows = np.flatnonzero(valid)
    bits = tight[rows].view(np.uint64)
    lacks = ~bits
    inside = np.zeros(len(rows), dtype=bool)
    step = max(1, _CELLS // max(1, bits.size))
    for s in range(0, len(rows), step):
        # escapes[i, j]: row s+i is tight at a cut where row j is not
        escapes = (bits[s:s + step, None, :] & lacks[None]).any(axis=2)
        escapes[np.arange(len(escapes)), np.arange(s, s + len(escapes))] = True
        inside[s:s + step] = ~escapes.all(axis=1)

    facet = np.zeros(count, dtype=bool)
    survivors = rows[~inside]
    marks = np.unpackbits(tight[survivors], axis=1, count=points).view(bool)
    proved = _rank_proof(cuts, marks)
    facet[survivors[proved]] = True
    for row, mark in zip(survivors[~proved], marks[~proved]):
        facet[row] = affine_rank(cuts[mark].tolist()) == dim - 1
    return facet


def _rank_proof(cuts: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """For each row of marks (a set of cuts x), whether W.M has rank dim
    modulo _PRIME, where M stacks the marked [x, 1]."""
    p = _PRIME
    points, dim = cuts.shape
    proved = np.zeros(len(marks), dtype=bool)
    if dim == 0:
        return proved
    raw = random.Random(_WEIGHT_SEED).getrandbits(32 * dim * points)
    weights = np.frombuffer(raw.to_bytes(4 * dim * points, "little"),
                            dtype=np.uint32).reshape(dim, points) % p
    homog = np.hstack([cuts, np.ones((points, 1), dtype=np.int64)])
    step = max(1, _CELLS // max(points, dim * (dim + 1)))
    for s in range(0, len(marks), step):
        chosen = marks[s:s + step].astype(np.int64)
        mats = np.empty((len(chosen), dim, dim + 1), dtype=np.int64)
        for i, w in enumerate(weights):
            # sums stay below points * p, far inside int64
            mats[:, i, :] = chosen @ (w[:, None] * homog) % p
        proved[s:s + step] = _full_row_rank_mod_p(mats)
    return proved


def _full_row_rank_mod_p(mats: np.ndarray) -> np.ndarray:
    """Whether each matrix of a stack (entries in [0, p)) has full row rank
    modulo _PRIME, by fraction-free row elimination of the whole stack;
    mats is overwritten."""
    p = _PRIME
    full = np.ones(len(mats), dtype=bool)
    pick = np.arange(len(mats))
    for i in range(mats.shape[1]):
        row = mats[:, i, :]
        col = (row != 0).argmax(axis=1)
        pivot = row[pick, col]
        full &= pivot != 0
        below = mats[:, i + 1:, :]
        factor = below[pick, :, col]
        below *= pivot[:, None, None]
        below -= factor[:, :, None] * row[:, None, :]
        below %= p
    return full


def affine_rank(points) -> int:
    """Dimension of the affine hull of integer points (exact)."""
    pts = list(points)
    if not pts:
        return -1
    base = pts[0]
    return len(_eliminate([[a - b for a, b in zip(p, base)] for p in pts[1:]]))


def _eliminate(rows: list[list[int]]) -> list[int]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of integer rows, in
    place.

    Returns the pivot columns in order; pivot k ends in rows[k], and the
    pivot columns end diagonal, zero above and below each pivot.  Bareiss's
    step with pivot p after pivot d sets row := (p * row - f * pivot_row)
    / d, f the row's entry in the pivot column, and each division is exact
    because every entry stays a minor of the input.  A row with f = 0
    would only be rescaled by p / d, so it is skipped, and divided later by
    the pivot it was last brought to; each row thus ends as its Bareiss row
    times a nonzero factor.
    """
    pivots: list[int] = []
    scale = [1] * len(rows)  # the pivot each row was last brought to
    prev = 1
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        pick = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        scale[r], scale[pick] = scale[pick], scale[r]
        top = [x * prev // scale[r] for x in rows[r]]
        prev = top[col]
        rows[r], scale[r] = top, prev
        for i in range(len(rows)):
            f = rows[i][col]
            if f and i != r:
                rows[i] = [(prev * x - f * y) // scale[i]
                           for x, y in zip(rows[i], top)]
                scale[i] = prev
        pivots.append(col)
    return pivots


def polytope_dim(g: Graph) -> int:
    """Affine rank of the cut vectors; always equals the edge count."""
    _guard(g)
    d = affine_rank(cut_vectors(g))
    if d != len(g.edges):
        raise CertificationError("cut polytope dimension must equal |E|")
    return d


# -- convex hull oracle (double description) -----------------------------------

def brute_hull(points) -> list[LinearInequality]:
    """Exact facet list of conv(points), canonical integer inequalities.

    Points must affinely span their space (cut polytopes do).  Guards:
    dimension <= 12, <= 64 distinct points.  Method: double description
    on the cone C = {(c, a) : c . p + a <= 0 for every point p}, one row
    (p, 1) per point; each extreme ray (c, a) is the facet c . x <= -a.
    Proof: (c, a) is in C exactly when c . x <= -a is valid.  The rows span
    R^(dim+1), so C is pointed and a ray is extreme exactly when its tight
    rows have rank dim, that is when it is tight on dim affinely
    independent points: a facet, when c != 0.  A ray with c = 0 is a
    multiple of (0, ..., 0, -1), tight on no point, so never extreme.
    """
    pts = sorted(set(tuple(int(c) for c in p) for p in points))
    if not pts:
        raise GraphError("hull of nothing")
    dim = len(pts[0])
    if dim == 0:
        return []
    if dim > 12:
        raise SizeLimitError("brute_hull guard: dimension <= 12")
    if len(pts) > 64:
        raise SizeLimitError("brute_hull guard: <= 64 vertices")
    rays = _dd_cone([[*p, 1] for p in pts])
    if rays is None:
        raise GraphError("brute_hull needs full-dimensional input")
    if not all(any(ray[:dim]) for ray in rays):
        raise CertificationError("hull facet ray has no x part")
    return sorted({LinearInequality.canonical(ray[:dim], -ray[dim])
                   for ray in rays}, key=lambda q: (q.coeffs, q.rhs))


def _dd_cone(rows: list[list[int]]) -> list[tuple[int, ...]] | None:
    """Extreme rays of {x : rows . x <= 0}, as primitive integer vectors,
    by incremental double description; None when the rows do not span the
    space.  The cone must be full-dimensional (brute_hull's is).

    Tight sets, the processed rows a ray lies on, are bitmasks over row
    indices and never recomputed.  Start ray j, column j of -B^-1 for the
    first basis B, is tight on every basis row but row j.  Adding row r
    takes one product r . x per live ray, and a kept ray rk (r . rk < 0)
    and a dropped ray rd (r . rd > 0) give the new ray (r . rd) rk +
    |r . rk| rd.  Both parents satisfy the processed rows with <= 0, so this
    positive combination is tight on one of them exactly when both are: its
    tight set is their common set plus r.  rk and rd are combined only when
    adjacent, that is when no third ray holds their common set.  The rows
    span, so the cone is pointed, and adjacent rays share d - 2 independent
    tight rows: pairs sharing fewer are rejected before that scan.
    """
    d = len(rows[0])
    # Eliminate [rows^T | I].  The pivot columns among the rows are the
    # first basis B in row order.  The row operations E make E B^T
    # diagonal, so row j of E, the identity block, is its pivot entry
    # times row j of (B^T)^-1, which is column j of B^-1.
    work = [[r[j] for r in rows] + [int(i == j) for i in range(d)]
            for j in range(d)]
    basis = _eliminate(work)
    if basis[-1] >= len(rows):
        return None
    basis_mask = sum(1 << i for i in basis)
    rays = [(_primitive([-x if row[b] > 0 else x for x in row[len(rows):]]),
             basis_mask & ~(1 << b)) for row, b in zip(work, basis)]
    for idx, row in enumerate(rows):
        if basis_mask >> idx & 1:
            continue
        keep, drop, zero = [], [], []
        for vec, tight in rays:
            val = _dot(row, vec)
            (keep if val < 0 else drop if val > 0 else zero).append(
                (vec, tight, val))
        bit = 1 << idx
        new_rays = []
        lacks = [~tight for _v, tight in rays] if keep and drop else []
        for vk, tk, ak in keep:
            for vd, td, ad in drop:
                common = tk & td
                if common.bit_count() < d - 2:
                    continue
                # rk and rd hold common; a third holder means not adjacent
                holders = 0
                for lack in lacks:
                    if not common & lack:
                        if holders == 2:
                            break
                        holders += 1
                else:
                    vec = _primitive([ad * x - ak * y for x, y in zip(vk, vd)])
                    new_rays.append((vec, common | bit))
        rays = ([(v, t | bit) for v, t, _a in zero]
                + [(v, t) for v, t, _a in keep] + new_rays)
    return [v for v, _t in rays]


def _dot(row: list[int], vec: tuple[int, ...]) -> int:
    return sum(map(mul, row, vec))


def _primitive(vec) -> tuple[int, ...]:
    g = gcd(*vec)
    if g == 0:
        raise CertificationError("zero ray")
    return tuple(c // g for c in vec)


# -- complete facet descriptions -----------------------------------------------

def facet_description(g: Graph) -> InequalitySystem:
    """The complete irredundant facet list of the cut polytope.

    Supported classes: K5-minor-free graphs (edge + chordless-cycle
    inequalities) and K33-minor-free graphs (per-component descriptions of
    the 2-sum pieces, projected through deleted edges when the graph is
    not maximal).  Anything else is refused with the offending component.
    """
    return _decomposed_facets(g, spqr_mod.decompose_blocks(g))


def _decomposed_facets(g: Graph, decomposition: tuple[spqr_mod.Block, ...]
                       ) -> InequalitySystem:
    """`facet_description` of g, given `decompose_blocks(g)`: the union of
    the blocks' descriptions (every triangle and chordless cycle lies in
    one block)."""
    out: list[LinearInequality] = []
    for block in decomposition:
        if not minors_mod._block_has_minor(block, "K5"):
            ineqs = _edge_cycle_facets(block.graph)
        elif block.witness is not None:
            raise K33MinorError(
                "facet_description supports K5-minor-free or "
                "K33-minor-free graphs only", block.witness)
        else:
            ineqs = _completed_facets(block)
        for q in ineqs:  # canonical already: spreading keeps the gcd
            coeffs = [0] * len(g.edges)
            for j, c in zip(block.edges, q.coeffs):
                coeffs[j] = c
            out.append(LinearInequality(tuple(coeffs), q.rhs))
    return InequalitySystem.of(g, out)


def _edge_cycle_facets(g: Graph) -> list[LinearInequality]:
    out = []
    for i in range(len(g.edges)):
        out.extend(edge_inequalities(g, i))
    for cyc in chordless_cycles(g):
        cyc_edges = [g.edge_index(cyc[i], cyc[(i + 1) % len(cyc)])
                     for i in range(len(cyc))]
        for r in range(1, len(cyc_edges) + 1, 2):
            for f in itertools.combinations(cyc_edges, r):
                out.append(cycle_inequality(g, cyc, f))
    return out


def _maximal_k33free_facets(g: Graph, pieces) -> list[LinearInequality]:
    """Facets of a strict 2-sum of planar triangulations and K5s, given
    its pieces (sorted node tuple, edge pairs): the union of the pieces'
    facet systems on shared variables.

    Every piece contributes its edge+cycle facets, computed on the piece:
    a triangulation's may include chordless cycles longer than triangles,
    and a K5's are the metric inequalities of its 10 triangles (its only
    chordless cycles; no edge lies outside them).  K5 pieces add the 16
    switchings of the K5 inequality.  A piece that is neither, or has an
    edge missing from g, is refused.
    """
    out: list[LinearInequality] = []
    for nodes, pairs in pieces:
        sub, _ = compact_graph(nodes, [(u, v, 0) for u, v in pairs])
        k5 = sub.node_count == 5 and len(sub.edges) == 10
        if not (k5 or len(sub.edges) == 3 * sub.node_count - 6) \
                or not all(g.has_edge(u, v) for u, v in pairs):
            raise CertificationError("piece is not a K5 or a triangulation "
                                     "of the completed graph")
        ineqs = _edge_cycle_facets(sub)
        if k5:
            ineqs += [switch(hypermetric_k5(sub, range(5)), c)
                      for c in enumerate_cuts(sub)]
        cols = [g.edge_index(nodes[su], nodes[sv]) for su, sv, _w in sub.edges]
        for q in ineqs:
            coeffs = [0] * len(g.edges)
            for j, c in zip(cols, q.coeffs):
                coeffs[j] = c
            out.append(LinearInequality.canonical(coeffs, q.rhs))
    return out


def _completed_facets(block: spqr_mod.Block) -> list[LinearInequality]:
    """K33-minor-free block: describe its maximal completion piece by
    piece, then eliminate the added edges one at a time."""
    g = block.graph
    added, pieces = spqr_mod._completion(block)
    h = Graph(g.node_count, list(g.edges) + [(u, v, 0) for u, v in added])
    system = InequalitySystem.of(h, _maximal_k33free_facets(h, pieces))
    # added edges sit at the end of h's edge list; eliminate from the back
    # so surviving indices match g's
    for idx in range(len(h.edges) - 1, len(g.edges) - 1, -1):
        system = fourier_motzkin_project(system, idx)
    if system.graph != g:
        raise CertificationError("projection did not return the input graph")
    return list(system.inequalities)


def fourier_motzkin_project(system: InequalitySystem,
                            edge_index: int) -> InequalitySystem:
    """Eliminate one variable from a complete facet description.

    Pairs of inequalities with opposite signs on the variable are summed,
    each scaled by the other's coefficient; zero-coefficient inequalities
    pass through.  Candidates are divided by their gcd, and those with
    entries in {-1, 0, 1} (facets here have no others) are certified
    together as facets of the projection by `_facet_mask`.
    """
    h = system.graph
    m = len(h.edges)
    newg = h.without_edge(edge_index)
    coeffs = np.array([q.coeffs for q in system.inequalities],
                      dtype=np.int64).reshape(-1, m)
    rhs = np.array([q.rhs for q in system.inequalities], dtype=np.int64)
    var = coeffs[:, edge_index]
    found: set[tuple[tuple[int, ...], int]] = set()
    _add_candidates(found, coeffs[var == 0], rhs[var == 0], edge_index)
    ap, bp = coeffs[var > 0], rhs[var > 0]
    an, bn = coeffs[var < 0], rhs[var < 0]
    sp, sn = ap[:, edge_index], -an[:, edge_index]
    step = max(1, _CELLS // max(1, an.size))
    for s in range(0, len(ap), step):
        sums = (sn[None, :, None] * ap[s:s + step, None, :]
                + sp[s:s + step, None, None] * an[None, :, :])
        rights = sn[None, :] * bp[s:s + step, None] + sp[s:s + step, None] * bn
        _add_candidates(found, sums.reshape(-1, m), rights.reshape(-1),
                        edge_index)
    cands = list(found)
    facet = _facet_mask(
        _distinct_cuts(newg)[1],
        np.array([c for c, _r in cands], dtype=np.int64).reshape(-1, m - 1),
        np.array([r for _c, r in cands], dtype=np.int64))
    return InequalitySystem.of(newg, [LinearInequality(c, r) for (c, r), f
                                      in zip(cands, facet) if f])


def _add_candidates(found: set, rows: np.ndarray, rhs: np.ndarray,
                    col: int) -> None:
    """Add the canonical {-1, 0, 1} forms of rows . x <= rhs, with column
    col dropped, to found; rows left all zero are skipped."""
    rows = np.delete(rows, col, axis=1)
    nonzero = rows.any(axis=1)
    rows, rhs = rows[nonzero], rhs[nonzero]
    div = np.gcd(np.gcd.reduce(np.abs(rows), axis=1), np.abs(rhs))
    rows, rhs = rows // div[:, None], rhs // div
    small = (np.abs(rows) <= 1).all(axis=1)
    found.update(zip(map(tuple, rows[small].tolist()), rhs[small].tolist()))
