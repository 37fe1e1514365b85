"""Batched facet certification against independent oracles.

`old_project` is a local copy of the per-candidate rule the batched
certifier replaced: a candidate is kept when it is valid on every cut
vector and its tight cut vectors have affine rank dim - 1.
"""

import itertools

import numpy as np
import pytest

from cutpoly import (CertificationError, Graph, LinearInequality,
                     SizeLimitError, brute_hull, cut_vectors,
                     facet_description, format_graph, fourier_motzkin_project,
                     gen_k33free, GeneratorSpec, is_facet, maximal_completion)
from cutpoly import polytope
from cutpoly.polytope import (InequalitySystem, _maximal_k33free_facets,
                              affine_rank)
from helpers import (complete, double_k5, maximal_pieces, octahedron,
                     perfbench_module)


def old_project(system, idx):
    newg = system.graph.without_edge(idx)
    vectors = cut_vectors(newg)
    dim = len(newg.edges)

    def drop(coeffs):
        return tuple(coeffs[:idx]) + tuple(coeffs[idx + 1:])

    cands = {LinearInequality.canonical(drop(q.coeffs), q.rhs)
             for q in system.inequalities if q.coeffs[idx] == 0}
    pos = [q for q in system.inequalities if q.coeffs[idx] > 0]
    neg = [q for q in system.inequalities if q.coeffs[idx] < 0]
    for qp, qn in itertools.product(pos, neg):
        sp, sn = qp.coeffs[idx], -qn.coeffs[idx]
        coeffs = [sn * a + sp * b for a, b in zip(qp.coeffs, qn.coeffs)]
        if any(coeffs):
            cands.add(LinearInequality.canonical(drop(coeffs),
                                                 sn * qp.rhs + sp * qn.rhs))
    kept = []
    for q in cands:
        if any(abs(c) > 1 for c in q.coeffs):
            continue
        values = [q.evaluate(x) for x in vectors]
        tight = [x for x, v in zip(vectors, values) if v == q.rhs]
        if max(values) <= q.rhs and affine_rank(tight) == dim - 1:
            kept.append(q)
    return InequalitySystem.of(newg, kept)


def completion_system(g):
    h, _added = maximal_completion(g)
    return h, InequalitySystem.of(
        h, _maximal_k33free_facets(h, maximal_pieces(h)))


def projection_steps(g):
    """(system, index) of every elimination that facet_description makes
    on the 2-connected graph g, each with the new projection's input."""
    h, system = completion_system(g)
    for idx in range(len(h.edges) - 1, len(g.edges) - 1, -1):
        yield system, idx
        system = fourier_motzkin_project(system, idx)


def non_strict(seed, components=2, tri_size=(4, 6)):
    return gen_k33free(GeneratorSpec(seed=seed, component_count=components,
                                     tri_size=tri_size, strict=False))


def k5_with_ears(*ears):
    """K5 with, for each (u, v, length), a path of that many new edges from
    u to v; the K5 edge uv is deleted, so the completion adds it back."""
    edges = [(u, v) for u, v in itertools.combinations(range(5), 2)
             if (u, v) not in {(a, b) for a, b, _l in ears}]
    n = 5
    for u, v, length in ears:
        path = [u] + list(range(n, n + length - 1)) + [v]
        n += length - 1
        edges += [(min(a, b), max(a, b)) for a, b in zip(path, path[1:])]
    return Graph(n, [(u, v, 1) for u, v in edges])


# seeded non-strict instances that reach the projection: K5+K5 (n 8, m 18),
# K5+triangulation (n 7, m 14; n 8, m 17) and three pieces (n 9, m 18; no
# three-piece instance with n <= 8 reaches it)
SEEDED = [(0,), (4,), (12,), (4, 3, (4, 4))]
SMALL = [k5_with_ears((0, 1, 2)), k5_with_ears((0, 1, 2), (2, 3, 2)),
         k5_with_ears((0, 1, 3))]


@pytest.mark.parametrize("spec", SEEDED)
def test_projection_matches_per_candidate_rule(spec):
    g = non_strict(*spec)
    assert g.node_count <= 9
    steps = list(projection_steps(g))
    assert steps
    # each step's input is the previous step's projection
    done = [system for system, _idx in steps[1:]]
    done.append(fourier_motzkin_project(*steps[-1]))
    for (system, idx), projected in zip(steps, done):
        assert projected == old_project(system, idx)


@pytest.mark.parametrize("g", SMALL, ids=["one-ear", "two-ears", "long-ear"])
def test_small_projections_match_rule_and_hull(g):
    assert len(g.edges) <= 12 and len(cut_vectors(g)) <= 64
    for system, idx in projection_steps(g):
        assert fourier_motzkin_project(system, idx) == old_project(system, idx)
    assert set(facet_description(g).inequalities) == \
        set(brute_hull(cut_vectors(g)))


@pytest.mark.parametrize("seed", [0, 4])
def test_projection_of_incomplete_system_keeps_only_facets(seed):
    """With inequalities missing, fewer candidates exist, but each one kept
    must still be an exact facet, and none that is may be dropped."""
    system, idx = next(projection_steps(non_strict(seed)))
    for start in range(3):
        part = InequalitySystem.of(system.graph,
                                   system.inequalities[start::3])
        got = fourier_motzkin_project(part, idx)
        assert got == old_project(part, idx)
        vectors = cut_vectors(got.graph)
        dim = len(got.graph.edges)
        for q in got.inequalities:
            values = [q.evaluate(x) for x in vectors]
            assert max(values) <= q.rhs
            assert affine_rank([x for x, v in zip(vectors, values)
                                if v == q.rhs]) == dim - 1


def fm_filter_subset():
    """The first graph of each edge-count stratum (m = 18, 14, 13, 17, 16)
    of the benchmark's seed-1 `facets-nonstrict` pool, which its first
    seven draws hold, and the three-piece non-strict graphs of seeds 4
    and 5 (n 9, m 18)."""
    workloads = perfbench_module("workloads")
    pool, _rejected = workloads.make_pool(
        workloads.WORKLOADS["facets-nonstrict"], 1, 7, gen_k33free,
        GeneratorSpec, format_graph)
    firsts = {len(inst.edges): inst for inst in reversed(pool)}.values()
    return ([Graph(inst.node_count, list(inst.edges)) for inst in firsts]
            + [non_strict(seed, 3, (4, 4)) for seed in (4, 5)])


def test_fm_filter_drops_no_facet(monkeypatch):
    """Fourier-Motzkin keeps only candidates with entries in {-1, 0, 1}.
    Without that filter, the facet lists of the subset are the same,
    although the projections there do form wider candidates."""
    graphs = fm_filter_subset()
    want = [facet_description(g) for g in graphs]
    wide = []

    def unfiltered(found, rows, rhs, col):
        rows = np.delete(rows, col, axis=1)
        nonzero = rows.any(axis=1)
        rows, rhs = rows[nonzero], rhs[nonzero]
        div = np.gcd(np.gcd.reduce(np.abs(rows), axis=1), np.abs(rhs))
        rows, rhs = rows // div[:, None], rhs // div
        wide.append(int((np.abs(rows) > 1).any(axis=1).sum()))
        found.update(zip(map(tuple, rows.tolist()), rhs.tolist()))

    monkeypatch.setattr(polytope, "_add_candidates", unfiltered)
    assert [facet_description(g) for g in graphs] == want
    assert sum(wide) > 0


def counting_affine_rank(monkeypatch):
    calls = []

    def counted(points):
        calls.append(1)
        return affine_rank(points)

    monkeypatch.setattr(polytope, "affine_rank", counted)
    return calls


def test_exact_fallback_agrees(monkeypatch):
    """Modulo 2 the cut vectors [x, 1] have rank at most n < m, so no
    candidate gets a rank proof and every survivor takes the exact path."""
    graphs = [double_k5(), octahedron(), non_strict(0), non_strict(4)]
    want = [facet_description(g) for g in graphs]
    probes = []
    for g, fd in zip(graphs, want):
        qs = list(fd.inequalities)
        probes += [(g, q) for q in qs[::max(1, len(qs) // 8)]]
        tri_edge = LinearInequality.canonical(
            [int(i == 0) for i in range(len(g.edges))], 1)
        probes.append((g, tri_edge))  # valid, a facet only off triangles
    verdicts = [is_facet(g, q) for g, q in probes]
    assert any(verdicts) and not all(verdicts)

    calls = counting_affine_rank(monkeypatch)
    monkeypatch.setattr(polytope, "_PRIME", 2)
    assert [facet_description(g) for g in graphs] == want
    assert [is_facet(g, q) for g, q in probes] == verdicts
    # every probe is valid, so each one reaches the exact path
    assert len(calls) >= len(probes) + len(want[0].inequalities)


def test_rank_proof_needs_no_fallback(monkeypatch):
    calls = counting_affine_rank(monkeypatch)
    for spec in SEEDED:
        facet_description(non_strict(*spec))
    facet_description(double_k5())
    assert calls == []


def test_is_facet_rejects_duplicated_face_and_invalid_rows():
    k5 = complete(5)
    assert is_facet(k5, LinearInequality((1,) * 10, 6))
    assert not is_facet(k5, LinearInequality((1,) * 10, 7))  # not tight
    assert not is_facet(k5, LinearInequality((1,) * 10, 5))  # invalid
    assert not is_facet(k5, LinearInequality((1,) + (0,) * 9, 1))
    with pytest.raises(SizeLimitError):  # the int64 product could overflow
        is_facet(k5, LinearInequality((1 << 31,) + (0,) * 9, 0))
    # a failed certification is an internal fault, never an input error
    assert not issubclass(CertificationError, ValueError)
