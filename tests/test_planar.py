import functools
import itertools
import random

import pytest

from cutpoly import (DisconnectedError, GeneratorSpec, Graph, blocks,
                     decompose_blocks, dual_graph, enumerate_cuts, faces_of,
                     gen_k33free, is_k_connected, minor_exhaustive,
                     planar_embed)
from cutpoly.planar import (_embed_biconnected, _embed_triangulation,
                            _face_walks)
from cutpoly.spqr import _skeleton_graph
from fragment_embedding import embed_biconnected
from helpers import (complete, cycle, k33, octahedron, random_graph,
                     run_python, stacked_triangulation)


def test_k4_embedding_euler():
    emb = planar_embed(complete(4))
    assert emb is not None and emb.face_count == 4
    assert all(len(f) == 3 for f in faces_of(emb))


def test_k5_and_k33_nonplanar():
    assert planar_embed(complete(5)) is None
    assert planar_embed(k33()) is None


@pytest.mark.parametrize("block", [complete(5), k33()])
def test_nonplanar_block_behind_a_cut_node(block):
    """A pendant edge gives K5 or K3,3 a cut node and keeps the edge count
    under 3n - 6, so the non-planar block is refused block by block."""
    n = block.node_count
    g = Graph(n + 1, [*block.edges, (0, n, 1)])
    assert blocks(g).cut_nodes == {0} and len(g.edges) <= 3 * (n + 1) - 6
    assert planar_embed(g) is None


def test_embedding_with_cut_nodes_matches_networkx():
    """On two random dense graphs glued at one node, `planar_embed`
    embeds exactly the graphs networkx finds planar."""
    nx = pytest.importorskip("networkx")
    rnd = random.Random(21)
    verdicts = [0, 0]
    while min(verdicts) < 40:
        sizes = rnd.randint(3, 7), rnd.randint(3, 7)
        shift = sizes[0] - 1  # the second graph's node 0 is the first's last
        edges = [(u + k * shift, v + k * shift, 1)
                 for k, size in enumerate(sizes)
                 for u, v in itertools.combinations(range(size), 2)
                 if rnd.random() < 0.75]
        g = Graph(sum(sizes) - 1, edges)
        if not is_k_connected(g, 1) or not blocks(g).cut_nodes:
            continue
        h = nx.Graph(e[:2] for e in g.edges)
        emb = planar_embed(g)
        assert (emb is not None) == nx.check_planarity(h)[0], g.edges
        verdicts[emb is not None] += 1

def test_c4_faces_and_dual():
    emb = planar_embed(cycle(4))
    assert emb.face_count == 2
    assert all(len(f) == 4 for f in faces_of(emb))
    d = dual_graph(emb)
    assert d.node_count == 2 and len(d.edges) == 4
    assert all(fa != fb for fa, fb, _i, _w in d.edges)


def test_k2_bridge_face_and_loop_dual():
    emb = planar_embed(Graph(2, [(0, 1, 7)]))
    walks = faces_of(emb)
    assert len(walks) == 1 and len(walks[0]) == 2
    d = dual_graph(emb)
    assert d.node_count == 1
    assert d.edges[0][0] == d.edges[0][1]  # self-loop
    assert d.edges[0][3] == 7


def test_k4_self_dual():
    d = dual_graph(planar_embed(complete(4)))
    assert d.node_count == 4 and len(d.edges) == 6
    pairs = sorted((min(a, b), max(a, b)) for a, b, _i, _w in d.edges)
    assert pairs == sorted(itertools.combinations(range(4), 2))


def test_dual_degree_sum():
    for g in (complete(4), cycle(6), octahedron()):
        d = dual_graph(planar_embed(g))
        assert sum(2 for _ in d.edges) == 2 * len(g.edges)
        assert len(d.edges) == len(g.edges)


def test_embed_requires_connected():
    with pytest.raises(DisconnectedError):
        planar_embed(Graph(4, [(0, 1, 1), (2, 3, 1)]))


def _random_connected_planar(seed: int) -> Graph:
    from cutpoly import is_connected
    rnd = random.Random(seed)
    g = stacked_triangulation(rnd.randrange(4, 10), rnd)
    while len(g.edges) > g.node_count - 1 and rnd.random() < 0.75:
        i = rnd.randrange(len(g.edges))
        g2 = g.without_edge(i)
        if is_connected(g2):
            g = g2
    return g


def test_euler_formula_random_planar():
    for seed in range(40):
        g = _random_connected_planar(seed)
        emb = planar_embed(g)
        assert emb is not None
        f = len(faces_of(emb))
        assert g.node_count - len(g.edges) + f == 2
        assert emb.face_count == f
        # every directed edge used exactly once
        assert sum(len(w) for w in faces_of(emb)) == 2 * len(g.edges)


def test_nonplanarity_matches_minor_oracle():
    for seed in range(60):
        g = random_graph(seed, nmax=7, p=0.55)
        if not __import__("cutpoly").is_connected(g):
            continue
        planar = planar_embed(g) is not None
        kuratowski = minor_exhaustive(g, "K5") or minor_exhaustive(g, "K33")
        assert planar == (not kuratowski), (seed, g.edges)


def test_duality_cuts_are_even_dual_subgraphs():
    """The linchpin: primal cuts coincide with even-degree dual subsets."""
    for seed in range(25):
        g = _random_connected_planar(seed + 500)
        emb = planar_embed(g)
        d = dual_graph(emb)
        cuts = {c.indicator for c in enumerate_cuts(g)}
        for ind in cuts:
            deg = [0] * d.node_count
            for fa, fb, i, _w in d.edges:
                if (ind >> i) & 1:
                    deg[fa] += 1
                    deg[fb] += 1
            assert all(x % 2 == 0 for x in deg)
        # counting argument: both families have size 2^(n-1), so the
        # one-sided inclusion above is an equality
        assert len(cuts) == 2 ** (g.node_count - 1)
        cycle_dim = len(d.edges) - d.node_count + 1
        assert cycle_dim == g.node_count - 1


# -- the incremental embedding against the full recompute ---------------------

def _generated_pieces() -> list[Graph]:
    """Each block with a tree, and each S and R skeleton of it, of the
    generated K33-minor-free graphs with n <= 40: planar and K5 pieces,
    strict and non-strict sums, thinned or not."""
    out = []
    for seed in range(150):
        g = gen_k33free(GeneratorSpec(
            seed=seed, component_count=1 + seed % 6,
            tri_size=(4, 4 + seed % 14), strict=seed % 3 > 0,
            deletion_prob=(seed % 2, 4)))
        if g.node_count > 40:
            continue
        for block in decompose_blocks(g):
            if block.tree is not None:
                out.append(block.graph)
                out += [_skeleton_graph(sn)[0] for sn in block.tree.nodes
                        if sn.kind != "P"]
    return out


def test_incremental_embedding_equals_full_recompute():
    graphs = _generated_pieces()
    graphs += [stacked_triangulation(n, random.Random(n))
               for n in range(4, 41, 3)]
    verdicts = [0, 0]
    for g in graphs:
        faces = _embed_biconnected(g)
        assert faces == embed_biconnected(g), g.edges
        verdicts[faces is None] += 1
    assert min(verdicts) >= 50, verdicts  # planar and non-planar alike


# -- the contraction embedding against networkx and the fragment method ------

@functools.cache
def triangulation_shaped() -> tuple[Graph, ...]:
    """Graphs with m = 3n - 6, built once per run: every one on n <= 6
    labelled nodes (the 455 with n = 6 among them), 40 seeded random
    2-connected ones for each n from 7 to 12, and stacked triangulations
    with n from 4 to 80."""
    out = []
    for n in (4, 5, 6):
        pairs = list(itertools.combinations(range(n), 2))
        out += [Graph(n, [(u, v, 1) for u, v in chosen])
                for chosen in itertools.combinations(pairs, 3 * n - 6)]
    rnd = random.Random(14)
    for n in range(7, 13):
        pairs = list(itertools.combinations(range(n), 2))
        drawn = 0
        while drawn < 40:
            g = Graph(n, [(u, v, 1) for u, v in rnd.sample(pairs, 3 * n - 6)])
            if is_k_connected(g, 2):
                out.append(g)
                drawn += 1
    out += [stacked_triangulation(n, random.Random(n)) for n in range(4, 81)]
    return tuple(out)


def test_contraction_embedding_matches_networkx_and_fragments():
    """`_embed_triangulation` refutes exactly the graphs networkx finds
    non-planar, and where it embeds, its faces are the fragment
    method's: a triangulation has one embedding up to mirror image."""
    nx = pytest.importorskip("networkx")
    verdicts = [0, 0]
    for g in triangulation_shaped():
        h = nx.Graph()
        h.add_nodes_from(range(g.node_count))
        h.add_edges_from(e[:2] for e in g.edges)
        rot = _embed_triangulation(g)
        assert (rot is not None) == nx.check_planarity(h)[0], g.edges
        verdicts[rot is not None] += 1
        if rot is not None:
            walks, _ = _face_walks(g, rot)
            assert {frozenset(u for u, _v in w) for w in walks} \
                == {frozenset(f) for f in _embed_biconnected(g)}, g.edges
    assert min(verdicts) >= 250, verdicts


def _subdivided(g: Graph, count: int, rnd: random.Random) -> Graph:
    """g with `count` random edges subdivided by a new node each."""
    edges, n = list(g.edges), g.node_count
    for _ in range(count):
        u, v, w = edges.pop(rnd.randrange(len(edges)))
        edges += [(u, n, w), (v, n, w)]
        n += 1
    return Graph(n, edges)


def test_kuratowski_subdivisions_stay_nonplanar():
    rnd = random.Random(33)
    for base in (complete(5), k33()):
        for count in range(12):
            g = _subdivided(base, count, rnd)
            assert _embed_biconnected(g) is None
            assert embed_biconnected(g) is None


# the wheel W4 (hub 4 on the rim 0-1-2-3) with faces that split the hub's
# darts into two orbits, 0 <-> 1 and 2 <-> 3
ORBIT_SPLIT = """
from cutpoly import CertificationError, Graph, planar
planar._embed_biconnected = lambda g: [[0, 4, 1], [1, 4, 0], [2, 4, 3],
                                       [3, 4, 2]]
rim = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]
try:
    planar.planar_embed(Graph(5, rim + [(x, 4, 1) for x in range(4)]))
except CertificationError as exc:
    print(exc)
"""


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_orbit_check_raises_without_asserts(flags):
    assert broken_runs(flags)["orbit"] \
        == "embedding darts at a node form one orbit\n"


# K4 with the rotation at node 0 reversed (the triangulation path) and W4
# with its hub's rotation reversed (the fragment path): every node keeps
# one orbit, but each rotation system lies on the torus, not the sphere;
# the shape certificate of spr_tree meets the same check on K4, and the
# 3-connected R skeleton W4 through its classification embedding
EULER_BREAK = """
from cutpoly import CertificationError, Graph, planar, spr_tree
def reversing(real, node):
    def flipped(*args):
        rot = real(*args)
        rot[node].reverse()
        return rot
    return flipped
k4 = Graph(4, [(u, v, 1) for u in range(4) for v in range(u)])
rim = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]
w4 = Graph(5, rim + [(x, 4, 1) for x in range(4)])
for name, g, node in (("_embed_triangulation", k4, 0),
                      ("_rotation_from_faces", w4, 4)):
    real = getattr(planar, name)
    setattr(planar, name, reversing(real, node))
    for run in (planar.planar_embed, spr_tree):
        try:
            run(g)
        except CertificationError as exc:
            print(exc)
    setattr(planar, name, real)
"""


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_euler_check_raises_without_asserts(flags):
    assert broken_runs(flags)["euler"] \
        == "face count breaks Euler's formula f = m - n + 2\n" * 4


# K5 minus the edge 3-4: its one contraction, patched to drop one more
# edge, leaves 4 nodes with 5 edges
NOT_K4 = """
from cutpoly import CertificationError, Graph, planar
real = planar._contract
def lossy(nb, u, v):
    private = real(nb, u, v)
    w = min(nb[u])
    nb[u].discard(w)
    nb[w].discard(u)
    return private
planar._contract = lossy
try:
    planar.planar_embed(Graph(5, [(u, v, 1) for u in range(5)
                                  for v in range(u) if (v, u) != (3, 4)]))
except CertificationError as exc:
    print(exc)
"""


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_k4_check_raises_without_asserts(flags):
    assert broken_runs(flags)["k4"] == "contraction must end at K4\n"


BROKEN = {"orbit": ORBIT_SPLIT, "euler": EULER_BREAK, "k4": NOT_K4}

# runs each script given as an argument in turn, undoing its patches of
# `planar` before the next, and ends each one's stdout with a NUL
RUN_EACH = """
import sys
from cutpoly import planar
real = dict(vars(planar))
for script in sys.argv[1:]:
    exec(script, {})
    vars(planar).update(real)
    print(end="\\0")
"""


@functools.cache
def broken_runs(flags: tuple[str, ...]) -> dict[str, str]:
    """Stdout of each script of BROKEN, all run in one interpreter per
    set of flags, so each flag set starts Python once."""
    proc = run_python(*flags, "-c", RUN_EACH, *BROKEN.values())
    assert proc.returncode == 0, proc.stderr
    return dict(zip(BROKEN, proc.stdout.split("\0")))
