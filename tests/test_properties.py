"""Property tests that shrink to a minimal counterexample on failure.

They run under the hypothesis profile of `conftest.py`: derandomized and
capped, so the suite stays quick and repeatable; hypothesis explores the
same examples on every run.
"""

import pytest

from cutpoly import GeneratorSpec, cut_weight, gen_k33free, maxcut, \
    maxcut_bruteforce, min_weight_t_join
from helpers import tjoin_oracle

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def recipes(draw):
    den = draw(st.integers(1, 4))
    return GeneratorSpec(
        seed=draw(st.integers(0, 2 ** 32)),
        component_count=draw(st.integers(1, 4)),
        kinds=draw(st.sampled_from([("k5",), ("triangulation",),
                                    ("k5", "triangulation")])),
        tri_size=(4, 5),
        strict=draw(st.booleans()),
        deletion_prob=(draw(st.integers(0, den)), den))


@hypothesis.given(recipes())
def test_maxcut_matches_bruteforce_and_recosts(spec):
    g = gen_k33free(spec)
    res = maxcut(g)
    assert res.value == maxcut_bruteforce(g).value
    assert cut_weight(g, res.cut) == res.value


@st.composite
def tjoin_instances(draw):
    """A connected multigraph with m <= 10 (a random spanning tree, then
    extra edges that may be loops or parallels), weights -8..8, and an
    even terminal set."""
    n = draw(st.integers(1, 6))
    weights = st.integers(-8, 8)
    edges = [(draw(st.integers(0, v - 1)), v, draw(weights))
             for v in range(1, n)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1),
                                     st.integers(0, n - 1), weights),
                           max_size=10 - len(edges)))
    terminals = draw(st.sets(st.integers(0, n - 1)))
    if len(terminals) % 2:
        terminals.discard(min(terminals))
    return n, edges, terminals


@hypothesis.given(tjoin_instances())
def test_tjoin_matches_subset_enumeration(instance):
    n, edges, terminals = instance
    join, total = min_weight_t_join(n, edges, terminals)
    assert total == tjoin_oracle(n, edges, terminals)
    assert total == sum(edges[i][2] for i in join)
    odd = [0] * n
    for i in join:
        u, v, _w = edges[i]
        if u != v:
            odd[u] ^= 1
            odd[v] ^= 1
    assert {v for v in range(n) if odd[v]} == terminals
