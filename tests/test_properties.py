"""Property tests that shrink to a minimal generator recipe on failure.

The examples are derandomized and capped so the suite stays quick and
repeatable; hypothesis explores the same recipes on every run.
"""

import pytest

from cutpoly import GeneratorSpec, cut_weight, gen_k33free, maxcut, \
    maxcut_bruteforce

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


@hypothesis.settings(max_examples=100, deadline=2000, derandomize=True,
                     database=None)
@hypothesis.given(recipes())
def test_maxcut_matches_bruteforce_and_recosts(spec):
    g = gen_k33free(spec)
    res = maxcut(g)
    assert res.value == maxcut_bruteforce(g).value
    assert cut_weight(g, res.cut) == res.value
