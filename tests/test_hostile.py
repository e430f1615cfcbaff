"""Cross-builder properties on hostile input: small graphs that are
disconnected, hold isolated vertices, tie their weights or spread them over
extreme ratios, and raw graphs that break `WeightedGraph`'s contract."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from spanlab.buckets import check_k
from spanlab.generators import gnm_graph
from spanlab.graphs import WeightedGraph
from spanlab.light import build_light
from spanlab.linear import build_linear
from spanlab.oracle import verify_stretch
from spanlab.pm import build_pm

BUILDERS = (build_pm, build_linear, build_light)


@st.composite
def hostile_graphs(draw) -> WeightedGraph:
    """A simple graph on at most 16 vertices, its edges in drawn order and
    orientation, so that it has isolated vertices and several components
    as often as not.  Weights tie on a few values, or are 10**x for x in a
    window of 3, 30, 300 or 600 decades: the last one passes what the
    bucket grid can hold (a ratio past the largest float)."""
    n = draw(st.integers(min_value=1, max_value=16))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, max_size=3 * n, unique_by=lambda p: frozenset(p)))
    if draw(st.booleans()):
        weight = st.sampled_from([1.0, 2.0, 7.5])
    else:
        decades = draw(st.sampled_from([3, 30, 300, 600]))
        low = draw(st.integers(-300, 300 - decades))
        weight = st.floats(low, low + decades).map(lambda x: 10.0 ** x)
    return WeightedGraph(n, [(u, v, draw(weight)) for u, v in pairs])


BAD_EDGES = {
    "self-loop": lambda n: [(0, 0, 1.0)],
    "repeated pair": lambda n: [(0, 1, 1.0), (1, 0, 2.0)],
    "id past n": lambda n: [(0, n, 1.0)],
    "zero weight": lambda n: [(0, 1, 0.0)],
    "negative weight": lambda n: [(0, 1, -1.0)],
    "nan weight": lambda n: [(0, 1, math.nan)],
    "inf weight": lambda n: [(0, 1, math.inf)],
}


@settings(max_examples=200, deadline=None)
@given(g=hostile_graphs(),
       k=st.sampled_from([1, 2, 3]),
       eps=st.sampled_from([0.05, 0.25, 0.5, 0.99]),
       bad=st.sampled_from(sorted(BAD_EDGES)),
       at=st.integers(min_value=0))
def test_builders_on_hostile_graphs(g, k, eps, bad, at):
    # each build returns an H inside G, one copy per pair, that meets the
    # stretch target and that a rebuild reproduces, or raises ValueError.
    # The same graph with one bad edge inserted raises ValueError
    weight_of = {(min(u, v), max(u, v)): w for u, v, w in g.edges}
    for build in BUILDERS:
        try:
            h = build(g, k, eps)
        except ValueError:
            continue
        keys = [(min(u, v), max(u, v)) for u, v, _ in h.edges]
        assert len(set(keys)) == len(keys), f"{build.__name__} repeats a pair"
        assert all(weight_of.get(key) == w for key, (_, _, w) in zip(keys, h.edges)), \
            f"{build.__name__} keeps an edge outside G"
        assert verify_stretch(g, h, (2 * k - 1) * (1 + eps)).ok, build.__name__
        again = build(g, k, eps)
        assert (again.edges, again.levels, again.ops) == (h.edges, h.levels, h.ops)

    n = max(g.n, 2)
    edges = list(g.edges)
    at %= len(edges) + 1
    raw = WeightedGraph(n, edges[:at] + BAD_EDGES[bad](n) + edges[at:])
    for build in BUILDERS:
        with pytest.raises(ValueError):
            build(raw, k, eps)


HUGE_K = 10 ** 400   # 2k - 1 is past the float range


@pytest.mark.parametrize("g", [gnm_graph(60, 600, 1, "unit"), WeightedGraph(3, [])],
                         ids=["gnm-unit", "edgeless"])
@pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__)
def test_builders_reject_k_past_float_range(build, g):
    # where hz ran, pm and linear used to raise OverflowError on its
    # 1.0 / k, light on its filter's target; an edgeless graph was built
    with pytest.raises(ValueError, match=r"k is too large for eps=0\.25"):
        build(g, HUGE_K, 0.25)


def test_check_k_target_and_bounds():
    assert check_k(2, 0.25) == 3.75
    with pytest.raises(ValueError, match="k must be >= 1"):
        check_k(0, 0.25)
    # a k whose 2k - 1 is a float but whose target overflows
    with pytest.raises(ValueError, match="k is too large"):
        check_k(10 ** 308, 0.5)
    # a non-finite eps is the caller's to reject, whatever k is
    assert math.isnan(check_k(2, math.nan))
    assert check_k(HUGE_K, math.inf) == math.inf
