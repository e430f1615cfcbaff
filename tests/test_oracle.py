from __future__ import annotations

import heapq
import json
import math
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from spanlab import build_light, build_linear, build_pm, oracle
from spanlab.generators import gnm_graph
from spanlab.graphs import WeightedGraph, sssp_distances
from spanlab.oracle import StretchReport, greedy_spanner, spanner_metrics, verify_stretch
from conftest import k4_pieces, triangle, wgraph

INF = math.inf


# ---------------------------------------------------------------- greedy


def test_greedy_unit_four_cycle_drops_last_edge():
    g = wgraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    sp = greedy_spanner(g, 3.0)
    assert sp.m == 3   # the 4th edge has detour 3 <= 3*1
    assert verify_stretch(g, sp, 3.0).ok


def test_greedy_equality_drops():
    g = triangle(1, 1, 2)
    sp = greedy_spanner(g, 1.0)
    keys = sp.edge_key_set()
    assert (0, 2) not in keys and len(keys) == 2


def test_greedy_tree_identity():
    g = wgraph(6, [(0, 1, 2), (1, 2, 5), (1, 3, 1), (3, 4, 9), (0, 5, 4)])
    for t in (1.0, 2.0, 10.0):
        assert greedy_spanner(g, t).edge_key_set() == g.edge_key_set()


def test_greedy_self_consistent_on_random_instances():
    rng = random.Random(17)
    for trial in range(40):
        n = rng.randint(4, 24)
        g = gnm_graph(n, rng.randint(n, 3 * n), seed=trial, law="uniform", wmax=9)
        t = rng.choice([1.0, 1.5, 3.0, 5.0])
        sp = greedy_spanner(g, t)
        assert verify_stretch(g, sp, t).ok


def test_greedy_monotone_in_t():
    rng = random.Random(23)
    for trial in range(15):
        g = gnm_graph(12, 30, seed=100 + trial, law="uniform", wmax=9)
        sizes = [greedy_spanner(g, t).m for t in (1.0, 2.0, 3.0, 5.0)]
        assert sizes == sorted(sizes, reverse=True)


def reference_greedy(g: WeightedGraph, t: float) -> list[tuple[int, int, float]]:
    """The classic greedy's kept edges, each edge tested by its own Dijkstra
    over dicts that abandons paths longer than t * w."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(g.n)]
    kept = []
    for eid in sorted(range(g.m), key=lambda e: (g.edges[e][2], e)):
        u, v, w = g.edges[eid]
        cutoff = t * w
        dist = {u: 0.0}
        heap = [(0.0, u)]
        d = INF
        while heap:
            du, x = heapq.heappop(heap)
            if x == v:
                d = du
                break
            if du > dist.get(x, INF) or du > cutoff:
                continue
            for y, wy in adj[x]:
                nd = du + wy
                if nd <= cutoff and nd < dist.get(y, INF):
                    dist[y] = nd
                    heapq.heappush(heap, (nd, y))
        if d > cutoff:
            kept.append((u, v, w))
            adj[u].append((v, w))
            adj[v].append((u, w))
    return kept


@pytest.mark.parametrize("t", [1.0, 1.5, 3.0])
def test_greedy_matches_reference_with_tied_weights(t):
    rng = random.Random(f"greedy-ties-{t}")
    for trial in range(30):
        n = rng.randint(4, 40)
        edges = {}
        for _ in range(rng.randint(n, 4 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges[min(u, v), max(u, v)] = float(rng.choice([1, 1, 2, 3, 5]))
        g = WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])
        assert greedy_spanner(g, t).edges == reference_greedy(g, t)


def test_greedy_rejects_bad_t():
    with pytest.raises(ValueError):
        greedy_spanner(triangle(), 0.5)


@pytest.mark.parametrize("bad", [(1, 5, 1.0), (-1, 2, 1.0)])
def test_greedy_rejects_out_of_range_vertex(bad):
    with pytest.raises(ValueError, match=r"vertex id outside 0\.\.2 \(n=3\)"):
        greedy_spanner(WeightedGraph(3, [(0, 1, 1.0), bad]), 3.0)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_greedy_rejects_non_finite_t(t):
    # no detour exceeds a NaN or infinite t * w, so such a t keeps no edge
    with pytest.raises(ValueError, match="finite and >= 1"):
        greedy_spanner(triangle(), t)


# ---------------------------------------------------------------- verify


def test_verify_identity():
    g = gnm_graph(10, 20, seed=1)
    rep = verify_stretch(g, g, 1.0)
    assert rep.max_stretch == 1.0 and rep.ok


def test_verify_triangle_minus_edge():
    g = triangle(1, 1, 1)
    h = wgraph(3, [(0, 1, 1), (1, 2, 1)])
    rep = verify_stretch(g, h, 3.0)
    assert rep.max_stretch == 2.0
    assert rep.witness == (0, 2, 1.0)


def test_verify_missing_bridge_is_inf():
    g = wgraph(3, [(0, 1, 1), (1, 2, 1)])
    h = wgraph(3, [(0, 1, 1)])
    rep = verify_stretch(g, h, 100.0)
    assert math.isinf(rep.max_stretch)
    assert not rep.ok
    assert rep.witness == (1, 2, 1.0)


def test_verify_rejects_non_subgraph():
    g = triangle(1, 1, 1)
    with pytest.raises(ValueError):
        verify_stretch(g, wgraph(3, [(0, 1, 2.0)]), 3.0)
    with pytest.raises(ValueError):
        verify_stretch(g, wgraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 0, 1)]), 3.0)


@pytest.mark.parametrize("bad", [(1, 5, 1.0), (-1, 2, 1.0)])
@pytest.mark.parametrize("h", [WeightedGraph(3, []), WeightedGraph(3, [(0, 1, 1.0)]),
                               WeightedGraph(3, [(0, 1, 1.0), (0, 1, 2.0)])])
def test_verify_rejects_out_of_range_vertex(bad, h):
    # a raw WeightedGraph skips from_edges' checks: id 5 used to raise
    # IndexError, and id -1 to index from the end of a list
    g = WeightedGraph(3, [(0, 1, 1.0), (0, 1, 2.0), bad])
    with pytest.raises(ValueError, match=r"vertex id outside 0\.\.2 \(n=3\)") as exc:
        verify_stretch(g, h, 3.0)
    assert str(bad) in str(exc.value)


def test_verify_accepts_any_parallel_copy():
    # H keeps the weight-5 copy of (0, 1); the weight-1 copy then has stretch 5
    g = WeightedGraph(3, [(0, 1, 5.0), (0, 1, 1.0), (1, 2, 1.0)])
    h = WeightedGraph(3, [(0, 1, 5.0), (1, 2, 1.0)])
    rep = assert_matches_reference(g, h, 3.0)
    assert rep.max_stretch == 5.0 and rep.witness == (0, 1, 1.0) and not rep.ok
    assert rep.histogram == {"1.00": 2, "5.00": 1}
    # a weight no copy has is still rejected
    with pytest.raises(ValueError, match="not an edge of the graph"):
        verify_stretch(g, WeightedGraph(3, [(1, 0, 2.0)]), 3.0)


@pytest.mark.parametrize("t", [INF, -INF, math.nan, 0.5])
def test_verify_rejects_bad_target(t):
    # an H with no edges has stretch inf everywhere, which t=inf used to pass
    g = wgraph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(ValueError, match="finite and >= 1"):
        verify_stretch(g, WeightedGraph(3, []), t)


def test_verify_edge_max_equals_all_pairs_brute_force():
    # the per-edge maximum equals the maximum over all vertex pairs
    rng = random.Random(5)
    for trial in range(25):
        n = rng.randint(3, 8)
        g = gnm_graph(n, rng.randint(n - 1, n * (n - 1) // 2), seed=500 + trial,
                      law="uniform", wmax=8)
        keep = [e for i, e in enumerate(g.edges) if rng.random() < 0.7 or i < n]
        h = WeightedGraph(n, keep)
        rep = verify_stretch(g, h, 3.0)
        pair_max = 0.0
        dg = [sssp_distances(g, s) for s in range(n)]
        dh = [sssp_distances(h, s) for s in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if dg[u][v] == 0 or math.isinf(dg[u][v]):
                    continue
                ratio = dh[u][v] / dg[u][v]
                pair_max = max(pair_max, ratio)
        if math.isinf(pair_max):
            assert math.isinf(rep.max_stretch)
        else:
            assert abs(pair_max - rep.max_stretch) <= 1e-9 * max(1.0, pair_max)


def test_report_json_fields():
    g = triangle()
    rep = verify_stretch(g, g, 1.0)
    data = json.loads(rep.to_json())
    assert set(data) == {"max_stretch", "witness", "pass", "target",
                         "histogram_buckets"}
    assert data["pass"] is True


# ---------------------------------------------------------------- metrics


def test_metrics_mst_is_one_one():
    g = gnm_graph(12, 30, seed=3)
    from spanlab.graphs import minimum_spanning_tree

    mst = minimum_spanning_tree(g)
    met = spanner_metrics(g, WeightedGraph(g.n, mst.edges))
    assert abs(met.sparsity - 1.0) <= 1e-12
    assert abs(met.lightness - 1.0) <= 1e-12


def test_metrics_unit_k4():
    g = wgraph(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])
    met = spanner_metrics(g, g)
    assert met.sparsity == 2.0 and met.lightness == 2.0


@pytest.mark.parametrize("w", [-1.0, 0.0, math.nan, INF])
@pytest.mark.parametrize("judge", [
    lambda g: greedy_spanner(g, 3.0),
    lambda g: verify_stretch(g, WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)]), 3.0),
    lambda g: spanner_metrics(g, WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])),
], ids=["greedy", "verify", "metrics"])
def test_oracle_rejects_weight_outside_open_interval(judge, w):
    # a raw WeightedGraph skips from_edges' checks: greedy never returned
    # at -1, verify passed at -1, divided by zero at 0 and failed to
    # convert NaN to an int, and metrics reported lightness inf
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, w)])
    with pytest.raises(ValueError, match=re.escape(
            f"edge (0, 2, {w!r}) has weight {w!r}, outside (0, inf)")):
        judge(g)


@pytest.mark.parametrize("bad", [(1, 5, 1.0), (-1, 2, 1.0)])
def test_metrics_rejects_out_of_range_vertex(bad):
    g = WeightedGraph(3, [(0, 1, 1.0), bad])
    with pytest.raises(ValueError, match=r"vertex id outside 0\.\.2 \(n=3\)") as exc:
        spanner_metrics(g, WeightedGraph(3, [(0, 1, 1.0)]))
    assert str(bad) in str(exc.value)


def test_metrics_match_naive_recomputation():
    rng = random.Random(44)
    for trial in range(10):
        g = gnm_graph(15, 40, seed=900 + trial, law="loguniform", wmax=50)
        keep = [e for i, e in enumerate(g.edges) if rng.random() < 0.8 or i < 15]
        h = WeightedGraph(g.n, keep)
        met = spanner_metrics(g, h)
        # naive recomputation with the project MST implementation
        from spanlab.graphs import minimum_spanning_tree

        mst_w = minimum_spanning_tree(g).weight
        assert abs(met.sparsity - len(keep) / (g.n - 1)) <= 1e-12
        assert abs(met.lightness - sum(w for _, _, w in keep) / mst_w) <= 1e-9


# ---------------------------------------------------------------- reference oracle

# verify_stretch as it was before its searches were streamed: a full
# Dijkstra per source, every distance list kept.  The streamed oracle must
# return the same report on every input.


def _reference_dijkstra(n, adj, source):
    dist = [INF] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _reference_sources(g):
    """The source each edge of g is measured from, in g.edges order."""
    sources = []
    seen = set()
    for u, v, _ in g.edges:
        src = u if u in seen or v not in seen else v
        seen.add(src)
        sources.append(src)
    return sources


def reference_verify_stretch(g, h, t):
    h_edges = h.edges
    # an edge of H must match some copy of its pair in g, weight included
    weights = {}
    for u, v, w in g.edges:
        key = (u, v) if u < v else (v, u)
        weights.setdefault(key, []).append(w)
    for u, v, w in h_edges:
        key = (u, v) if u < v else (v, u)
        if w not in weights.get(key, []):
            raise ValueError(f"spanner edge {key} (w={w}) is not an edge of the graph")

    adj_h = [[] for _ in range(g.n)]
    for u, v, w in h_edges:
        adj_h[u].append((v, w))
        adj_h[v].append((u, w))
    dist_from = {}
    max_stretch = 1.0 if g.m else 0.0
    witness = None
    ratios = []
    for u, v, w in g.edges:
        src = u if u in dist_from or v not in dist_from else v
        if src not in dist_from:
            dist_from[src] = _reference_dijkstra(g.n, adj_h, src)
        other = v if src == u else u
        d = dist_from[src][other]
        ratio = d / w
        ratios.append(ratio)
        if ratio > max_stretch:
            max_stretch = ratio
            witness = (u, v, w)
    hist = {}
    for r in ratios:
        if math.isinf(r):
            key = "inf"
        else:
            key = f"{math.floor(r * 4) / 4:.2f}"
        hist[key] = hist.get(key, 0) + 1
    ok = max_stretch <= t * (1.0 + 1e-9)
    return StretchReport(
        max_stretch=max_stretch, witness=witness, ok=ok, target=t, histogram=hist
    )


def assert_matches_reference(g, h, t):
    rep = verify_stretch(g, h, t)
    ref = reference_verify_stretch(g, h, t)
    assert rep.max_stretch == ref.max_stretch
    assert rep.witness == ref.witness
    assert rep.ok == ref.ok
    assert rep.target == ref.target
    assert rep.histogram == ref.histogram
    assert rep.to_json() == ref.to_json()
    return rep


@pytest.mark.parametrize("law", ["uniform", "loguniform", "unit"])
@pytest.mark.parametrize("build", [build_pm, build_linear, build_light])
@pytest.mark.parametrize("k", [2, 3])
def test_streamed_matches_reference_on_builders(law, build, k):
    g = gnm_graph(60, 240, seed=7 + k, law=law, wmax=1e3)
    h = build(g, k, 0.25)
    rep = assert_matches_reference(g, h, (2 * k - 1) * 1.25)
    assert rep.ok


def test_streamed_matches_reference_disconnected_with_isolated_vertices():
    a = gnm_graph(12, 30, seed=1, law="loguniform", wmax=100)
    b = gnm_graph(9, 20, seed=2, law="uniform", wmax=9)
    # ids 0..11 hold a, 12..14 are isolated, 15..23 hold b
    g = WeightedGraph.from_edges(
        24, list(a.edges) + [(u + 15, v + 15, w) for u, v, w in b.edges])
    h = build_linear(g, 2, 0.25)
    assert assert_matches_reference(g, h, 3.75).ok
    keep = WeightedGraph(g.n, g.edges[::2])
    assert_matches_reference(g, keep, 3.75)


def test_streamed_matches_reference_missing_edges():
    g = gnm_graph(20, 50, seed=4, law="uniform", wmax=9)
    h = WeightedGraph(g.n, g.edges[5:])
    rep = assert_matches_reference(g, h, 3.0)
    assert "inf" in rep.histogram and not rep.ok


def test_streamed_matches_reference_no_edges():
    g = WeightedGraph(5, [])
    rep = assert_matches_reference(g, g, 3.0)
    assert rep.max_stretch == 0.0 and rep.witness is None and rep.ok


def test_streamed_matches_reference_h_equals_g():
    g = gnm_graph(30, 90, seed=6, law="loguniform", wmax=1e6)
    rep = assert_matches_reference(g, g, 1.0)
    assert rep.max_stretch == 1.0 and rep.witness is None


def test_tie_witness_is_first_in_edge_order():
    # (3,5) and (0,2) both have stretch 2; (3,5) comes first in g.edges
    # although its source is searched after (0,2)'s
    g = wgraph(6, [(3, 5, 1), (0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1)])
    h = wgraph(6, [(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1)])
    rep = assert_matches_reference(g, h, 3.0)
    assert rep.max_stretch == 2.0
    assert rep.witness == (3, 5, 1.0)


@st.composite
def graph_and_subgraph(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    edges = []
    for u, v in chosen:
        w = float(draw(st.integers(min_value=1, max_value=4)))
        edges.append((v, u, w) if draw(st.booleans()) else (u, v, w))
    keep = [e for e in edges if draw(st.booleans())]
    return WeightedGraph(n, edges), WeightedGraph(n, keep)


@settings(max_examples=300, deadline=None)
@given(graph_and_subgraph(), st.sampled_from([1.0, 1.5, 3.0]))
def test_streamed_matches_reference_property(gh, t):
    g, h = gh
    assert_matches_reference(g, h, t)


# H with one edge weight: verify_stretch searches it breadth-first.  The
# weights are not dyadic, so a distance taken as hops * c instead of a sum
# added along the path rounds differently (ten 0.1s sum to 0.9999999999999999)

ONE_WEIGHTS = [0.1, 1 / 3, 7.7, 1e-3]
TEN_TENTHS = wgraph(11, [(i, i + 1, 0.1) for i in range(10)])


@st.composite
def graph_and_one_weight_subgraph(draw, weights=ONE_WEIGHTS):
    c = draw(st.sampled_from(weights))
    n = draw(st.integers(min_value=1, max_value=14))
    # vertices 0..path-1 form a path of H, so chords see long hop counts
    path = draw(st.integers(min_value=1, max_value=n))
    keep = [(i, i + 1, c) for i in range(path - 1)]
    edges = list(keep)
    # every other pair, so no path edge is drawn twice
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if v > u + 1 or v >= path]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30)
                  if pairs else st.just([]))
    for u, v in chosen:
        if draw(st.booleans()):
            keep.append((u, v, c))
            edges.append((u, v, c))
        else:
            # G's other edges may weigh anything
            edges.append((u, v, draw(st.sampled_from(ONE_WEIGHTS + [1.0, 2.5]))))
    rng = random.Random(draw(st.integers(0, 2**16)))
    rng.shuffle(edges)
    # edge order and orientation pick the sources verify searches from
    edges = [(v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in edges]
    return WeightedGraph(n, edges), WeightedGraph(n, keep)


@settings(max_examples=300, deadline=None)
@given(graph_and_one_weight_subgraph(), st.sampled_from([1.0, 3.0, 10.0]))
# no edge in H
@example((TEN_TENTHS, WeightedGraph(11, [])), 3.0)
# H leaves 3 and 4 unreachable from 0..2: an "inf" bucket
@example((wgraph(5, [(0, 1, 7.7), (1, 2, 7.7), (0, 2, 7.7), (2, 3, 1.0), (3, 4, 7.7)]),
          wgraph(5, [(0, 1, 7.7), (1, 2, 7.7), (3, 4, 7.7)])), 3.0)
# a chord over ten 0.1 edges: its distance is their sum, not 10 * 0.1
@example((wgraph(11, TEN_TENTHS.edges + [(0, 10, 0.1)]), TEN_TENTHS), 10.0)
def test_streamed_matches_reference_one_weight_property(gh, t):
    g, h = gh
    assert_matches_reference(g, h, t)


def test_one_weight_distance_is_summed_along_the_path():
    g = wgraph(11, TEN_TENTHS.edges + [(0, 10, 0.1)])
    rep = assert_matches_reference(g, TEN_TENTHS, 10.0)
    summed = sum([0.1] * 10)
    assert summed != 10 * 0.1
    assert rep.max_stretch == summed / 0.1 and rep.witness == (0, 10, 0.1)


# a one-weight H outside G is caught by the scan that registers the
# queries; G's edges are then indexed by `_check_subgraph` only to name
# the first such edge of H, in the same words as for several weights

UNIT_G = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 1, 2.0), (2, 2, 2.0)])


@pytest.mark.parametrize("h_edges, named", [
    ([(0, 1, 1.0), (2, 3, 1.0)], (2, 3)),      # a pair G does not have
    ([(0, 1, 1.0), (3, 1, 1.0)], (1, 3)),      # G's only copy weighs 2.0
    ([(2, 2, 1.0)], (2, 2)),                   # a self-loop, likewise
    ([(0, 1, 1.0), (1, 4, 1.0)], (1, 4)),      # an id >= n
    ([(0, 1, 1.0), (-1, 2, 1.0)], (-1, 2)),    # a negative id
    # two bad edges: the first in h.edges order is named
    ([(0, 3, 1.0), (0, 1, 1.0), (3, 2, 1.0)], (0, 3)),
    ([(3, 2, 1.0), (0, 1, 1.0), (0, 3, 1.0)], (2, 3)),
    ([(1, 2, 1.0), (2, 3, 1.0), (1, 4, 1.0)], (2, 3)),
    ([(1, 2, 1.0), (1, 4, 1.0), (2, 3, 1.0)], (1, 4)),
], ids=["missing-pair", "other-weight", "self-loop", "id-past-n", "negative-id",
        "first-of-two", "first-of-two-reversed", "missing-then-id", "id-then-missing"])
def test_one_weight_h_outside_g_names_its_first_bad_edge(h_edges, named):
    h = WeightedGraph(4, h_edges)
    message = f"spanner edge {named} (w=1.0) is not an edge of the graph"
    with pytest.raises(ValueError) as exc:
        verify_stretch(UNIT_G, h, 3.0)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        oracle._check_subgraph(UNIT_G, h)
    assert str(exc.value) == message


@pytest.mark.parametrize("g, h", [
    # two copies of (0, 1) in a raw G, one of H's weight
    (WeightedGraph(3, [(0, 1, 2.0), (1, 0, 0.1), (1, 2, 0.1)]),
     WeightedGraph(3, [(0, 1, 0.1), (2, 1, 0.1)])),
    # a self-loop of H matched by one of G
    (WeightedGraph(3, [(0, 1, 0.1), (1, 2, 0.1), (0, 2, 0.1), (2, 2, 0.1)]),
     WeightedGraph(3, [(0, 1, 0.1), (2, 2, 0.1), (1, 2, 0.1)])),
], ids=["parallel-copies", "self-loop"])
def test_one_weight_h_inside_a_raw_g(g, h):
    assert_matches_reference(g, h, 3.0)


@st.composite
def perturbed_one_weight(draw):
    """A one-weight (g, h) of `graph_and_one_weight_subgraph`, then one to
    three edits that may put H outside G: an edge of H on any pair, its
    ids one or two past either end of 0..n-1; a G edge dropped, reweighed
    or given a parallel copy; a self-loop added to G or to H."""
    g, h = draw(graph_and_one_weight_subgraph())
    n = g.n
    c = h.edges[0][2] if h.edges else draw(st.sampled_from(ONE_WEIGHTS))
    g_edges, h_edges = list(g.edges), list(h.edges)
    weight = st.sampled_from([c, c, 1.0, 2.5])
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["h-edge", "drop", "reweigh", "copy", "g-loop", "h-loop"]))
        at_h = draw(st.integers(0, len(h_edges)))
        at_g = draw(st.integers(0, len(g_edges)))
        if edit == "h-edge":
            ids = st.integers(-2, n + 1)
            h_edges.insert(at_h, (draw(ids), draw(ids), c))
        elif edit == "h-loop":
            h_edges.insert(at_h, (draw(st.integers(0, n - 1)),) * 2 + (c,))
        elif edit == "g-loop":
            g_edges.insert(at_g, (draw(st.integers(0, n - 1)),) * 2 + (draw(weight),))
        elif g_edges:
            i = at_g % len(g_edges)
            u, v, _ = g_edges[i]
            if edit == "drop":
                del g_edges[i]
            elif edit == "reweigh":
                g_edges[i] = (u, v, draw(weight))
            else:
                g_edges.insert(at_g, (v, u, draw(weight)))
    return WeightedGraph(n, g_edges), WeightedGraph(n, h_edges)


@settings(max_examples=300, deadline=None)
@given(perturbed_one_weight())
def test_one_weight_verify_raises_iff_check_subgraph_does(gh):
    g, h = gh
    try:
        oracle._check_subgraph(g, h)
        want = None
    except ValueError as exc:
        want = str(exc)
    try:
        verify_stretch(g, h, 3.0)
        got = None
    except ValueError as exc:
        got = str(exc)
    assert got == want
    if want is None:
        assert_matches_reference(g, h, 3.0)


def test_one_weight_verify_indexes_g_only_to_raise(monkeypatch):
    # a valid one-weight H is matched to G in the registration scan; an H
    # with several weights, or one outside G, calls _check_subgraph once
    calls = []
    check = oracle._check_subgraph

    def counted(g, h):
        calls.append(h)
        check(g, h)

    monkeypatch.setattr(oracle, "_check_subgraph", counted)
    unit = gnm_graph(60, 240, seed=3, law="unit")
    assert verify_stretch(unit, build_pm(unit, 2, 0.25), 3.75).ok
    assert verify_stretch(unit, unit, 1.0).ok
    assert len(calls) == 0
    wide = gnm_graph(60, 240, seed=3, law="loguniform", wmax=1e3)
    h = build_pm(wide, 2, 0.25)
    assert len({w for _, _, w in h.edges}) > 1
    assert verify_stretch(wide, h, 3.75).ok
    assert len(calls) == 1
    with pytest.raises(ValueError, match="not an edge of the graph"):
        verify_stretch(unit, WeightedGraph(unit.n, [(0, 1, 1.5)]), 3.0)
    assert len(calls) == 2


@st.composite
def one_weight_components(draw):
    """2 to 4 disjoint one-weight pieces, H weighing 0.1 or 1/3 in all of
    them, with isolated vertices between them, a few G edges across them
    (queries H cannot answer) and the ids shuffled."""
    c = draw(st.sampled_from([0.1, 1 / 3]))
    g_edges, h_edges, n = [], [], 0
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        g, h = draw(graph_and_one_weight_subgraph(weights=[c]))
        g_edges += [(u + n, v + n, w) for u, v, w in g.edges]
        h_edges += [(u + n, v + n, w) for u, v, w in h.edges]
        n += g.n + draw(st.integers(min_value=0, max_value=2))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v:
            g_edges.append((u, v, c))
    rng = random.Random(draw(st.integers(0, 2**16)))
    ids = list(range(n))
    rng.shuffle(ids)
    rng.shuffle(g_edges)
    return (WeightedGraph(n, [(ids[u], ids[v], w) for u, v, w in g_edges]),
            WeightedGraph(n, [(ids[u], ids[v], w) for u, v, w in h_edges]))


@pytest.mark.parametrize("grow", [True, False], ids=["balls", "bfs"])
@settings(max_examples=150, deadline=None)
@given(gh=st.one_of(graph_and_one_weight_subgraph(), one_weight_components()),
       t=st.sampled_from([1.0, 3.0, 10.0]))
@example(gh=(wgraph(11, TEN_TENTHS.edges + [(0, 10, 0.1)]), TEN_TENTHS), t=10.0)
def test_one_weight_balls_and_bfs_match_reference(grow, gh, t):
    # the rule forced one way: each H-component with a query grows balls
    # until every one of its queries is answered, or goes whole to the BFS
    g, h = gh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_grows_balls", lambda r, covered, size: grow)
        assert_matches_reference(g, h, t)


def _searched_queries(monkeypatch):
    """The edge ids each one-weight search is handed from now on: "balls"
    those `_ball_distances` starts with, "bfs" those `_bfs_distances` gets,
    whether straight from the scan or left over by the balls."""
    seen = {"balls": [], "bfs": []}
    balls, bfs = oracle._ball_distances, oracle._bfs_distances

    def counted_balls(n, nbrs, members, live, *rest):
        seen["balls"] += [eid for qs in live.values() for eid in qs[::3]]
        return balls(n, nbrs, members, live, *rest)

    def counted_bfs(n, nbrs, comp, tail, *rest):
        seen["bfs"] += [eid for qs in tail for eid in qs[::3]]
        return bfs(n, nbrs, comp, tail, *rest)

    monkeypatch.setattr(oracle, "_ball_distances", counted_balls)
    monkeypatch.setattr(oracle, "_bfs_distances", counted_bfs)
    return seen


def test_one_weight_query_between_h_components_enters_no_ball(monkeypatch):
    # H is the 0.1-path 0-1-2 and the edge 3-4.  G's (0, 2), edge 4, is a
    # query of two hops; (2, 3) and (4, 0) cross H-components.  With balls
    # forced, only (0, 2) is handed to a search; the other two get inf
    h = wgraph(5, [(0, 1, 0.1), (1, 2, 0.1), (3, 4, 0.1)])
    g = wgraph(5, h.edges + [(2, 3, 0.1), (0, 2, 0.1), (4, 0, 0.1)])
    monkeypatch.setattr(oracle, "_grows_balls", lambda r, covered, size: True)
    seen = _searched_queries(monkeypatch)
    rep = assert_matches_reference(g, h, 3.0)
    assert seen == {"balls": [4], "bfs": []}
    assert rep.histogram == {"1.00": 3, "2.00": 1, "inf": 2}


# H with several weights: the first source of each H-component searches
# it whole, and every later source searches up to a bound taken from that
# anchor's distances, again unbounded should a target go unreached


@st.composite
def graph_and_multi_weight_subgraph(draw):
    n = draw(st.integers(min_value=3, max_value=16))
    # an H-component label per vertex; label -1 leaves a vertex isolated
    # in H.  Vertices 0, 1, 2 share a component and the H path 0-1-2 has
    # two weights, so H never takes the one-weight searches
    parts = draw(st.integers(min_value=1, max_value=4))
    label = [0, 0, 0] + draw(st.lists(st.integers(min_value=-1, max_value=parts - 1),
                                      min_size=n - 3, max_size=n - 3))
    weight = st.floats(min_value=-6, max_value=6).map(lambda x: 10.0 ** x)
    wa, wb = draw(weight), draw(weight)
    edges = [(0, 1, wa), (1, 2, wb if wb != wa else 2 * wa)]
    keep = list(edges)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if (u, v) not in ((0, 1), (1, 2))]
    for u, v in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=40)):
        w = draw(weight)
        edges.append((u, v, w))
        # an edge between two H-components, or at an isolated vertex, is
        # a query H cannot answer
        if label[u] == label[v] != -1 and draw(st.booleans()):
            keep.append((u, v, w))
    rng = random.Random(draw(st.integers(0, 2**16)))
    ids = list(range(n))
    rng.shuffle(ids)
    rng.shuffle(edges)
    # edge order and orientation pick the sources and so the anchors
    edges = [(ids[v], ids[u], w) if rng.random() < 0.5 else (ids[u], ids[v], w)
             for u, v, w in edges]
    keep = [(ids[u], ids[v], w) for u, v, w in keep]
    return WeightedGraph(n, edges), WeightedGraph(n, keep)


@settings(max_examples=300, deadline=None)
@given(graph_and_multi_weight_subgraph(), st.sampled_from([1.0, 3.0, 1e6]))
def test_streamed_matches_reference_multi_weight_property(gh, t):
    g, h = gh
    assert_matches_reference(g, h, t)


def test_short_bound_falls_back_to_an_unbounded_search(monkeypatch):
    # halve every finite bound: the searches it cuts short must notice
    # an unreached target and search again, so the reports stay exact
    search = oracle._dijkstra
    reruns = []

    def halved(*args):
        if len(args) > 4 and args[4] < INF:
            args = args[:4] + (args[4] / 2,)
            touched, missed = search(*args)
            if missed:
                reruns.append(args[1])
            return touched, missed
        return search(*args)

    monkeypatch.setattr(oracle, "_dijkstra", halved)
    a = gnm_graph(40, 200, seed=3, law="loguniform", wmax=1e6)
    b = k4_pieces(20, seed=8)
    apart = WeightedGraph.from_edges(
        a.n + b.n, list(a.edges) + [(u + a.n, v + a.n, w) for u, v, w in b.edges])
    for g in (a, b, apart):
        for build in (build_pm, build_linear, build_light):
            assert assert_matches_reference(g, build(g, 2, 0.25), 3.75).ok
        assert_matches_reference(g, g, 1.0)
    assert reruns


def _counted_searches(monkeypatch):
    """The source of every `_dijkstra` call from now on, in call order."""
    calls = []
    search = oracle._dijkstra

    def counting(*args):
        calls.append(args[1])
        return search(*args)

    monkeypatch.setattr(oracle, "_dijkstra", counting)
    return calls


def test_query_between_h_components_runs_no_search(monkeypatch):
    # sources by edge order: 0 anchors {0, 1, 2}, 1 searches for 2, 3
    # anchors {3, 4}; source 2 asks only for 4, in another H-component,
    # so it gets inf without a search
    g = wgraph(5, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 3.0), (2, 3, 1.0), (2, 4, 1.5)])
    h = wgraph(5, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 3.0)])
    assert _reference_sources(g) == [0, 1, 3, 3, 2]
    searched = _counted_searches(monkeypatch)
    rep = assert_matches_reference(g, h, 3.0)
    assert searched == [0, 1, 3]
    assert rep.histogram == {"1.00": 3, "inf": 2}


# ---------------------------------------------------------------- oracle cost


def _verify_peak(g, h, t):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        rep = verify_stretch(g, h, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return rep, peak


def test_verify_memory_is_linear_on_many_components():
    # a distance list per source would hold ~3000 x 4000 floats (~94 MB)
    g = k4_pieces(1000, seed=3)
    h = build_light(g, 2, 0.25)
    rep, peak = _verify_peak(g, h, 3.75)
    assert rep.ok
    assert peak < 10 * 2**20, f"verify peaked at {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("build", [build_light, build_pm])
def test_one_weight_verify_memory_is_linear_on_many_components(build):
    # one global bit per source would make ~4000 bitsets ~3000 bits wide;
    # ranks within a component keep each at most 4 bits
    g = k4_pieces(1000, seed=3, unit=True)
    h = build(g, 2, 0.25)
    assert {w for _, _, w in h.edges} == {1.0}
    rep, peak = _verify_peak(g, h, 3.75)
    assert rep.ok
    assert peak < 10 * 2**20, f"verify peaked at {peak / 2**20:.1f} MB"


def _h_adjacency(g, h):
    adj = [[] for _ in range(g.n)]
    for u, v, w in h.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def _expected_searches(g, h):
    """The searches a several-weight H costs: one per anchor (the first
    reference source of each H-component), plus one per later reference
    source s with an edge (s, t, w), t in its component, that the anchor
    bound does not skip, i.e. with (A[s] + A[t]) * 4 * exp(n * 2^-50) >= w."""
    adj = _h_adjacency(g, h)
    scale = 4 * math.exp(g.n * 2.0 ** -50)
    anchor_of = {}      # vertex -> the anchor of its H-component
    dist_a = {}         # vertex -> its distance from that anchor
    searching = set()
    for (u, v, w), src in zip(g.edges, _reference_sources(g)):
        other = v if src == u else u
        if src not in anchor_of:
            for x, d in enumerate(_reference_dijkstra(g.n, adj, src)):
                if d < INF:
                    anchor_of[x], dist_a[x] = src, d
            searching.add(src)
        elif (anchor_of[src] != src and anchor_of.get(other) == anchor_of[src]
              and not (dist_a[src] + dist_a[other]) * scale < w):
            searching.add(src)
    return len(searching)


@pytest.mark.parametrize("g", [gnm_graph(80, 400, seed=9, law="uniform", wmax=50),
                               k4_pieces(50, seed=5),
                               gnm_graph(80, 400, seed=9, law="unit")])
def test_one_search_per_anchor_and_unskipped_source(g, monkeypatch):
    calls = _counted_searches(monkeypatch)
    h = build_pm(g, 2, 0.25)
    assert verify_stretch(g, h, 3.75).ok
    if len({w for _, _, w in h.edges}) == 1:
        # the unit-weight case: the ball DP or the BFS answers every query
        assert len(calls) == 0
    else:
        assert len(calls) == _expected_searches(g, h)


def test_wide_weights_skip_whole_sources(monkeypatch):
    # H = G over weights in [1, 1e9]: most edges are far heavier than the
    # walk through their anchor, so some later sources have no target left
    g = gnm_graph(250, 3000, seed=11, law="loguniform", wmax=1e9)
    calls = _counted_searches(monkeypatch)
    assert_matches_reference(g, g, 1.0)
    assert len(calls) == _expected_searches(g, g) < len(set(_reference_sources(g)))


# the H path 3-2-1-0-4, weights 0.3, 0.2, 0.1 from 0 and 0.1 to 4; source 0
# anchors it and source 3 measures G's edge (3, 4).  From the anchor
# A[3] = (0.3 + 0.2) + 0.1 = 0.6, so fl(A[3] + A[4]) = 0.7, but from 3,
# d_H(3, 4) = ((0.1 + 0.2) + 0.3) + 0.1 is the float just above 0.7
_ROUNDED_H = wgraph(5, [(0, 1, 0.3), (1, 2, 0.2), (2, 3, 0.1), (0, 4, 0.1)])
_ROUNDED_G = wgraph(5, _ROUNDED_H.edges + [(3, 4, 1.0)])


def test_anchor_sum_can_round_below_the_distance():
    adj = _h_adjacency(_ROUNDED_G, _ROUNDED_H)
    assert _reference_sources(_ROUNDED_G)[-1] == 3
    a = _reference_dijkstra(5, adj, 0)
    d = _reference_dijkstra(5, adj, 3)[4]
    assert a[3] + a[4] < d == math.nextafter(0.7, 1.0)


@st.composite
def graph_subgraph_and_pair(draw):
    """A several-weight (G, H), an ordered pair (x, y) that H connects, and
    a place in G's edge order for one more edge (x, y)."""
    g, h = draw(graph_and_multi_weight_subgraph())
    adj = _h_adjacency(g, h)
    pairs = [(x, y) for x in range(g.n)
             for y, d in enumerate(_reference_dijkstra(g.n, adj, x)) if y != x and d < INF]
    return g, h, draw(st.sampled_from(pairs)), draw(st.integers(0, g.m))


@settings(max_examples=200, deadline=None)
@given(graph_subgraph_and_pair(), st.sampled_from([1.0, 3.0]))
# a rule without the slack puts (3, 4) at weight 4 * d_H in bucket 0.00
@example((_ROUNDED_H, _ROUNDED_H, (3, 4), 4), 1.0)
def test_quarter_boundary_matches_reference(case, t):
    # G gains an edge (x, y) that weighs 4 * d_H(x, y), the reference float
    # distance from the edge's source, or one of that weight's two float
    # neighbours: its ratio sits on the 1/4 bucket boundary that the skip
    # rule decides
    g, h, (x, y), pos = case
    edges = list(g.edges)
    edges.insert(pos, (x, y, 1.0))
    src = _reference_sources(WeightedGraph(g.n, edges))[pos]
    d = _reference_dijkstra(g.n, _h_adjacency(g, h), src)[y if src == x else x]
    for w in (math.nextafter(4 * d, 0.0), 4 * d, math.nextafter(4 * d, INF)):
        edges[pos] = (x, y, w)
        assert_matches_reference(WeightedGraph(g.n, edges), h, t)


@pytest.mark.parametrize("big", [1e308, 5e307], ids=["sum", "product"])
def test_overflowing_anchor_bound_searches(big, monkeypatch):
    # 0 anchors all four vertices: A[1] = A[2] = big, A[3] = big + 1e307.
    # At big = 1e308 fl(A[s] + A[t]) overflows for every later source; at
    # 5e307 the sums stay finite and only their product with 4 overflows.
    # inf is never below w, so (1, 2), of ratio 0.2, is searched
    g = wgraph(4, [(0, 1, big), (0, 2, big), (1, 3, 1e307), (3, 2, 1e307),
                   (1, 2, 1e308)])
    h = WeightedGraph(4, g.edges[:4])
    calls = _counted_searches(monkeypatch)
    rep = assert_matches_reference(g, h, 3.0)
    assert calls == [0, 1, 3]
    assert rep.histogram == {"1.00": 4, "0.00": 1}


# one H-component holds every source; G's edges into two more H-components
# (and to an isolated vertex) are queries that no round answers
_WIDE_H = gnm_graph(40, 160, seed=12, law="unit")
_WIDE_G = WeightedGraph(
    48, list(_WIDE_H.edges) + [(40, 41, 1.0), (41, 42, 1.0), (43, 44, 1.0),
                               (0, 40, 1.0), (42, 43, 2.0), (5, 47, 1.0), (43, 7, 1.0)])


@pytest.mark.parametrize("size", [1, 2, 3])
@settings(max_examples=100, deadline=None)
@given(gh=graph_and_one_weight_subgraph(), t=st.sampled_from([1.0, 3.0, 10.0]))
@example(gh=(_WIDE_G, WeightedGraph(48, list(build_pm(_WIDE_H, 2, 0.25).edges)
                                     + [(40, 41, 1.0), (41, 42, 1.0), (43, 44, 1.0)])),
         t=3.0)
@example(gh=(_WIDE_G, WeightedGraph(48, [e for e in _WIDE_G.edges if e[2] == 1.0])), t=1.0)
def test_one_weight_rounds_match_reference(size, gh, t):
    g, h = gh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_ROUND", size)
        assert_matches_reference(g, h, t)


def test_one_weight_answered_sources_stop_spreading():
    # a 2000-vertex path H and one chord over it: every other query is
    # answered on hop 1, so only the chord's source may spread for the
    # 1999 hops it needs; were every bit spread to the end, each hop would
    # sweep the whole path with 1000-bit sets (over 3 s, against ~0.02 s)
    n = 2000
    path = [(i, i + 1, 1.0) for i in range(n - 1)]
    g = WeightedGraph(n, path + [(0, n - 1, 1.0)])
    start = time.perf_counter()
    rep = verify_stretch(g, WeightedGraph(n, path), float(n))
    assert time.perf_counter() - start < 1.0
    assert rep.max_stretch == n - 1 and rep.witness == (0, n - 1, 1.0)


# thin one-weight shapes: a 2000-vertex path H under G's chords, and the
# snake path through a 44 x 44 grid.  Few sources (one-chord, fan) or
# sources whose balls stay small keep the BFS and its alive pruning
_SHAPE_N = 2000
_PATH = [(i, i + 1, 1.0) for i in range(_SHAPE_N - 1)]


def _snake(side):
    """The side x side grid and, as H, the path through it row by row,
    each row in the other direction."""
    grid = []
    for v in range(side * side):
        if v % side + 1 < side:
            grid.append((v, v + 1, 1.0))
        if v + side < side * side:
            grid.append((v, v + side, 1.0))
    order = [r * side + (c if r % 2 == 0 else side - 1 - c)
             for r in range(side) for c in range(side)]
    path = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
    return (WeightedGraph(side * side, grid),
            WeightedGraph(side * side, [e for e in grid if e[:2] in path]))


# shape -> G's chords over the path, and how many queries the balls start
# with and the BFS gets
THIN_SHAPES = {
    # one source each: its ball alone is far below half the path
    "one-chord": ([(0, _SHAPE_N - 1, 1.0)], 0, 1),
    "fan": ([(0, 2 * j, 1.0) for j in range(1, _SHAPE_N // 2)], 0, 999),
    # 999 sources, one short of half the path
    "mirror": ([(i, _SHAPE_N - 1 - i, 1.0) for i in range(_SHAPE_N // 2)], 0, 999),
    # level 1 answers every (i, i + 2); the ball around 1 covers 3 vertices,
    # so (1, 1999) goes on to the BFS
    "skip": ([(i, i + 2, 1.0) for i in range(0, _SHAPE_N - 2, 2)] + [(1, _SHAPE_N - 1, 1.0)],
             1000, 1),
    "snake": (None, 1849, 0),
}


@pytest.mark.parametrize("shape", list(THIN_SHAPES))
def test_thin_one_weight_shapes_match_reference(shape, monkeypatch):
    chords, balls, bfs = THIN_SHAPES[shape]
    if chords is None:
        g, h = _snake(44)
    else:
        g, h = WeightedGraph(_SHAPE_N, _PATH + chords), WeightedGraph(_SHAPE_N, _PATH)
    seen = _searched_queries(monkeypatch)
    assert_matches_reference(g, h, float(g.n))
    assert (len(seen["balls"]), len(seen["bfs"])) == (balls, bfs)


def test_unit_dense_pm_is_answered_in_balls(monkeypatch):
    g = gnm_graph(800, 9600, seed=1, law="unit")
    h = build_pm(g, 3, 0.25)
    seen = _searched_queries(monkeypatch)
    assert_matches_reference(g, h, 6.25)
    assert len(seen["balls"]) == g.m - h.m and not seen["bfs"]
