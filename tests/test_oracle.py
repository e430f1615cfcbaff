from __future__ import annotations

import heapq
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from spanlab import build_light, build_linear, build_pm, oracle
from spanlab.generators import gnm_graph
from spanlab.graphs import WeightedGraph, sssp_distances
from spanlab.oracle import StretchReport, greedy_spanner, spanner_metrics, verify_stretch
from conftest import triangle, wgraph

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


def test_greedy_rejects_bad_t():
    with pytest.raises(ValueError):
        greedy_spanner(triangle(), 0.5)


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
        dg = [sssp_distances(g, s).dist for s in range(n)]
        dh = [sssp_distances(h, s).dist for s in range(n)]
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
    submap = {}
    for u, v, w in g.edges:
        key = (u, v) if u < v else (v, u)
        submap[key] = w
    for u, v, w in h_edges:
        key = (u, v) if u < v else (v, u)
        if key not in submap or submap[key] != w:
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


# ---------------------------------------------------------------- oracle cost


def _k4_pieces(pieces, seed):
    rng = random.Random(seed)
    label = list(range(4 * pieces))
    rng.shuffle(label)
    edges = []
    for p in range(pieces):
        ids = label[4 * p: 4 * p + 4]
        edges.extend((ids[a], ids[b], 10 ** rng.uniform(0, 3))
                     for a in range(4) for b in range(a + 1, 4))
    return WeightedGraph.from_edges(4 * pieces, edges)


def test_verify_memory_is_linear_on_many_components():
    # a distance list per source would hold ~3000 x 4000 floats (~94 MB)
    g = _k4_pieces(1000, seed=3)
    h = build_light(g, 2, 0.25)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        rep = verify_stretch(g, h, 3.75)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert peak < 10 * 2**20, f"verify peaked at {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("g", [gnm_graph(80, 400, seed=9, law="uniform", wmax=50),
                               _k4_pieces(50, seed=5)])
def test_one_search_per_reference_source(g, monkeypatch):
    calls = []
    search = oracle._dijkstra

    def counting(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(oracle, "_dijkstra", counting)
    h = build_pm(g, 2, 0.25)
    assert verify_stretch(g, h, 3.75).ok
    assert len(calls) == len(set(_reference_sources(g)))
