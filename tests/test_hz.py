from __future__ import annotations

import random

import pytest

from spanlab.hz import UnweightedGraph, hz_spanner
from conftest import hop_distances


def petersen() -> UnweightedGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(i + 5, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return UnweightedGraph(10, outer + inner + spokes)


def _random_graph(rng: random.Random, n: int, p: float) -> UnweightedGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return UnweightedGraph(n, edges)


def _assert_hop_stretch(g: UnweightedGraph, out: set, k: int) -> None:
    cache: dict[int, list[int]] = {}
    for u, v in {(min(a, b), max(a, b)) for a in range(g.n) for b in g.adj[a]}:
        if u not in cache:
            cache[u] = hop_distances(g, out, u)
        d = cache[u][v]
        assert 0 < d <= 2 * k - 1, f"edge ({u},{v}) stretched to {d}"


def test_single_edge_any_k():
    g = UnweightedGraph(2, [(0, 1)])
    for k in (1, 2, 5):
        assert hz_spanner(g, k) == {(0, 1)}


def test_tree_keeps_all_edges():
    rng = random.Random(4)
    for k in (1, 2, 3):
        n = 30
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        g = UnweightedGraph(n, edges)
        assert hz_spanner(g, k) == {(min(a, b), max(a, b)) for a, b in edges}


def test_petersen_k2_keeps_all_15():
    # girth 5: dropping any edge forces a detour of >= 4 > 3 hops, so every
    # valid 3-spanner is the whole graph (checked by brute-force deletion)
    g = petersen()
    all_edges = {(min(a, b), max(a, b)) for a in range(10) for b in g.adj[a]}
    for u, v in sorted(all_edges):
        rest = all_edges - {(u, v)}
        assert hop_distances(g, rest, u)[v] >= 4
    assert hz_spanner(g, 2) == all_edges


def test_output_is_subgraph_with_bounded_stretch():
    rng = random.Random(12)
    for trial in range(30):
        n = rng.randint(5, 60)
        g = _random_graph(rng, n, rng.uniform(0.05, 0.6))
        all_edges = {(min(a, b), max(a, b)) for a in range(n) for b in g.adj[a]}
        for k in (1, 2, 3):
            out = hz_spanner(g, k)
            assert out <= all_edges
            _assert_hop_stretch(g, out, k)


def test_k1_returns_everything():
    rng = random.Random(3)
    g = _random_graph(rng, 25, 0.3)
    all_edges = {(min(a, b), max(a, b)) for a in range(25) for b in g.adj[a]}
    assert hz_spanner(g, 1) == all_edges


def test_size_bound_sane():
    rng = random.Random(9)
    for n, k in ((50, 2), (100, 2), (100, 3), (200, 2)):
        g = _random_graph(rng, n, min(0.8, 12.0 / n))
        out = hz_spanner(g, k)
        assert len(out) <= 4 * n ** (1 + 1.0 / k) + n


def test_rejects_non_simple():
    with pytest.raises(ValueError):
        UnweightedGraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        UnweightedGraph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        hz_spanner(UnweightedGraph(2, [(0, 1)]), 0)


def test_linear_work_counter():
    rng = random.Random(21)
    g = _random_graph(rng, 200, 0.05)
    m = sum(len(a) for a in g.adj) // 2
    stats: dict = {}
    hz_spanner(g, 2, stats=stats)
    assert stats["ops"] <= 40 * (g.n + m)
