from __future__ import annotations

import itertools
import math
import random

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from spanlab.dsu import StaticTreeIndex, StaticTreeUF
from spanlab.generators import gnm_graph, gnp_graph
from spanlab.graphs import WeightedGraph, minimum_spanning_tree
from spanlab.linear import build_linear, cluster_forest_edges, merge_forest_subtrees
from spanlab.oracle import verify_stretch
from spanlab.pm import grow_star_cover
from conftest import CheckSink, assert_built_per_component, triangle, wgraph


def _mst_keys(g: WeightedGraph) -> set[tuple[int, int]]:
    return {(min(u, v), max(u, v)) for u, v, _ in minimum_spanning_tree(g).edges}


def test_tree_input_identity():
    g = wgraph(6, [(0, 1, 1), (1, 2, 7), (2, 3, 2), (1, 4, 4), (4, 5, 3)])
    sp = build_linear(g, 2, 0.25)
    assert sp.edge_key_set() == g.edge_key_set()


def test_triangle_heavy_chord_spanned_by_mst():
    g = triangle(1, 1, 10)
    sp = build_linear(g, 2, 0.25)
    keys = sp.edge_key_set()
    assert {(0, 1), (1, 2)} <= keys
    rep = verify_stretch(g, sp, 3 * 1.25)
    assert rep.ok


def test_mst_containment_random():
    rng = random.Random(2)
    for trial in range(25):
        n = rng.randint(5, 40)
        g = gnm_graph(n, rng.randint(n, 4 * n), seed=600 + trial,
                      law=rng.choice(["unit", "uniform", "loguniform"]), wmax=40)
        k = rng.choice([1, 2, 3])
        sp = build_linear(g, k, rng.choice([0.1, 0.25, 0.5]))
        assert _mst_keys(g) <= sp.edge_key_set()


def test_random_instances_oracle(sink):
    for k in (2, 3):
        g = gnp_graph(100, 0.1, seed=40 + k, law="uniform", wmax=100)
        sp = build_linear(g, k, 0.25, check=sink)
        sink.assert_clean()
        assert verify_stretch(g, sp, (2 * k - 1) * 1.25).ok
        assert _mst_keys(g) <= sp.edge_key_set()


def test_instrumentation_counters_present(sink):
    g = gnp_graph(60, 0.25, seed=77, law="unit")
    sp = build_linear(g, 2, 0.25, check=sink)
    sink.assert_clean()
    assert sp.levels
    for row in sp.levels:
        assert {"links", "finds", "delta", "y_nodes"} <= set(row)
        if row["y_nodes"]:
            assert row["links"] >= row["y_nodes"] / 2
    assert sp.ops["links"] <= g.n


def test_uf_cost_is_links_plus_finds():
    # an unaudited build spends every union-find step inside a level, so the
    # per-level links and finds add up to the sessions' cost
    k4 = [(0, 1, 1.0), (0, 2, 7.0), (0, 3, 40.0), (1, 2, 300.0), (1, 3, 2.0),
          (2, 3, 900.0)]
    pieces = wgraph(40, [(u + 4 * p, v + 4 * p, w * (p + 1))
                         for p in range(10) for u, v, w in k4])
    wide = gnm_graph(80, 640, seed=3, law="loguniform", wmax=1e6)
    for g in (wide, pieces):
        ops = build_linear(g, 2, 0.25).ops
        assert ops["uf_cost"] == ops["links"] + ops["finds"]
    ops = build_linear(wide, 2, 0.25).ops
    assert ops["finds"] > 0 and ops["links"] > 0


def _connected_graphs_upto(n_max: int):
    """All connected graphs on up to n_max vertices, weights in {1,2,4,8};
    sampled deterministically (the full space is huge for n=8)."""
    rng = random.Random(1234)
    for _ in range(250):
        n = rng.randint(2, n_max)
        pairs = list(itertools.combinations(range(n), 2))
        edges = [(u, v, float(rng.choice([1, 2, 4, 8])))
                 for u, v in pairs if rng.random() < 0.6]
        g = WeightedGraph(n, edges)
        from spanlab.graphs import connected_components

        comps = connected_components(g)
        if len(comps) > 1:
            extra = list(g.edges)
            for a, b in zip(comps, comps[1:]):
                extra.append((a[0], b[0], float(rng.choice([1, 2, 4, 8]))))
            g = WeightedGraph(n, extra)
        yield g


def test_cluster_forest_covers_bucket_clusters_small_sweep():
    # every cluster touched by a bucket edge is incident to a carried
    # forest edge at its level (cross-checked by the builder's own assert)
    for g in _connected_graphs_upto(8):
        s = CheckSink()
        build_linear(g, 2, 0.5, check=s)
        assert not [f for f in s.failures if f[0] == "x-subset-y"], s.failures
        s.assert_clean()


def test_subtree_clusters_checked(sink):
    g = gnp_graph(50, 0.3, seed=8, law="unit")
    build_linear(g, 2, 0.25, check=sink)
    assert sink.seen > 0
    sink.assert_clean()


def test_deterministic_output():
    g = gnp_graph(50, 0.2, seed=15, law="uniform", wmax=5)
    assert build_linear(g, 2, 0.25).edges == build_linear(g, 2, 0.25).edges


@pytest.mark.parametrize("bad", [(1, 5, 1.0), (-1, 2, 1.0)])
def test_build_rejects_out_of_range_vertex(bad):
    with pytest.raises(ValueError, match=r"vertex id out of range"):
        build_linear(WeightedGraph(3, [(0, 1, 1.0), bad]), 2, 0.25)


def test_disconnected_handled_per_component():
    # vertex 7 is isolated; the piece at 8..19 has multi-level classes
    piece = gnm_graph(12, 30, seed=0, law="loguniform", wmax=1e4)
    g = wgraph(20, [(0, 1, 1), (1, 2, 4), (0, 2, 2), (3, 4, 1), (4, 5, 1),
                    (3, 5, 5), (5, 6, 2)]
               + [(u + 8, v + 8, w) for u, v, w in piece.edges])
    comps = [[0, 1, 2], [3, 4, 5, 6], [7], list(range(8, 20))]
    sp = assert_built_per_component(build_linear, g, comps)
    assert sp.levels
    assert verify_stretch(g, sp, 3.75).ok
    # the per-component MSTs are both contained
    keys = sp.edge_key_set()
    assert (0, 1) in keys and (3, 4) in keys and (5, 6) in keys


def test_size_tracks_pm_shape():
    g = gnp_graph(120, 0.15, seed=3, law="uniform", wmax=2)
    eps = 0.25
    sp = build_linear(g, 2, eps)
    budget = 8.0 * 120 ** 1.5 * math.log(1 / eps) / eps + (120 - 1)
    assert sp.m <= budget


def test_forest_edge_ops_empty_and_single():
    from spanlab.dsu import StaticTreeIndex, StaticTreeUF
    from spanlab.linear import cluster_forest_edges, merge_forest_subtrees
    from spanlab.graphs import minimum_spanning_tree

    g = wgraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    mst = minimum_spanning_tree(g)
    session = StaticTreeUF(StaticTreeIndex(mst.parent))

    # no in-range MST edges -> empty forest
    pairs, nodes = cluster_forest_edges(session, mst, [])
    assert pairs == [] and nodes == {}

    # a single in-range edge links two singleton clusters
    child = next(v for v in range(4) if mst.parent[v] == 0)
    pairs, nodes = cluster_forest_edges(session, mst, [child])
    assert len(pairs) == 1 and len(nodes) == 2
    links, leftover = merge_forest_subtrees(session, pairs, len(nodes))
    assert links == 1 and leftover == []
    assert session.find(child) == 0


def test_merge_forest_star_of_five():
    from spanlab.dsu import StaticTreeIndex, StaticTreeUF
    from spanlab.linear import cluster_forest_edges, merge_forest_subtrees
    from spanlab.graphs import minimum_spanning_tree

    g = wgraph(6, [(0, i, 1) for i in range(1, 6)])
    mst = minimum_spanning_tree(g)
    session = StaticTreeUF(StaticTreeIndex(mst.parent))
    pairs, nodes = cluster_forest_edges(session, mst, [1, 2, 3, 4, 5])
    assert len(nodes) == 6
    links, leftover = merge_forest_subtrees(session, pairs, len(nodes))
    assert links == 5 and leftover == []
    assert all(session.find(v) == 0 for v in range(6))


def test_merge_forest_path_of_six_postconditions():
    from spanlab.dsu import StaticTreeIndex, StaticTreeUF
    from spanlab.linear import cluster_forest_edges, merge_forest_subtrees
    from spanlab.graphs import minimum_spanning_tree

    g = wgraph(6, [(i, i + 1, 1) for i in range(5)])
    mst = minimum_spanning_tree(g)
    session = StaticTreeUF(StaticTreeIndex(mst.parent))
    children = [v for v in range(6) if mst.parent[v] >= 0]
    pairs, nodes = cluster_forest_edges(session, mst, children)
    links, leftover = merge_forest_subtrees(session, pairs, len(nodes))
    # partition into >= 2-cluster groups; leftovers cross different groups
    groups: dict[int, int] = {}
    for v in range(6):
        groups[session.find(v)] = groups.get(session.find(v), 0) + 1
    assert all(size >= 2 for size in groups.values())
    assert links + len(leftover) == 5
    for child in leftover:
        assert session.find(child) != session.find(mst.parent[child])


def reference_merge_forest_subtrees(session, pairs, n_nodes):
    """merge_forest_subtrees as a generic star cover: pm.grow_star_cover
    over the forest's adjacency lists sorted by node id, one link call
    per star edge."""
    adj: list[list[int]] = [[] for _ in range(n_nodes)]
    above = [-1] * n_nodes
    up_edge = [0] * n_nodes
    for a, b, child in pairs:
        if above[a] != -1:
            raise AssertionError("cluster with two upward forest edges")
        above[a] = b
        up_edge[a] = child
        adj[a].append(b)
        adj[b].append(a)
    for lst in adj:
        if len(lst) > 1:
            lst.sort()

    link = session.link
    links = 0
    for _, star_edges in grow_star_cover(n_nodes, adj):
        for x, y in star_edges:
            link(up_edge[x] if above[x] == y else up_edge[y])
        links += len(star_edges)
    linked = session.linked
    return links, [child for _, _, child in pairs if not linked[child]]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_merge_forest_subtrees_matches_reference(data):
    # a random rooted tree under random labels; each round carries a
    # random subset of the unlinked edges, in random order, and merges it
    # on both sides: the forest star cover and the generic one
    n = data.draw(st.integers(min_value=2, max_value=300))
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32)))
    label = list(range(n))
    rng.shuffle(label)
    parent = [-1] * n
    for v in range(1, n):
        parent[label[v]] = label[rng.randrange(v)]
    root = label[0]
    mst = SimpleNamespace(parent=parent)
    index = StaticTreeIndex(parent)
    fast, ref = StaticTreeUF(index), StaticTreeUF(index)
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        free = [v for v in range(n) if v != root and not fast.linked[v]]
        carried = rng.sample(free, rng.randint(0, len(free)))
        got = []
        for uf, merge in ((fast, merge_forest_subtrees),
                          (ref, reference_merge_forest_subtrees)):
            pairs, nodes = cluster_forest_edges(uf, mst, carried)
            got.append((pairs, merge(uf, pairs, len(nodes))))
        assert got[0] == got[1]
        assert fast.linked == ref.linked
        assert fast.cost == ref.cost
        assert [fast.find(v) for v in range(n)] == [ref.find(v) for v in range(n)]
