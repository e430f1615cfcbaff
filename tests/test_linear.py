from __future__ import annotations

import contextlib
import itertools
import math
import random
from bisect import bisect_right
from collections import Counter

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import spanlab.linear
from spanlab.buckets import bucket_raw_index, mu_classes, partition_edges, threshold
from spanlab.dsu import StaticTreeIndex, StaticTreeUF
from spanlab.generators import gnm_graph, gnp_graph
from spanlab.graphs import WeightedGraph, minimum_spanning_tree, normalize_weights
from spanlab.linear import (build_linear, cluster_forest_edges,
                            merge_forest_subtrees, per_component)
from spanlab.oracle import verify_stretch
from spanlab.pm import grow_star_cover, internal_eps, select_bucket
from spanlab.spanner import Spanner
from conftest import (CheckSink, assert_built_per_component, k4_pieces, triangle,
                      unscaled_eps, wgraph)
from test_golden import two_level_classes


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
        assert {"links", "finds", "reused", "y_nodes"} <= set(row)
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
    # forest edge at its level (cross-checked by the builder's own assert).
    # Every level is audited, a last one too, which merges nothing and
    # takes its Y from the in-range MST edges directly
    for g in _connected_graphs_upto(8):
        s = CheckSink()
        names: list[str] = []
        sp = build_linear(g, 2, 0.5, check=lambda name, ok, detail: (
            names.append(name), s(name, ok, detail)))
        assert not [f for f in s.failures if f[0] == "x-subset-y"], s.failures
        s.assert_clean()
        assert names.count("x-subset-y") == len(sp.levels)
        # the audits ride on the plain build's path and leave it as it is
        plain = build_linear(g, 2, 0.5)
        assert (sp.edges, sp.levels, sp.ops) == (plain.edges, plain.levels, plain.ops)


def test_subtree_clusters_checked(sink):
    # the P2 audits run wherever a session exists: on every level of a
    # class with two levels or more, and of no other class
    g = gnm_graph(120, 1500, 2, "loguniform", 1e9)
    names: list[str] = []
    sp = build_linear(g, 2, 0.25, check=lambda name, ok, detail: (
        names.append(name), sink(name, ok, detail)))
    per_class = Counter(row["sigma"] for row in sp.levels)
    multi = sum(c for c in per_class.values() if c >= 2)
    assert multi > 0
    assert names.count("p2-subtree-connected") == multi
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


def _leftovers(session, carried):
    return [c for c in carried if not session.linked[c]]


def test_forest_edge_ops_empty_and_single():
    g = wgraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    mst = minimum_spanning_tree(g)
    session = StaticTreeUF(StaticTreeIndex(mst.parent))

    # no in-range MST edges -> empty forest
    assert cluster_forest_edges(session, mst, []) == ([], [])

    # a single in-range edge links two singleton clusters
    child = next(v for v in range(4) if mst.parent[v] == 0)
    verts, above = cluster_forest_edges(session, mst, [child])
    assert verts == [child, 0] and above == [1, 2]
    assert merge_forest_subtrees(session, verts, above) == 1
    assert _leftovers(session, [child]) == []
    assert session.find(child) == 0


def test_merge_forest_star_of_five():
    g = wgraph(6, [(0, i, 1) for i in range(1, 6)])
    mst = minimum_spanning_tree(g)
    session = StaticTreeUF(StaticTreeIndex(mst.parent))
    carried = [1, 2, 3, 4, 5]
    verts, above = cluster_forest_edges(session, mst, carried)
    assert len(verts) == 6
    assert merge_forest_subtrees(session, verts, above) == 5
    assert _leftovers(session, carried) == []
    assert all(session.find(v) == 0 for v in range(6))


def test_merge_forest_path_of_six_postconditions():
    g = wgraph(6, [(i, i + 1, 1) for i in range(5)])
    mst = minimum_spanning_tree(g)
    session = StaticTreeUF(StaticTreeIndex(mst.parent))
    children = [v for v in range(6) if mst.parent[v] >= 0]
    verts, above = cluster_forest_edges(session, mst, children)
    links = merge_forest_subtrees(session, verts, above)
    leftover = _leftovers(session, children)
    # partition into >= 2-cluster groups; leftovers cross different groups
    groups: dict[int, int] = {}
    for v in range(6):
        groups[session.find(v)] = groups.get(session.find(v), 0) + 1
    assert all(size >= 2 for size in groups.values())
    assert links + len(leftover) == 5
    for child in leftover:
        assert session.find(child) != session.find(mst.parent[child])


def reference_cluster_forest_edges(session, mst, carried):
    """The level's merge candidates as cluster pairs (a, b, child): the MST
    edge from cluster a's top vertex `child` up to cluster b, with the
    clusters numbered by first appearance along (child, top) per edge."""
    if any(map(session.linked.__getitem__, carried)):
        raise AssertionError("carried MST edge became intra-cluster")
    tops = session.find_all(map(mst.parent.__getitem__, carried))
    pairs = []
    nodeset: dict[int, int] = {}
    add = nodeset.setdefault
    for child, top in zip(carried, tops):
        a = add(child, len(nodeset))
        pairs.append((a, add(top, len(nodeset)), child))
    return pairs, nodeset


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
    # on both sides: the forest star cover and the generic one on pairs
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
        verts, above = cluster_forest_edges(fast, mst, carried)
        links = merge_forest_subtrees(fast, verts, above)
        pairs, nodes = reference_cluster_forest_edges(ref, mst, carried)
        assert verts == list(nodes)
        assert (links, _leftovers(fast, carried)) == \
            reference_merge_forest_subtrees(ref, pairs, len(nodes))
        assert fast.linked == ref.linked
        assert fast.cost == ref.cost
        assert [fast.find(v) for v in range(n)] == [ref.find(v) for v in range(n)]


def reference_build_connected(g, k, eps, merge_last=True):
    """linear's level loop, every merge run in full.  With `merge_last`,
    each class has its own union-find session and merges after every
    level, the last one included; without it, as the builder does, a
    last level merges nothing and a one-level class opens no session.
    The selection reads the session through peek, as the builder's does.
    A row's `fast` marks its class's last level."""
    eps_i = internal_eps(eps)
    ops = {"links": 0, "finds": 0, "uf_cost": 0, "hz": 0}
    if g.m == 0:
        return Spanner(algo="linear", k=k, eps=eps, n=g.n, edges=[], ops=ops)
    norm, _ = normalize_weights(g)
    mst = minimum_spanning_tree(norm)
    spanner_eids = set(mst.eids)
    buckets = partition_edges(
        norm, [e for e in range(norm.m) if e not in spanner_eids], eps_i)
    mst_sorted = sorted(
        (bucket_raw_index(w, eps_i), u if mst.parent[u] == v else v)
        for u, v, w in mst.edges)
    mst_index = [j for j, _ in mst_sorted]
    mst_child = [child for _, child in mst_sorted]
    index = StaticTreeIndex(mst.parent)
    levels = []
    for sigma in buckets.classes():
        level_ids = buckets.levels(sigma)
        session = None
        if merge_last or len(level_ids) > 1:
            session = StaticTreeUF(index)
        carried: list[int] = []
        ptr = 0
        for i in level_ids:
            bucket = buckets.edges(sigma, i)
            cost0 = session.cost if session else 0
            kept, _, reps, _ = select_bucket(
                norm, bucket, k, session.peek if session else (lambda v: v),
                spanner_eids, ops)
            end = bisect_right(mst_index, i * buckets.mu + sigma, ptr)
            carried += mst_child[ptr:end]
            ptr = end
            nodes: dict[int, int] = {}
            links = 0
            if merge_last or i != level_ids[-1]:
                pairs, nodes = reference_cluster_forest_edges(session, mst, carried)
                links, carried = reference_merge_forest_subtrees(
                    session, pairs, len(nodes))
            spent = session.cost - cost0 if session else 0
            ops["links"] += links
            ops["finds"] += spent - links
            ops["uf_cost"] += spent
            levels.append(
                {"sigma": sigma, "i": i, "bucket_edges": len(bucket),
                 "rep_nodes": len(reps), "kept_edges": len(kept),
                 "links": links, "finds": spent - links,
                 "y_nodes": len(nodes), "fast": i == level_ids[-1]})
    edges = [g.edges[e] for e in sorted(spanner_eids)]
    return Spanner(algo="linear", k=k, eps=eps, n=g.n, edges=edges,
                   levels=levels, ops=ops)


@st.composite
def tied_grid_graphs(draw):
    """(g, k, eps, scaled): a graph, possibly disconnected, whose weights
    repeat a few points of the bucket grid in classes 0..2, levels 0..3,
    so that classes have several levels and cells tie."""
    scaled = draw(st.booleans())
    k = draw(st.integers(min_value=1, max_value=3))
    eps = draw(st.sampled_from([0.25, 0.5]))
    with contextlib.nullcontext() if scaled else unscaled_eps():
        eps_i = internal_eps(eps)
    mu = mu_classes(eps_i)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    n = draw(st.integers(min_value=2, max_value=30))
    grid = [threshold(i * mu + sigma, eps_i) for sigma in range(3) for i in range(4)]
    pool = rng.sample(grid, rng.randint(1, len(grid)))
    p = rng.uniform(0.05, 0.9)
    edges = [(u, v, rng.choice(pool))
             for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return WeightedGraph(n, edges), k, eps, scaled


def _last_rows(levels) -> set[int]:
    """Positions of each class's last row in a connected graph's build."""
    return {j for j, row in enumerate(levels)
            if j + 1 == len(levels) or levels[j + 1]["sigma"] != row["sigma"]}


@settings(max_examples=150, deadline=None)
@given(tied_grid_graphs())
def test_level_loop_matches_merge_every_level_reference(case):
    # skipping the last level's merge changes no edge and no earlier row:
    # the merge only feeds later levels of the same class
    g, k, eps, scaled = case
    with contextlib.nullcontext() if scaled else unscaled_eps():
        got = build_linear(g, k, eps)
        ref = per_component(g, "linear", k, eps, reference_build_connected)
    assert got.edges == ref.edges
    assert len(got.levels) == len(ref.levels)
    for row, want in zip(got.levels, ref.levels):
        finds = row["finds"] + row["reused"]
        if want.pop("fast"):
            # a last level's merge is the one whose counts may differ
            for key in ("sigma", "i", "bucket_edges", "rep_nodes", "kept_edges"):
                assert row[key] == want[key]
            assert finds <= want["finds"]
        else:
            assert finds == want.pop("finds")
            assert {key: v for key, v in row.items()
                    if key not in ("fast", "finds", "reused")} == want


def _count_union_find(monkeypatch) -> Counter:
    counts: Counter = Counter()
    for name in ("StaticTreeIndex", "StaticTreeUF"):
        def counted(*args, _name=name, _cls=getattr(spanlab.linear, name)):
            counts[_name] += 1
            return _cls(*args)
        monkeypatch.setattr(spanlab.linear, name, counted)
    return counts


def test_index_and_sessions_only_for_multi_level_classes(monkeypatch):
    # every class of these K4 pieces has one level: nothing merges, so no
    # component builds a static-tree index or opens a session
    counts = _count_union_find(monkeypatch)
    sp = build_linear(k4_pieces(30, 1), 2, 0.25)
    assert counts == Counter()
    assert sp.levels and all(row["fast"] for row in sp.levels)
    assert sp.ops["uf_cost"] == sp.ops["finds"] == 0
    # three classes of two levels each: one index, one session per class
    with unscaled_eps():
        sp = build_linear(two_level_classes(), 2, 0.25)
    per_class = Counter(row["sigma"] for row in sp.levels)
    assert sorted(per_class.values()) == [2, 2, 2]
    assert counts == {"StaticTreeIndex": 1, "StaticTreeUF": 3}


@pytest.mark.parametrize("make, scaling", [
    (two_level_classes, unscaled_eps),
    (lambda: gnm_graph(120, 1500, 2, "loguniform", 1e9), contextlib.nullcontext),
])
def test_last_level_of_each_class_merges_nothing(make, scaling):
    with scaling():
        sp = build_linear(make(), 2, 0.25)
    last = _last_rows(sp.levels)
    assert any(row["links"] > 0 for row in sp.levels)
    for j, row in enumerate(sp.levels):
        assert row["fast"] == (j in last)
        if j in last:
            assert row["links"] == 0


def _assert_matches_cache_free(g, k, eps) -> Spanner:
    """build_linear against the reference level loop, which merges where
    the builder does but runs every merge in full: the same edges and
    rows, a restored merge's skipped finds counted in `reused`.  Returns
    the build."""
    got = build_linear(g, k, eps)
    ref = per_component(g, "linear", k, eps, reference_build_connected, False)
    assert got.edges == ref.edges
    assert len(got.levels) == len(ref.levels)
    for row, want in zip(got.levels, ref.levels):
        assert row["finds"] + row["reused"] == want["finds"]
        assert {key: v for key, v in row.items()
                if key not in ("finds", "reused")} == \
            {key: v for key, v in want.items() if key != "finds"}
    ops = got.ops
    assert (ops["links"], ops["hz"]) == (ref.ops["links"], ref.ops["hz"])
    assert ops["finds"] + ops["uf_reused"] == ref.ops["finds"]
    assert ops["uf_cost"] + ops["uf_reused"] == ref.ops["uf_cost"]
    assert ops["uf_reused"] == sum(row["reused"] for row in got.levels)
    return got


@settings(max_examples=150, deadline=None)
@given(tied_grid_graphs())
def test_reused_merges_match_cache_free_build(case):
    g, k, eps, scaled = case
    with contextlib.nullcontext() if scaled else unscaled_eps():
        _assert_matches_cache_free(g, k, eps)


def _merge_prefixes(g, eps) -> Counter:
    """For a connected g: how many merges each prefix (end_1, ..., end_t)
    of a class's `end`s names, where a level's `end` counts the MST edges
    in range at it, over the merging levels (all but each class's last)."""
    eps_i = internal_eps(eps)
    norm, _ = normalize_weights(g)
    mst = minimum_spanning_tree(norm)
    tree = set(mst.eids)
    buckets = partition_edges(norm, [e for e in range(norm.m) if e not in tree], eps_i)
    grid = sorted(bucket_raw_index(w, eps_i) for _, _, w in mst.edges)
    uses: Counter = Counter()
    for sigma in buckets.classes():
        ends = tuple(bisect_right(grid, i * buckets.mu + sigma)
                     for i in buckets.levels(sigma)[:-1])
        uses.update(ends[:t] for t in range(1, len(ends) + 1))
    return uses


def test_reused_merges_match_cache_free_build_wide():
    # wide-weights' shape: many classes of two levels or more share a
    # prefix of `end`s, and every merge after the first with its prefix
    # is restored, a later level's merge as well as a first one
    g = gnm_graph(250, 3000, 11, "loguniform", 1e9)
    got = _assert_matches_cache_free(g, 3, 0.5)
    uses = _merge_prefixes(g, 0.5)
    restored = [j for j, row in enumerate(got.levels) if row["reused"] > 0]
    assert len(restored) == sum(uses.values()) - len(uses)
    assert any(j and got.levels[j - 1]["sigma"] == got.levels[j]["sigma"]
               for j in restored)


@pytest.mark.parametrize("n, m, seed, k, eps", [
    (200, 2400, 11, 3, 0.5),
    (120, 1440, 2, 2, 0.25),
])
def test_audited_build_counts_like_plain(n, m, seed, k, eps):
    # the audits read every vertex's cluster through the session before
    # each level; they must leave its later answers and counts as they were
    g = gnm_graph(n, m, seed, "loguniform", 1e9)
    sink = CheckSink()
    audited = build_linear(g, k, eps, check=sink)
    sink.assert_clean()
    plain = build_linear(g, k, eps)
    assert any(row["reused"] > 0 for row in plain.levels)
    assert (audited.edges, audited.levels, audited.ops) == \
        (plain.edges, plain.levels, plain.ops)
