from __future__ import annotations

import inspect
import math
import random
import re

import pytest

import spanlab.pm
from spanlab.generators import gnm_graph, gnp_graph
from spanlab.graphs import WeightedGraph, sssp_distances
from spanlab.light import build_light
from spanlab.linear import build_linear
from spanlab.oracle import verify_stretch
from spanlab.pm import build_pm, dedupe_source_edges, grow_star_cover, internal_eps
from conftest import triangle, unscaled_eps, wgraph


# ---------------------------------------------------------------- dedup


def test_dedupe_keeps_lightest_parallel():
    g = wgraph(4, [(0, 2, 3), (1, 3, 5)])
    rep = {0: 0, 1: 0, 2: 2, 3: 2}.get
    best = dedupe_source_edges([0, 1], g, rep)
    assert best == {(0, 2): 0}


def test_dedupe_drops_intra_cluster_edge():
    g = wgraph(2, [(0, 1, 1)])
    best = dedupe_source_edges([0], g, lambda v: 7)
    assert best == {}


def test_dedupe_identity_when_singletons():
    g = wgraph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3)])
    best = dedupe_source_edges([0, 1, 2], g, lambda v: v)
    assert sorted(best.values()) == [0, 1, 2]


def test_dedupe_tie_breaks_to_smaller_id():
    g = wgraph(4, [(0, 2, 3), (1, 3, 3)])
    rep = {0: 0, 1: 0, 2: 2, 3: 2}.get
    best = dedupe_source_edges([1, 0], g, rep)
    assert best == {(0, 2): 0}


# ---------------------------------------------------------------- cover


def _check_cover(n, adj, groups):
    seen = set()
    for nodes, edges in groups:
        assert len(nodes) >= 2
        for v in nodes:
            assert v not in seen
            seen.add(v)
        keyset = {(min(a, b), max(a, b)) for a, b in edges}
        all_keys = {(min(a, b), max(a, b)) for a in range(n) for b in adj[a]}
        assert keyset <= all_keys
        # hop diameter <= 4 inside the group's own edge set
        gadj = {v: [] for v in nodes}
        for a, b in edges:
            gadj[a].append(b)
            gadj[b].append(a)
        for s in nodes:
            dist = {s: 0}
            frontier = [s]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in gadj[x]:
                        if y not in dist:
                            dist[y] = dist[x] + 1
                            nxt.append(y)
                frontier = nxt
            assert len(dist) == len(nodes)
            assert max(dist.values()) <= 4
    assert seen == set(range(n))


def test_cover_single_edge():
    adj = [[1], [0]]
    groups = grow_star_cover(2, adj)
    assert len(groups) == 1 and sorted(groups[0][0]) == [0, 1]


def test_cover_star_k15():
    adj = [[1, 2, 3, 4, 5]] + [[0]] * 5
    groups = grow_star_cover(6, adj)
    assert len(groups) == 1
    assert sorted(groups[0][0]) == list(range(6))


def test_cover_path_two_step_rule():
    adj = [[1], [0, 2], [1, 3], [2]]
    groups = grow_star_cover(4, adj)
    _check_cover(4, adj, groups)


def test_cover_random_graphs_postconditions():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(2, 40)
        adj = [[] for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.25:
                    adj[u].append(v)
                    adj[v].append(u)
        # attach isolated vertices somewhere to satisfy the precondition
        for v in range(n):
            if not adj[v]:
                u = (v + 1) % n
                adj[v].append(u)
                adj[u].append(v)
        for lst in adj:
            lst.sort()
        _check_cover(n, adj, grow_star_cover(n, adj))


def test_cover_rejects_isolated():
    with pytest.raises(ValueError):
        grow_star_cover(3, [[1], [0], []])


# ---------------------------------------------------------------- build


def test_build_rejects_bad_params():
    g = triangle()
    with pytest.raises(ValueError):
        build_pm(g, 0, 0.25)
    with pytest.raises(ValueError):
        build_pm(g, 2, 1.5)


@pytest.mark.parametrize("bad", [(1, 5, 1.0), (-1, 2, 1.0)])
def test_build_rejects_out_of_range_vertex(bad):
    # a raw WeightedGraph skips from_edges' id check; id 5 used to raise
    # IndexError, and -1 to index from the end of a list
    with pytest.raises(ValueError, match=r"vertex id out of range"):
        build_pm(WeightedGraph(3, [(0, 1, 1.0), bad]), 2, 0.25)


def test_internal_eps_capped():
    assert internal_eps(0.5) == min(0.5 / 73, 1 / 18)
    with unscaled_eps():
        assert internal_eps(0.9) == 1 / 18
    assert internal_eps(0.9) == 0.9 / 73


def test_tree_input_identity():
    g = wgraph(7, [(0, 1, 3), (1, 2, 1), (1, 3, 8), (3, 4, 2), (0, 5, 5), (5, 6, 4)])
    sp = build_pm(g, 2, 0.25)
    assert sp.edge_key_set() == g.edge_key_set()


def test_triangle_example():
    g = triangle(1, 1, 1)
    sp = build_pm(g, 2, 0.25)
    rep = verify_stretch(g, sp, 3 * 1.25)
    assert rep.ok
    if sp.m == 2:
        assert abs(rep.max_stretch - 2.0) <= 1e-12


def test_random_instance_oracle_and_size(sink):
    g = gnp_graph(100, 0.1, seed=2, law="uniform", wmax=2.0)
    sp = build_pm(g, 2, 0.25, check=sink)
    sink.assert_clean()
    assert verify_stretch(g, sp, 3 * 1.25).ok
    eps = 0.25
    budget = 8.0 * 100 ** 1.5 * math.log(1 / eps) / eps
    assert sp.m <= budget


def test_bridges_always_present():
    rng = random.Random(19)
    for trial in range(20):
        g = gnm_graph(rng.randint(6, 30), rng.randint(8, 40), seed=300 + trial,
                      law="loguniform", wmax=64)
        sp = build_pm(g, rng.choice([1, 2, 3]), rng.choice([0.1, 0.5]))
        keys = sp.edge_key_set()
        for u, v, w in g.edges:
            if _is_bridge(g, u, v, w):
                assert (min(u, v), max(u, v)) in keys


def _is_bridge(g: WeightedGraph, u: int, v: int, w: float) -> bool:
    rest = [(a, b, ww) for a, b, ww in g.edges
            if (min(a, b), max(a, b)) != (min(u, v), max(u, v))]
    h = WeightedGraph(g.n, rest)
    return math.isinf(sssp_distances(h, u)[v])


def test_instrumentation_rows_and_charging(sink):
    g = gnp_graph(60, 0.3, seed=9, law="unit")
    sp = build_pm(g, 2, 0.25, check=sink)
    sink.assert_clean()
    assert sp.levels
    for row in sp.levels:
        assert {"sigma", "i", "bucket_edges", "rep_nodes", "kept_edges",
                "delta"} <= set(row)
        if row["rep_nodes"]:
            assert row["delta"] >= row["rep_nodes"] / 2


def test_level_charging_sums_below_n(sink):
    g = gnp_graph(80, 0.2, seed=4, law="unit")
    sp = build_pm(g, 3, 0.25, check=sink)
    sink.assert_clean()
    per_sigma: dict[int, int] = {}
    for row in sp.levels:
        per_sigma[row["sigma"]] = per_sigma.get(row["sigma"], 0) + row["delta"]
    assert all(total <= g.n for total in per_sigma.values())


def test_deterministic_output():
    g = gnp_graph(50, 0.2, seed=13, law="uniform", wmax=3)
    a = build_pm(g, 2, 0.25)
    b = build_pm(g, 2, 0.25)
    assert a.edges == b.edges


def test_disconnected_input_handled():
    g = wgraph(6, [(0, 1, 1), (1, 2, 2), (3, 4, 1), (4, 5, 2)])
    sp = build_pm(g, 2, 0.25)
    assert verify_stretch(g, sp, 3.75).ok


def test_one_union_find_per_build(monkeypatch):
    made = []
    real = spanlab.pm.ClassicUF

    def counting(n):
        made.append(n)
        return real(n)

    monkeypatch.setattr(spanlab.pm, "ClassicUF", counting)
    g = gnm_graph(60, 240, seed=3, law="loguniform", wmax=1e4)
    sp = build_pm(g, 2, 0.25)
    assert len({row["sigma"] for row in sp.levels}) > 100
    assert made == [g.n]


# a weight ratio of 1e600 normalizes to an infinite weight


EXTREME = [(0, 1, 1e-300), (1, 2, 1e300), (0, 2, 1.0)]


@pytest.mark.parametrize("build", [build_pm, build_linear, build_light])
def test_builders_take_one_audit_switch(build):
    # `check` alone turns the audits on; no builder grows another option
    params = list(inspect.signature(build).parameters)
    assert params == ["g", "k", "eps", "check"]


@pytest.mark.parametrize("build", [build_pm, build_linear, build_light])
@pytest.mark.parametrize("w", [0.0, -1.0])
def test_non_positive_weight_is_a_value_error(build, w):
    # the raw constructor validates nothing; a zero weight used to divide
    # by zero when the builders normalize weights by the minimum
    g = WeightedGraph(3, [(0, 1, w), (1, 2, 1.0)])
    with pytest.raises(ValueError, match=f"weights must be positive, got weight {w!r}"):
        build(g, 2, 0.25)


@pytest.mark.parametrize("build", [build_pm, build_linear, build_light])
@pytest.mark.parametrize("w, need", [(math.nan, "finite"), (math.inf, "finite"),
                                     (0.0, "positive"), (-1.0, "positive")])
def test_weight_outside_open_interval_names_its_edge(build, w, need):
    # a raw graph's weights are checked with its vertex ids: an infinite
    # weight once passed `light` into a verified spanner, and all three
    # builders blamed a NaN weight on the weight range
    g = WeightedGraph(3, [(1, 2, 1.0), (0, 1, w)])
    with pytest.raises(ValueError, match=re.escape(
            f"weights must be {need}, got weight {w!r} on edge (0, 1)")):
        build(g, 2, 0.25)


@pytest.mark.parametrize("build", [build_pm, build_linear, build_light])
@pytest.mark.parametrize("copy", [(0, 1, 1.0), (1, 0, 1.0)])
def test_repeated_pair_is_a_value_error(build, copy):
    # pm and linear used to keep both copies of (0, 1) in H, and light only
    # the lighter one, through a back-map keyed by endpoints
    g = WeightedGraph(3, [(0, 1, 5.0), copy, (1, 2, 1.0)])
    with pytest.raises(ValueError, match=re.escape(
            "vertex pair (0, 1) has more than one edge (edge 1 repeats it); "
            "WeightedGraph.from_edges keeps the lightest copy")):
        build(g, 2, 0.25)
    simple = WeightedGraph.from_edges(3, g.edges)
    assert build(simple, 2, 0.25).edges == [(0, 1, 1.0), (1, 2, 1.0)]


@pytest.mark.parametrize("build", [build_pm, build_linear])
def test_extreme_weight_ratio_is_a_value_error(build):
    g = WeightedGraph.from_edges(3, EXTREME)
    with pytest.raises(ValueError, match="bucket grid"):
        build(g, 2, 0.25)


def test_extreme_weight_ratio_light_discards_the_heavy_edge():
    # light buckets only edges below w(MST), so the 1e300 edge never
    # reaches the grid
    g = WeightedGraph.from_edges(3, EXTREME)
    sp = build_light(g, 2, 0.25)
    assert sp.edges == [(0, 1, 1e-300), (0, 2, 1.0)]
    assert verify_stretch(g, sp, 3.75).ok
