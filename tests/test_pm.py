from __future__ import annotations

import inspect
import math
import random
import re
from functools import partial

import pytest

import spanlab.pm
from spanlab.buckets import LevelBuckets, mu_classes, threshold
from spanlab.dsu import ClassicUF
from spanlab.generators import gnm_graph, gnp_graph
from spanlab.graphs import WeightedGraph, sssp_distances
from spanlab.hz import UnweightedGraph, hz_spanner, is_forest
from spanlab.light import build_light
from spanlab.linear import build_linear
from spanlab.oracle import verify_stretch
from spanlab.pm import (
    build_pm, dedupe_source_edges, grow_star_cover, internal_eps, select_bucket,
)
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


# ---------------------------------------------------------------- select


def reference_select_bucket(norm, bucket, k, rep, spanner_eids, ops,
                            forest_rule=False):
    """select_bucket's generic path on every bucket: dedupe, then hz on
    every representative graph, or with `forest_rule` the forest test
    first and hz only on a graph with a cycle."""
    best = dedupe_source_edges(bucket, norm, rep)
    if not best:
        return [], best, [], []
    reps = sorted({r for pair in best for r in pair})
    local = {r: idx for idx, r in enumerate(reps)}
    r_edges = [(local[a], local[b]) for (a, b) in best]
    stats: dict = {"ops": 0}
    if forest_rule and is_forest(len(reps), r_edges, stats):
        kept = list(best.values())
    else:
        chosen = hz_spanner(UnweightedGraph(len(reps), r_edges), k, stats=stats)
        kept = [best[(reps[a], reps[b])] for a, b in chosen]
    ops["hz"] += stats["ops"]
    spanner_eids.update(kept)
    return kept, best, reps, r_edges


def first_cycle_prefix(n: int, edges: list[tuple[int, int]]) -> int | None:
    """Length of the shortest prefix of `edges` that has a cycle (None for a
    forest), by a search from one end of each edge over the edges before it."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for j, (u, v) in enumerate(edges):
        seen = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if v in seen:
            return j + 1
        adj[u].append(v)
        adj[v].append(u)
    return None


def random_level(rng: random.Random):
    """(g, bucket, rep) for one level: a random forest of representatives,
    some of whose trees gain triangles, each representative expanded into
    a cluster of 1 to 3 vertices under shuffled ids and each representative
    edge into a bundle of 1 to 3 parallel source edges, plus some source
    edges inside clusters."""
    nr = rng.randint(2, 14)
    p_root = rng.random() / 2
    parent = [-1] + [rng.randrange(v) if rng.random() >= p_root else -1
                     for v in range(1, nr)]
    r_pairs = {(parent[v], v) for v in range(nr) if parent[v] >= 0}
    # an edge to a grandparent closes a triangle inside its tree
    deep = [v for v in range(nr) if parent[v] >= 0 and parent[parent[v]] >= 0]
    for v in rng.sample(deep, min(len(deep), rng.choice([0, 1, 1, 2, 4]))):
        r_pairs.add((parent[parent[v]], v))
    if not r_pairs:
        r_pairs.add((0, 1))
    members, n = [], 0
    for _ in range(nr):
        size = rng.randint(1, 3)
        members.append(list(range(n, n + size)))
        n += size
    label = list(range(n))
    rng.shuffle(label)
    cluster = [0] * n
    for r, vs in enumerate(members):
        for v in vs:
            cluster[label[v]] = 7 * r
    src = set()
    for a, b in r_pairs:
        for _ in range(rng.randint(1, 3)):
            src.add((label[rng.choice(members[a])], label[rng.choice(members[b])]))
    for vs in members:
        if len(vs) > 1 and rng.random() < 0.5:
            u, v = rng.sample(vs, 2)
            src.add((label[u], label[v]))
    edges = [(u, v, float(rng.randint(1, 3))) for u, v in src]
    rng.shuffle(edges)
    return WeightedGraph(n, edges), list(range(len(edges))), cluster.__getitem__


def test_select_bucket_matches_hz_on_every_representative_graph():
    # the forest rule changes no output, and ops["hz"] counts the edges the
    # forest test examined plus hz's scans
    rng = random.Random(24)
    kinds = {"forest": 0, "cyclic": 0, "early": 0}
    for trial in range(300):
        g, bucket, rep = random_level(rng)
        k = rng.randint(1, 3)
        before = set(rng.sample(range(g.m), rng.randint(0, g.m)))
        got_eids, ref_eids = set(before), set(before)
        got_ops, ref_ops = {"hz": 0}, {"hz": 0}
        kept, best, reps, r_edges = select_bucket(g, bucket, k, rep, got_eids, got_ops)
        r_kept, r_best, r_reps, r_r_edges = reference_select_bucket(
            g, bucket, k, rep, ref_eids, ref_ops)
        assert sorted(kept) == sorted(r_kept) and len(set(kept)) == len(kept)
        assert (best, reps, r_edges, got_eids) == (r_best, r_reps, r_r_edges, ref_eids)
        cycle_at = first_cycle_prefix(len(reps), r_edges)
        if cycle_at is None:
            kinds["forest"] += 1
            assert got_ops["hz"] == len(r_edges)
        elif len(r_edges) >= len(reps):
            kinds["early"] += 1
            assert got_ops["hz"] == ref_ops["hz"]
        else:
            kinds["cyclic"] += 1
            assert got_ops["hz"] == ref_ops["hz"] + cycle_at
    assert min(kinds.values()) >= 20, kinds


def reference_level(norm, bucket, k, uf, spanner_eids, ops) -> dict:
    """One pm level as `_build_class` runs it without the one-pair cover:
    the reference selection, then `grow_star_cover` on every
    representative graph.  Returns the row less sigma and i."""
    kept, best, reps, r_edges = reference_select_bucket(
        norm, bucket, k, uf.find, spanner_eids, ops, forest_rule=True)
    delta = merge_edges = 0
    adj: list[list[int]] = [[] for _ in range(len(reps))]
    for a, b in r_edges:
        adj[a].append(b)
        adj[b].append(a)
    for lst in adj:
        lst.sort()
    for _, star_edges in grow_star_cover(len(reps), adj) if best else ():
        for a, b in star_edges:
            eid = best[(min(reps[a], reps[b]), max(reps[a], reps[b]))]
            if eid not in spanner_eids:
                merge_edges += 1
            spanner_eids.add(eid)
            if uf.union(reps[a], reps[b]):
                delta += 1
    return {"bucket_edges": len(bucket), "rep_nodes": len(reps),
            "kept_edges": len(kept), "merge_edges": merge_edges, "delta": delta}


def one_pair_level(rng: random.Random, kind: str):
    """(g, bucket, unions) for a level whose bucket is one edge between
    two clusters ("edge"), one edge inside a cluster ("intra"), or 2 to 5
    edges that dedupe to one pair, some possibly inside a cluster
    ("bundle").  `unions` forms the clusters on a fresh ClassicUF in
    random order; g holds other edges too, so the bucket's ids vary."""
    n = rng.randint(3, 12)
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(4, n - 1))))
    clusters = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    unions = [(v, rng.choice(c[:j])) for c in clusters for j, v in enumerate(c) if j]
    rng.shuffle(unions)
    big = [c for c in clusters if len(c) > 1]
    pick = rng.choice
    if kind == "intra" and not big:
        return one_pair_level(rng, kind)
    a, b = rng.sample(clusters, 2)
    if kind == "edge":
        src = [(pick(a), pick(b))]
    elif kind == "intra":
        src = [tuple(rng.sample(pick(big), 2))]
    else:
        src = [(pick(a), pick(b)) for _ in range(rng.randint(2, 4))]
        src += [tuple(rng.sample(c, 2)) for c in big if rng.random() < 0.5]
        rng.shuffle(src)
    others = [(u, v) for u in range(n) for v in range(u + 1, n)
              if rng.random() < 0.2]
    edges = [(u, v, float(rng.randint(1, 3))) for u, v in src + others]
    ids = list(range(len(edges)))
    rng.shuffle(ids)
    placed = [None] * len(edges)
    for new_id, e in zip(ids, edges):
        placed[new_id] = e
    return WeightedGraph(n, placed), ids[:len(src)], unions


def test_one_pair_level_matches_the_generic_path():
    # a one-edge bucket skips the dedupe map and the forest test, and a
    # two-representative level skips the star cover: neither changes the
    # selection, the rep calls, ops["hz"], the row, the union-find's cost
    # or any vertex's cluster
    rng = random.Random(31)
    kinds = {"edge": 0, "intra": 0, "bundle": 0, "bundle-intra": 0}
    for trial in range(240):
        kind = ("edge", "intra", "bundle")[trial % 3]
        g, bucket, unions = one_pair_level(rng, kind)
        k = rng.randint(1, 3)
        before = set(rng.sample(range(g.m), rng.randint(0, g.m)))
        outs = []
        for select in (select_bucket,
                       partial(reference_select_bucket, forest_rule=True)):
            uf = ClassicUF(g.n)
            for u, v in unions:
                uf.union(u, v)
            calls = []

            def rep(v, _find=uf.find):
                calls.append(v)
                return _find(v)
            eids, ops = set(before), {"hz": 0}
            got = select(g, bucket, k, rep, eids, ops)
            outs.append((got, eids, ops, calls, uf.cost))
        assert outs[0] == outs[1]
        (kept, best, reps, r_edges), _, ops, _, _ = outs[0]
        if kind == "bundle":
            assert len(best) == 1
            kinds["bundle"] += 1
            # uf is the reference's, after its finds
            kinds["bundle-intra"] += any(
                uf.find(g.edges[e][0]) == uf.find(g.edges[e][1]) for e in bucket)
        else:
            assert len(bucket) == 1
            kinds[kind] += 1
            assert ops["hz"] == (kind == "edge")

        rows = []
        for level in ("build_class", "reference"):
            uf = ClassicUF(g.n)
            for u, v in unions:
                uf.union(u, v)
            eids, ops, log = set(before), {"hz": 0}, []
            if level == "reference":
                row = reference_level(g, bucket, k, uf, eids, ops)
            else:
                buckets = LevelBuckets(mu=1, by_class={0: {0: bucket}})
                spanlab.pm._build_class(g, k, 0.25, 0, buckets, uf, eids, log,
                                        ops, None)
                (row,) = log
                assert (row.pop("sigma"), row.pop("i")) == (0, 0)
            cost = uf.cost
            rows.append((row, eids, ops, cost, [uf.find(v) for v in range(g.n)]))
        assert rows[0] == rows[1]
        assert rows[0][0]["delta"] == (1 if best else 0)
    assert min(kinds.values()) >= 20, kinds


def _rep_graph_has_cycle(best: dict) -> bool:
    reps = sorted({r for pair in best for r in pair})
    local = {r: idx for idx, r in enumerate(reps)}
    return first_cycle_prefix(
        len(reps), [(local[a], local[b]) for a, b in best]) is not None


@pytest.mark.parametrize("build", [build_pm, build_linear])
@pytest.mark.parametrize("law", ["loguniform", "unit"])
def test_hz_runs_once_per_cyclic_level(build, law, monkeypatch):
    # selection calls hz through the spanlab.pm.hz_spanner global, which
    # spanbench's tracer wraps: right after each level whose representative
    # graph has a cycle, and after no other level
    events = []
    real_dedupe, real_hz = spanlab.pm.dedupe_source_edges, spanlab.pm.hz_spanner

    def dedupe(*args):
        best = real_dedupe(*args)
        reps = {r for pair in best for r in pair}
        events.append(("level", _rep_graph_has_cycle(best), len(reps), len(best)))
        return best

    def hz(g, k, stats=None):
        events.append(("hz", g.n, g.m))
        return real_hz(g, k, stats=stats)

    monkeypatch.setattr(spanlab.pm, "dedupe_source_edges", dedupe)
    monkeypatch.setattr(spanlab.pm, "hz_spanner", hz)
    g = gnm_graph(40, 300, seed=5, law=law, wmax=2)
    with unscaled_eps():
        build(g, 2, 0.5)
    levels = [e for e in events if e[0] == "level"]
    expected = []
    for e in levels:
        expected.append(e)
        if e[1]:
            expected.append(("hz",) + e[2:])
    assert events == expected
    assert any(e[1] for e in levels)


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


def test_level_left_without_an_edge_logs_a_row_of_the_same_keys(sink):
    # level 0 merges the path 0-1-2 into one cluster, so level 1's edge
    # (0, 2) is a self-loop in cluster space: that level keeps no edge,
    # and its row has the keys of a level that merges
    eps_i = internal_eps(0.25)
    g = triangle(1.0, 1.0, threshold(mu_classes(eps_i), eps_i))
    sp = build_pm(g, 2, 0.25, check=sink)
    sink.assert_clean()
    assert sp.levels == [
        {"sigma": 0, "i": 0, "bucket_edges": 2, "rep_nodes": 3,
         "kept_edges": 2, "merge_edges": 0, "delta": 2},
        {"sigma": 0, "i": 1, "bucket_edges": 1, "rep_nodes": 0,
         "kept_edges": 0, "merge_edges": 0, "delta": 0},
    ]
    assert list(sp.levels[0]) == list(sp.levels[1])
    assert sp.edges == [(0, 1, 1.0), (1, 2, 1.0)]
    rep = verify_stretch(g, sp, 3 * 1.25)
    assert rep.ok and rep.max_stretch == 1.0


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


@pytest.mark.parametrize("build", [build_pm, build_linear, build_light])
def test_self_loop_is_a_value_error(build):
    # no builder keeps a self-loop, but pm and linear used to bucket its
    # weight and blame the weight range, and light built around it
    g = gnm_graph(60, 400, seed=3, law="loguniform", wmax=1e9)
    raw = WeightedGraph(g.n, g.edges + [(5, 5, 1e-300)])
    with pytest.raises(ValueError, match=re.escape(
            "edge (5, 5) is a self-loop; WeightedGraph.from_edges drops self-loops")):
        build(raw, 2, 0.25)
    simple = WeightedGraph.from_edges(raw.n, raw.edges)
    assert build(simple, 2, 0.25).edges == build(g, 2, 0.25).edges


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
