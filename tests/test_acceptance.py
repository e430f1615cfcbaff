"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.

Measured constants below were frozen after a one-time calibration sweep
(with ~2x headroom over the observed maxima) and are asserted here.
"""
from __future__ import annotations

import math
import random
import statistics

import pytest

from spanlab.dsu import StaticTreeIndex, StaticTreeUF
from spanlab.generators import gnm_graph, gnp_graph
from spanlab.graphs import WeightedGraph, minimum_spanning_tree
from spanlab.hz import UnweightedGraph, hz_spanner
from spanlab.light import build_light
from spanlab.linear import build_linear
from spanlab.oracle import greedy_spanner, spanner_metrics, verify_stretch
from spanlab.pm import build_pm, grow_star_cover
from conftest import (
    CheckSink,
    classic_uf_session,
    five_step_build,
    hop_distances,
    processed_rows,
    static_tree_uf_session,
)

# frozen after calibration (observed maxima in parentheses)
C_HZ = 4.0          # (0.44) kept at the implementation default
C_PM = 0.16         # (0.078)
C_LIN = 0.16        # (0.078)
C_L = 1.1           # (0.52)
C_GT = 3.0          # (1.50)
SLOPE_LIMIT = 1.5 + 0.15

BUILDERS = {"pm": build_pm, "linear": build_linear, "light": build_light}
KS = (2, 3, 5)
EPSS = (0.1, 0.25, 0.5)
LAWS = ("unit", "uniform", "loguniform")


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------- pool


def _instance_pool() -> list[tuple[WeightedGraph, str]]:
    """200 connected instances, n <= 200 and m <= 3000, three weight laws;
    sizes skew small with a few large cells to keep the suite under budget."""
    pool: list[tuple[WeightedGraph, str]] = []
    rng = random.Random(20240817)
    specs: list[tuple[int, int]] = []
    for _ in range(150):
        n = rng.randint(8, 40)
        specs.append((n, rng.randint(n, int(2.5 * n))))
    for _ in range(40):
        n = rng.randint(40, 120)
        specs.append((n, rng.randint(n, min(4 * n, 500))))
    for _ in range(8):
        n = rng.randint(120, 200)
        specs.append((n, rng.randint(2 * n, 1200)))
    specs.append((200, 2200))
    specs.append((200, 2900))
    for idx, (n, m) in enumerate(specs):
        law = LAWS[idx % 3]
        wmax = rng.choice([2.0, 10.0, 1000.0])
        pool.append((gnm_graph(n, m, seed=idx, law=law, wmax=wmax), law))
    assert len(pool) == 200
    return pool


@pytest.fixture(scope="module")
def pool():
    return _instance_pool()


# ---------------------------------------------------------------- criteria


def test_criterion_1_stretch_soundness(pool):
    worst = 0.0
    runs = 0
    for algo, fn in BUILDERS.items():
        for k in KS:
            for eps in EPSS:
                target = (2 * k - 1) * (1 + eps)
                for g, _law in pool:
                    sp = fn(g, k, eps)
                    rep = verify_stretch(g, sp, target)
                    runs += 1
                    if not rep.ok:
                        _report(1, "stretch-soundness", False,
                                f"{algo} k={k} eps={eps} n={g.n} m={g.m} "
                                f"stretch={rep.max_stretch}")
                    worst = max(worst, rep.max_stretch / target)
    _report(1, "stretch-soundness", True,
            f"{runs} runs, worst stretch/target = {worst:.4f}")


def _grid_graphs():
    for n in (128, 256, 512, 1024):
        yield n, gnp_graph(n, 8.0 / n, seed=1000 + n, law="uniform", wmax=2.0)


def _slope(points: list[tuple[int, int]]) -> float:
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(m) for _, m in points]
    mx, my = statistics.mean(xs), statistics.mean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


def test_criterion_2_sparsity_scaling():
    eps, k = 0.25, 2
    factor = math.log(1 / eps) / eps
    for algo, fn, cap in (("pm", build_pm, C_PM), ("linear", build_linear, C_LIN)):
        points = []
        worst_const = 0.0
        for n, g in _grid_graphs():
            sp = fn(g, k, eps)
            points.append((n, sp.m))
            worst_const = max(worst_const, sp.m / (n ** 1.5 * factor))
        slope = _slope(points)
        ok = slope <= SLOPE_LIMIT and worst_const <= cap
        _report(2, f"sparsity-scaling-{algo}", ok,
                f"slope={slope:.3f} const={worst_const:.4f} cap={cap}")


def test_criterion_3_lightness():
    worst = 0.0
    for n, g in _grid_graphs():
        met = spanner_metrics(g, build_light(g, 2, 0.25))
        worst = max(worst, met.lightness / math.sqrt(n))
        if met.lightness > C_L * math.sqrt(n):
            _report(3, "lightness", False,
                    f"n={n} lightness={met.lightness:.3f} cap={C_L * math.sqrt(n):.3f}")
    ratios = []
    for n, g in _grid_graphs():
        if n > 256:
            continue
        greedy_l = spanner_metrics(g, greedy_spanner(g, 3 * 1.25)).lightness
        light_l = spanner_metrics(g, build_light(g, 2, 0.25)).lightness
        ratios.append(light_l / greedy_l)
    ok = all(r <= 3.0 for r in ratios)
    _report(3, "lightness", ok,
            f"C_L const={worst:.3f} (cap {C_L}); vs greedy ratios "
            + ",".join(f"{r:.2f}" for r in ratios))


def _bridges(g: WeightedGraph) -> set[tuple[int, int]]:
    adj = g.adjacency_ids()
    visited = [False] * g.n
    disc = [0] * g.n
    low = [0] * g.n
    timer = [0]
    out: set[tuple[int, int]] = set()
    for root in range(g.n):
        if visited[root]:
            continue
        stack = [(root, -1, iter(adj[root]))]
        visited[root] = True
        disc[root] = low[root] = timer[0]
        timer[0] += 1
        while stack:
            v, pedge, it = stack[-1]
            advanced = False
            for u, eid in it:
                if eid == pedge:
                    continue
                if not visited[u]:
                    visited[u] = True
                    disc[u] = low[u] = timer[0]
                    timer[0] += 1
                    stack.append((u, eid, iter(adj[u])))
                    advanced = True
                    break
                low[v] = min(low[v], disc[u])
            if not advanced:
                stack.pop()
                if stack:
                    p, _, _ = stack[-1]
                    low[p] = min(low[p], low[v])
                    if low[v] > disc[p]:
                        a, b, _ = g.edges[pedge]
                        out.add((min(a, b), max(a, b)))
    return out


def test_criterion_4_mst_containment(pool):
    checked = 0
    for g, _law in pool:
        mst_keys = {(min(u, v), max(u, v))
                    for u, v, _ in minimum_spanning_tree(g).edges}
        for fn, nm in ((build_linear, "linear"), (build_light, "light")):
            keys = fn(g, 2, 0.25).edge_key_set()
            if not mst_keys <= keys:
                _report(4, "mst-containment", False, f"{nm} n={g.n} m={g.m}")
        bridges = _bridges(g)
        pm_keys = build_pm(g, 2, 0.25).edge_key_set()
        if not bridges <= pm_keys:
            _report(4, "mst-containment", False, f"pm bridges n={g.n}")
        checked += 1
    _report(4, "mst-containment", True, f"{checked} instances")


def _tiny_cases(count: int):
    rng = random.Random(555)
    for _ in range(count):
        n = rng.randint(2, 8)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.55:
                    edges.append((u, v, float(rng.choice([1, 2, 4, 8]))))
        g = WeightedGraph(n, edges)
        from spanlab.graphs import connected_components

        comps = connected_components(g)
        if len(comps) > 1:
            extra = list(g.edges)
            for a, b in zip(comps, comps[1:]):
                extra.append((a[0], b[0], float(rng.choice([1, 2, 4, 8]))))
            g = WeightedGraph(n, extra)
        yield g


def test_criterion_5_small_instance_lemma_oracles():
    cases = 0
    for g in _tiny_cases(10_000):
        sink = CheckSink()
        build_linear(g, 2, 0.5, check=sink)
        xy = [f for f in sink.failures if f[0] == "x-subset-y"]
        if xy:
            _report(5, "lemma-oracles", False, f"x-subset-y broke: {xy[0]}")
        sink2 = CheckSink()
        build_light(g, 2, 0.5, check=sink2)
        cyc = [f for f in sink2.failures if f[0] == "cycle-property"]
        if cyc:
            _report(5, "lemma-oracles", False, f"cycle-property broke: {cyc[0]}")
        if sink.failures or sink2.failures:
            _report(5, "lemma-oracles", False,
                    str((sink.failures + sink2.failures)[0]))
        cases += 1
    _report(5, "lemma-oracles", True, f"{cases} sampled cases, n <= 8")


def test_criterion_6_union_find():
    rng = random.Random(4096)
    # cross-engine equivalence on 10^4 random legal traces
    for trial in range(10_000):
        n = rng.randint(2, 256)
        parent = [-1] + [rng.randrange(v) for v in range(1, n)]
        ops = []
        for v in rng.sample(range(1, n), rng.randint(0, n - 1)):
            ops.append(("L", v))
            if rng.random() < 0.5:
                ops.append(("F", rng.randrange(n)))
        stat, _ = static_tree_uf_session(parent, ops)
        classic_ops = [("U", op[1], parent[op[1]]) if op[0] == "L" else op
                       for op in ops]
        classic, _ = classic_uf_session(n, classic_ops)
        if stat != classic:
            _report(6, "union-find", False, f"divergence at trial {trial}")
    # amortized-cost evidence across n = 2^10 .. 2^16
    worst_ratio = 0.0
    for exp in range(10, 17):
        n = 2 ** exp
        parent = [-1] + [rng.randrange(v) for v in range(1, n)]
        uf = StaticTreeUF(StaticTreeIndex(parent))
        mops = 0
        order = list(range(1, n))
        rng.shuffle(order)
        for v in order:
            uf.link(v)
            mops += 1
            if mops % 2 == 0:
                uf.find(rng.randrange(n))
                mops += 1
        for _ in range(n // 2):
            uf.find(rng.randrange(n))
            mops += 1
        worst_ratio = max(worst_ratio, uf.cost / (mops + n))
    ok = worst_ratio <= C_GT
    _report(6, "union-find", ok,
            f"10^4 traces equivalent; op ratio max {worst_ratio:.3f} <= {C_GT}")


def test_criterion_7_potential_accounting(pool):
    # at k = 2 the potential bound skips the pool's heavy levels; the
    # five-step case runs the steps, so some row pays from a Phi drop
    builds = [lambda sink, g=g: (g, build_light(g, 2, 0.25, check=sink))
              for g, _law in pool[:60]]
    checked = processed = 0
    for build in builds + [five_step_build]:
        sink = CheckSink()
        g, sp = build(sink)
        processed += len(processed_rows(sp))
        hard = [f for f in sink.failures
                if f[0] in ("dplus-nonnegative", "coarsen-dplus", "phi1-bound",
                            "n-reduction")]
        if hard:
            _report(7, "potential-accounting", False, str(hard[0]))
        per_sigma: dict[int, list[dict]] = {}
        for row in sp.levels:
            per_sigma.setdefault(row["sigma"], []).append(row)
        mst_w = minimum_spanning_tree(g).weight
        for sigma, rows in per_sigma.items():
            if rows[0]["phi"] > mst_w * (1 + 1e-9):
                _report(7, "potential-accounting", False,
                        f"phi1 {rows[0]['phi']} > w(MST) {mst_w}")
            total_delta = sum(r["delta"] for r in rows)
            first_phi = rows[0]["phi"]
            last_phi = rows[-1]["phi"] - rows[-1]["delta"]
            if abs(total_delta - (first_phi - last_phi)) > 1e-9 * max(
                1.0, abs(first_phi)
            ):
                _report(7, "potential-accounting", False,
                        f"telescoping broke at sigma={sigma}")
        checked += 1
    _report(7, "potential-accounting", processed > 0,
            f"{checked} instrumented instances, {processed} processed levels")


def test_criterion_8_structural_checkers(pool):
    rng = random.Random(31337)
    total_checks = 0
    for g, _law in pool[:40]:
        if g.n > 200:
            continue
        for fn in (build_pm, build_linear, build_light):
            sink = CheckSink()
            fn(g, rng.choice([2, 3]), rng.choice([0.1, 0.25, 0.5]),
               check=sink)
            total_checks += sink.seen
            if sink.failures:
                _report(8, "structural-checkers", False, str(sink.failures[0]))
    # star-cover postconditions validated directly on random simple graphs
    for _ in range(200):
        n = rng.randint(2, 60)
        adj = [[] for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.2:
                    adj[u].append(v)
                    adj[v].append(u)
        for v in range(n):
            if not adj[v]:
                u = (v + 1) % n
                adj[v].append(u)
                adj[u].append(v)
        for lst in adj:
            lst.sort()
        for nodes, edges in grow_star_cover(n, adj):
            if len(nodes) < 2:
                _report(8, "structural-checkers", False, "cover group < 2")
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
                if len(dist) != len(nodes) or max(dist.values()) > 4:
                    _report(8, "structural-checkers", False,
                            "star cover hop diameter > 4")
    _report(8, "structural-checkers", True,
            f"{total_checks} builder checks + cover postconditions")


def test_criterion_9_hz_subroutine():
    rng = random.Random(777)
    # exhaustive per-edge hop-stretch verification up to n = 500
    for n in (60, 200, 500):
        p = min(0.5, 6.0 / n)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        g = UnweightedGraph(n, edges)
        for k in (2, 3):
            out = hz_spanner(g, k)
            cache: dict[int, list[int]] = {}
            for u, v in {(min(a, b), max(a, b)) for a in range(n)
                         for b in g.adj[a]}:
                if u not in cache:
                    cache[u] = hop_distances(g, out, u)
                d = cache[u][v]
                if not 0 < d <= 2 * k - 1:
                    _report(9, "hz-subroutine", False,
                            f"hop stretch {d} on n={n} k={k}")
    # size bound across the calibration grid
    worst = 0.0
    for _ in range(1200):
        n = rng.choice([16, 40, 90, 200])
        k = rng.choice([1, 2, 3, 5])
        p = min(0.9, rng.uniform(1.0, 14.0) / n)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        out = hz_spanner(UnweightedGraph(n, edges), k)
        if len(out) > C_HZ * n ** (1 + 1.0 / k) + n:
            _report(9, "hz-subroutine", False, f"size bound broke n={n} k={k}")
        worst = max(worst, max(0.0, len(out) - n) / n ** (1 + 1.0 / k))
    # Petersen: any valid 3-spanner must keep all 15 edges
    pet = ([(i, (i + 1) % 5) for i in range(5)]
           + [(i + 5, 5 + (i + 2) % 5) for i in range(5)]
           + [(i, i + 5) for i in range(5)])
    ok = len(hz_spanner(UnweightedGraph(10, pet), 2)) == 15
    _report(9, "hz-subroutine", ok, f"size const max {worst:.3f} <= {C_HZ}")
