"""Ground-truth machinery: greedy baseline, exact stretch verification, and
sparsity/lightness metrics.

Deliberately self-contained: this module re-implements its own Dijkstra
and a Prim-style spanning forest so that nothing it certifies depends on
the code paths under test.

Stretch verification runs one search over H per source vertex, each
stopping once its targets are final, with one reused distance array:
memory is O(n + m), and the reports equal those of full searches.  The
kind of search is picked from H alone: when every edge of H has the same
weight c (an H with no edges included), it is a breadth-first search;
otherwise it is a heap Dijkstra.  The BFS is exact bit for bit.  In a
graph with one weight, Dijkstra's distance to a vertex is a float sum
c + c + ... + c added in order along a path; that sum depends only on the
number of hops h and never falls as h grows, so the distance is the sum
over the fewest hops.  The BFS sets each vertex, when first reached, to
its parent's distance plus c, which is that same sum.  (Computing h * c
instead can round differently: ten 0.1s add up to 0.9999999999999999,
but 10 * 0.1 is 1.0.)
"""
from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field

from .graphs import WeightedGraph
from .spanner import Spanner, graph_hash

INF = math.inf


def _dijkstra(adj: list[list[tuple[int, float]]], source: int, targets: set[int],
              dist: list[float], step: float | None = None) -> list[int]:
    """Shortest distances from `source` into `dist`, which holds INF on
    every vertex on entry; stops once every vertex of `targets` is final.

    With `step` None this is Dijkstra: a popped distance is final and
    later pops never lower it, so each target's entry equals a full run's.
    With `step` set, every edge of `adj` must weigh `step`, and this is a
    breadth-first search: a vertex's distance is set once, when it is
    first reached, to its parent's distance plus `step`, so it is final
    at once and equals Dijkstra's (see the module docstring).  Returns
    the vertices whose entry was set, for the caller to reset to INF.
    """
    dist[source] = 0.0
    touched = [source]
    left = len(targets)
    if step is not None:
        left -= source in targets
        if not left:
            return touched
        # touched doubles as the FIFO queue: vertices enter it in BFS order
        for u in touched:
            nd = dist[u] + step
            for v, _ in adj[u]:
                if dist[v] == INF:
                    dist[v] = nd
                    touched.append(v)
                    if v in targets:
                        left -= 1
                        if not left:
                            return touched
        return touched
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u in targets:
            left -= 1
            if not left:
                break
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                if dist[v] == INF:
                    touched.append(v)
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return touched


def _adjacency(n: int, edges: list[tuple[int, int, float]]) -> list[list[tuple[int, float]]]:
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def _prim_msf_weight(g: WeightedGraph) -> float:
    """Minimum spanning forest weight via Prim, restarted at every vertex
    that no earlier tree reached."""
    adj = _adjacency(g.n, g.edges)
    in_tree = [False] * g.n
    total = 0.0
    for root in range(g.n):
        if in_tree[root]:
            continue
        heap: list[tuple[float, int]] = [(0.0, root)]
        while heap:
            w, u = heapq.heappop(heap)
            if in_tree[u]:
                continue
            in_tree[u] = True
            total += w
            for v, wv in adj[u]:
                if not in_tree[v]:
                    heapq.heappush(heap, (wv, v))
    return total


# ---------------------------------------------------------------- greedy


def greedy_spanner(g: WeightedGraph, t: float) -> Spanner:
    """Classic greedy: scan edges by nondecreasing weight (ties by edge id);
    keep an edge iff the spanner built so far has detour > t * w.  t must
    be finite and >= 1: no detour exceeds an infinite or NaN t * w, so
    such a t would keep no edge."""
    if not 1.0 <= t < INF:
        raise ValueError(f"stretch target t must be finite and >= 1, got {t}")
    adj: list[list[tuple[int, float]]] = [[] for _ in range(g.n)]
    kept: list[tuple[int, int, float]] = []
    order = sorted(range(g.m), key=lambda e: (g.edges[e][2], e))
    for eid in order:
        u, v, w = g.edges[eid]
        d = _dijkstra_bounded(adj, u, v, t * w)
        if d > t * w:
            kept.append((u, v, w))
            adj[u].append((v, w))
            adj[v].append((u, w))
    return Spanner(
        algo="greedy", k=0, eps=0.0, n=g.n, edges=kept, source_hash=graph_hash(g)
    )


def _dijkstra_bounded(adj: list[list[tuple[int, float]]], source: int,
                      target: int, cutoff: float) -> float:
    """Distance source->target, abandoning paths longer than cutoff."""
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == target:
            return d
        if d > dist.get(u, INF) or d > cutoff:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd <= cutoff and nd < dist.get(v, INF):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist.get(target, INF)


# ---------------------------------------------------------------- verify


@dataclass
class StretchReport:
    max_stretch: float
    witness: tuple[int, int, float] | None
    ok: bool
    target: float
    histogram: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> str:
        wit = list(self.witness) if self.witness else None
        return json.dumps(
            {
                "max_stretch": self.max_stretch,
                "witness": wit,
                "pass": self.ok,
                "target": self.target,
                "histogram_buckets": self.histogram,
            }
        )


def verify_stretch(g: WeightedGraph, h: Spanner | WeightedGraph, t: float) -> StretchReport:
    """Exact per-edge stretch of h over g.

    The maximum of d_H(u,v)/w(u,v) over edges of g equals the stretch over
    all vertex pairs: any shortest g-path is a chain of edges, each
    stretched at most that much.  Pass iff max <= t*(1+1e-9); t must be
    finite and >= 1, else ValueError.

    Cost: edges of g are grouped by source in one scan of g.edges (u if
    u is already a source or v is not, else v), then one search over H
    runs per source and stops once that source's targets are final: a
    BFS when every edge of H has one weight, else a Dijkstra (see
    `_dijkstra`).  The searches share one distance array and reset only
    what they touched, so memory is O(n + m) and a search costs what it
    explores.  The witness and the histogram are read in g.edges order.
    """
    if not 1.0 <= t < INF:
        raise ValueError(f"stretch target t must be finite and >= 1, got {t}")
    submap: dict[tuple[int, int], float] = {}
    for u, v, w in g.edges:
        key = (u, v) if u < v else (v, u)
        submap[key] = w
    for u, v, w in h.edges:
        key = (u, v) if u < v else (v, u)
        if key not in submap or submap[key] != w:
            raise ValueError(f"spanner edge {key} (w={w}) is not an edge of the graph")

    # source -> [(edge id, other endpoint)]
    by_source: dict[int, list[tuple[int, int]]] = {}
    for eid, (u, v, _) in enumerate(g.edges):
        if u in by_source or v not in by_source:
            by_source.setdefault(u, []).append((eid, v))
        else:
            by_source[v].append((eid, u))

    # one weight on every edge of H (or no edge at all): BFS is exact
    step = h.edges[0][2] if h.edges else 1.0
    if any(w != step for _, _, w in h.edges):
        step = None
    adj_h = _adjacency(g.n, h.edges)
    dist = [INF] * g.n
    ratios = [0.0] * g.m
    for src, pairs in by_source.items():
        touched = _dijkstra(adj_h, src, {other for _, other in pairs}, dist, step)
        for eid, other in pairs:
            ratios[eid] = dist[other] / g.edges[eid][2]
        for x in touched:
            dist[x] = INF

    max_stretch = 1.0 if g.m else 0.0
    witness = None
    hist: dict[str, int] = {}
    for (u, v, w), ratio in zip(g.edges, ratios):
        if ratio > max_stretch:
            max_stretch = ratio
            witness = (u, v, w)
        if math.isinf(ratio):
            key = "inf"
        else:
            key = f"{math.floor(ratio * 4) / 4:.2f}"
        hist[key] = hist.get(key, 0) + 1
    ok = max_stretch <= t * (1.0 + 1e-9)
    return StretchReport(
        max_stretch=max_stretch, witness=witness, ok=ok, target=t, histogram=hist
    )


# ---------------------------------------------------------------- metrics


@dataclass
class QualityMetrics:
    edges: int
    weight: float
    sparsity: float
    lightness: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "edges": self.edges,
                "weight": self.weight,
                "sparsity": self.sparsity,
                "lightness": self.lightness,
            }
        )


def spanner_metrics(g: WeightedGraph, h: Spanner | WeightedGraph) -> QualityMetrics:
    """Size, weight, sparsity |H|/(n-1) and lightness w(H)/w(MSF) of H,
    where MSF is G's minimum spanning forest (its MST when G is connected)."""
    msf_w = _prim_msf_weight(g)
    hw = sum(w for _, _, w in h.edges)
    denom = max(g.n - 1, 1)
    return QualityMetrics(
        edges=len(h.edges),
        weight=hw,
        sparsity=len(h.edges) / denom,
        lightness=hw / msf_w if msf_w > 0 else INF,
    )
