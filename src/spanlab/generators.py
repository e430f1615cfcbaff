"""Seeded graph generators for benchmarks and tests.

Every generator takes an explicit seed and is fully deterministic: the same
(seed, parameters) pair always produces byte-identical edge lists.  All
generators guarantee connectivity by laying down a random spanning tree
first (with weights from the same law), then sprinkling extra edges.
"""
from __future__ import annotations

import math
import random

from .graphs import WeightedGraph


def _weight(rng: random.Random, law: str, wmax: float) -> float:
    if law == "unit":
        return 1.0
    if law == "uniform":
        return rng.uniform(1.0, wmax)
    if law == "loguniform":
        return math.exp(rng.uniform(0.0, math.log(wmax)))
    raise ValueError(f"unknown weight law {law!r}")


def _spanning_tree(rng: random.Random, n: int, law: str,
                   wmax: float) -> dict[tuple[int, int], float]:
    """A random spanning tree on 0..n-1, keyed (u, v) with u < v: vertices
    in shuffled order, each joined to a uniform earlier one, drawing that
    choice and then the edge's weight per `law`."""
    edges: dict[tuple[int, int], float] = {}
    order = list(range(n))
    rng.shuffle(order)
    for idx in range(1, n):
        u = order[idx]
        v = order[rng.randrange(idx)]
        key = (u, v) if u < v else (v, u)
        edges[key] = _weight(rng, law, wmax)
    return edges


def gnp_graph(n: int, p: float, seed: int, law: str = "uniform",
              wmax: float = 100.0) -> WeightedGraph:
    """Connected G(n, p)-style graph: random spanning tree + Bernoulli
    extras, weights drawn per `law`."""
    rng = random.Random(seed)
    edges = _spanning_tree(rng, n, law, wmax)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in edges:
                continue
            if rng.random() < p:
                edges[(u, v)] = _weight(rng, law, wmax)
    return WeightedGraph(n, [(u, v, w) for (u, v), w in sorted(edges.items())])


def gnm_graph(n: int, m: int, seed: int, law: str = "uniform",
              wmax: float = 100.0) -> WeightedGraph:
    """Connected graph with exactly max(m, n-1) edges."""
    rng = random.Random(seed)
    edges = _spanning_tree(rng, n, law, wmax)
    cap = n * (n - 1) // 2
    target = min(max(m, n - 1), cap)
    guard = 50 * target + 100
    while len(edges) < target and guard:
        guard -= 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key not in edges:
            edges[key] = _weight(rng, law, wmax)
    return WeightedGraph(n, [(u, v, w) for (u, v), w in sorted(edges.items())])


def grid_graph(n: int, seed: int, law: str = "unit", wmax: float = 4.0) -> WeightedGraph:
    """Axis-aligned grid on ~n vertices (side = round(sqrt(n)))."""
    rng = random.Random(seed)
    side = max(2, round(math.sqrt(n)))
    total = side * side
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1, _weight(rng, law, wmax)))
            if r + 1 < side:
                edges.append((v, v + side, _weight(rng, law, wmax)))
    return WeightedGraph(total, edges)


def geometric_graph(n: int, seed: int) -> WeightedGraph:
    """Random geometric graph in the unit square, Euclidean weights,
    connectivity via a spanning tree over the same points."""
    rng = random.Random(seed)
    pts = [(rng.random(), rng.random()) for _ in range(n)]
    radius = min(1.0, math.sqrt(3.0 * math.log(max(n, 2)) / max(n, 2)))

    def dist(a: int, b: int) -> float:
        return math.hypot(pts[a][0] - pts[b][0], pts[a][1] - pts[b][1]) + 1e-9

    edges: dict[tuple[int, int], float] = {}
    for u in range(n):
        for v in range(u + 1, n):
            d = dist(u, v)
            if d <= radius:
                edges[(u, v)] = d
    order = list(range(n))
    rng.shuffle(order)
    for idx in range(1, n):
        u, v = order[idx], order[rng.randrange(idx)]
        key = (u, v) if u < v else (v, u)
        edges.setdefault(key, dist(u, v))
    return WeightedGraph(n, [(u, v, w) for (u, v), w in sorted(edges.items())])


def generate(kind: str, n: int, seed: int, p: float | None = None,
             m: int | None = None, law: str = "uniform",
             wmax: float = 100.0) -> WeightedGraph:
    """The `kind` generator's graph.  Raises ValueError on n < 0, on a gnp
    `p` outside [0, 1] (NaN included), on a gnm `m` < 0, and on a `wmax`
    that is not a finite float >= 1 when the weights are drawn from
    [1, wmax] (every law but unit; geometric draws no weight)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if kind == "gnp" and p is not None and not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if kind == "gnm" and m is not None and m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if kind == "grid" and law == "uniform":
        law = "unit"
    if kind != "geometric" and law != "unit" and not 1.0 <= wmax < math.inf:
        raise ValueError(f"{law} weights are drawn from [1, wmax]: wmax must be "
                         f"finite and >= 1, got {wmax!r}")
    if kind == "gnp":
        return gnp_graph(n, p if p is not None else min(1.0, 8.0 / max(n, 2)),
                         seed, law, wmax)
    if kind == "gnm":
        return gnm_graph(n, m if m is not None else 3 * n, seed, law, wmax)
    if kind == "grid":
        return grid_graph(n, seed, law, wmax)
    if kind == "geometric":
        return geometric_graph(n, seed)
    raise ValueError(f"unknown generator {kind!r}")
