"""Deterministic linear-time (2k-1)-spanner for unweighted simple graphs.

Ball-growing construction: repeatedly grow a BFS ball from the smallest
unprocessed vertex until a radius r <= k where the ball stops expanding by
a factor of n^(1/k); keep that ball's BFS tree, and retire the interior
(radius r-1) together with its incident edges.  Every retired edge has
both endpoints in the kept tree within 2r-1 <= 2k-1 hops, and tree sizes
charge to retired vertices at n^(1/k) apiece, giving O(n^(1+1/k)) edges.
"""
from __future__ import annotations


class UnweightedGraph:
    """Adjacency-list simple graph; rejects self-loops and parallel edges."""

    def __init__(self, n: int, edges: list[tuple[int, int]]):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex id out of range: ({u},{v})")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"parallel edge ({u},{v}) not allowed")
            seen.add(key)
            self.adj[u].append(v)
            self.adj[v].append(u)
        self.m = len(seen)
        for lst in self.adj:
            lst.sort()


def hz_spanner(g: UnweightedGraph, k: int, stats: dict | None = None) -> set[tuple[int, int]]:
    """Edge subset with per-edge hop stretch <= 2k-1 and O(n^(1+1/k)) size.

    When given, stats["ops"] accumulates the adjacency scans performed,
    which stay linear in n+m.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = g.n
    work = 0
    if n == 0:
        if stats is not None:
            stats["ops"] = stats.get("ops", 0)
        return set()
    growth = n ** (1.0 / k)
    alive = [True] * n
    out: set[tuple[int, int]] = set()

    for start in range(n):
        work += 1
        if not alive[start]:
            continue
        if not any(alive[w] for w in g.adj[start]):
            alive[start] = False
            continue
        # BFS over alive vertices, layer by layer, until the growth factor
        # drops below n^(1/k) (forced stop at radius k)
        dist = {start: 0}
        frontier = [start]
        layers = [[start]]
        ball = 1
        r = 0
        while True:
            nxt = []
            for u in frontier:
                work += len(g.adj[u])
                for w in g.adj[u]:
                    if alive[w] and w not in dist:
                        dist[w] = r + 1
                        nxt.append(w)
            r += 1
            layers.append(nxt)
            if ball + len(nxt) < growth * ball or r == k:
                ball += len(nxt)
                break
            ball += len(nxt)
            frontier = nxt

        # BFS tree over the full ball (radius r), one parent edge per vertex
        for layer in layers[1:]:
            for w in layer:
                for u in g.adj[w]:
                    work += 1
                    if dist.get(u, -1) == dist[w] - 1:
                        out.add((u, w) if u < w else (w, u))
                        break
        # retire the interior: every edge incident to it is now spanned
        for d, layer in enumerate(layers):
            if d <= r - 1:
                for u in layer:
                    alive[u] = False
                    work += 1
    if stats is not None:
        stats["ops"] = stats.get("ops", 0) + work
    return out
