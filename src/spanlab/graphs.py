"""Weighted graph container, file I/O, MST, shortest paths, normalization.

Everything downstream (bucketing, the spanner builders, the verifier)
consumes the types in this module.  Graphs are simple and undirected with
strictly positive, finite weights; ingestion collapses multi-edges to the
lightest copy and drops self-loops, keeping counters for both.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .dsu import ClassicUF

INF = math.inf


class GraphFormatError(ValueError):
    """Raised on malformed input files; carries the offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------- graphs


class WeightedGraph:
    """Simple undirected graph; vertex ids in [0, n), weights in (0, inf).

    Read-only after construction, so instances can be shared freely across
    concurrent readers.  It caches one adjacency (`adjacency_ids`), built on
    first use; its readers take each neighbour's weight from `edges`.
    """

    def __init__(self, n: int, edges: list[tuple[int, int, float]]):
        self.n = n
        self.edges = edges
        self.collapsed_count = 0
        self.selfloop_count = 0
        self._adj_ids: Optional[list[list[tuple[int, int]]]] = None

    @classmethod
    def from_edges(cls, n: int, raw: Iterable[tuple[int, int, float]]) -> "WeightedGraph":
        """Build a simple graph: drop self-loops, keep lightest parallel copy.

        Raises ValueError on n < 0, a vertex id out of range or a weight
        that is not in (0, inf), NaN included."""
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got n={n}")
        best: dict[tuple[int, int], float] = {}
        selfloops = 0
        collapsed = 0
        for u, v, w in raw:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex id out of range: ({u}, {v}) with n={n}")
            if not 0 < w < INF:
                raise ValueError(f"nonpositive or non-finite weight {w} on edge ({u}, {v})")
            if u == v:
                selfloops += 1
                continue
            key = (u, v) if u < v else (v, u)
            if key in best:
                collapsed += 1
                if w < best[key]:
                    best[key] = w
            else:
                best[key] = w
        g = cls(n, [(u, v, w) for (u, v), w in sorted(best.items())])
        g.collapsed_count = collapsed
        g.selfloop_count = selfloops
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency_ids(self) -> list[list[tuple[int, int]]]:
        """(neighbor, edge index) lists, built once on demand."""
        if self._adj_ids is None:
            adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
            for eid, (u, v, _) in enumerate(self.edges):
                adj[u].append((v, eid))
                adj[v].append((u, eid))
            self._adj_ids = adj
        return self._adj_ids

    def edge_key_set(self) -> set[tuple[int, int]]:
        return {(u, v) if u < v else (v, u) for u, v, _ in self.edges}

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m})"


@dataclass
class MstResult:
    """Rooted minimum spanning tree with the deterministic tie-break applied."""

    parent: list[int]              # parent[root] == -1
    edges: list[tuple[int, int, float]]
    weight: float
    root: int = 0
    eids: list[int] = field(default_factory=list)   # g's id of each edge


# ---------------------------------------------------------------- file I/O


def _parse_edge_list(lines: list[str]) -> tuple[int, list[tuple[int, int, float]]]:
    header = None
    raw: list[tuple[int, int, float]] = []
    expected_m = None
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if header is None:
            if len(parts) != 2:
                raise GraphFormatError("expected header 'n m'", lineno)
            try:
                header = int(parts[0])
                expected_m = int(parts[1])
            except ValueError:
                raise GraphFormatError("non-integer header fields", lineno) from None
            continue
        if len(parts) != 3:
            raise GraphFormatError("expected 'u v w'", lineno)
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise GraphFormatError(f"cannot parse edge {text!r}", lineno) from None
        raw.append((u, v, w))
    if header is None:
        raise GraphFormatError("empty file, missing header")
    if expected_m is not None and expected_m != len(raw):
        raise GraphFormatError(f"header announced {expected_m} edges, found {len(raw)}")
    return header, raw


def _parse_dimacs_gr(lines: list[str]) -> tuple[int, list[tuple[int, int, float]]]:
    n = None
    raw: list[tuple[int, int, float]] = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("c"):
            continue
        parts = text.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "sp":
                raise GraphFormatError("expected 'p sp n m'", lineno)
            try:
                n, _ = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphFormatError("non-integer header fields", lineno) from None
        elif parts[0] == "a":
            if n is None:
                raise GraphFormatError("arc before problem line", lineno)
            if len(parts) != 4:
                raise GraphFormatError("expected 'a u v w'", lineno)
            try:
                u, v, w = int(parts[1]) - 1, int(parts[2]) - 1, float(parts[3])
            except ValueError:
                raise GraphFormatError(f"cannot parse arc {text!r}", lineno) from None
            raw.append((u, v, w))
        else:
            raise GraphFormatError(f"unknown record type {parts[0]!r}", lineno)
    if n is None:
        raise GraphFormatError("missing 'p sp' problem line")
    return n, raw


_PARSERS = {"edge-list": _parse_edge_list, "dimacs-gr": _parse_dimacs_gr}


def _read_graph_file(
    path: str, fmt: str = "edge-list"
) -> tuple[list[str], int, list[tuple[int, int, float]]]:
    """A graph file's lines, vertex count and raw edges.  Every format
    error names the file: its message starts with '<path>: '."""
    parse = _PARSERS.get(fmt)
    if parse is None:
        raise ValueError(f"unknown graph format {fmt!r}")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    try:
        n, raw = parse(lines)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None
    return lines, n, raw


def load_graph(path: str, fmt: str = "edge-list") -> WeightedGraph:
    """Load a graph file.  Formats: 'edge-list' (header 'n m', lines 'u v w',
    0-based) or 'dimacs-gr' ('p sp n m' header, 'a u v w' arcs, 1-based,
    arcs treated as undirected).  Every error about the file's contents
    names it: its message starts with '<path>: '."""
    _, n, raw = _read_graph_file(path, fmt)
    try:
        return WeightedGraph.from_edges(n, raw)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_graph(g: WeightedGraph, path: str, header_comment: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write(f"{g.n} {g.m}\n")
        for u, v, w in g.edges:
            fh.write(f"{u} {v} {w!r}\n")


# ---------------------------------------------------------------- components


def connected_components(g: WeightedGraph) -> list[list[int]]:
    adj = g.adjacency_ids()
    seen = [False] * g.n
    comps: list[list[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            for v, _ in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        comps.append(comp)
    return comps


def induced_subgraph(g: WeightedGraph, vertices: list[int]) -> tuple[WeightedGraph, list[int]]:
    """Subgraph on `vertices` with ids compacted; returns (subgraph, old ids).

    Edges keep g's order and orientation.  Costs the degrees of `vertices`
    plus a sort of their edge ids, not a scan of all of g's edges.
    """
    index = {v: i for i, v in enumerate(vertices)}
    adj = g.adjacency_ids()
    eids = sorted({eid for x in vertices for y, eid in adj[x] if y in index})
    edges = [(index[u], index[v], w) for u, v, w in (g.edges[eid] for eid in eids)]
    sub = WeightedGraph(len(vertices), edges)
    return sub, list(vertices)


# ---------------------------------------------------------------- MST

# Kruskal with the fixed tie-break (w, min endpoint, max endpoint); this
# makes the MST unique and reproducible across runs.


def minimum_spanning_tree(g: WeightedGraph) -> MstResult:
    """Unique MST under the (w, min(u,v), max(u,v)) order, rooted at vertex 0;
    `eids` lists g's id of each tree edge, in the order of `edges`.

    Raises ValueError naming witnesses from two components if g is
    disconnected.
    """
    edges = g.edges

    def order_key(eid: int) -> tuple[float, int, int]:
        u, v, w = edges[eid]
        return (w, u, v) if u < v else (w, v, u)

    uf = ClassicUF(g.n)
    tree_eids: list[int] = []
    for eid in sorted(range(g.m), key=order_key):
        u, v, _ = edges[eid]
        if uf.union(u, v):
            tree_eids.append(eid)
            if len(tree_eids) == g.n - 1:
                break
    tree_edges = [edges[eid] for eid in tree_eids]
    if len(tree_edges) != g.n - 1 and g.n > 0:
        comps = connected_components(g)
        a, b = comps[0][0], comps[1][0]
        raise ValueError(
            f"graph is disconnected: vertices {a} and {b} lie in different components"
        )

    adj: list[list[tuple[int, float]]] = [[] for _ in range(g.n)]
    for u, v, w in tree_edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    parent = [-1] * g.n
    root = 0
    seen = [False] * max(g.n, 1)
    if g.n > 0:
        seen[root] = True
        stack = [root]
        while stack:
            u = stack.pop()
            for v, _ in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    stack.append(v)
    return MstResult(parent=parent, edges=tree_edges,
                     weight=sum(w for _, _, w in tree_edges), root=root,
                     eids=tree_eids)


# ---------------------------------------------------------------- distances


def sssp_distances(g: WeightedGraph, source: int) -> list[float]:
    """Exact Dijkstra distances; unreachable vertices get +inf."""
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range for n={g.n}")
    adj, edges = g.adjacency_ids(), g.edges
    dist = [INF] * g.n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, eid in adj[u]:
            nd = d + edges[eid][2]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


# ---------------------------------------------------------------- checks


def check_edges(g: WeightedGraph) -> None:
    """ValueError unless both ends of every edge of g lie in 0..n-1 and
    differ, its weight is finite and positive, and no vertex pair has two
    edges.

    `from_edges` checks this, but a raw `WeightedGraph(n, edges)` does
    not: an id past n would raise IndexError deep inside a build, and a
    negative one would index from the end of a list; an infinite weight
    could pass into a spanner, and a NaN one would be blamed on the weight
    range; a self-loop's weight would stretch the weight range although no
    builder keeps it; both copies of a repeated pair could enter a
    spanner."""
    n, inf = g.n, INF
    # a pair is keyed by the int min*n + max, not a tuple: ints are not
    # tracked by the garbage collector, so the keys trigger no collection
    pairs: set[int] = set()
    add = pairs.add
    for u, v, w in g.edges:
        if not (0 <= u < n and 0 <= v < n and 0 < w < inf) or u == v:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex id out of range: ({u}, {v}) with n={n}")
            if u == v:
                raise ValueError(f"edge ({u}, {v}) is a self-loop; "
                                 "WeightedGraph.from_edges drops self-loops")
            need = "positive" if math.isfinite(w) else "finite"
            raise ValueError(f"weights must be {need}, got weight {w!r} on edge ({u}, {v})")
        add(u * n + v if u < v else v * n + u)
    if len(pairs) < g.m:
        pairs.clear()
        for eid, (u, v, _) in enumerate(g.edges):
            key = u * n + v if u < v else v * n + u
            if key in pairs:
                raise ValueError(
                    f"vertex pair {divmod(key, n)} has more than one edge (edge {eid} "
                    "repeats it); WeightedGraph.from_edges keeps the lightest copy")
            add(key)


# ---------------------------------------------------------------- scaling


def normalize_weights(g: WeightedGraph,
                      eids: Optional[Sequence[int]] = None) -> tuple[WeightedGraph, float]:
    """Divide the weights of g's edges `eids` (all of them by default) by
    their minimum; returns (graph, scale).

    The graph keeps g's vertex and edge ids; an edge outside `eids` keeps
    its raw weight, for callers that read only `eids`.  The minimum edge
    divides to w/w == 1.0 without round-off.  When the minimum is 1.0 the
    graph is g itself, since w / 1.0 == w exactly.  Raises ValueError, naming
    the weight, when the minimum weight is not positive, and naming the
    extreme weights of `eids` when their ratio is not a finite float.
    """
    ids = range(g.m) if eids is None else eids
    if not ids:
        raise ValueError("cannot normalize a graph with no edges")
    edges = g.edges
    weights = [edges[e][2] for e in ids]
    scale, top = min(weights), max(weights)
    if scale <= 0:
        raise ValueError(f"weights must be positive, got weight {scale!r}")
    if not math.isfinite(top / scale):
        raise ValueError(
            f"weight ratio {top!r} / {scale!r} is not a finite float; "
            "the weight range is too wide for the bucket grid")
    if scale == 1.0:
        return g, scale
    edges = list(edges)
    for e in ids:
        u, v, w = edges[e]
        edges[e] = (u, v, w / scale)
    return WeightedGraph(g.n, edges), scale
