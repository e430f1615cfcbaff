from __future__ import annotations

import random
from collections import deque
from contextlib import contextmanager
from typing import Iterable, Sequence

import pytest
from hypothesis import settings

import spanlab.light
import spanlab.pm
from spanlab.dsu import ClassicUF, StaticTreeIndex, StaticTreeUF
from spanlab.generators import gnm_graph
from spanlab.graphs import WeightedGraph, induced_subgraph
from spanlab.hz import UnweightedGraph
from spanlab.spanner import Spanner, graph_hash

# CI runs `pytest --hypothesis-profile=ci`: every run draws the same examples,
# so a failure seen there reproduces locally with the same flag
settings.register_profile("ci", derandomize=True)

class CheckSink:
    """Collects builder audit outcomes; a failed outcome is a fault."""

    def __init__(self):
        self.failures: list[tuple[str, str]] = []
        self.seen = 0

    def __call__(self, name: str, ok: bool, detail: str) -> None:
        self.seen += 1
        if not ok:
            self.failures.append((name, detail))

    def assert_clean(self):
        assert not self.failures, f"invariant failures: {self.failures[:5]}"


@pytest.fixture
def sink():
    return CheckSink()


def wgraph(n: int, edges) -> WeightedGraph:
    return WeightedGraph(n, [(u, v, float(w)) for u, v, w in edges])


def triangle(w01=1.0, w12=1.0, w02=1.0) -> WeightedGraph:
    return wgraph(3, [(0, 1, w01), (1, 2, w12), (0, 2, w02)])


@contextmanager
def unscaled_eps():
    """Build with eps' = eps (still capped) instead of the paper's eps/73
    and eps/421, so that small graphs reach several levels per class.
    Builds made inside carry no (2k-1)(1+eps) guarantee; tests use them to
    reach multi-level code paths."""
    saved = spanlab.pm.EPS_SCALE_PM, spanlab.light.EPS_SCALE_LIGHT
    spanlab.pm.EPS_SCALE_PM = spanlab.light.EPS_SCALE_LIGHT = 1
    try:
        yield
    finally:
        spanlab.pm.EPS_SCALE_PM, spanlab.light.EPS_SCALE_LIGHT = saved


def five_step_build(check=None) -> tuple[WeightedGraph, Spanner]:
    """(g, `light`'s build of g) for g = gnm(150, 1200, seed 2, loguniform
    [1, 1e9]) at k = 1, eps = 0.5 under `unscaled_eps()`.  The build runs
    the five steps once and `coarsen` four times, so an audited one enters
    `light`'s hooks in `spanlab.audits`: `phi1_bound`, `carve`, `coarsen`,
    `balls`, `path_pieces`, `level` and `cycle_property`."""
    g = gnm_graph(150, 1200, 2, "loguniform", 1e9)
    with unscaled_eps():
        return g, spanlab.light.build_light(g, 1, 0.5, check=check)


def processed_rows(sp: Spanner) -> list[dict]:
    """`light`'s rows of the levels that ran the five steps: no trivial
    row (which counts its bucket) and no `coarsen` row."""
    return [row for row in sp.levels
            if "bucket_edges" not in row and not row.get("coarsen")]


def k4_pieces(pieces: int, seed: int, unit: bool = False) -> WeightedGraph:
    """`pieces` disjoint K4s on shuffled vertex ids, with unit weights or
    loguniform ones in [1, 1e3]."""
    rng = random.Random(seed)
    label = list(range(4 * pieces))
    rng.shuffle(label)
    edges = []
    for p in range(pieces):
        ids = label[4 * p: 4 * p + 4]
        edges.extend((ids[a], ids[b], 1.0 if unit else 10 ** rng.uniform(0, 3))
                     for a in range(4) for b in range(a + 1, 4))
    return WeightedGraph.from_edges(4 * pieces, edges)


def assert_built_per_component(build, g: WeightedGraph, comps, k=2, eps=0.25):
    """`build(g)` must be its builds of g's components `comps` (in order)
    mapped back to g's ids: edges sorted, levels concatenated in component
    order, ops summed over the parts' keys, and g's own source hash."""
    sp = build(g, k, eps)
    edges, levels, ops = [], [], {}
    for comp in comps:
        sub, back = induced_subgraph(g, comp)
        part = build(sub, k, eps)
        edges += [(back[u], back[v], w) for u, v, w in part.edges]
        levels += part.levels
        for key, val in part.ops.items():
            ops[key] = ops.get(key, 0) + val
    assert sp.edges == sorted(edges)
    assert sp.levels == levels
    assert sp.ops == ops and list(sp.ops) == list(part.ops)
    assert sp.source_hash == graph_hash(g)
    return sp


# ---------------------------------------------------------------- union-find traces

Op = tuple  # ("U", a, b) | ("L", v) | ("F", v)


def classic_uf_session(n: int, ops: Iterable[Op]) -> tuple[list[int], int]:
    """Run a Union/Find trace on ClassicUF; returns (find answers, cost)."""
    uf = ClassicUF(n)
    answers: list[int] = []
    for op in ops:
        if op[0] == "U":
            uf.union(op[1], op[2])
        elif op[0] == "F":
            answers.append(uf.find(op[1]))
        else:
            raise ValueError(f"classic session does not accept op {op!r}")
    return answers, uf.cost


def static_tree_uf_session(
    parent: Sequence[int], ops: Iterable[Op]
) -> tuple[list[int], int]:
    """Run a Link/Find trace on StaticTreeUF; returns (find answers, cost)."""
    uf = StaticTreeUF(StaticTreeIndex(parent))
    answers: list[int] = []
    for op in ops:
        if op[0] == "L":
            uf.link(op[1])
        elif op[0] == "F":
            answers.append(uf.find(op[1]))
        else:
            raise ValueError(f"static session does not accept op {op!r}")
    return answers, uf.cost


# ---------------------------------------------------------------- hop distances


def hop_distances(g: UnweightedGraph, edges: set[tuple[int, int]], source: int) -> list[int]:
    """BFS hop distances inside the subgraph `edges`; -1 if unreachable."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [-1] * g.n
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if dist[v] == -1:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist
