from __future__ import annotations

import pytest
from hypothesis import settings

from spanlab.graphs import WeightedGraph, induced_subgraph
from spanlab.spanner import graph_hash

# CI runs `pytest --hypothesis-profile=ci`: every run draws the same examples,
# so a failure seen there reproduces locally with the same flag
settings.register_profile("ci", derandomize=True)

# checker names that flag measured-constant shortfalls, not contract breaks
WARN_NAMES = {"p2-size-warning", "step1-size"}


class CheckSink:
    """Collects builder invariant-check callbacks; hard names must all pass."""

    def __init__(self):
        self.failures: list[tuple[str, str]] = []
        self.warnings: list[tuple[str, str]] = []
        self.seen = 0

    def __call__(self, name: str, ok: bool, detail: str) -> None:
        self.seen += 1
        if not ok:
            bucket = self.warnings if name in WARN_NAMES else self.failures
            bucket.append((name, detail))

    def assert_clean(self):
        assert not self.failures, f"invariant failures: {self.failures[:5]}"


@pytest.fixture
def sink():
    return CheckSink()


def wgraph(n: int, edges) -> WeightedGraph:
    return WeightedGraph(n, [(u, v, float(w)) for u, v, w in edges])


def triangle(w01=1.0, w12=1.0, w02=1.0) -> WeightedGraph:
    return wgraph(3, [(0, 1, w01), (1, 2, w12), (0, 2, w02)])


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
