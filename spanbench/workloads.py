"""Seeded input graphs for the spanlab benchmark.

Every workload is a pure function of (seed, scale): the same pair always
yields the same edge list.  `scale` multiplies the vertex count (the
self-test runs at a tiny scale); the benchmark itself always runs at 1.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from spanlab import generators
from spanlab.graphs import WeightedGraph


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    eps: float
    make: Callable[[int, float], WeightedGraph]   # (seed, scale) -> graph

    @property
    def target(self) -> float:
        return (2 * self.k - 1) * (1.0 + self.eps)


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, round(n * scale))


def _gnm(n: int, per_vertex: int, law: str, wmax: float):
    def make(seed: int, scale: float) -> WeightedGraph:
        size = _scaled(n, scale, 20)
        return generators.gnm_graph(size, per_vertex * size, seed, law, wmax)
    return make


PIECE_N = 4
PIECE_M = 6      # K4: gnm_graph caps m at n(n-1)/2


def fragmented_graph(seed: int, scale: float) -> WeightedGraph:
    """Disjoint K4 pieces with loguniform weights in [1, 1e3], vertex ids
    shuffled so that no component occupies a contiguous id range."""
    pieces = _scaled(1000, scale, 4)
    rng = random.Random(f"fragmented-{seed}")
    label = list(range(pieces * PIECE_N))
    rng.shuffle(label)
    edges = []
    for p in range(pieces):
        piece = generators.gnm_graph(PIECE_N, PIECE_M, rng.randrange(2**31),
                                     "loguniform", 1e3)
        base = p * PIECE_N
        edges.extend((label[base + u], label[base + v], w) for u, v, w in piece.edges)
    return WeightedGraph.from_edges(pieces * PIECE_N, edges)


# sizes and parameters; BENCHMARK.json records why each was chosen.  The
# sizes keep a full pass at 1.5 to 4 s, so that a 30-second run holds
# enough passes for steady medians
WORKLOADS = {
    w.name: w
    for w in (
        Workload("wide-weights", 3, 0.5, _gnm(250, 12, "loguniform", 1e9)),
        Workload("unit-dense", 3, 0.25, _gnm(800, 12, "unit", 1.0)),
        Workload("fragmented", 2, 0.25, fragmented_graph),
    )
}

# op-count ladder for the linear-time claim: the wide-weights family at
# 2x, 4x and 8x its vertex count (n = 500, 1000, 2000), built with linear
# and pm only; the rungs are reported as x1, x2, x4
LADDER_BASE = "wide-weights"
LADDER_SCALE = 2
LADDER_STEPS = (1, 2, 4)
