"""Host-speed reference for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by up to 2.4x over
minutes, in CPU time as much as in wall time, so raw seconds of one run do
not compare with those of a run a few minutes later.  `RefClock` times a
fixed pure-Python reference loop (Dijkstra with heapq and dicts, the same
kind of work as spanlab's) right before and right after every timed phase,
and converts the phase's wall time into reference seconds:

    reference seconds = wall seconds * REF_NOMINAL_S / mean(loop before, loop after)

that is, the phase's time on a host that runs the loop in REF_NOMINAL_S.
A change to spanlab moves the phase's time and not the loop's: the loop
lives here, outside the program.
"""
from __future__ import annotations

import heapq
import random
import time

REF_NOMINAL_S = 0.0085  # the loop's median time on a 2-vCPU x86-64 host
REF_N = 300             # vertices of the loop's fixed graph
REF_SOURCES = range(0, REF_N, 30)


def _graph() -> list[list[tuple[int, float]]]:
    rng = random.Random(0)
    adj: list[list[tuple[int, float]]] = [[] for _ in range(REF_N)]
    for _ in range(4 * REF_N):
        u, v, w = rng.randrange(REF_N), rng.randrange(REF_N), rng.random()
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


_ADJ = _graph()


def reference_loop() -> float:
    """Seconds taken by Dijkstra from ten fixed sources of a fixed graph."""
    start = time.perf_counter()
    for s in REF_SOURCES:
        dist = {s: 0.0}
        heap = [(0.0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in _ADJ[u]:
                nd = d + w
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
    return time.perf_counter() - start


class RefClock:
    """Call `scale(wall)` right after each timed phase; the loop timed at
    the previous call (or at construction) is the one right before it."""

    def __init__(self) -> None:
        self.before = reference_loop()

    def scale(self, wall: float) -> float:
        after = reference_loop()
        speed = (self.before + after) / 2
        self.before = after
        return wall * REF_NOMINAL_S / speed
