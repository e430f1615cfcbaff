"""Geometric weight classes: one grid T_j = base*(1+eps)^j, split into
mu = ceil(log_{1+eps}(1/eps)) interleaved classes.

An edge with weight w lands in the unique half-open cell (T_{j-1}, T_j]
(ties at T_j stay at j), and carries class coordinates
sigma = j mod mu, level i = j // mu.  Within one (sigma, i) cell the
max/min weight ratio is <= 1+eps; consecutive non-empty levels of the same
class are >= 1/eps apart, because (1+eps)^mu >= 1/eps.

`partition_edges` is the one bucketing routine of the builders: `pm` passes
every edge on the unit grid, `linear` its non-MST edges, and `light` its
heavy non-MST edges on the grid based at the subdivision granularity.
It puts each distinct weight on the grid once per call (`_grid_index`: a
log, a ceil and two powers) and every later edge of that weight in the same
cell by one dict lookup, so a graph whose edges share a few weights pays
the grid arithmetic a few times, not once per edge.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .graphs import WeightedGraph


def check_eps(eps: float) -> None:
    """Reject an eps outside (0, 1), NaN included."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")


def mu_classes(eps: float) -> int:
    """Number of interleaved classes; ceiling keeps the 1/eps separation."""
    check_eps(eps)
    raw = math.log(1.0 / eps) / math.log1p(eps)
    return max(1, math.ceil(raw - 1e-12))


def threshold(j: int, eps: float, base: float = 1.0) -> float:
    return base * (1.0 + eps) ** j


def _grid_index(w: float, eps: float, base: float, ratio: float, step: float,
                floor: float) -> int:
    """The unique j >= 0 with w in (T_{j-1}, T_j] on the (eps, base) grid,
    by exact float comparisons, given ratio = 1+eps, step = log1p(eps)
    and floor = base/ratio.

    Raises ValueError when w is not positive, lies below the grid, or lies
    beyond it: w / base is not a finite float (a weight ratio near 1e600
    after normalizing, say), or the threshold that would hold w overflows.
    """
    if w <= 0:
        raise ValueError("weights must be positive")
    if not math.isfinite(w / base):
        raise ValueError(
            f"weight {w} over base {base} is not a finite ratio; "
            "the weight range is too wide for the bucket grid")
    if w < floor:
        raise ValueError(f"weight {w} below bucket range (base {base})")
    j = max(0, math.ceil(math.log(w / base) / step))
    try:
        while j > 0 and base * ratio ** (j - 1) >= w:
            j -= 1
        t = base * ratio ** j
        while t < w:
            j += 1
            t = base * ratio ** j
    except OverflowError:   # ratio ** j overflows
        t = math.inf
    if t == math.inf:       # base * ratio ** j overflows when base > 1
        raise ValueError(
            f"weight {w} lies beyond the largest finite threshold of the "
            f"bucket grid (base {base}, eps {eps})")
    return j


def bucket_raw_index(w: float, eps: float, base: float = 1.0) -> int:
    """The unique j >= 0 with w in (T_{j-1}, T_j]; see `_grid_index`."""
    ratio = 1.0 + eps
    return _grid_index(w, eps, base, ratio, math.log1p(eps), base / ratio)


def level_scale(sigma: int, i: int, eps: float) -> float:
    """Upper weight threshold L_i of cell (sigma, i); L_{-1} is 0."""
    if i < 0:
        return 0.0
    mu = mu_classes(eps)
    return threshold(i * mu + sigma, eps)


@dataclass
class LevelBuckets:
    """Sparse per-(sigma, i) partition of a set of edge ids; `mu` is the
    grid's class count."""

    mu: int
    by_class: dict[int, dict[int, list[int]]] = field(default_factory=dict)

    def classes(self) -> list[int]:
        return sorted(self.by_class)

    def levels(self, sigma: int) -> list[int]:
        return sorted(self.by_class.get(sigma, {}))

    def edges(self, sigma: int, i: int) -> list[int]:
        return self.by_class.get(sigma, {}).get(i, [])

    def total(self) -> int:
        return sum(
            len(ids) for levels in self.by_class.values() for ids in levels.values()
        )


def partition_edges(g: WeightedGraph, eids: Iterable[int], eps: float,
                    base: float = 1.0) -> LevelBuckets:
    """Put each of g's edges `eids` in its (sigma, i) cell on the (eps,
    base) grid; a cell lists its ids in the order given.

    Each distinct weight is put on the grid once per call: later edges of
    that weight join its cell's list by one dict lookup.  The first edge
    whose weight is off the grid raises `bucket_raw_index`'s ValueError."""
    mu = mu_classes(eps)
    ratio = 1.0 + eps
    step, floor = math.log1p(eps), base / ratio
    buckets = LevelBuckets(mu=mu)
    by_class = buckets.by_class
    edges = g.edges
    cell_of: dict[float, list[int]] = {}
    for eid in eids:
        w = edges[eid][2]
        cell = cell_of.get(w)
        if cell is None:
            j = _grid_index(w, eps, base, ratio, step, floor)
            cell = cell_of[w] = by_class.setdefault(j % mu, {}).setdefault(j // mu, [])
        cell.append(eid)
    return buckets
