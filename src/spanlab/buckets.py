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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .graphs import WeightedGraph


def mu_classes(eps: float) -> int:
    """Number of interleaved classes; ceiling keeps the 1/eps separation."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    raw = math.log(1.0 / eps) / math.log1p(eps)
    return max(1, math.ceil(raw - 1e-12))


def threshold(j: int, eps: float, base: float = 1.0) -> float:
    return base * (1.0 + eps) ** j


def bucket_raw_index(w: float, eps: float, base: float = 1.0) -> int:
    """The unique j >= 0 with w in (T_{j-1}, T_j]; exact float comparisons.

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
    if w < base / (1.0 + eps):
        raise ValueError(f"weight {w} below bucket range (base {base})")
    j = max(0, math.ceil(math.log(w / base) / math.log1p(eps)))
    try:
        while j > 0 and threshold(j - 1, eps, base) >= w:
            j -= 1
        while threshold(j, eps, base) < w:
            j += 1
    except OverflowError:
        raise ValueError(
            f"weight {w} lies beyond the largest finite threshold of the "
            f"bucket grid (base {base}, eps {eps})") from None
    return j


def level_scale(sigma: int, i: int, eps: float, base: float = 1.0) -> float:
    """Upper weight threshold L_i of cell (sigma, i); L_{-1} is 0."""
    if i < 0:
        return 0.0
    mu = mu_classes(eps)
    return threshold(i * mu + sigma, eps, base)


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
    base) grid; a cell lists its ids in the order given."""
    mu = mu_classes(eps)
    buckets = LevelBuckets(mu=mu)
    for eid in eids:
        j = bucket_raw_index(g.edges[eid][2], eps, base)
        buckets.by_class.setdefault(j % mu, {}).setdefault(j // mu, []).append(eid)
    return buckets
