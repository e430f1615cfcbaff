from __future__ import annotations

import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from spanlab.buckets import (
    bucket_raw_index,
    level_scale,
    mu_classes,
    partition_edges,
    threshold,
)
from conftest import wgraph


def bucket_index(w: float, eps: float, base: float = 1.0) -> tuple[int, int]:
    """(sigma, i) coordinates of weight w on the (eps, base) grid."""
    mu = mu_classes(eps)
    j = bucket_raw_index(w, eps, base)
    return j % mu, j // mu


def brute_force_index(w: float, eps: float, base: float = 1.0) -> int:
    """Oracle: linear scan over thresholds until w lands in (T_{j-1}, T_j]."""
    j = 0
    while threshold(j, eps, base) < w:
        j += 1
    if j > 0:
        assert threshold(j - 1, eps, base) < w
    return j


def test_mu_examples():
    assert mu_classes(0.5) == 2          # log_1.5(2) = 1.709 -> 2
    assert mu_classes(0.25) == math.ceil(math.log(4) / math.log(1.25))
    with pytest.raises(ValueError):
        mu_classes(0.0)
    with pytest.raises(ValueError):
        mu_classes(1.0)


@pytest.mark.parametrize(
    "w,eps,expected",
    [
        (1.0, 0.5, (0, 0)),      # j = 0
        (1.5, 0.5, (1, 0)),      # j = 1
        (3.375, 0.5, (1, 1)),    # j = 3 exactly (1.5^3), tie stays at j
    ],
)
def test_bucket_index_examples(w, eps, expected):
    # oracle first: locate j by scanning thresholds, then compare coordinates
    j = brute_force_index(w, eps)
    mu = mu_classes(eps)
    assert (j % mu, j // mu) == expected
    assert bucket_index(w, eps) == expected


def test_bucket_index_below_range_errors():
    with pytest.raises(ValueError):
        bucket_raw_index(0.5, 0.5, base=1.0)
    with pytest.raises(ValueError):
        bucket_raw_index(-1.0, 0.5)


@pytest.mark.parametrize(
    "w,eps,base",
    [
        (1.7e308, 0.25, 1.0),       # finite ratio, but T_j overflows
        (float("inf"), 0.25, 1.0),
        (float("nan"), 0.25, 1.0),
        (1e300, 0.25, 1e-300),      # ratio 1e600 is not a float
    ],
)
def test_bucket_index_beyond_range_errors(w, eps, base):
    with pytest.raises(ValueError) as info:
        bucket_raw_index(w, eps, base)
    assert f"weight {w}" in str(info.value)
    assert f"base {base}" in str(info.value)


def test_bucket_index_unchanged_near_the_top():
    # T_3180 = 1.25**3180 (about 1.4e308) is the last finite threshold at
    # eps 0.25: weights up to it keep their index, one float past it errs
    top = threshold(3180, 0.25)
    for w in (1e300, 1.2e308, top):
        assert bucket_raw_index(w, 0.25) == brute_force_index(w, 0.25)
    assert bucket_raw_index(top, 0.25) == 3180
    with pytest.raises(ValueError, match="largest finite threshold"):
        bucket_raw_index(math.nextafter(top, math.inf), 0.25)


@pytest.mark.parametrize("eps", [0.1, 0.25, 0.5])
def test_bucket_index_matches_brute_force(eps):
    rng = random.Random(hash(eps) & 0xFFFF)
    for _ in range(10_000):
        w = math.exp(rng.uniform(0.0, rng.choice([1.0, 5.0, 12.0])))
        assert bucket_raw_index(w, eps) == brute_force_index(w, eps)


@pytest.mark.parametrize("eps", [0.1, 0.25, 0.5])
def test_grid_consistency(eps):
    mu = mu_classes(eps)
    for j in range(1, 200):
        ratio = threshold(j, eps) / threshold(j - 1, eps)
        assert abs(ratio - (1 + eps)) <= 1e-9 * (1 + eps)
    for j in range(0, 100):
        ratio = threshold(j + mu, eps) / threshold(j, eps)
        assert ratio >= (1.0 / eps) * (1 - 1e-9)


def test_partition_all_equal_single_bucket():
    g = wgraph(4, [(0, 1, 3), (1, 2, 3), (2, 3, 3)])
    norm = wgraph(4, [(u, v, w / 3) for u, v, w in g.edges])
    buckets = partition_edges(norm, range(norm.m), 0.5)
    cells = [(s, i) for s in buckets.classes() for i in buckets.levels(s)]
    assert len(cells) == 1
    assert buckets.total() == 3


def test_partition_separated_weights_distinct_cells():
    g = wgraph(3, [(0, 1, 1.0), (1, 2, 4.0)])  # 4 = 1/eps^2 at eps = .5
    buckets = partition_edges(g, range(g.m), 0.5)
    cells = {(s, i) for s in buckets.classes() for i in buckets.levels(s)}
    assert len(cells) == 2


def test_partition_empty():
    buckets = partition_edges(wgraph(3, []), range(0), 0.5)
    assert buckets.total() == 0
    assert buckets.mu == 2


def test_partition_covers_everything():
    rng = random.Random(8)
    g = wgraph(
        20,
        [(u, v, rng.uniform(1, 500)) for u in range(20) for v in range(u + 1, 20)
         if rng.random() < 0.4] + [(i, i + 1, rng.uniform(1, 500)) for i in range(19)],
    )
    from spanlab.graphs import WeightedGraph

    g = WeightedGraph.from_edges(g.n, g.edges)
    for eps in (0.1, 0.25, 0.5):
        buckets = partition_edges(g, range(g.m), eps)
        assert buckets.total() == g.m
        for sigma in buckets.classes():
            for i in buckets.levels(sigma):
                ws = [g.edges[e][2] for e in buckets.edges(sigma, i)]
                assert max(ws) / min(ws) <= (1 + eps) * (1 + 1e-9)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_partition_of_subset_is_restriction(data):
    """Bucketing an id subset, in any order, gives the full partition
    restricted to that subset, each cell keeping the subset's order."""
    weights = data.draw(st.lists(st.floats(1.0, 1e6), min_size=1, max_size=30))
    g = wgraph(len(weights) + 1, [(i, i + 1, w) for i, w in enumerate(weights)])
    eps = data.draw(st.sampled_from([0.1, 0.25, 0.5]))
    base = data.draw(st.sampled_from([1.0, 0.5]))
    eids = data.draw(st.permutations(range(g.m)))
    eids = eids[:data.draw(st.integers(0, g.m))]
    full = partition_edges(g, range(g.m), eps, base)
    part = partition_edges(g, eids, eps, base)
    assert part.mu == full.mu
    rank = {e: r for r, e in enumerate(eids)}
    expect = {
        (sigma, i): sorted((e for e in full.edges(sigma, i) if e in rank),
                           key=rank.__getitem__)
        for sigma in full.classes() for i in full.levels(sigma)
    }
    got = {(sigma, i): part.edges(sigma, i)
           for sigma in part.classes() for i in part.levels(sigma)}
    assert got == {cell: ids for cell, ids in expect.items() if ids}


def _grid_pool(eps: float, base: float) -> list[float]:
    """The floor base/(1+eps), each threshold T_0..T_12 and the floats
    right next to it."""
    pool = [base / (1.0 + eps)]
    for j in range(13):
        t = threshold(j, eps, base)
        pool += [math.nextafter(t, 0.0), t, math.nextafter(t, math.inf)]
    return pool


def _draw_grid(data) -> tuple[float, float]:
    return (data.draw(st.sampled_from([0.1, 0.25, 0.5, 0.9])),
            data.draw(st.sampled_from([1.0, 0.5, 3.0])))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_partition_places_repeated_weights_by_brute_force(data):
    """Weights drawn from a few values, on and next to the thresholds,
    repeat: every edge still lands in the cell of its own brute-force
    index, and each cell lists its ids in eids order."""
    eps, base = _draw_grid(data)
    values = st.sampled_from(_grid_pool(eps, base)) | st.floats(
        base, threshold(12, eps, base))
    pool = data.draw(st.lists(values, min_size=1, max_size=6))
    weights = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    g = wgraph(len(weights) + 1, [(i, i + 1, w) for i, w in enumerate(weights)])
    eids = data.draw(st.permutations(range(g.m)))
    buckets = partition_edges(g, eids, eps, base)
    mu = buckets.mu
    expect: dict[tuple[int, int], list[int]] = {}
    for e in eids:
        j = brute_force_index(g.edges[e][2], eps, base)
        expect.setdefault((j % mu, j // mu), []).append(e)
    got = {(sigma, i): buckets.edges(sigma, i)
           for sigma in buckets.classes() for i in buckets.levels(sigma)}
    assert got == expect


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_partition_raises_at_the_first_edge_off_the_grid(data):
    """Among repeated weights, the first edge whose weight is off the grid
    raises, with the message that indexing the edges one by one gives."""
    eps = data.draw(st.sampled_from([0.1, 0.25, 0.5, 0.9]))
    base = data.draw(st.sampled_from([1.0, 0.5, 1e-300]))
    # the largest float is past the last finite threshold on the unit grid,
    # and over a base below 1 it is not a finite ratio
    bad = [math.nextafter(base / (1.0 + eps), 0.0), base / 4, 0.0, -1.0,
           sys.float_info.max, math.inf, math.nan]
    weights = data.draw(st.lists(st.sampled_from(_grid_pool(eps, base) + bad),
                                 min_size=1, max_size=30))
    weights.insert(data.draw(st.integers(0, len(weights))), data.draw(st.sampled_from(bad)))
    g = wgraph(len(weights) + 1, [(i, i + 1, w) for i, w in enumerate(weights)])
    eids = data.draw(st.permutations(range(g.m)))
    first = None
    for e in eids:
        try:
            bucket_raw_index(g.edges[e][2], eps, base)
        except ValueError as exc:
            first = str(exc)
            break
    assert first is not None
    with pytest.raises(ValueError) as info:
        partition_edges(g, eids, eps, base)
    assert str(info.value) == first


def test_level_scale_monotone():
    for eps in (0.1, 0.5):
        mu = mu_classes(eps)
        for sigma in range(mu):
            assert level_scale(sigma, -1, eps) == 0.0
            prev = 0.0
            for i in range(4):
                cur = level_scale(sigma, i, eps)
                assert cur > prev
                if prev:
                    assert cur / prev >= (1.0 / eps) * (1 - 1e-9)
                prev = cur
