"""Level-by-level spanner construction over classic union-find clustering.

Per weight class, edges are consumed level by level; each level dedups its
bucket in cluster space, runs the unweighted (2k-1)-spanner on the
representative graph, keeps the matching source edges, and merges the
participating clusters through a two-step star cover so that the cluster
count drops by at least half the representative-graph size.  A
representative graph that is a forest keeps all its edges without the
inner spanner: every edge of a forest is a bridge, which any spanner keeps.
A level with one representative pair costs O(1): a one-edge bucket is kept
without a dedupe map or forest test (ops["hz"] still counts the 1 edge that
test would examine), and two representatives are unioned without a cover.

A build allocates one n-sized union-find and resets it between classes; the
reset undoes only the previous class's unions, so a class costs what its
edges touch rather than O(n).

`build_pm` checks and hashes its input and runs `build_levels` on every
edge.  `light` runs the same `build_levels` on the ids of its light edges
and its MST, in its own graph: the pool is neither copied, checked again
nor hashed.
"""
from __future__ import annotations

from typing import Callable, Optional, Sequence

from .buckets import check_eps, check_k, level_scale, partition_edges
from .dsu import ClassicUF
from .graphs import WeightedGraph, check_edges, normalize_weights
from .hz import UnweightedGraph, hz_spanner, is_forest
from .spanner import Spanner, graph_hash
from . import audits

G_PM = 9  # cluster-diameter constant; merges stay within g*L_i

# the per-edge bound proved for this construction is (2k-1)(1+(8g+1)eps'),
# so eps' = eps/(8g+1) lands the advertised (2k-1)(1+eps)
EPS_SCALE_PM = 8 * G_PM + 1


def internal_eps(eps: float) -> float:
    check_eps(eps)
    return min(eps / EPS_SCALE_PM, 1.0 / (2 * G_PM))


# ---------------------------------------------------------------- dedup


def dedupe_source_edges(
    bucket: list[int], g: WeightedGraph, rep: Callable[[int], int]
) -> dict[tuple[int, int], int]:
    """Map each representative pair to its lightest bucket edge id.

    Self-loops in cluster space are dropped; parallel bundles keep the
    lightest edge, ties broken toward the smaller edge id.
    """
    best: dict[tuple[int, int], int] = {}
    for eid in bucket:
        u, v, w = g.edges[eid]
        ru, rv = rep(u), rep(v)
        if ru == rv:
            continue
        key = (ru, rv) if ru < rv else (rv, ru)
        cur = best.get(key)
        if cur is None or (w, eid) < (g.edges[cur][2], cur):
            best[key] = eid
    return best


def select_bucket(norm: WeightedGraph, bucket: list[int], k: int,
                  rep: Callable[[int], int], spanner_eids: set[int], ops: dict):
    """One level's selection, for pm and linear: dedupe the bucket in
    cluster space, select on the representative graph, add the matching
    source edges to `spanner_eids`.  Returns (kept edge ids, dedupe map rep
    pair -> edge id, sorted representatives, the representative graph's
    edges over local ids 0..len(reps)-1).

    A representative graph that is a forest keeps every edge, since each
    edge of a forest is a bridge and any spanner keeps it; any other runs
    the unweighted (2k-1)-spanner.  ops["hz"] counts the edges the forest
    test examined plus that spanner's adjacency scans.

    A bucket of one edge between two clusters is a one-edge forest: it is
    kept, with no dedupe map built and no forest test run, and ops["hz"]
    gains the 1 edge that test would have examined."""
    if len(bucket) == 1:
        eid = bucket[0]
        u, v, _ = norm.edges[eid]
        ru, rv = rep(u), rep(v)
        if ru == rv:
            return [], {}, [], []
        pair = (ru, rv) if ru < rv else (rv, ru)
        ops["hz"] += 1
        spanner_eids.add(eid)
        return [eid], {pair: eid}, list(pair), [(0, 1)]
    best = dedupe_source_edges(bucket, norm, rep)
    if not best:
        return [], best, [], []
    reps = sorted({r for pair in best for r in pair})
    local = {r: idx for idx, r in enumerate(reps)}
    r_edges = [(local[a], local[b]) for (a, b) in best]
    stats: dict = {"ops": 0}
    if is_forest(len(reps), r_edges, stats):
        kept = list(best.values())
    else:
        # hz's pairs are ascending and reps sorted, so each is a key of best
        chosen = hz_spanner(UnweightedGraph(len(reps), r_edges), k, stats=stats)
        kept = [best[(reps[a], reps[b])] for a, b in chosen]
    ops["hz"] += stats["ops"]
    spanner_eids.update(kept)
    return kept, best, reps, r_edges


# ---------------------------------------------------------------- cover


def grow_star_cover(n: int, adj: list[list[int]]) -> list[tuple[list[int], list[tuple[int, int]]]]:
    """Two-step cover of a simple graph with no isolated vertices.

    Step 1 greedily takes a maximal set of vertex-disjoint stars (scan by
    ascending id); after it the unassigned vertices form an independent
    set, so step 2 can attach each of them to a step-1 vertex.  Every
    subgraph has >= 2 vertices and hop diameter <= 4.
    """
    owner = [-1] * n
    groups: list[tuple[list[int], list[tuple[int, int]]]] = []
    for v in range(n):
        if owner[v] != -1:
            continue
        free = [u for u in adj[v] if owner[u] == -1]
        if not free:
            continue
        gid = len(groups)
        owner[v] = gid
        nodes = [v]
        edges = []
        for u in free:
            owner[u] = gid
            nodes.append(u)
            edges.append((v, u))
        groups.append((nodes, edges))
    for v in range(n):
        if owner[v] != -1:
            continue
        if not adj[v]:
            raise ValueError(f"vertex {v} is isolated; star cover needs none")
        u = adj[v][0]  # all neighbors are step-1 vertices here
        gid = owner[u]
        groups[gid][0].append(v)
        groups[gid][1].append((v, u))
        owner[v] = gid
    return groups


# ---------------------------------------------------------------- build


def build_pm(
    g: WeightedGraph,
    k: int,
    eps: float,
    check: Optional[audits.Check] = None,
) -> Spanner:
    """(2k-1)(1+eps)-spanner via the classic union-find level framework.

    `check(name, ok, detail)`, when given, turns the structural audits on
    and receives their outcomes (tests plug an assertion sink here).
    """
    check_k(k, eps)
    check_eps(eps)
    check_edges(g)
    ops = {"uf": 0, "hz": 0}
    kept, levels_log = build_levels(g, range(g.m), k, eps, ops, check)
    edges = [g.edges[e] for e in sorted(kept)]
    return Spanner(
        algo="pm", k=k, eps=eps, n=g.n, edges=edges,
        source_hash=graph_hash(g), levels=levels_log, ops=ops,
    )


def build_levels(
    g: WeightedGraph,
    eids: Sequence[int],
    k: int,
    eps: float,
    ops: dict,
    check: Optional[audits.Check] = None,
) -> tuple[set[int], list[dict]]:
    """pm's levels over g's edges `eids`, ascending, of a graph the caller
    has checked: returns (the kept edge ids of g, the level rows), and adds
    the union-find cost to ops["uf"] and the selection's to ops["hz"].

    Only `eids` are normalized and bucketed, so an edge outside them may
    stretch g's weight range as far as it likes.
    """
    eps_i = internal_eps(eps)
    spanner_eids: set[int] = set()
    levels_log: list[dict] = []
    if eids:
        norm, _ = normalize_weights(g, eids)
        buckets = partition_edges(norm, eids, eps_i)
        uf = ClassicUF(norm.n)
        for sigma in buckets.classes():
            uf.reset()
            _build_class(
                norm, k, eps_i, sigma, buckets, uf, spanner_eids, levels_log,
                ops, check,
            )
        ops["uf"] += uf.cost
    return spanner_eids, levels_log


def _build_class(
    norm: WeightedGraph,
    k: int,
    eps_i: float,
    sigma: int,
    buckets,
    uf: ClassicUF,
    spanner_eids: set[int],
    levels_log: list[dict],
    ops: dict,
    check: Optional[audits.Check],
) -> None:
    """Run class sigma's levels on `uf`, which enters as n singletons."""
    class_eids: set[int] = set()    # the class's kept edges; audits only
    for i in buckets.levels(sigma):
        bucket = buckets.edges(sigma, i)
        if check is not None:
            audits.pm_clusters(check, norm, uf, class_eids,
                               G_PM * level_scale(sigma, i - 1, eps_i), sigma, i)
        kept, best, reps, r_edges = select_bucket(
            norm, bucket, k, uf.find, spanner_eids, ops)
        if check is not None:
            class_eids.update(kept)

        # a bucket that dedupes to nothing has no representative to merge
        delta = merge_edges = 0
        if len(reps) == 2:
            # the cover is the one star on the pair: its edge is kept
            # already, and distinct labels are distinct sets
            uf.union(reps[0], reps[1])
            delta = 1
        elif reps:
            adj: list[list[int]] = [[] for _ in range(len(reps))]
            for a, b in r_edges:
                adj[a].append(b)
                adj[b].append(a)
            for lst in adj:
                lst.sort()
            for nodes, star_edges in grow_star_cover(len(reps), adj):
                for a, b in star_edges:
                    # merge edges enter the spanner: the new cluster must
                    # induce a low-diameter subgraph of H, and they total
                    # O(n) overall
                    key = (reps[a], reps[b]) if reps[a] < reps[b] else (reps[b], reps[a])
                    eid = best[key]
                    if eid not in spanner_eids:
                        merge_edges += 1
                    spanner_eids.add(eid)
                    if check is not None:
                        class_eids.add(eid)
                    if uf.union(reps[a], reps[b]):
                        delta += 1
        levels_log.append(
            {"sigma": sigma, "i": i, "bucket_edges": len(bucket),
             "rep_nodes": len(reps), "kept_edges": len(kept),
             "merge_edges": merge_edges, "delta": delta}
        )
