"""Level framework over MST-subtree clusters and the static-tree union-find.

Same representative-graph / inner-spanner scheme as pm.py (each level's
selection is pm.select_bucket), but every cluster induces a connected MST
subtree, so all merges are Link(v) operations along the MST, pre-declared
as the union tree.  The whole MST enters the spanner up front, known by
the edge ids `minimum_spanning_tree` reports, so only the non-MST edges are
bucketed and every bucketed level has work.  Carried forest edges
(inter-cluster MST edges of weight <= L_i) are exactly the level's merge
candidates: the MST cycle property guarantees they reach every cluster
touched by bucket edges.

Each level merges along a star cover of its cluster forest: the clusters
are its nodes, numbered by first appearance along the carried edges, and
each cluster has at most one carried edge up to its parent.  The cover
runs on that parent/child structure.  Step 1 scans the nodes in id order;
a node still unowned that has an unowned neighbour becomes a centre and
takes its unowned children and its parent, if unowned.  Step 2 attaches
each node left over through its lowest-id neighbour.  This is the
partition pm.grow_star_cover gives on the forest's adjacency lists sorted
by id, whose step 1 takes every unowned neighbour in any list order and
whose step 2 takes the first, lowest, entry; no lists are built or
sorted.  The star edges are linked in one `StaticTreeUF.link_all` and the
carried edges' upper ends found in one `find_all`, both counted as the
single calls would be.

`per_component` is the disconnected-input wrapper of this builder and of
light's.
"""
from __future__ import annotations

from bisect import bisect_right
from itertools import filterfalse
from operator import itemgetter
from typing import Callable, Optional

from .buckets import bucket_raw_index, level_scale, partition_edges
from .dsu import StaticTreeIndex, StaticTreeUF
from .graphs import (
    WeightedGraph,
    check_edges,
    connected_components,
    induced_subgraph,
    minimum_spanning_tree,
    normalize_weights,
)
from .pm import G_PM, internal_eps, select_bucket
from .spanner import Spanner, graph_hash

# spanbench's tracer looks these names up on this module with getattr; the
# calls run through pm.select_bucket, and the forest star cover is this
# module's own, so the names are only kept importable
from .hz import hz_spanner  # noqa: F401,E402
from .pm import dedupe_source_edges, grow_star_cover  # noqa: F401,E402


def per_component(g: WeightedGraph, algo: str, k: int, eps: float,
                  build_connected: Callable[..., Spanner], *args) -> Spanner:
    """Run `build_connected(part, k, eps, *args)` on each connected
    component of g and map the parts back to g's vertex ids.

    Edges come out sorted; `levels` are concatenated in component order and
    `ops` summed over the keys the parts report.  A connected g is built
    directly.  Either way `source_hash` is g's.
    """
    check_edges(g)
    comps = connected_components(g)
    if len(comps) <= 1:
        out = build_connected(g, k, eps, *args)
        out.source_hash = graph_hash(g)
        return out
    edges: list[tuple[int, int, float]] = []
    levels: list[dict] = []
    ops: dict = {}
    for comp in comps:
        sub, back = induced_subgraph(g, sorted(comp))
        part = build_connected(sub, k, eps, *args)
        edges.extend((back[u], back[v], w) for u, v, w in part.edges)
        levels.extend(part.levels)
        for key, val in part.ops.items():
            ops[key] = ops.get(key, 0) + val
    edges.sort()
    return Spanner(algo=algo, k=k, eps=eps, n=g.n, edges=edges,
                   source_hash=graph_hash(g), levels=levels, ops=ops)


def build_linear(
    g: WeightedGraph,
    k: int,
    eps: float,
    check: Optional[Callable[[str, bool, str], None]] = None,
) -> Spanner:
    """MST-containing (2k-1)(1+eps)-spanner; disconnected inputs are built
    per component.  `check(name, ok, detail)`, when given, turns the
    structural audits on and receives their outcomes."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return per_component(g, "linear", k, eps, _build_connected, check)


def _build_connected(
    g: WeightedGraph,
    k: int,
    eps: float,
    check: Optional[Callable[[str, bool, str], None]],
) -> Spanner:
    """Spanner of a connected g; the caller fills in source_hash."""
    eps_i = internal_eps(eps)
    ops = {"links": 0, "finds": 0, "uf_cost": 0, "hz": 0}
    if g.m == 0:
        return Spanner(algo="linear", k=k, eps=eps, n=g.n, edges=[], ops=ops)

    norm, _ = normalize_weights(g)
    mst = minimum_spanning_tree(norm)
    # tree edges are in the spanner up front; the levels bucket only the
    # non-tree edges and consume tree edges as merge candidates instead
    mst_eids = set(mst.eids)
    spanner_eids: set[int] = set(mst_eids)
    buckets = partition_edges(
        norm, [e for e in range(norm.m) if e not in mst_eids], eps_i)
    mu = buckets.mu

    # MST edges keyed by raw grid index, ascending; identified by child vertex
    mst_sorted = sorted(
        (bucket_raw_index(w, eps_i), u if mst.parent[u] == v else v)
        for u, v, w in mst.edges
    )
    mst_index = [j for j, _ in mst_sorted]
    mst_child = [child for _, child in mst_sorted]

    index = StaticTreeIndex(mst.parent)
    levels_log: list[dict] = []

    for sigma in buckets.classes():
        level_ids = buckets.levels(sigma)
        if len(level_ids) == 1 and check is None:
            # single processed level: clusters are still singletons and no
            # later level consumes the merges, so dedupe with identity
            # representatives and skip the union-find session outright.
            # Audited builds take the full path so that the audits see it.
            i = level_ids[0]
            bucket = buckets.edges(sigma, i)
            kept, _, reps, _ = select_bucket(norm, bucket, k, lambda v: v,
                                             spanner_eids, ops)
            levels_log.append(
                {"sigma": sigma, "i": i, "bucket_edges": len(bucket),
                 "rep_nodes": len(reps), "kept_edges": len(kept),
                 "delta": 0, "links": 0, "finds": 0, "y_nodes": 0,
                 "fast": True}
            )
            continue
        session = StaticTreeUF(index)
        carried: list[int] = []   # inter-cluster MST edges (child ids), w <= L_i
        ptr = 0
        for i in level_ids:
            bucket = buckets.edges(sigma, i)
            if check is not None:
                _check_p2_subtree(
                    norm, mst, session,
                    budget=G_PM * level_scale(sigma, i - 1, eps_i),
                    check=check, tag=f"sigma={sigma} level={i}",
                )
            cost0 = session.cost
            kept, _, reps, _ = select_bucket(norm, bucket, k, session.find,
                                             spanner_eids, ops)

            # collect this level's merge candidates: carried forest edges
            # plus the newly in-range MST edges (weight <= L_i)
            end = bisect_right(mst_index, i * mu + sigma, ptr)
            carried += mst_child[ptr:end]
            ptr = end
            links, carried, ynodes = _merge_level(
                mst, session, carried, check, reps, sigma, i)
            finds = session.cost - cost0 - links
            ops["links"] += links
            ops["finds"] += finds
            levels_log.append(
                {"sigma": sigma, "i": i, "bucket_edges": len(bucket),
                 "rep_nodes": len(reps), "kept_edges": len(kept),
                 "delta": links, "links": links,
                 "finds": finds, "y_nodes": ynodes}
            )
        ops["uf_cost"] += session.cost

    edges = [g.edges[e] for e in sorted(spanner_eids)]
    return Spanner(
        algo="linear", k=k, eps=eps, n=g.n, edges=edges,
        levels=levels_log, ops=ops,
    )


def cluster_forest_edges(
    session: StaticTreeUF, mst, carried: list[int]
) -> tuple[list[tuple[int, int, int]], dict[int, int]]:
    """Materialize the level's merge candidates as cluster pairs.

    `carried` holds the in-range MST edges by child vertex; each maps to
    (child, find(parent)) and every incident cluster joins the node set,
    numbered in order of first appearance along (child, top) per edge.
    A cluster is a connected MST subtree, so an edge leaving it upward
    leaves at its top: `child` is unlinked and is its own cluster's
    representative.  The MST cycle property guarantees this node set
    covers every cluster touched by a surviving bucket edge."""
    if any(map(session.linked.__getitem__, carried)):
        raise AssertionError("carried MST edge became intra-cluster")
    tops = session.find_all(map(mst.parent.__getitem__, carried))
    pairs: list[tuple[int, int, int]] = []
    nodeset: dict[int, int] = {}
    add = nodeset.setdefault
    for child, top in zip(carried, tops):
        a = add(child, len(nodeset))
        pairs.append((a, add(top, len(nodeset)), child))
    return pairs, nodeset


def merge_forest_subtrees(
    session: StaticTreeUF, pairs: list[tuple[int, int, int]], n_nodes: int
) -> tuple[int, list[int]]:
    """Star-cover the cluster forest and Link each in-subtree edge; returns
    (links performed, leftover child ids crossing different subtrees).

    A pair (a, b, child) is the MST edge from cluster a's top vertex
    `child` up to cluster b, and a cluster has at most one such edge, so
    the forest is stored as `above[a]` = b and `up_edge[a]` = child, with
    each node's children chained through `first_child` and `next_sibling`.
    The star cover runs on that structure directly.  Step 1 scans the
    nodes in id order; a node that is still unowned becomes a centre if it
    has an unowned neighbour, and takes all of its unowned children and
    its parent if that is unowned.  Step 2 attaches each node left unowned
    to its lowest-id neighbour.  That is pm.grow_star_cover's partition on
    the forest's adjacency sorted by id: its step 1 takes every unowned
    neighbour whatever the list order, and its step 2 takes the first
    entry of a sorted list, the minimum.  The link for a star edge is its
    child end's `up_edge`, and the forest's edges inside one subtree are
    exactly its star edges, so the leftovers are the pairs left
    unlinked."""
    none = n_nodes   # the parent of a root and the end of a child chain
    above = [none] * n_nodes
    up_edge = [0] * n_nodes
    first_child = [none] * n_nodes
    next_sibling = [none] * n_nodes
    for a, b, child in pairs:
        if above[a] != none:
            raise AssertionError("cluster with two upward forest edges")
        above[a] = b
        up_edge[a] = child
        next_sibling[a] = first_child[b]
        first_child[b] = a

    owned = [False] * n_nodes + [True]   # a missing parent is never free
    to_link: list[int] = []
    loners: list[int] = []
    for v in range(n_nodes):
        if owned[v]:
            continue
        took = False
        c = first_child[v]
        while c != none:
            if not owned[c]:
                owned[c] = took = True
                to_link.append(up_edge[c])
            c = next_sibling[c]
        p = above[v]
        if not owned[p]:
            owned[p] = took = True
            to_link.append(up_edge[v])
        if took:
            owned[v] = True
        else:
            loners.append(v)
    # a loner's neighbours were all owned when step 1 reached it, so they
    # are step-1 nodes and stay so
    for v in loners:
        u = c = first_child[v]
        while c != none:
            u = min(u, c)
            c = next_sibling[c]
        if above[v] < u:
            to_link.append(up_edge[v])
        elif u != none:
            to_link.append(up_edge[u])
        else:
            raise ValueError(f"node {v} is isolated; star cover needs none")

    session.link_all(to_link)
    return len(to_link), list(filterfalse(session.linked.__getitem__,
                                          map(itemgetter(2), pairs)))


def _merge_level(
    mst,
    session: StaticTreeUF,
    carried: list[int],
    check: Optional[Callable[[str, bool, str], None]],
    rep_nodes: list[int],
    sigma: int,
    i: int,
) -> tuple[int, list[int], int]:
    pairs, nodeset = cluster_forest_edges(session, mst, carried)
    if check is not None:
        tag = f"sigma={sigma} i={i}"
        got = set(nodeset)
        ok = all(r in got for r in rep_nodes)
        check("x-subset-y", ok, f"{tag} |X|={len(rep_nodes)} |Y|={len(nodeset)}")
    if not pairs:
        return 0, [], 0
    links, leftovers = merge_forest_subtrees(session, pairs, len(nodeset))
    if check is not None:
        check("merge-reduction", links >= len(nodeset) / 2,
              f"{tag} links={links} |Y|={len(nodeset)}")
    return links, leftovers, len(nodeset)


def _check_p2_subtree(
    norm: WeightedGraph,
    mst,
    session: StaticTreeUF,
    budget: float,
    check: Callable[[str, bool, str], None],
    tag: str,
) -> None:
    """Each cluster induces a connected MST subtree of bounded diameter."""
    if norm.n > 200:
        return
    clusters: dict[int, list[int]] = {}
    for v in range(norm.n):
        clusters.setdefault(session.find(v), []).append(v)
    check("p1-partition", sum(len(c) for c in clusters.values()) == norm.n, tag)

    tree_adj: list[list[tuple[int, float]]] = [[] for _ in range(norm.n)]
    for u, v, w in mst.edges:
        tree_adj[u].append((v, w))
        tree_adj[v].append((u, w))
    ok_conn = True
    ok_diam = True
    for rep, members in clusters.items():
        mem = set(members)
        # connectivity plus eccentricity inside the induced subtree
        far, _, reach = _tree_far(tree_adj, members[0], mem)
        if len(reach) != len(mem):
            ok_conn = False
            break
        _, dist, _ = _tree_far(tree_adj, far, mem)   # far's eccentricity
        if budget <= 0:
            if len(mem) > 1:
                ok_diam = False
        elif not dist <= budget * (1 + 1e-9):
            ok_diam = False
        if not (ok_conn and ok_diam):
            break
        if rep not in mem:
            ok_conn = False
            break
    check("p2-subtree-connected", ok_conn, tag)
    check("p2-subtree-diameter", ok_diam, tag)


def _tree_far(tree_adj, start: int,
              allowed: set[int]) -> tuple[int, float, set[int]]:
    """Farthest node from start inside `allowed`, its distance, and every
    node reached."""
    best, best_d = start, 0.0
    seen = {start}
    stack = [(start, 0.0)]
    while stack:
        u, d = stack.pop()
        if d > best_d:
            best, best_d = u, d
        for v, w in tree_adj[u]:
            if v in allowed and v not in seen:
                seen.add(v)
                stack.append((v, d + w))
    return best, best_d, seen
