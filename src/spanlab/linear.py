"""Level framework over MST-subtree clusters and the static-tree union-find.

Same representative-graph / inner-spanner scheme as pm.py (each level's
selection is pm.select_bucket, which keeps a forest representative graph
whole without running hz, and a one-edge bucket without a dedupe map or
forest test), but every cluster induces a connected MST
subtree, so all merges are Link(v) operations along the MST, pre-declared
as the union tree.  The whole MST enters the spanner up front, known by
the edge ids `minimum_spanning_tree` reports, so only the non-MST edges are
bucketed and every bucketed level has work.  Carried forest edges
(inter-cluster MST edges of weight <= L_i) are exactly the level's merge
candidates: the MST cycle property guarantees they reach every cluster
touched by bucket edges.

A level merges its clusters only if a later level of the same class
exists, since only such a level dedupes through them.  So a class's last
level merges nothing, a one-level class opens no union-find session, and
a component builds its static-tree index when its first session opens.
A skipped merge changes no edge: a merge only links MST edges, and the
whole MST is already in the spanner.

Each merge runs a star cover on the level's cluster forest, in which a
cluster has at most one carried edge up to its parent (see
`merge_forest_subtrees`); the star edges are linked in one
`StaticTreeUF.link_all`, counted as the single links would be, and each
carried edge's upper end is found by one `find`.

Only merges write a session.  A merge's finds record skip caches and
its link_all links; the selection reads the session through
`StaticTreeUF.peek`, which counts find's cost but records nothing (the
audits peek too, and put the cost back).  A class's session starts
fresh, so its state after its t-th merge, and that merge
itself (forest, star cover, links, leftovers and find cost), depend
only on its first t `end`s, where a level's `end` is the number of MST
edges in range at it; sigma, the buckets and the reps do not enter.
Many classes share such a prefix.  So each build keys its merges by the
tuple (end_1, ..., end_t): it counts each prefix's uses up front, runs
a merge on its first use, restores the session's state after it on the
later ones and drops the entry after its last use.  Classes that share
a prefix come nearly in a row, so few are held at once.  A restore
counts its links as run, and a row records the finds of the merge it
restored as `reused` (2 per carried edge for a first merge, whose
carried edges' upper ends are all singletons): `finds` and `uf_cost`
count the steps that ran, and adding `reused` gives the paper's count.

`per_component` is the disconnected-input wrapper of this builder and of
light's.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter
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
from . import audits

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
    check: Optional[audits.Check] = None,
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
    check: Optional[audits.Check],
) -> Spanner:
    """Spanner of a connected g; the caller fills in source_hash."""
    eps_i = internal_eps(eps)
    ops = {"links": 0, "finds": 0, "uf_cost": 0, "uf_reused": 0, "hz": 0}
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

    index: Optional[StaticTreeIndex] = None
    levels_log: list[dict] = []
    # (end_1, ..., end_t) -> (session after that merge, verts, links,
    # finds, leftovers), kept only while a later class makes that merge
    merges: dict[tuple[int, ...], tuple[StaticTreeUF, list[int], int, int, list[int]]] = {}
    uses: Counter[tuple[int, ...]] = Counter()
    for sigma in buckets.classes():
        key: tuple[int, ...] = ()
        for i in buckets.levels(sigma)[:-1]:
            key += (bisect_right(mst_index, i * mu + sigma),)
            uses[key] += 1

    for sigma in buckets.classes():
        level_ids = buckets.levels(sigma)
        last = level_ids[-1]
        session: Optional[StaticTreeUF] = None
        if len(level_ids) > 1:
            if index is None:
                index = StaticTreeIndex(mst.parent)
            session = StaticTreeUF(index)
        # inter-cluster MST edges (child ids), w <= L_i; every update makes
        # a new list, since a cached merge shares its leftovers
        carried: list[int] = []
        ptr = 0
        key = ()
        for i in level_ids:
            bucket = buckets.edges(sigma, i)
            if check is not None and session is not None:
                audits.linear_clusters(
                    check, norm, mst, session,
                    G_PM * level_scale(sigma, i - 1, eps_i), sigma, i)
            cost0 = session.cost if session else 0
            kept, _, reps, _ = select_bucket(
                norm, bucket, k, session.peek if session else _identity,
                spanner_eids, ops)

            verts: list[int] = []
            links = reused = 0
            if i != last:
                # this level's merge candidates: carried forest edges plus
                # the newly in-range MST edges (weight <= L_i)
                end = bisect_right(mst_index, i * mu + sigma, ptr)
                key += (end,)
                uses[key] -= 1
                hit = merges.get(key)
                if hit is not None:
                    state, verts, links, reused, carried = hit
                    session.restore(state)
                    session.cost += links
                    if not uses[key]:
                        del merges[key]
                else:
                    carried = carried + mst_child[ptr:end]
                    cost1 = session.cost
                    verts, links, carried = _merge(session, mst, carried)
                    if uses[key]:
                        merges[key] = (session.copy(), verts, links,
                                       session.cost - cost1 - links, carried)
                ptr = end
            if check is not None:
                if i == last:
                    # the last level merges nothing: only its audit reads
                    # the level's merge candidates
                    end = bisect_right(mst_index, i * mu + sigma, ptr)
                    carried = carried + mst_child[ptr:end]
                audits.linear_level(check, session, mst, carried, verts, reps,
                                    i != last, sigma, i)
            spent = session.cost - cost0 if session else 0
            ops["links"] += links
            ops["finds"] += spent - links
            ops["uf_cost"] += spent
            ops["uf_reused"] += reused
            levels_log.append(
                {"sigma": sigma, "i": i, "bucket_edges": len(bucket),
                 "rep_nodes": len(reps), "kept_edges": len(kept),
                 "links": links, "finds": spent - links, "reused": reused,
                 "y_nodes": len(verts), "fast": i == last}
            )

    edges = [g.edges[e] for e in sorted(spanner_eids)]
    return Spanner(
        algo="linear", k=k, eps=eps, n=g.n, edges=edges,
        levels=levels_log, ops=ops,
    )


def _identity(v: int) -> int:
    return v


def _merge(session: StaticTreeUF, mst,
           carried: list[int]) -> tuple[list[int], int, list[int]]:
    """Merge the level's cluster forest: its nodes' representatives, the
    number of links, and the carried edges left unlinked, in carried
    order, which numbers the next forest."""
    verts, above = cluster_forest_edges(session, mst, carried)
    links = merge_forest_subtrees(session, verts, above)
    linked = session.linked
    return verts, links, [c for c in carried if not linked[c]]


def cluster_forest_edges(
    session: StaticTreeUF, mst, carried: list[int]
) -> tuple[list[int], list[int]]:
    """The level's cluster forest as (verts, above): node a is the cluster
    whose representative is vertex verts[a], and above[a] is the node its
    carried edge leads up to, or len(verts) for a root.

    `carried` holds the in-range MST edges by child vertex; each joins
    the cluster of `child` to that of top = find(parent), and the nodes
    are numbered in order of first appearance along (child, top) per
    edge.  A cluster is a connected MST subtree, so an edge leaving it
    upward leaves at its top: `child` is unlinked and is its own
    cluster's representative, so no cluster has two upward edges."""
    if any(map(session.linked.__getitem__, carried)):
        raise AssertionError("carried MST edge became intra-cluster")
    find, parent = session.find, mst.parent
    tops = [find(parent[c]) for c in carried]
    node: dict[int, int] = {}
    add = node.setdefault
    for child, top in zip(carried, tops):
        add(child, len(node))
        add(top, len(node))
    above = [len(node)] * len(node)
    for child, top in zip(carried, tops):
        above[node[child]] = node[top]
    return list(node), above


def merge_forest_subtrees(
    session: StaticTreeUF, verts: list[int], above: list[int]
) -> int:
    """Star-cover the cluster forest (verts, above) and Link each star
    edge; returns the number of links.

    The cover runs on the forest itself, each node's children chained
    through `first_child` and `next_sibling`.  Step 1 scans the nodes in
    id order; a node that is still unowned becomes a centre if it has an
    unowned neighbour, and takes all of its unowned children and its
    parent if that is unowned.  Step 2 attaches each node left unowned to
    its lowest-id neighbour.  That is pm.grow_star_cover's partition on
    the forest's adjacency sorted by id: its step 1 takes every unowned
    neighbour whatever the list order, and its step 2 takes the first
    entry of a sorted list, the minimum.  A star edge is linked at its
    lower node's representative, and the forest's edges inside one
    subtree are exactly its star edges, so the carried edges left
    unlinked cross different subtrees."""
    n_nodes = len(verts)
    none = n_nodes   # the parent of a root and the end of a child chain
    first_child = [none] * n_nodes
    next_sibling = [none] * n_nodes
    for a, b in enumerate(above):
        if b != none:
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
                to_link.append(verts[c])
            c = next_sibling[c]
        p = above[v]
        if not owned[p]:
            owned[p] = took = True
            to_link.append(verts[v])
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
            to_link.append(verts[v])
        elif u != none:
            to_link.append(verts[u])
        else:
            raise ValueError(f"node {v} is isolated; star cover needs none")

    session.link_all(to_link)
    return len(to_link)
