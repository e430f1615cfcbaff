"""Structural audits of the three builders.

A builder given `check(name, ok, detail)` calls one function here at each
hook point, under `if check is not None`; a plain build enters none.  An
audit only reads the build (a union-find through `peek`, its cost put
back) and derives here what only it needs, so an audited build gives the
same edges, level rows and ops as a plain one.

Each audit checks an invariant that holds in every correct build, so an
outcome with ok false means a fault; the tests and CI treat any failed
outcome as one.
"""
from __future__ import annotations

from typing import Callable

from .graphs import WeightedGraph, minimum_spanning_tree, sssp_distances

Check = Callable[[str, bool, str], None]

CLUSTER_AUDIT_MAX_N = 200   # the cluster audits read every vertex per level


def _peek_all(uf, vs) -> list[int]:
    """`uf.peek` of each of vs, with `uf.cost` put back."""
    cost = uf.cost
    out = list(map(uf.peek, vs))
    uf.cost = cost
    return out


def _clusters(uf, n: int) -> dict[int, list[int]]:
    """Cluster representative -> its vertices, in vertex order."""
    clusters: dict[int, list[int]] = {}
    for v, rep in enumerate(_peek_all(uf, range(n))):
        clusters.setdefault(rep, []).append(v)
    return clusters


def pm_clusters(check: Check, norm: WeightedGraph, uf, class_eids: set[int],
                budget: float, sigma: int, i: int) -> None:
    """Before a `pm` level: each cluster induces a subgraph of the class's
    kept edges of diameter at most `budget`."""
    if norm.n > CLUSTER_AUDIT_MAX_N:
        return
    tag = f"sigma={sigma} level={i}"
    clusters = _clusters(uf, norm.n)
    if budget <= 0:
        ok = all(len(c) == 1 for c in clusters.values())
        check("p2-diameter", ok, f"{tag} (singleton level)")
        return
    sub_edges = [norm.edges[e] for e in class_eids]
    ok = True
    for members in clusters.values():
        if len(members) == 1:
            continue
        idx = {v: i for i, v in enumerate(members)}
        induced = WeightedGraph(len(members), [(idx[u], idx[v], w) for u, v, w
                                               in sub_edges if u in idx and v in idx])
        ok = all(max(sssp_distances(induced, s)) <= budget * (1 + 1e-9)
                 for s in range(induced.n))
        if not ok:
            break
    check("p2-diameter", ok, tag)


def linear_clusters(check: Check, norm: WeightedGraph, mst, session,
                    budget: float, sigma: int, i: int) -> None:
    """Before a `linear` level: each cluster induces a connected MST
    subtree, holding its representative, of diameter at most `budget`."""
    if norm.n > CLUSTER_AUDIT_MAX_N:
        return
    tag = f"sigma={sigma} level={i}"
    clusters = _clusters(session, norm.n)
    tree_adj: list[list[tuple[int, float]]] = [[] for _ in range(norm.n)]
    for u, v, w in mst.edges:
        tree_adj[u].append((v, w))
        tree_adj[v].append((u, w))
    ok_conn = ok_diam = True
    for rep, members in clusters.items():
        mem = set(members)
        far, _, reach = _tree_far(tree_adj, members[0], mem)
        if len(reach) != len(mem):
            ok_conn = False
            break
        _, dist, _ = _tree_far(tree_adj, far, mem)   # far's eccentricity
        ok_diam = len(mem) == 1 if budget <= 0 else dist <= budget * (1 + 1e-9)
        if not ok_diam:
            break
        if rep not in mem:
            ok_conn = False
            break
    check("p2-subtree-connected", ok_conn, tag)
    check("p2-subtree-diameter", ok_diam, tag)


def _tree_far(tree_adj, start: int,
              allowed: set[int]) -> tuple[int, float, set[int]]:
    """Farthest node from start inside `allowed`, its distance, all reached."""
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


def linear_level(check: Check, session, mst, carried: list[int],
                 verts: list[int], reps: list[int], merged: bool,
                 sigma: int, i: int) -> None:
    """After a `linear` level: its representatives lie in Y, the merged
    clusters, or the ends of the in-range MST edges at a level that merges
    nothing."""
    if merged:
        y = set(verts)
    else:
        ups = [mst.parent[c] for c in carried]
        y = set(carried).union(ups if session is None else _peek_all(session, ups))
    check("x-subset-y", all(r in y for r in reps),
          f"sigma={sigma} i={i} |X|={len(reps)} |Y|={len(y)}")


def phi1_bound(check: Check, state, mst_weight: float, sigma: int) -> None:
    check("phi1-bound", state.phi <= mst_weight * (1 + 1e-9),
          f"sigma={sigma} phi1={state.phi} w(mst)={mst_weight}")


def carve(check: Check, state, scale: float) -> None:
    """Base clusters have diameter in [scale, 14*scale]; a lone one may be
    shorter."""
    pot = state.pot
    ok = all(d <= 14 * scale * (1 + 1e-9) for d in pot) and (
        len(pot) <= 1 or all(d >= scale * (1 - 1e-9) for d in pot))
    lo, hi = (min(pot), max(pot)) if pot else (0.0, 0.0)
    check("level1-diameter", ok, f"scale={scale} diam range [{lo:.3g},{hi:.3g}]")


def coarsen(check: Check, state, new, piece_of: list[int],
            sigma: int, i: int) -> None:
    """A coarsened cluster's Adm is at most its parts' potentials plus the
    tree edges inside it."""
    internal: dict[int, float] = {}
    for a, b, w, sid in state.tree:
        if piece_of[a] == piece_of[b]:
            internal[piece_of[a]] = internal.get(piece_of[a], 0.0) + w
    summed: dict[int, float] = {}
    for c in range(state.count):
        summed[piece_of[c]] = summed.get(piece_of[c], 0.0) + state.pot[c]
    ok = all(summed.get(p, 0.0) + internal.get(p, 0.0) - adm >= -1e-9 * max(1.0, adm)
             for p, adm in enumerate(new.pot))
    check("coarsen-dplus", ok, f"sigma={sigma} i={i}")


def stranded_ball(check: Check, x) -> None:
    check("step2-good-fixup", False, f"stranded ball of {len(x.nodes)} nodes")


def balls(check: Check, lvl, xids: list[int]) -> None:
    """Every live step-2 ball has Adm in [L_i, 24*L_i]."""
    li = lvl.li
    for xid in xids:
        x = lvl.xs[xid]
        if x.nodes:
            adm = x.adm(lvl.pot)
            check("step2-adm", li * (1 - 1e-9) <= adm <= 24 * li * (1 + 1e-9),
                  f"ball adm={adm} li={li}")


def blue_pair(check: Check, lvl, x) -> None:
    """A step-4 subgraph has Adm in [L_i, 6*L_i] and nonnegative D+."""
    li = lvl.li
    adm = x.adm(lvl.pot)
    check("step4-adm", li * (1 - 1e-9) <= adm <= 6 * li * (1 + 1e-9),
          f"blue-pair adm={adm} li={li}")
    dplus = _dplus(lvl, x, adm)
    check("step4-dplus", dplus >= -1e-9 * max(1.0, adm), f"dplus={dplus}")


def _dplus(lvl, x, adm: float) -> float:
    """D+ of subgraph x: its nodes' potentials less its Adm, plus its
    contracted-tree edges (summed in edge order)."""
    return (sum(lvl.pot[v] for v in x.nodes) - adm
            + sum(w for _, _, w, is_tree in x.graph_edges if is_tree))


def path_pieces(check: Check, lvl, path: list[int], pos: list[float],
                pieces: list[tuple[int, int]]) -> None:
    """A broken path's pieces have Adm in [L_i, 7*L_i], and a piece with a
    node on a level edge holds two real nodes or ends the path."""
    from .lightsteps import _range_adm   # lightsteps imports this module

    li = lvl.li
    for a, b in pieces:
        adm = _range_adm(lvl, path, pos, a, b)
        check("step5b-piece", li * (1 - 1e-9) <= adm <= 7 * li * (1 + 1e-9),
              f"piece adm={adm} li={li}")
        seg = path[a:b + 1]
        if any(lvl.deg[v] for v in seg):
            nonvirt = sum(1 for v in seg if not lvl.state.virtual[v])
            endpoint = a == 0 or b == len(path) - 1
            check("step5b-good", nonvirt >= 2 or endpoint,
                  f"nonvirt={nonvirt} endpoint={endpoint}")


def min_adm(check: Check, lvl, x) -> None:
    """x is short and has no neighbour: a failure unless it is alone."""
    if sum(1 for y in lvl.xs if y.nodes) > 1:
        check("min-adm", False, f"isolated short subgraph size={len(x.nodes)}")


def level(check: Check, lvl, sigma: int, i: int, degenerate: bool,
          live: list, new_state, y_count: int) -> None:
    """The level's per-subgraph Adm, potential and separation invariants,
    and the real-node count it removed."""
    from .lightsteps import G_LIGHT, _is_good   # lightsteps imports this module

    ctx, tag = lvl.ctx, f"sigma={sigma} i={i}"
    dplus_ok = good_ok = True
    upper = G_LIGHT * lvl.li * (1 + 1e-9)
    lower = lvl.li * (1 - 1e-9) if len(live) > 1 else 0.0
    for x, x_adm in zip(live, new_state.pot):
        if _dplus(lvl, x, x_adm) < -1e-9 * max(1.0, x_adm):
            dplus_ok = False
        if not _is_good(lvl, x):
            good_ok = False
        check("p3-adm", lower <= x_adm <= upper,
              f"{tag} step={x.step} adm={x_adm} li={lvl.li}")
    check("dplus-nonnegative", dplus_ok, tag)
    check("goodness", good_ok, tag)

    if not degenerate:
        tau = ctx.tau_high
        kind = {}       # high / low+ / low- of each live subgraph
        for xid, x in enumerate(lvl.xs):
            if any(lvl.deg[v] >= tau for v in x.nodes):
                kind[xid] = "high"
            elif x.nodes:
                kind[xid] = "low-" if x.step == "piece" and not x.endpoint_piece else "low+"
        sep_ok = True
        for a, b, w, eid in lvl.ei:
            ka = "high" if lvl.deg[a] >= tau else kind[lvl.assigned[a]]
            kb = "high" if lvl.deg[b] >= tau else kind[lvl.assigned[b]]
            if {ka, kb} == {"high", "low-"} or (ka == kb == "low-"):
                sep_ok = False
        check("low-minus-separation", sep_ok, tag)

    n_before, n_after = lvl.state.n_nodes, new_state.n_nodes
    check("n-reduction", n_before - n_after >= y_count / 2,
          f"{tag} before={n_before} after={n_after} y={y_count}")


def virtual_parents(sub) -> dict[int, int]:
    """Each virtual vertex -> the MST edge it subdivides (`parent_eid`)."""
    return {x: peid for a, b, _, peid in sub.edges for x in (a, b)
            if x >= sub.n_real}


def cycle_property(check: Check, lvl) -> None:
    """Every virtual node on a level edge's fundamental tree cycle has a
    parent MST edge (the one its vertices subdivide) no heavier than it.
    `ctx.sub` subdivides the MST of `ctx.g`, so `parent_eid` indexes that
    MST's edge list, which gives each edge's exact weight."""
    if not lvl.ei:
        return
    sub, state = lvl.ctx.sub, lvl.state
    parents = virtual_parents(sub)
    par_eid: dict[int, int] = {}
    for v, c in enumerate(state.cl_of_sub):
        if state.virtual[c] and par_eid.setdefault(c, parents[v]) != parents[v]:
            raise AssertionError("virtual cluster spans several MST edges")
    mst_weight = [w for _, _, w in minimum_spanning_tree(lvl.ctx.g).edges]
    parent, order, _ = state.rooted
    depth = [0] * lvl.count
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    ok = True
    for a, b, w, eid in lvl.ei:
        x, y = a, b
        while True:     # every node on the tree path from a to b
            if depth[x] < depth[y]:
                x, y = y, x
            if x in par_eid and not mst_weight[par_eid[x]] <= w * (1 + 1e-9):
                ok = False
            if x == y:
                break
            x = parent[x]
    check("cycle-property", ok, f"edges={len(lvl.ei)}")
