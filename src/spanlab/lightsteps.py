"""Per-level machinery of the sparse+light construction: contracted cluster
graphs with node potentials, the five clustering steps, long-path breaking,
and the three-step edge selection.

Cluster state is rebuilt wholesale between levels: a level's subgraph
collection becomes the next level's node set, node weights are the
subgraphs' augmented diameters, and the contracted spanning tree is
re-derived from the crossing subdivided-tree edges.

The structural audits live in the `_audit_*` helpers and run only when the
context carries a `check` callback.  A value that only an audit reads (a
subgraph's high/low+/low- kind, its contracted-tree weight) is derived
inside those helpers, so an unaudited build never computes it.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

from .dsu import ClassicUF
from .graphs import WeightedGraph
from .hz import UnweightedGraph, hz_spanner
from .pm import dedupe_source_edges


@dataclass
class StepContext:
    g: WeightedGraph
    sub: object                 # SubdividedMst; loose to avoid an import cycle
    k: int
    eps: float
    gconst: int
    filter_factor: float
    check: Optional[Callable[[str, bool, str], None]] = None   # audits iff given

    @property
    def tau_high(self) -> int:
        return math.ceil(2 * self.gconst / self.eps)


@dataclass
class ClassState:
    """One level's clusters over the subdivided tree (treated immutably)."""

    count: int
    pot: list[float]            # node weight = potential = formation Adm
    virtual: list[bool]
    par_eid: list[int]          # parent MST edge of an all-virtual cluster
    tree: list[tuple[int, int, float, int]]   # contracted spanning tree
    cl_of_sub: list[int]
    scale: float                # scale the clusters were formed at

    # a state outlives many levels (ladder rungs serve many classes), so its
    # totals are summed once, over the same lists in the same order
    @cached_property
    def phi(self) -> float:
        """Potential Phi: the sum of the node potentials."""
        return sum(self.pot)

    @cached_property
    def n_nodes(self) -> int:
        """Clusters holding at least one real vertex."""
        return sum(1 for v in self.virtual if not v)

    def adjacency(self) -> list[list[tuple[int, float, int]]]:
        adj: list[list[tuple[int, float, int]]] = [[] for _ in range(self.count)]
        for a, b, w, sid in self.tree:
            adj[a].append((b, w, sid))
            adj[b].append((a, w, sid))
        return adj


# ---------------------------------------------------------------- bases


def singleton_state(sub) -> ClassState:
    n = sub.n_total
    return ClassState(
        count=n,
        pot=[0.0] * n,
        virtual=[v >= sub.n_real for v in range(n)],
        par_eid=[sub.parent_edge_of(v) for v in range(n)],
        tree=list(sub.edges),
        cl_of_sub=list(range(n)),
        scale=0.0,
    )


def carved_state(sub, scale: float, ctx: StepContext) -> ClassState:
    """Base clusters: subdivided tree carved into subtrees of diameter in
    [scale, ~6*scale] (single piece exempt from the lower bound)."""
    state, _ = _carve_tree(singleton_state(sub), scale)
    if ctx.check is not None:
        _audit_carve(state, scale, ctx)
    return state


def _audit_carve(state: ClassState, scale: float, ctx: StepContext) -> None:
    ok = all(d <= 14 * scale * (1 + 1e-9) for d in state.pot)
    if len(state.pot) > 1:
        ok = ok and all(d >= scale * (1 - 1e-9) for d in state.pot)
    lo = min(state.pot) if state.pot else 0.0
    hi = max(state.pot) if state.pot else 0.0
    ctx.check("level1-diameter", ok,
              f"scale={scale} diam range [{lo:.3g},{hi:.3g}]")


def coarsen(state: ClassState, scale: float, ctx: StepContext,
            log: list[dict], sigma: int, i: int) -> ClassState:
    """Merge clusters up to a coarser scale before a level jump; pure tree
    carve at the target scale, logged as a pseudo-level."""
    phi_before = state.phi
    new, piece_of = _carve_tree(state, scale)
    log.append({
        "sigma": sigma, "i": i, "coarsen": True,
        "v_nodes": state.count, "e_edges": 0, "y_nodes": 0,
        "n_nodes": new.n_nodes,
        "phi": phi_before, "delta": phi_before - new.phi,
        "a_i": 0.0, "step_edge_counts": [0, 0, 0], "degenerate": False,
    })
    if ctx.check is not None:
        _audit_coarsen(state, new, piece_of, ctx, sigma, i)
    return new


def _audit_coarsen(state: ClassState, new: ClassState, piece_of: list[int],
                   ctx: StepContext, sigma: int, i: int) -> None:
    internal: dict[int, float] = {}
    for a, b, w, sid in state.tree:
        if piece_of[a] == piece_of[b]:
            internal[piece_of[a]] = internal.get(piece_of[a], 0.0) + w
    summed: dict[int, float] = {}
    for c in range(state.count):
        summed[piece_of[c]] = summed.get(piece_of[c], 0.0) + state.pot[c]
    ok = all(
        summed.get(p, 0.0) + internal.get(p, 0.0) - adm
        >= -1e-9 * max(1.0, adm)
        for p, adm in enumerate(new.pot)
    )
    ctx.check("coarsen-dplus", ok, f"sigma={sigma} i={i}")


def _carve_tree(state: ClassState, scale: float) -> tuple[ClassState, list[int]]:
    """Carve the (possibly contracted) tree into pieces of augmented
    diameter >= scale (except a lone piece) and O(scale)."""
    count = state.count
    pot = state.pot
    adj = state.adjacency()
    parent, order = _root_tree(adj, count)

    piece_of = [-1] * count
    pieces: list[list[int]] = []
    res_children: list[list[int]] = [[] for _ in range(count)]
    down = [0.0] * count

    def carve_at(v: int) -> None:
        pid = len(pieces)
        members = []
        st = [v]
        while st:
            x = st.pop()
            members.append(x)
            piece_of[x] = pid
            st.extend(res_children[x])
        pieces.append(members)

    for v in reversed(order):
        best = 0.0
        for u, w, sid in adj[v]:
            if parent[u] == v and piece_of[u] == -1:
                res_children[v].append(u)
                best = max(best, w + down[u])
        down[v] = pot[v] + best
        if down[v] >= scale and v != 0:
            carve_at(v)
    # root leftover: absorb into an adjacent piece, or close as final piece
    leftover = [v for v in order if piece_of[v] == -1]
    if leftover:
        target = -1
        for v in leftover:
            for u, w, sid in adj[v]:
                if piece_of[u] != -1:
                    target = piece_of[u]
                    break
            if target != -1:
                break
        if target == -1:
            carve_at(0)
        else:
            for v in leftover:
                piece_of[v] = target
                pieces[target].append(v)

    inside: list[list[tuple[int, float]]] = [[] for _ in range(count)]
    for a, b, w, sid in state.tree:
        if piece_of[a] == piece_of[b]:
            inside[a].append((b, w))
            inside[b].append((a, w))
    adm = [_tree_adm(mem, inside, pot) for mem in pieces]
    return _next_state(state, pieces, piece_of, adm, scale), piece_of


def _root_tree(adj, count: int) -> tuple[list[int], list[int]]:
    """Parent of every node of the tree `adj` rooted at node 0 (-1 for the
    root), and the nodes in a visit order that lists parents first."""
    parent = [-2] * count
    parent[0] = -1
    order: list[int] = []
    stack = [0]
    while stack:
        v = stack.pop()
        order.append(v)
        for u, w, sid in adj[v]:
            if parent[u] == -2:
                parent[u] = v
                stack.append(u)
    return parent, order


def _next_state(state: ClassState, parts: list[list[int]], part_of: list[int],
                adm: list[float], scale: float) -> ClassState:
    """The clusters formed at `scale` by merging each part (a list of
    `state`'s nodes; `part_of` maps a node to its part) into one node of
    potential `adm[part]`."""
    n_parts = len(parts)
    virtual = [True] * n_parts
    par_eid = [-1] * n_parts
    for t, mem in enumerate(parts):
        peids = set()
        for v in mem:
            if not state.virtual[v]:
                virtual[t] = False
                break
            peids.add(state.par_eid[v])
        if virtual[t]:
            if len(peids) != 1:
                raise AssertionError("virtual subgraph spans several parent paths")
            par_eid[t] = peids.pop()
    return ClassState(
        count=n_parts, pot=adm, virtual=virtual, par_eid=par_eid,
        tree=_contract(state.tree, part_of, n_parts) if n_parts > 1 else [],
        cl_of_sub=[part_of[c] for c in state.cl_of_sub], scale=scale,
    )


def _tree_adm(nodes: list[int], nbrs, pot: list[float]) -> float:
    """Augmented diameter of the tree on `nodes`: the heaviest path, edge
    weights plus the potentials of its nodes (a lone node counts its own).
    `nbrs[v]` lists v's tree neighbours as (u, w) pairs, none outside
    `nodes`; the tree is rooted at nodes[0]."""
    if not nodes:
        return 0.0
    root = nodes[0]
    par = {root: -1}
    order = [root]
    st = [root]
    while st:
        v = st.pop()
        for u, w in nbrs[v]:
            if u not in par:
                par[u] = v
                order.append(u)
                st.append(u)
    if len(order) != len(nodes):
        raise AssertionError("subgraph is not connected")
    down: dict[int, float] = {}
    best = max(pot[v] for v in nodes)
    for v in reversed(order):
        top1 = top2 = 0.0
        for u, w in nbrs[v]:
            if par[u] == v:
                val = w + down[u]
                if val > top1:
                    top1, top2 = val, top1
                elif val > top2:
                    top2 = val
        down[v] = pot[v] + top1
        best = max(best, pot[v] + top1 + top2)
    return best


def _contract(tree_edges, piece_of: list[int], n_pieces: int):
    """Spanning tree of the contraction: Kruskal over crossing tree edges."""
    crossing = []
    for a, b, w, sid in tree_edges:
        pa, pb = piece_of[a], piece_of[b]
        if pa != pb:
            crossing.append((w, sid, pa, pb))
    crossing.sort()
    uf = ClassicUF(n_pieces)
    out = []
    for w, sid, pa, pb in crossing:
        if uf.union(pa, pb):
            out.append((pa, pb, w, sid))
    if len(out) != n_pieces - 1:
        raise AssertionError("contracted tree failed to span the clusters")
    return out


# ---------------------------------------------------------------- LCA


class TreeLCA:
    """Augmented tree distances (edges plus node weights, endpoints
    included) via Euler tour + sparse-table minimum."""

    def __init__(self, state: ClassState):
        count = state.count
        adj = state.adjacency()
        self.pot = state.pot
        depth = [0] * count
        dist = [0.0] * count       # root path: all node weights + edges
        parent = [-2] * count
        parent[0] = -1
        dist[0] = state.pot[0]
        tour: list[int] = []
        first = [-1] * count
        stack: list[tuple[int, bool]] = [(0, False)]
        while stack:
            v, back = stack.pop()
            tour.append(v)
            if back:
                continue
            if first[v] == -1:
                first[v] = len(tour) - 1
            for u, w, sid in adj[v]:
                if parent[u] == -2:
                    parent[u] = v
                    depth[u] = depth[v] + 1
                    dist[u] = dist[v] + w + state.pot[u]
                    stack.append((v, True))
                    stack.append((u, False))
        for idx, v in enumerate(tour):
            if first[v] == -1:
                first[v] = idx
        self.first = first
        self.dist = dist
        seq = [(depth[v], v) for v in tour]
        size = len(seq)
        logs = [0] * (size + 1)
        for x in range(2, size + 1):
            logs[x] = logs[x // 2] + 1
        table = [seq]
        j = 1
        while (1 << j) <= size:
            prev = table[-1]
            cur = [min(prev[x], prev[x + (1 << (j - 1))])
                   for x in range(size - (1 << j) + 1)]
            table.append(cur)
            j += 1
        self.table = table
        self.logs = logs

    def lca(self, a: int, b: int) -> int:
        x, y = self.first[a], self.first[b]
        if x > y:
            x, y = y, x
        j = self.logs[y - x + 1]
        return min(self.table[j][x], self.table[j][y - (1 << j) + 1])[1]

    def aug_dist(self, a: int, b: int) -> float:
        if a == b:
            return self.pot[a]
        anc = self.lca(a, b)
        return self.dist[a] + self.dist[b] - 2 * self.dist[anc] + self.pot[anc]


# ---------------------------------------------------------------- cluster graph


def build_cluster_graph(
    state: ClassState,
    bucket: list[int],
    g: WeightedGraph,
    li: float,
    lca: TreeLCA,
    ctx: StepContext,
) -> list[tuple[int, int, float, int]]:
    """Level edge set: bucket edges mapped to cluster pairs, self-loops
    dropped, parallels deduped to the lightest (pm's dedupe), and edges
    whose tree path (augmented) already realizes the target stretch
    filtered out."""
    best = dedupe_source_edges(bucket, g, state.cl_of_sub.__getitem__)
    out = []
    for (ca, cb), eid in sorted(best.items()):
        w = g.edges[eid][2]
        if lca.aug_dist(ca, cb) <= ctx.filter_factor * w * (1 + 1e-12):
            continue
        out.append((ca, cb, w, eid))
    return out


def has_high_degree(state: ClassState, ei, ctx: StepContext) -> bool:
    deg: dict[int, int] = {}
    tau = ctx.tau_high
    for a, b, w, eid in ei:
        for x in (a, b):
            deg[x] = deg.get(x, 0) + 1
            if deg[x] >= tau:
                return True
    return False


def trivial_row(sigma: int, i: int, state: ClassState, bucket: int,
                added: int = 0) -> dict:
    return {
        "sigma": sigma, "i": i, "v_nodes": state.count, "e_edges": added,
        "y_nodes": 0, "n_nodes": state.n_nodes,
        "phi": state.phi, "delta": 0.0, "a_i": 0.0,
        "step_edge_counts": [0, 0, added], "degenerate": False,
        "bucket_edges": bucket,
    }


# ---------------------------------------------------------------- subgraphs


@dataclass
class Subgraph:
    step: str
    nodes: list[int] = field(default_factory=list)
    # (a, b, w, is_tree): is_tree marks a contracted-tree edge, not a level edge
    graph_edges: list[tuple[int, int, float, bool]] = field(default_factory=list)
    ei_idx: list[int] = field(default_factory=list)
    # a step-5 piece at an end of its path; set on audited builds only
    endpoint_piece: bool = False

    def adm(self, pot: list[float]) -> float:
        nbrs: dict[int, list[tuple[int, float]]] = {v: [] for v in self.nodes}
        for a, b, w, _ in self.graph_edges:
            nbrs[a].append((b, w))
            nbrs[b].append((a, w))
        return _tree_adm(self.nodes, nbrs, pot)


# ---------------------------------------------------------------- level build


class _Level:
    """Working storage for one level's five-step subgraph construction."""

    def __init__(self, state: ClassState, ei, li: float, ctx: StepContext):
        self.state = state
        self.ei = ei
        self.li = li
        self.ctx = ctx
        self.adj = state.adjacency()
        self.pot = state.pot
        self.count = state.count
        self.deg = [0] * state.count
        self.inc: list[list[int]] = [[] for _ in range(state.count)]
        for idx, (a, b, w, eid) in enumerate(ei):
            self.deg[a] += 1
            self.deg[b] += 1
            self.inc[a].append(idx)
            self.inc[b].append(idx)
        self.nonisolated = [d > 0 for d in self.deg]
        self.assigned = [-1] * state.count
        self.xs: list[Subgraph] = []

    # -- subgraph plumbing

    def new_x(self, step: str) -> int:
        self.xs.append(Subgraph(step=step))
        return len(self.xs) - 1

    def absorb(self, xid: int, node: int,
               via: Optional[tuple[int, float, bool]] = None) -> None:
        """Add node to subgraph xid, optionally through (other, w, is_tree)."""
        if self.assigned[node] != -1:
            raise AssertionError("node already assigned")
        x = self.xs[xid]
        x.nodes.append(node)
        self.assigned[node] = xid
        if via is not None:
            other, w, is_tree = via
            x.graph_edges.append((other, node, w, is_tree))

    def merge_into(self, src: int, dst: int, bridge: tuple[int, int, float, bool]) -> None:
        xs, xd = self.xs[src], self.xs[dst]
        for v in xs.nodes:
            self.assigned[v] = dst
        xd.nodes.extend(xs.nodes)
        xd.graph_edges.extend(xs.graph_edges)
        xd.graph_edges.append(bridge)
        xd.ei_idx.extend(xs.ei_idx)
        xs.nodes = []
        xs.graph_edges = []
        xs.ei_idx = []
        xs.step = "merged"

    def unassigned_tree_neighbors(self, xid: int):
        for v in self.xs[xid].nodes:
            for u, w, sid in self.adj[v]:
                if self.assigned[u] == -1:
                    yield v, u, w

    def components(self) -> list[list[int]]:
        """Connected components of the contracted tree minus assigned nodes."""
        return _split_components(
            self, [v for v in range(self.count) if self.assigned[v] == -1])

    def comp_adm(self, comp: list[int]) -> float:
        memset = set(comp)
        nbrs = {v: [(u, w) for u, w, sid in self.adj[v] if u in memset]
                for v in comp}
        return _tree_adm(comp, nbrs, self.pot)


# the five steps live in dedicated helpers; `process_level` drives them


def process_level(state: ClassState, ei, li: float, sigma: int, i: int,
                  ctx: StepContext):
    lvl = _Level(state, ei, li, ctx)
    step1_high(lvl)
    step2_branching(lvl)
    step3_absorb_branching(lvl)
    step4_blue_edges(lvl)
    degenerate = not any(
        x.nodes and x.step in ("star", "ball", "blue") for x in lvl.xs
    )
    step5_paths(lvl)
    _force_min_adm(lvl)
    picked, counts = select_level_edges(lvl)
    row, new_state = _finish_level(lvl, sigma, i, degenerate, picked, counts)
    return new_state, picked, row


# ---------------------------------------------------------------- step 1


def step1_high(lvl: _Level) -> None:
    """Trees covering every high-degree node and all their level-edge
    neighbors; stars centered at high nodes, leftovers attach to a star."""
    ctx = lvl.ctx
    tau = ctx.tau_high
    high = [v for v in range(lvl.count) if lvl.deg[v] >= tau]
    if not high:
        return
    highset = set(high)
    kadj: list[list[tuple[int, int]]] = [[] for _ in range(lvl.count)]
    plus = set(high)
    for idx, (a, b, w, eid) in enumerate(lvl.ei):
        if a in highset or b in highset:
            kadj[a].append((b, idx))
            kadj[b].append((a, idx))
            plus.add(a)
            plus.add(b)
    for lst in kadj:
        lst.sort()

    step1_nodes: set[int] = set()
    for phi in sorted(high):
        if lvl.assigned[phi] != -1:
            continue
        free = [entry for entry in kadj[phi] if lvl.assigned[entry[0]] == -1
                and entry[0] != phi]
        if not free:
            continue
        xid = lvl.new_x("star")
        lvl.absorb(xid, phi)
        step1_nodes.add(phi)
        seen = set()
        for u, idx in free:
            if u in seen or lvl.assigned[u] != -1:
                continue
            seen.add(u)
            lvl.absorb(xid, u, via=(phi, lvl.ei[idx][2], False))
            lvl.xs[xid].ei_idx.append(idx)
            step1_nodes.add(u)
    for v in sorted(plus):
        if lvl.assigned[v] != -1:
            continue
        target = None
        for u, idx in kadj[v]:
            if u in step1_nodes:
                target = (u, idx)
                break
        if target is None:
            raise AssertionError("high-neighborhood cover found no star neighbor")
        u, idx = target
        xid = lvl.assigned[u]
        lvl.absorb(xid, v, via=(u, lvl.ei[idx][2], False))
        lvl.xs[xid].ei_idx.append(idx)

    for xid, x in enumerate(lvl.xs):
        if x.step != "star" or not x.nodes:
            continue
        _pad_to_min_adm(lvl, xid)
        if ctx.check is not None:
            ctx.check("step1-size", len(x.nodes) >= min(tau, lvl.count),
                      f"|V(X)|={len(x.nodes)} tau={tau}")


def _pad_to_min_adm(lvl: _Level, xid: int) -> None:
    """Grow a subgraph along unassigned tree neighbors until Adm >= L_i."""
    x = lvl.xs[xid]
    adm = x.adm(lvl.pot)
    guard = 4 * lvl.count + 4
    while adm < lvl.li * (1 - 1e-12) and guard:
        guard -= 1
        pick = None
        for v, u, w in lvl.unassigned_tree_neighbors(xid):
            if pick is None or (v, u) < (pick[0], pick[1]):
                pick = (v, u, w)
        if pick is None:
            break
        lvl.absorb(xid, pick[1], via=(pick[0], pick[2], True))
        adm = x.adm(lvl.pot)


# ---------------------------------------------------------------- step 2


def step2_branching(lvl: _Level) -> None:
    """Carve balls of augmented radius ~2L_i around branching nodes of long
    trees, then absorb not-good balls into neighbors or high trees."""
    ctx = lvl.ctx
    li = lvl.li
    worklist = lvl.components()
    balls: list[int] = []           # xid of carved balls
    ball_center: dict[int, int] = {}
    while worklist:
        comp = worklist.pop()
        if len(comp) == 1:   # a lone node has no branching node
            continue
        if lvl.comp_adm(comp) < 6 * li:
            continue
        branch = _branching_nodes(lvl, comp)
        if not branch:
            continue
        center = min(
            branch, key=lambda v: (not lvl.nonisolated[v], v)
        )
        xid = _carve_ball(lvl, center, set(comp), 2 * li)
        balls.append(xid)
        ball_center[xid] = center
        remaining = [v for v in comp if lvl.assigned[v] == -1]
        worklist.extend(_split_components(lvl, remaining))

    # post-process: balls holding a non-isolated node need a second
    # non-virtual node; attach to a high tree or merge into a neighbor ball
    changed = True
    guard = 4 * len(balls) + 4
    while changed and guard:
        guard -= 1
        changed = False
        for xid in balls:
            x = lvl.xs[xid]
            if not x.nodes or _is_good(lvl, x):
                continue
            hook = _adjacent_subgraph(lvl, xid, prefer="star")
            if hook is None:
                hook = _adjacent_subgraph(lvl, xid, prefer="ball2")
            if hook is None:
                hook = _adjacent_subgraph(lvl, xid, prefer="any")
            if hook is None:
                if ctx.check is not None:
                    ctx.check("step2-good-fixup", False,
                              f"stranded ball of {len(x.nodes)} nodes")
                continue
            other, bridge = hook
            lvl.merge_into(xid, other, bridge)
            changed = True
    if ctx.check is not None:
        _audit_balls(lvl, balls)


def _audit_balls(lvl: _Level, balls: list[int]) -> None:
    li = lvl.li
    for xid in balls:
        x = lvl.xs[xid]
        if x.nodes:
            adm = x.adm(lvl.pot)
            lvl.ctx.check("step2-adm", li * (1 - 1e-9) <= adm <= 24 * li * (1 + 1e-9),
                          f"ball adm={adm} li={li}")


def _branching_nodes(lvl: _Level, comp: list[int]) -> list[int]:
    memset = set(comp)
    out = []
    for v in comp:
        d = sum(1 for u, w, sid in lvl.adj[v] if u in memset)
        if d >= 3:
            out.append(v)
    return sorted(out)


def _carve_ball(lvl: _Level, center: int, allowed: set[int], radius: float) -> int:
    """Dijkstra ball by augmented distance; nodes reaching >= radius are
    included but not expanded."""
    xid = lvl.new_x("ball")
    dist = {center: lvl.pot[center]}
    via: dict[int, tuple[int, float]] = {}
    heap = [(lvl.pot[center], center)]
    popped: set[int] = set()
    orderd: list[int] = []
    while heap:
        d, v = heapq.heappop(heap)
        if v in popped or d > dist.get(v, math.inf):
            continue
        popped.add(v)
        orderd.append(v)
        if d >= radius:
            continue
        for u, w, sid in lvl.adj[v]:
            if u in allowed and lvl.assigned[u] == -1 and u not in popped:
                nd = d + w + lvl.pot[u]
                if nd < dist.get(u, math.inf):
                    dist[u] = nd
                    via[u] = (v, w)
                    heapq.heappush(heap, (nd, u))
    for v in orderd:
        if v == center:
            lvl.absorb(xid, v)
        else:
            pv, w = via[v]
            lvl.absorb(xid, v, via=(pv, w, True))
    return xid


def _split_components(lvl: _Level, nodes: list[int]) -> list[list[int]]:
    memset = set(nodes)
    seen: set[int] = set()
    comps = []
    for s in nodes:
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        st = [s]
        while st:
            v = st.pop()
            for u, w, sid in lvl.adj[v]:
                if u in memset and u not in seen:
                    seen.add(u)
                    comp.append(u)
                    st.append(u)
        comps.append(comp)
    return comps


def _is_good(lvl: _Level, x: Subgraph) -> bool:
    if not any(lvl.nonisolated[v] for v in x.nodes):
        return True
    return sum(1 for v in x.nodes if not lvl.state.virtual[v]) >= 2


def _adjacent_subgraph(lvl: _Level, xid: int, prefer: str):
    """A neighboring subgraph reachable by one tree edge from xid.

    prefer='star': only high trees.  prefer='ball2': balls with >= 2
    non-virtual nodes.  prefer='any': any other live subgraph."""
    best = None
    for v in lvl.xs[xid].nodes:
        for u, w, sid in lvl.adj[v]:
            other = lvl.assigned[u]
            if other == -1 or other == xid or not lvl.xs[other].nodes:
                continue
            ox = lvl.xs[other]
            if prefer == "star" and ox.step != "star":
                continue
            if prefer == "ball2":
                nonvirt = sum(1 for y in ox.nodes if not lvl.state.virtual[y])
                if ox.step != "ball" or nonvirt < 2:
                    continue
            key = (u, v)
            if best is None or key < best[2]:
                best = (other, (u, v, w, True), key)
    if best is None:
        return None
    return best[0], best[1]


# ---------------------------------------------------------------- step 3


def step3_absorb_branching(lvl: _Level) -> None:
    """Remove tree-branching nodes from long paths by attaching each to an
    adjacent already-formed subgraph."""
    for comp in lvl.components():
        if lvl.comp_adm(comp) < 6 * lvl.li or not _is_path(lvl, comp):
            continue
        memset = set(comp)
        for v in sorted(comp):
            full_deg = len(lvl.adj[v])
            if full_deg < 3:
                continue
            target = None
            for u, w, sid in lvl.adj[v]:
                other = lvl.assigned[u]
                if other != -1 and lvl.xs[other].nodes:
                    target = (other, u, w)
                    break
            if target is None:
                continue
            other, u, w = target
            lvl.absorb(other, v, via=(u, w, True))


def _is_path(lvl: _Level, comp: list[int]) -> bool:
    memset = set(comp)
    ends = 0
    for v in comp:
        d = sum(1 for u, w, sid in lvl.adj[v] if u in memset)
        if d > 2:
            return False
        if d <= 1:
            ends += 1
    return ends <= 2


# ---------------------------------------------------------------- step 4


def step4_blue_edges(lvl: _Level) -> None:
    """Eliminate level edges between deep-interior (blue) nodes of long
    paths by carving radius-L_i segments around both endpoints into one
    subgraph holding that single edge."""
    li = lvl.li
    guard = len(lvl.ei) + 4
    while guard:
        guard -= 1
        blue = _blue_nodes(lvl)
        pick = None
        for idx, (a, b, w, eid) in enumerate(lvl.ei):
            if a in blue and b in blue and lvl.assigned[a] == -1 \
                    and lvl.assigned[b] == -1:
                pick = idx
                break
        if pick is None:
            return
        a, b, w, eid = lvl.ei[pick]
        xid = lvl.new_x("blue")
        run_a = _path_segment(lvl, a, li)
        _absorb_run(lvl, xid, run_a)
        if lvl.assigned[b] == -1:
            run_b = _path_segment(lvl, b, li)
            _absorb_run(lvl, xid, run_b, bridge=(a, b, w))
        lvl.xs[xid].ei_idx.append(pick)
        if lvl.ctx.check is not None:
            _audit_blue_pair(lvl, lvl.xs[xid])


def _audit_blue_pair(lvl: _Level, x: Subgraph) -> None:
    li = lvl.li
    adm = x.adm(lvl.pot)
    lvl.ctx.check("step4-adm", li * (1 - 1e-9) <= adm <= 6 * li * (1 + 1e-9),
                  f"blue-pair adm={adm} li={li}")
    dplus = sum(lvl.pot[v] for v in x.nodes) - adm + _audit_tree_weight(x)
    lvl.ctx.check("step4-dplus", dplus >= -1e-9 * max(1.0, adm),
                  f"dplus={dplus}")


def _audit_tree_weight(x: Subgraph) -> float:
    """Total weight of x's contracted-tree edges, summed in edge order."""
    total = 0.0
    for a, b, w, is_tree in x.graph_edges:
        if is_tree:
            total += w
    return total


def _blue_nodes(lvl: _Level) -> set[int]:
    blue: set[int] = set()
    for comp in lvl.components():
        if not _is_path(lvl, comp):
            continue
        path = _order_path(lvl, comp)
        total, pos = _path_positions(lvl, path)
        if total < 6 * lvl.li:
            continue
        for idx, v in enumerate(path):
            if pos[idx] > lvl.li and total - pos[idx] + lvl.pot[v] > lvl.li:
                head = pos[idx]
                tail = total - pos[idx] + lvl.pot[v]
                if head > lvl.li and tail > lvl.li:
                    blue.add(v)
    return blue


def _order_path(lvl: _Level, comp: list[int]) -> list[int]:
    memset = set(comp)
    if len(comp) == 1:
        return list(comp)
    end = None
    for v in sorted(comp):
        d = sum(1 for u, w, sid in lvl.adj[v] if u in memset)
        if d == 1:
            end = v
            break
    if end is None:
        raise AssertionError("path component without an endpoint")
    path = [end]
    prev = -1
    cur = end
    while True:
        nxt = None
        for u, w, sid in lvl.adj[cur]:
            if u in memset and u != prev:
                nxt = u
                break
        if nxt is None:
            break
        path.append(nxt)
        prev, cur = cur, nxt
    return path


def _path_positions(lvl: _Level, path: list[int]) -> tuple[float, list[float]]:
    """pos[i] = augmented distance from path start to node i (inclusive);
    returns (total augmented length, positions)."""
    pos = [lvl.pot[path[0]]]
    for idx in range(1, len(path)):
        w = _tree_edge_weight(lvl, path[idx - 1], path[idx])
        pos.append(pos[-1] + w + lvl.pot[path[idx]])
    return pos[-1], pos


def _tree_edge_weight(lvl: _Level, a: int, b: int) -> float:
    for u, w, sid in lvl.adj[a]:
        if u == b:
            return w
    raise AssertionError("missing tree edge")


def _path_segment(lvl: _Level, center: int, radius: float) -> list[int]:
    """Contiguous unassigned run around `center` on its path, spanning
    augmented radius `radius` on each side."""
    run = [center]
    for direction in (0, 1):
        prev = center
        acc = 0.0
        nxts = [u for u, w, sid in lvl.adj[center] if lvl.assigned[u] == -1]
        if len(nxts) <= direction:
            continue
        cur = nxts[direction]
        while True:
            w = _tree_edge_weight(lvl, prev, cur)
            acc += w + lvl.pot[cur]
            if direction == 0:
                run.insert(0, cur)
            else:
                run.append(cur)
            if acc >= radius:
                break
            candidates = [u for u, w2, sid in lvl.adj[cur]
                          if u != prev and lvl.assigned[u] == -1]
            if not candidates:
                break
            prev, cur = cur, candidates[0]
    return run


def _absorb_run(lvl: _Level, xid: int, run: list[int],
                bridge: Optional[tuple[int, int, float]] = None) -> None:
    """Absorb a `_path_segment` run left to right.  Its centre enters
    through the level edge `bridge` = (a, b, w), which ends at the centre
    b, or alone when there is no bridge (the centre is then the first
    node); every other node enters through its run neighbour toward the
    centre, so the run adds a tree to the subgraph."""
    centre = 0 if bridge is None else run.index(bridge[1])
    for t, v in enumerate(run):
        if t == centre:
            if bridge is None:
                lvl.absorb(xid, v)
            else:
                lvl.absorb(xid, v, via=(bridge[0], bridge[2], False))
        else:
            u = run[t + 1] if t < centre else run[t - 1]
            lvl.absorb(xid, v, via=(u, _tree_edge_weight(lvl, u, v), True))


# ---------------------------------------------------------------- step 5


def step5_paths(lvl: _Level) -> None:
    li = lvl.li
    for comp in lvl.components():
        adm = lvl.comp_adm(comp)
        if adm <= 6 * li:
            hook = _component_hook(lvl, comp)
            if hook is not None:
                other, bridge = hook
                xid = lvl.new_x("small")
                _absorb_component(lvl, xid, comp)
                lvl.merge_into(xid, other, bridge)
            else:
                # whole remaining tree: a standalone subgraph
                xid = lvl.new_x("whole")
                _absorb_component(lvl, xid, comp)
            continue
        path = _order_path(lvl, comp)
        pieces = break_long_path(lvl, path)
        # hooks must target subgraphs that existed before this path was
        # broken, never sibling pieces: resolve them before absorbing
        hooks = []
        for piece in pieces:
            seg = path[piece[0]:piece[1] + 1]
            hooks.append(_segment_hook(lvl, seg))
        for piece, hook in zip(pieces, hooks):
            seg = path[piece[0]:piece[1] + 1]
            xid = lvl.new_x("piece")
            if lvl.ctx.check is not None:
                lvl.xs[xid].endpoint_piece = piece[0] == 0 or piece[1] == len(path) - 1
            _absorb_component(lvl, xid, seg)
            if hook is not None:
                other, bridge = hook
                lvl.merge_into(xid, other, bridge)


def _component_hook(lvl: _Level, comp: list[int]):
    best = None
    for v in comp:
        for u, w, sid in lvl.adj[v]:
            other = lvl.assigned[u]
            if other != -1 and lvl.xs[other].nodes:
                key = (v, u)
                if best is None or key < best[2]:
                    best = (other, (u, v, w, True), key)
    if best is None:
        return None
    return best[0], best[1]


def _segment_hook(lvl: _Level, seg: list[int]):
    for v in (seg[0], seg[-1]):
        for u, w, sid in lvl.adj[v]:
            other = lvl.assigned[u]
            if other != -1 and lvl.xs[other].nodes:
                return other, (u, v, w, True)
    return None


def _absorb_component(lvl: _Level, xid: int, comp: list[int]) -> None:
    memset = set(comp)
    first = comp[0]
    lvl.absorb(xid, first)
    st = [first]
    seen = {first}
    while st:
        v = st.pop()
        for u, w, sid in lvl.adj[v]:
            if u in memset and u not in seen:
                seen.add(u)
                lvl.absorb(xid, u, via=(v, w, True))
                st.append(u)
    if len(seen) != len(comp):
        raise AssertionError("component absorption left nodes behind")


def break_long_path(lvl: _Level, path: list[int]) -> list[tuple[int, int]]:
    """Break a degree-2 path into index ranges with augmented diameter in
    [L_i, 7L_i]: contract to non-virtual/endpoint skeleton nodes with run
    weights, keep skeleton edges <= 2L_i, chunk kept runs into 1..3-edge
    groups, expand back, split gap ranges to [L_i, ~2L_i], then repair any
    under-length piece by merging (and re-splitting oversized merges)."""
    li = lvl.li
    n = len(path)
    total, pos = _path_positions(lvl, path)

    kept = [idx for idx, v in enumerate(path)
            if not lvl.state.virtual[v] or idx in (0, n - 1)]
    # skeleton edge weights: augmented run weight excluding endpoint nodes
    fedges = []
    for a, b in zip(kept, kept[1:]):
        wq = pos[b] - pos[a] - lvl.pot[path[b]]
        fedges.append(wq <= 2 * li)

    pieces: list[tuple[int, int]] = []
    covered = [False] * n
    run_start = None
    for t, keep in enumerate(fedges + [False]):
        if keep and run_start is None:
            run_start = t
        if not keep and run_start is not None:
            # adjacent chunks of the run share their boundary node; the
            # left chunk keeps it, so the pieces stay disjoint
            for lo, hi in _chunk_edges(t - run_start):
                ai = kept[run_start + lo] + (1 if lo else 0)
                bi = kept[run_start + hi + 1]
                pieces.append((ai, bi))
                for x in range(ai, bi + 1):
                    covered[x] = True
            run_start = None

    # gap ranges: maximal uncovered index intervals, split to [li, ~2li]
    idx = 0
    while idx < n:
        if covered[idx]:
            idx += 1
            continue
        j = idx
        while j + 1 < n and not covered[j + 1]:
            j += 1
        pieces.extend(_split_range(lvl, path, pos, idx, j))
        idx = j + 1
    pieces.sort()
    pieces = _repair_pieces(lvl, path, pos, pieces)
    flat = [x for a, b in pieces for x in range(a, b + 1)]
    if flat != list(range(n)):
        raise AssertionError("path pieces do not partition the path")
    if lvl.ctx.check is not None:
        _audit_path_pieces(lvl, path, pos, pieces)
    return pieces


def _audit_path_pieces(lvl: _Level, path: list[int], pos: list[float],
                       pieces: list[tuple[int, int]]) -> None:
    li = lvl.li
    for a, b in pieces:
        adm = _range_adm(lvl, path, pos, a, b)
        lvl.ctx.check("step5b-piece", li * (1 - 1e-9) <= adm <= 7 * li * (1 + 1e-9),
                      f"piece adm={adm} li={li}")
        seg = path[a:b + 1]
        if any(lvl.nonisolated[v] for v in seg):
            nonvirt = sum(1 for v in seg if not lvl.state.virtual[v])
            endpoint = a == 0 or b == len(path) - 1
            lvl.ctx.check("step5b-good", nonvirt >= 2 or endpoint,
                          f"nonvirt={nonvirt} endpoint={endpoint}")


def _chunk_edges(count: int) -> list[tuple[int, int]]:
    """Split `count` consecutive edges into chunks of <= 3 (>= 2 when
    possible)."""
    if count <= 3:
        return [(0, count - 1)]
    out = []
    start = 0
    while count - start > 3:
        out.append((start, start + 1))
        start += 2
    out.append((start, count - 1))
    return out


def _split_range(lvl: _Level, path, pos, lo: int, hi: int) -> list[tuple[int, int]]:
    li = lvl.li
    out = []
    start = lo
    acc = lvl.pot[path[lo]]
    for t in range(lo + 1, hi + 1):
        step = pos[t] - pos[t - 1]
        if acc >= li:
            out.append((start, t - 1))
            start = t
            acc = lvl.pot[path[t]]
        else:
            acc += step
    out.append((start, hi))
    if len(out) >= 2:
        last_adm = _range_adm(lvl, path, pos, out[-1][0], out[-1][1])
        if last_adm < li:
            a, _ = out[-2]
            out[-2:] = [(a, hi)]
    return out


def _range_adm(lvl, path, pos, a: int, b: int) -> float:
    base = pos[b] - pos[a] + lvl.pot[path[a]]
    peak = max(lvl.pot[path[t]] for t in range(a, b + 1))
    return max(base, peak)


def _repair_pieces(lvl: _Level, path, pos, pieces):
    li = lvl.li
    guard = 2 * len(pieces) + 8
    while guard:
        guard -= 1
        bad = None
        for t, (a, b) in enumerate(pieces):
            if _range_adm(lvl, path, pos, a, b) < li * (1 - 1e-12):
                bad = t
                break
        if bad is None or len(pieces) == 1:
            break
        # merge toward the side holding this piece's light-edge partner
        if bad + 1 < len(pieces):
            a, b = pieces[bad][0], pieces[bad + 1][1]
            pieces[bad:bad + 2] = [(a, b)]
        else:
            a, b = pieces[bad - 1][0], pieces[bad][1]
            pieces[bad - 1:bad + 1] = [(a, b)]
        t = pieces.index((a, b))
        if _range_adm(lvl, path, pos, a, b) > 7 * li:
            pieces[t:t + 1] = _split_range(lvl, path, pos, a, b)
    return pieces


# ---------------------------------------------------------------- finish


def _force_min_adm(lvl: _Level) -> None:
    """Last resort: merge each under-length subgraph into a neighbor, in one
    pass in index order.  A merge only grows its target, and a tree's Adm
    cannot shrink as it grows, so a subgraph that passed keeps passing."""
    for xid, x in enumerate(lvl.xs):
        if not x.nodes or x.adm(lvl.pot) >= lvl.li * (1 - 1e-12):
            continue
        hook = _adjacent_subgraph(lvl, xid, prefer="any")
        if hook is None:
            if lvl.ctx.check is not None and sum(1 for y in lvl.xs if y.nodes) > 1:
                lvl.ctx.check("min-adm", False,
                              f"isolated short subgraph size={len(x.nodes)}")
            return
        other, bridge = hook
        lvl.merge_into(xid, other, bridge)


def select_level_edges(lvl: _Level) -> tuple[set[int], list[int]]:
    """Three selection steps: subgraph-internal edges, an unweighted
    (2k-1)-spanner among high nodes, and everything at low nodes."""
    tau = lvl.ctx.tau_high
    picked: set[int] = set()
    c1 = c2 = c3 = 0
    for x in lvl.xs:
        for idx in x.ei_idx:
            eid = lvl.ei[idx][3]
            if eid not in picked:
                c1 += 1
            picked.add(eid)
    high = sorted(v for v in range(lvl.count) if lvl.deg[v] >= tau)
    if high:
        hidx = {v: t for t, v in enumerate(high)}
        kedges = []
        kmap = {}
        for a, b, w, eid in lvl.ei:
            if a in hidx and b in hidx:
                key = (hidx[a], hidx[b]) if hidx[a] < hidx[b] else (hidx[b], hidx[a])
                kedges.append(key)
                kmap[key] = eid
        kg = UnweightedGraph(len(high), kedges)
        for a, b in hz_spanner(kg, lvl.ctx.k):
            eid = kmap[(a, b) if (a, b) in kmap else (b, a)]
            if eid not in picked:
                c2 += 1
            picked.add(eid)
    for a, b, w, eid in lvl.ei:
        if lvl.deg[a] < tau or lvl.deg[b] < tau:
            if eid not in picked:
                c3 += 1
            picked.add(eid)
    return picked, [c1, c2, c3]


def _finish_level(lvl: _Level, sigma: int, i: int, degenerate: bool,
                  picked: set[int], counts: list[int]):
    ctx = lvl.ctx
    live = [x for x in lvl.xs if x.nodes]
    piece_of = [0] * lvl.count
    for t, x in enumerate(live):
        for v in x.nodes:
            piece_of[v] = t
    new_state = _next_state(lvl.state, [x.nodes for x in live], piece_of,
                            [x.adm(lvl.pot) for x in live], lvl.li)
    y_count = sum(1 for v in range(lvl.count) if lvl.nonisolated[v])
    n_after = new_state.n_nodes
    if ctx.check is not None:
        _audit_level(lvl, sigma, i, degenerate, live, new_state.pot, n_after, y_count)

    phi_before = lvl.state.phi
    phi_after = new_state.phi
    a_i = sum(ctx.g.edges[eid][2] for eid in picked) if degenerate else 0.0
    row = {
        "sigma": sigma, "i": i, "v_nodes": lvl.count, "e_edges": len(lvl.ei),
        "y_nodes": y_count, "n_nodes": n_after, "phi": phi_before,
        "delta": phi_before - phi_after, "a_i": a_i,
        "step_edge_counts": counts, "degenerate": degenerate,
    }
    if ctx.check is not None:
        _audit_cycle_property(lvl)
    return row, new_state


def _audit_level(lvl: _Level, sigma: int, i: int, degenerate: bool,
                 live: list[Subgraph], adm: list[float], n_after: int,
                 y_count: int) -> None:
    """The level's partition, per-subgraph Adm, size, potential and
    separation invariants, and the real-node count it removed."""
    ctx = lvl.ctx
    ctx.check("p1-partition", all(lvl.assigned[v] != -1 for v in range(lvl.count)),
              f"sigma={sigma} i={i}")
    dplus_ok = True
    good_ok = True
    upper = ctx.gconst * lvl.li * (1 + 1e-9)
    lower = lvl.li * (1 - 1e-9) if len(live) > 1 else 0.0
    size_floor = 1.0 / (4 * ctx.eps)
    for x, x_adm in zip(live, adm):
        dplus = sum(lvl.pot[v] for v in x.nodes) - x_adm + _audit_tree_weight(x)
        if dplus < -1e-9 * max(1.0, x_adm):
            dplus_ok = False
        if not _is_good(lvl, x):
            good_ok = False
        ctx.check("p3-adm", lower <= x_adm <= upper,
                  f"sigma={sigma} i={i} step={x.step} adm={x_adm} li={lvl.li}")
        ctx.check("p2-size-warning", len(x.nodes) >= min(size_floor, lvl.count),
                  f"|V(X)|={len(x.nodes)}")
    ctx.check("dplus-nonnegative", dplus_ok, f"sigma={sigma} i={i}")
    ctx.check("goodness", good_ok, f"sigma={sigma} i={i}")

    if not degenerate:
        tau = ctx.tau_high
        kind = [""] * len(lvl.xs)       # high / low+ / low- of each live subgraph
        for xid, x in enumerate(lvl.xs):
            if not x.nodes:
                continue
            if any(lvl.deg[v] >= tau for v in x.nodes):
                kind[xid] = "high"
            elif x.step == "piece" and not x.endpoint_piece:
                kind[xid] = "low-"
            else:
                kind[xid] = "low+"
        sep_ok = True
        for a, b, w, eid in lvl.ei:
            ka = "high" if lvl.deg[a] >= tau else kind[lvl.assigned[a]]
            kb = "high" if lvl.deg[b] >= tau else kind[lvl.assigned[b]]
            if {ka, kb} == {"high", "low-"} or (ka == kb == "low-"):
                sep_ok = False
        ctx.check("low-minus-separation", sep_ok, f"sigma={sigma} i={i}")

    n_before = lvl.state.n_nodes
    ctx.check(
        "n-reduction", n_before - n_after >= y_count / 2,
        f"sigma={sigma} i={i} before={n_before} after={n_after} y={y_count}",
    )


def _audit_cycle_property(lvl: _Level) -> None:
    """Every virtual node on a level edge's fundamental tree cycle has a
    parent MST edge no heavier than the level edge."""
    if not lvl.ei:
        return
    mst_weight = lvl.ctx.sub.mst_weight
    parent, order = _root_tree(lvl.adj, lvl.count)
    depth = [0] * lvl.count
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    ok = True
    for a, b, w, eid in lvl.ei:
        x, y = a, b
        while x != y:
            if depth[x] < depth[y]:
                x, y = y, x
            if lvl.state.virtual[x]:
                peid = lvl.state.par_eid[x]
                if peid >= 0 and not mst_weight[peid] <= w * (1 + 1e-9):
                    ok = False
            x = parent[x]
        if lvl.state.virtual[x]:
            peid = lvl.state.par_eid[x]
            if peid >= 0 and not mst_weight[peid] <= w * (1 + 1e-9):
                ok = False
    lvl.ctx.check("cycle-property", ok, f"edges={len(lvl.ei)}")
