"""Per-level machinery of the sparse+light construction: contracted cluster
graphs with node potentials, the five clustering steps, long-path breaking,
and the three-step edge selection.

Cluster state is rebuilt wholesale between levels: a level's subgraph
collection becomes the next level's node set, node weights are the
subgraphs' augmented diameters, and the contracted spanning tree is
re-derived from the crossing subdivided-tree edges.  A state owns the views
derived from it: its tree adjacency, its one rooting (parent, preorder and
parent-edge weight) and its `TreeLCA` are built on first use and once,
however many carves, levels, audits and classes read them.

Steps 2-5 find the level's unassigned tree pieces with one walk per piece
(`_pieces`), which records a piece's nodes in discovery order, each node's
walk parent and in-piece neighbours; a piece's Adm, branching nodes, path
order and absorption order are all read from that one walk.  A walked
tree or path keeps the tree-edge weights its walk read, and one routine
(`_absorb_tree`) absorbs it into a subgraph.

G (`G_LIGHT`) and `FILTER_SLACK` are defined here, and `StepContext`
derives F (`filter_factor`) and tau (`tau_high`) from them: the filter in
`build_cluster_graph` and `light`'s empty-level bound read the same F.

Each audit hook is one call into `audits` under `if ctx.check is not
None`, which derives what only it reads; a plain build enters no audit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

from .dsu import ClassicUF
from .graphs import WeightedGraph
from .hz import UnweightedGraph, hz_spanner
from .pm import dedupe_source_edges
from . import audits


G_LIGHT = 42                # cluster-diameter constant: subgraph Adm <= g*L_i
FILTER_SLACK = 6 * G_LIGHT  # tree-path filter keeps only stretch > (2k-1)(1+6g*eps')


@dataclass
class StepContext:
    g: WeightedGraph
    sub: object                 # SubdividedMst; loose to avoid an import cycle
    k: int
    eps: float
    check: Optional[audits.Check] = None    # audits iff given

    @cached_property
    def filter_factor(self) -> float:
        """F, derived once: the filter drops an edge of tree path <= F*w."""
        return (2 * self.k - 1) * (1.0 + FILTER_SLACK * self.eps)

    @property
    def tau_high(self) -> int:
        return math.ceil(2 * G_LIGHT / self.eps)


@dataclass
class ClassState:
    """One level's clusters over the subdivided tree (treated immutably)."""

    count: int
    pot: list[float]            # node weight = potential = formation Adm
    virtual: list[bool]
    tree: list[tuple[int, int, float, int]]   # contracted spanning tree
    cl_of_sub: list[int]
    scale: float                # scale the clusters were formed at

    # a state outlives many levels (ladder rungs serve many classes), so its
    # totals and tree views are built once, on first use; a total is summed
    # over the same list in the same order as a plain sum
    @cached_property
    def phi(self) -> float:
        """Potential Phi: the sum of the node potentials."""
        return sum(self.pot)

    @cached_property
    def reach(self) -> float:
        """Phi + W: the potential plus the contracted tree's weight.  Every
        augmented tree distance between two nodes sums some of these terms,
        so none exceeds it."""
        return self.phi + sum(w for _, _, w, _ in self.tree)

    @cached_property
    def n_nodes(self) -> int:
        """Clusters holding at least one real vertex."""
        return sum(1 for v in self.virtual if not v)

    @cached_property
    def adj(self) -> list[list[tuple[int, float, int]]]:
        """Each node's tree neighbours as (node, weight, sub-edge id)."""
        adj: list[list[tuple[int, float, int]]] = [[] for _ in range(self.count)]
        for a, b, w, sid in self.tree:
            adj[a].append((b, w, sid))
            adj[b].append((a, w, sid))
        return adj

    @cached_property
    def rooted(self) -> tuple[list[int], list[int], list[float]]:
        """The tree rooted at node 0: parents, preorder, parent-edge weights."""
        return _root_tree(self.adj, self.count)

    @cached_property
    def lca(self) -> TreeLCA:
        """Augmented tree distances between this state's nodes."""
        return TreeLCA(self)


# ---------------------------------------------------------------- bases


def singleton_state(sub) -> ClassState:
    n = sub.n_total
    return ClassState(
        count=n,
        pot=[0.0] * n,
        virtual=[v >= sub.n_real for v in range(n)],
        tree=list(sub.edges),
        cl_of_sub=list(range(n)),
        scale=0.0,
    )


def carved_state(base: ClassState, scale: float, ctx: StepContext) -> ClassState:
    """Base clusters: the singleton state `base` carved into subtrees of
    diameter in [scale, ~6*scale] (single piece exempt from the lower
    bound)."""
    state, _ = _carve_tree(base, scale)
    if ctx.check is not None:
        audits.carve(ctx.check, state, scale)
    return state


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
        audits.coarsen(ctx.check, state, new, piece_of, sigma, i)
    return new


def _carve_tree(state: ClassState, scale: float) -> tuple[ClassState, list[int]]:
    """Carve the (possibly contracted) tree into pieces of augmented
    diameter >= scale (except a lone piece) and O(scale)."""
    count = state.count
    pot = state.pot
    adj = state.adj
    parent, order, _ = state.rooted

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


def _root_tree(adj, count: int) -> tuple[list[int], list[int], list[float]]:
    """The tree `adj` rooted at node 0: every node's parent (-1 for the
    root), the nodes in preorder (each subtree a contiguous run), and every
    node's parent-edge weight (0.0 for the root)."""
    parent = [-2] * count
    parent[0] = -1
    up_w = [0.0] * count
    order: list[int] = []
    stack = [0]
    while stack:
        v = stack.pop()
        order.append(v)
        for u, w, sid in adj[v]:
            if parent[u] == -2:
                parent[u] = v
                up_w[u] = w
                stack.append(u)
    return parent, order, up_w


def _next_state(state: ClassState, parts: list[list[int]], part_of: list[int],
                adm: list[float], scale: float) -> ClassState:
    """The clusters formed at `scale` by merging each part (a list of
    `state`'s nodes; `part_of` maps a node to its part) into one node of
    potential `adm[part]`."""
    n_parts = len(parts)
    virtual = [all(state.virtual[v] for v in mem) for mem in parts]
    return ClassState(
        count=n_parts, pot=adm, virtual=virtual,
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
    included) over the state's rooting.

    For nodes a != b with a first in preorder, the nodes after a up to b
    lie in their LCA's subtree and include the LCA's child toward b, so the
    LCA is the shallowest parent among them: the parent with the smallest
    preorder position, a sparse-table minimum over those positions."""

    def __init__(self, state: ClassState):
        parent, order, up_w = state.rooted
        pot = state.pot
        self.pot = pot
        self.order = order
        dist = [0.0] * state.count     # root path: all node weights + edges
        dist[0] = pot[0]
        for v in order[1:]:
            dist[v] = dist[parent[v]] + up_w[v] + pot[v]
        self.dist = dist
        pos = [0] * state.count
        for t, v in enumerate(order):
            pos[v] = t
        self.pos = pos
        # row j holds the minimum parent position over preorder windows of 2**j
        row = [0] + [pos[parent[v]] for v in order[1:]]
        table = [row]
        span = 1
        while 2 * span <= state.count:
            table.append([x if x < y else y for x, y in zip(row, row[span:])])
            row = table[-1]
            span *= 2
        self.table = table

    def lca(self, a: int, b: int) -> int:
        if a == b:
            return a
        x, y = self.pos[a], self.pos[b]
        if x > y:
            x, y = y, x
        j = (y - x).bit_length() - 1
        row = self.table[j]
        return self.order[min(row[x + 1], row[y - (1 << j) + 1])]

    def aug_dist(self, a: int, b: int) -> float:
        if a == b:
            return self.pot[a]
        anc = self.lca(a, b)
        return self.dist[a] + self.dist[b] - 2 * self.dist[anc] + self.pot[anc]


# ---------------------------------------------------------------- cluster graph


def build_cluster_graph(
    state: ClassState,
    bucket: list[int],
    ctx: StepContext,
) -> list[tuple[int, int, float, int]]:
    """Level edge set: bucket edges of `ctx.g` mapped to cluster pairs,
    self-loops dropped, parallels deduped to the lightest (pm's dedupe),
    and edges whose augmented tree path is at most F*w dropped (F =
    `ctx.filter_factor`)."""
    g = ctx.g
    best = dedupe_source_edges(bucket, g, state.cl_of_sub.__getitem__)
    lca, factor = state.lca, ctx.filter_factor
    out = []
    for (ca, cb), eid in sorted(best.items()):
        w = g.edges[eid][2]
        if lca.aug_dist(ca, cb) <= factor * w * (1 + 1e-12):
            continue
        out.append((ca, cb, w, eid))
    return out


def has_high_degree(ei, ctx: StepContext) -> bool:
    deg: dict[int, int] = {}
    tau = ctx.tau_high
    for a, b, w, eid in ei:
        deg[a] = da = deg.get(a, 0) + 1
        deg[b] = db = deg.get(b, 0) + 1
        if da >= tau or db >= tau:
            return True
    return False


def trivial_row(sigma: int, i: int, state: Optional[ClassState], bucket: int,
                added: int = 0, skipped: bool = False) -> dict:
    """Row of a level that runs no step: its cluster graph is empty, or all
    `added` of its edges are kept whole.  A `skipped` level built no cluster
    graph at all; one skipped before its class built a state (`state` None)
    reports no clusters and no potential."""
    count, n_nodes, phi = (0, 0, 0.0) if state is None else (
        state.count, state.n_nodes, state.phi)
    row = {
        "sigma": sigma, "i": i, "v_nodes": count, "e_edges": added,
        "y_nodes": 0, "n_nodes": n_nodes,
        "phi": phi, "delta": 0.0, "a_i": 0.0,
        "step_edge_counts": [0, 0, added], "degenerate": False,
        "bucket_edges": bucket,
    }
    if skipped:
        row["skipped"] = True
    return row


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
        self.adj = state.adj
        self.pot = state.pot
        self.count = state.count
        self.deg = [0] * state.count     # level edges at each node
        for a, b, w, eid in ei:
            self.deg[a] += 1
            self.deg[b] += 1
        tau = ctx.tau_high
        self.high = [v for v, d in enumerate(self.deg) if d >= tau]  # ascending
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

    def unassigned(self) -> list[int]:
        return [v for v in range(self.count) if self.assigned[v] == -1]


class _Piece(NamedTuple):
    """A connected piece of the contracted tree, walked once from nodes[0]."""

    nodes: list[int]                            # in discovery order
    up: dict[int, tuple[int, float]]            # walk parent, edge weight (not nodes[0])
    nbrs: dict[int, list[tuple[int, float]]]    # in-piece neighbours, in adj order

    def adm(self, pot: list[float]) -> float:
        return _tree_adm(self.nodes, self.nbrs, pot)

    def branching(self) -> list[int]:
        return sorted(v for v in self.nodes if len(self.nbrs[v]) >= 3)

    def is_path(self) -> bool:
        return all(len(nb) <= 2 for nb in self.nbrs.values())

    def path(self) -> tuple[list[int], dict[int, tuple[int, float]]]:
        """A path piece's nodes in path order, from its smallest end, and
        each later node's tree edge (node before it, weight)."""
        up: dict[int, tuple[int, float]] = {}
        if len(self.nodes) == 1:
            return list(self.nodes), up
        ends = [v for v in self.nodes if len(self.nbrs[v]) == 1]
        if not ends:
            raise AssertionError("path component without an endpoint")
        prev, cur = -1, min(ends)
        path = [cur]
        while True:
            nxt = next(((u, w) for u, w in self.nbrs[cur] if u != prev), None)
            if nxt is None:
                return path, up
            prev, cur = cur, nxt[0]
            path.append(cur)
            up[cur] = (prev, nxt[1])


def _pieces(lvl: _Level, nodes: list[int]) -> list[_Piece]:
    """The connected pieces of the tree restricted to `nodes`, each walked
    once by a stack over `adj`, from its first node in `nodes`."""
    adj = lvl.adj
    member = set(nodes)
    seen: set[int] = set()
    out = []
    for s in nodes:
        if s in seen:
            continue
        seen.add(s)
        order = [s]
        up: dict[int, tuple[int, float]] = {}
        nbrs: dict[int, list[tuple[int, float]]] = {}
        st = [s]
        while st:
            v = st.pop()
            inside = nbrs[v] = []
            for u, w, sid in adj[v]:
                if u in member:
                    inside.append((u, w))
                    if u not in seen:
                        seen.add(u)
                        up[u] = (v, w)
                        order.append(u)
                        st.append(u)
        out.append(_Piece(order, up, nbrs))
    return out


def _absorb_tree(lvl: _Level, xid: int, nodes: list[int],
                 up: dict[int, tuple[int, float]]) -> None:
    """Absorb `nodes` in order into subgraph xid, each through its tree
    edge up[v] = (u, w), or alone when it has no entry in `up`."""
    for v in nodes:
        edge = up.get(v)
        lvl.absorb(xid, v, via=None if edge is None else (edge[0], edge[1], True))


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
    high = lvl.high
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
    for phi in high:
        if lvl.assigned[phi] != -1:
            continue
        # ei has no self-loop (the cluster graph drops them)
        free = [entry for entry in kadj[phi] if lvl.assigned[entry[0]] == -1]
        if not free:
            continue
        xid = lvl.new_x("star")
        lvl.absorb(xid, phi)
        step1_nodes.add(phi)
        for u, idx in free:
            if lvl.assigned[u] != -1:   # also a repeated neighbour
                continue
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
        if x.step == "star" and x.nodes:
            _pad_to_min_adm(lvl, xid)


def _pad_to_min_adm(lvl: _Level, xid: int) -> None:
    """Grow a subgraph along unassigned tree neighbors until Adm >= L_i."""
    x = lvl.xs[xid]
    adm = x.adm(lvl.pot)
    # every pass absorbs one unassigned node or stops
    while adm < lvl.li * (1 - 1e-12):
        pick = None
        for v in x.nodes:
            for u, w, sid in lvl.adj[v]:
                if lvl.assigned[u] == -1 and (pick is None or (v, u) < pick[:2]):
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
    worklist = _pieces(lvl, lvl.unassigned())
    balls: list[int] = []           # xid of carved balls
    while worklist:
        piece = worklist.pop()
        if len(piece.nodes) == 1:   # a lone node has no branching node
            continue
        if piece.adm(lvl.pot) < 6 * li:
            continue
        branch = piece.branching()
        if not branch:
            continue
        center = min(
            branch, key=lambda v: (not lvl.deg[v], v)
        )
        balls.append(_carve_ball(lvl, center, piece, 2 * li))
        worklist.extend(_pieces(lvl, [v for v in piece.nodes if lvl.assigned[v] == -1]))

    # post-process: balls holding a non-isolated node need a second
    # non-virtual node; attach to a high tree or merge into a neighbor ball.
    # Every pass that changes something empties a ball, and an empty ball
    # is never a merge target again, so the passes end
    changed = True
    while changed:
        changed = False
        for xid in balls:
            x = lvl.xs[xid]
            if not x.nodes or _is_good(lvl, x):
                continue
            hook = (_adjacent_subgraph(lvl, xid, prefer="star")
                    or _adjacent_subgraph(lvl, xid, prefer="ball2")
                    or _adjacent_subgraph(lvl, xid, prefer="any"))
            if hook is None:
                if ctx.check is not None:
                    audits.stranded_ball(ctx.check, x)
                continue
            other, bridge = hook
            lvl.merge_into(xid, other, bridge)
            changed = True
    if ctx.check is not None:
        audits.balls(ctx.check, lvl, balls)


def _carve_ball(lvl: _Level, center: int, piece: _Piece, radius: float) -> int:
    """Ball around center inside `piece` (a tree, all of whose nodes are
    unassigned) by augmented distance; nodes reaching >= radius are
    included but not expanded.  In a tree each node is reached once, from
    its parent, so a stack walk finds every node's distance."""
    xid = lvl.new_x("ball")
    pot = lvl.pot
    order: list[int] = []
    via: dict[int, tuple[int, float]] = {}
    st = [(center, -1, pot[center])]
    while st:
        v, parent, d = st.pop()
        order.append(v)
        if d >= radius:
            continue
        for u, w in piece.nbrs[v]:
            if u != parent:
                via[u] = (v, w)
                st.append((u, v, d + w + pot[u]))
    _absorb_tree(lvl, xid, order, via)
    return xid


def _is_good(lvl: _Level, x: Subgraph) -> bool:
    if not any(lvl.deg[v] for v in x.nodes):
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
    return None if best is None else best[:2]


# ---------------------------------------------------------------- step 3


def step3_absorb_branching(lvl: _Level) -> None:
    """Remove tree-branching nodes from long paths by attaching each to an
    adjacent already-formed subgraph."""
    for piece in _pieces(lvl, lvl.unassigned()):
        if not piece.is_path() or piece.adm(lvl.pot) < 6 * lvl.li:
            continue
        for v in sorted(piece.nodes):
            if len(lvl.adj[v]) < 3:
                continue
            hook = _segment_hook(lvl, [v])
            if hook is not None:
                other, (u, _, w, _) = hook
                lvl.absorb(other, v, via=(u, w, True))


# ---------------------------------------------------------------- step 4


def step4_blue_edges(lvl: _Level) -> None:
    """Eliminate level edges between deep-interior (blue) nodes of long
    paths by carving radius-L_i segments around both endpoints into one
    subgraph holding that single edge."""
    li = lvl.li
    # every pass absorbs `a`, the picked edge's unassigned end, so no edge
    # is picked twice and the passes end
    while True:
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
        _absorb_tree(lvl, xid, *_path_segment(lvl, a, li))
        if lvl.assigned[b] == -1:
            # b's run is a second tree; the level edge joins it to a's
            _absorb_tree(lvl, xid, *_path_segment(lvl, b, li))
            lvl.xs[xid].graph_edges.append((a, b, w, False))
        lvl.xs[xid].ei_idx.append(pick)
        if lvl.ctx.check is not None:
            audits.blue_pair(lvl.ctx.check, lvl, lvl.xs[xid])


def _blue_nodes(lvl: _Level) -> set[int]:
    blue: set[int] = set()
    for piece in _pieces(lvl, lvl.unassigned()):
        if not piece.is_path():
            continue
        path, up = piece.path()
        total, pos = _path_positions(lvl, path, up)
        if total < 6 * lvl.li:
            continue
        for idx, v in enumerate(path):
            if pos[idx] > lvl.li and total - pos[idx] + lvl.pot[v] > lvl.li:
                blue.add(v)
    return blue


def _path_positions(lvl: _Level, path: list[int],
                    up: dict[int, tuple[int, float]]) -> tuple[float, list[float]]:
    """pos[i] = augmented distance from path start to node i (inclusive),
    where up[v] = (u, w) is each later node's edge to the node before it;
    returns (total augmented length, positions)."""
    pos = [lvl.pot[path[0]]]
    for v in path[1:]:
        pos.append(pos[-1] + up[v][1] + lvl.pot[v])
    return pos[-1], pos


def _path_segment(
    lvl: _Level, center: int, radius: float
) -> tuple[list[int], dict[int, tuple[int, float]]]:
    """Contiguous unassigned run around `center` on its path, spanning
    augmented radius `radius` on each side, and each other node's tree
    edge (u, w) to its run neighbour u toward the centre."""
    run = [center]
    up: dict[int, tuple[int, float]] = {}
    nxts = [(u, w) for u, w, sid in lvl.adj[center] if lvl.assigned[u] == -1]
    for direction, (cur, w) in enumerate(nxts[:2]):
        prev = center
        acc = 0.0
        while True:
            acc += w + lvl.pot[cur]
            up[cur] = (prev, w)
            if direction == 0:
                run.insert(0, cur)
            else:
                run.append(cur)
            if acc >= radius:
                break
            candidates = [(u, w2) for u, w2, sid in lvl.adj[cur]
                          if u != prev and lvl.assigned[u] == -1]
            if not candidates:
                break
            prev, (cur, w) = cur, candidates[0]
    return run, up


# ---------------------------------------------------------------- step 5


def step5_paths(lvl: _Level) -> None:
    li = lvl.li
    for piece in _pieces(lvl, lvl.unassigned()):
        if piece.adm(lvl.pot) <= 6 * li:
            hook = _component_hook(lvl, piece.nodes)
            if hook is not None:
                other, bridge = hook
                xid = lvl.new_x("small")
                _absorb_tree(lvl, xid, piece.nodes, piece.up)
                lvl.merge_into(xid, other, bridge)
            else:
                # whole remaining tree: a standalone subgraph
                xid = lvl.new_x("whole")
                _absorb_tree(lvl, xid, piece.nodes, piece.up)
            continue
        path, up = piece.path()
        segs = [path[a:b + 1] for a, b in break_long_path(lvl, path, up)]
        # hooks must target subgraphs that existed before this path was
        # broken, never sibling pieces: resolve them before absorbing
        hooks = [_segment_hook(lvl, seg) for seg in segs]
        for seg, hook in zip(segs, hooks):
            xid = lvl.new_x("piece")
            if lvl.ctx.check is not None:
                lvl.xs[xid].endpoint_piece = seg[0] == path[0] or seg[-1] == path[-1]
            up.pop(seg[0], None)    # a segment's first node enters alone
            _absorb_tree(lvl, xid, seg, up)
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
    return None if best is None else best[:2]


def _segment_hook(lvl: _Level, seg: list[int]):
    for v in (seg[0], seg[-1]):
        for u, w, sid in lvl.adj[v]:
            other = lvl.assigned[u]
            if other != -1 and lvl.xs[other].nodes:
                return other, (u, v, w, True)
    return None


def break_long_path(lvl: _Level, path: list[int],
                    up: dict[int, tuple[int, float]]) -> list[tuple[int, int]]:
    """Break a degree-2 path into index ranges with augmented diameter in
    [L_i, 7L_i]: contract to non-virtual/endpoint skeleton nodes with run
    weights, keep skeleton edges <= 2L_i, chunk kept runs into 1..3-edge
    groups, expand back, split gap ranges to [L_i, ~2L_i], then repair any
    under-length piece by merging (and re-splitting oversized merges)."""
    li = lvl.li
    n = len(path)
    total, pos = _path_positions(lvl, path, up)

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
        audits.path_pieces(lvl.ctx.check, lvl, path, pos, pieces)
    return pieces


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
        # merge into the next piece, or into the previous one for the last
        t = bad if bad + 1 < len(pieces) else bad - 1
        a, b = pieces[t][0], pieces[t + 1][1]
        pieces[t:t + 2] = [(a, b)]
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
            if lvl.ctx.check is not None:
                audits.min_adm(lvl.ctx.check, lvl, x)
            return
        other, bridge = hook
        lvl.merge_into(xid, other, bridge)


def select_level_edges(lvl: _Level) -> tuple[set[int], list[int]]:
    """Three selection steps: subgraph-internal edges, an unweighted
    (2k-1)-spanner among high nodes, and everything at low nodes."""
    tau = lvl.ctx.tau_high
    picked = {lvl.ei[idx][3] for x in lvl.xs for idx in x.ei_idx}
    c1 = len(picked)
    high = lvl.high
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
            picked.add(kmap[(a, b) if (a, b) in kmap else (b, a)])
    c2 = len(picked) - c1
    picked.update(eid for a, b, w, eid in lvl.ei
                  if lvl.deg[a] < tau or lvl.deg[b] < tau)
    return picked, [c1, c2, len(picked) - c1 - c2]


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
    y_count = sum(1 for d in lvl.deg if d)
    if ctx.check is not None:
        audits.level(ctx.check, lvl, sigma, i, degenerate, live, new_state, y_count)

    phi_before = lvl.state.phi
    a_i = sum(ctx.g.edges[eid][2] for eid in picked) if degenerate else 0.0
    row = {
        "sigma": sigma, "i": i, "v_nodes": lvl.count, "e_edges": len(lvl.ei),
        "y_nodes": y_count, "n_nodes": new_state.n_nodes, "phi": phi_before,
        "delta": phi_before - new_state.phi, "a_i": a_i,
        "step_edge_counts": counts, "degenerate": degenerate,
    }
    if ctx.check is not None:
        audits.cycle_property(ctx.check, lvl)
    return row, new_state
