"""Sparse + light pipeline: light/heavy split, subdivided MST, per-class
potential-driven cluster hierarchy, and three-step edge selection.

The heavy side works over the MST subdivided at granularity
wbar = w(MST)/(m*eps): clusters are subgraphs of the subdivided tree (plus
selected bucket edges), each cluster carries a potential equal to the
augmented diameter it was formed with, and every level's spanner weight is
paid for by the potential drop.  The heavy non-MST edges are bucketed by
`buckets.partition_edges` on the grid based at wbar.  Light edges plus the
MST go through pm's levels (`pm.build_levels`), run on g's own edge ids:
the pool is not copied into a graph of its own, and only its weights are
normalized, so a discarded edge may stretch g's weight range as far as it
likes.  The MST itself is always included.

Per-class setup costs what the class touches: the singleton state and each
carve-ladder rung (a carve of that one singleton state) are built once per
build and shared by every class that enters there.  A state owns its tree
adjacency and LCA, built on first use, and sums its potential total, its
reach (potential plus tree weight) and real cluster count once, however
many trivial levels report them.

A build skips every level that a potential bound shows empty: no
augmented tree distance exceeds a state's reach, and a level raises the
reach by at most the weight of its cluster-graph edges, so once the filter
factor F (`StepContext.filter_factor`, which the filter reads too) times a
level's cell floor passes that bound, the level and the rest of its class
are logged as skipped, before any state, carve, LCA or cluster graph is
built for them.  A level with no high-degree node whose
later levels the bound rules out keeps its edges whole, without the five
steps.  `_build_heavy` gives the proof; audited builds run the same levels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .buckets import check_eps, check_k, partition_edges, threshold
from .graphs import WeightedGraph, minimum_spanning_tree
from .linear import per_component
from .pm import build_levels
from .lightsteps import FILTER_SLACK, G_LIGHT  # noqa: F401 (both importable here)
from .spanner import Spanner
from . import audits, lightsteps as steps

# spanbench's tracer looks these names up on this module with getattr; the
# calls run through linear.per_component and pm.build_levels, so the names
# are only kept importable
from .graphs import connected_components, induced_subgraph  # noqa: F401,E402
from .pm import build_pm  # noqa: F401,E402
from .spanner import graph_hash  # noqa: F401,E402

EPS_SCALE_LIGHT = 10 * G_LIGHT + 1  # stretch chain ends at (2k-1)(1+(10g+1)eps')
REACH_MARGIN = 1e-9                 # float slack of the empty-level bound (see _build_heavy)


def internal_eps_light(eps: float) -> float:
    check_eps(eps)
    return min(eps / EPS_SCALE_LIGHT, 1.0 / (4 * G_LIGHT))


# ---------------------------------------------------------------- split


def split_light_heavy(
    g: WeightedGraph, eps: float, mst_weight: float
) -> tuple[list[int], list[int], int]:
    """Edge ids (light, heavy, discarded-count).

    Light: w <= w(MST)/(m*eps).  Heavy: the rest, except edges of weight
    >= w(MST), which the MST already spans within stretch 1 and are
    discarded outright.
    """
    threshold = mst_weight / (g.m * eps)
    light: list[int] = []
    heavy: list[int] = []
    discarded = 0
    for eid, (_, _, w) in enumerate(g.edges):
        if w <= threshold:
            light.append(eid)
        elif w < mst_weight:
            heavy.append(eid)
        else:
            discarded += 1
    return light, heavy, discarded


# ---------------------------------------------------------------- subdivide


@dataclass
class SubdividedMst:
    n_real: int
    n_total: int
    # tree edges (a, b, w, parent_eid); parent_eid indexes the MST edge list,
    # and ids >= n_real are virtual vertices inside one MST edge
    edges: list[tuple[int, int, float, int]]
    wbar: float = 0.0


def subdivide_mst(mst, wbar: float, n_real: int) -> SubdividedMst:
    """Split every tree edge heavier than wbar into ceil(w/wbar) sub-edges
    of weight wbar apiece with a lighter last piece; total weight kept."""
    if wbar <= 0:
        raise ValueError("wbar must be positive")
    out = SubdividedMst(n_real=n_real, n_total=n_real, edges=[], wbar=wbar)
    for peid, (u, v, w) in enumerate(mst.edges):
        pieces = max(1, math.ceil(w / wbar - 1e-12))
        if pieces == 1:
            out.edges.append((u, v, w, peid))
            continue
        prev = u
        remaining = w
        for _ in range(pieces - 1):
            mid = out.n_total
            out.n_total += 1
            out.edges.append((prev, mid, wbar, peid))
            prev = mid
            remaining -= wbar
        out.edges.append((prev, v, remaining, peid))
    return out


# ---------------------------------------------------------------- build


def build_light(
    g: WeightedGraph,
    k: int,
    eps: float,
    check: Optional[audits.Check] = None,
) -> Spanner:
    """(2k-1)(1+eps)-spanner with bounded lightness and sparsity.

    Output = pm-spanner of (light edges + MST)  +  heavy-side selection
    + the MST itself.  `check(name, ok, detail)`, when given, turns the
    structural audits on and receives their outcomes.
    """
    # checked here, not per component: the split divides by eps before the
    # heavy side would check it, and an edgeless graph reaches neither
    check_k(k, eps)
    check_eps(eps)
    return per_component(g, "light", k, eps, _build_connected, check)


def _build_connected(
    g: WeightedGraph,
    k: int,
    eps: float,
    check: Optional[audits.Check],
) -> Spanner:
    """Spanner of a connected g; the caller fills in source_hash."""
    ops: dict = {"pm_uf": 0, "hz": 0, "level_work": 0}
    if g.m == 0:
        return Spanner(algo="light", k=k, eps=eps, n=g.n, edges=[], ops=ops)
    mst = minimum_spanning_tree(g)
    mst_eids = set(mst.eids)

    light_ids, heavy_ids, _ = split_light_heavy(g, eps, mst.weight)

    # light part through pm's levels, on g's own ids of the light edges
    # and the MST; the MST enters whole, whatever those levels keep
    pm_ops = {"uf": 0, "hz": 0}
    chosen, _ = build_levels(g, sorted(mst_eids.union(light_ids)), k, eps,
                             pm_ops, check)
    chosen |= mst_eids
    ops["pm_uf"], ops["hz"] = pm_ops["uf"], pm_ops["hz"]

    levels_log: list[dict] = []
    heavy_pool = [e for e in heavy_ids if e not in mst_eids]
    if heavy_pool:
        _build_heavy(
            g, mst, heavy_pool, k, eps, check,
            chosen, levels_log, ops,
        )

    edges = [g.edges[e] for e in sorted(chosen)]
    return Spanner(algo="light", k=k, eps=eps, n=g.n, edges=edges,
                   levels=levels_log, ops=ops)


def _build_heavy(
    g: WeightedGraph,
    mst,
    heavy_pool: list[int],
    k: int,
    eps: float,
    check,
    chosen: set[int],
    levels_log: list[dict],
    ops: dict,
) -> None:
    """Heavy side: each weight class's levels over the subdivided MST.

    A build skips every level that a potential bound shows empty.  Let F
    be `ctx.filter_factor`, reach = Phi + W (a state's potential plus its
    contracted tree's weight, `ClassState.reach`), and T the lower bound
    T_{j-1} of level i's grid cell j = i*mu + sigma: every bucket edge of
    the level weighs w > T, in floats too (`bucket_raw_index`), and later
    levels of the class have higher cells.

    (a) A level with no high-degree node keeps all of `ei`: the third
        selection step keeps every edge with a low-degree end.
    (b) In any state, `aug_dist(a, b)` <= reach: an augmented tree path
        sums some nodes' potentials and some tree edges, all nonnegative.
    (c) A state's successor has reach at most reach + sum(w(ei)) after a
        processed level, and at most reach after a carve or `coarsen`: a
        new cluster's Adm is at most its nodes' potentials plus its
        internal edges (tree edges and level edges), and the new tree
        keeps only crossing edges of the old one.  The singleton state has
        reach w(MST), so every state a class enters with has reach at most
        w(MST).
    (d) `build_cluster_graph` drops an edge whose `aug_dist` <= F*w.  If
        F*T >= R for a bound R on the reach of every state the class can
        hold from level i on, then by (b) every edge of those levels is
        dropped, and by (c) the states they would build keep the bound.

    So the class's remaining levels are empty, and logged as skipped rows
    without a state, carve, `coarsen`, LCA or cluster graph, when F*T >= R
    with R = w(MST) before the class built a state, and R = state.reach
    once it has one (checked before a state is built or coarsened, and
    again after).  A level whose `ei` has no high-degree node keeps `ei`
    whole and ends the class when no later level exists or
    F*T_next >= reach + sum(w(ei)).

    Every test multiplies R by 1 + REACH_MARGIN.  Reach, w(MST) and
    `aug_dist` are float sums of at most |V~| + |E~| nonnegative terms (a
    potential being itself such a sum over the state before), whose
    relative error is at most that count times 2**-53 per nesting; 1e-9
    covers it up to millions of terms.  A level skipped within the margin
    would drop only edges whose tree path is within F*(1 + 1e-9) of their
    weight, still inside the stretch target, whose slack over F is
    (4g+1)*eps'.
    """
    eps_i = internal_eps_light(eps)
    wbar = mst.weight / (g.m * eps)
    sub = subdivide_mst(mst, wbar, g.n)

    buckets = partition_edges(g, heavy_pool, eps_i, wbar)
    mu = buckets.mu

    ctx = steps.StepContext(g=g, sub=sub, k=k, eps=eps_i, check=check)
    base = steps.singleton_state(sub)
    ladder: dict[int, steps.ClassState] = {}

    def empty_from(sigma: int, i: int, reach: float) -> bool:
        """Class sigma's levels from i on are empty in every state of
        reach at most `reach`."""
        return ctx.filter_factor * threshold(
            i * mu + sigma - 1, eps_i, wbar) >= reach * (1 + REACH_MARGIN)

    for sigma in buckets.classes():
        level_ids = buckets.levels(sigma)
        state: Optional[steps.ClassState] = None
        done = len(level_ids)   # levels from here on are skipped
        for t, i in enumerate(level_ids):
            if empty_from(sigma, i, mst.weight if state is None else state.reach):
                done = t
                break
            prev = threshold((i - 1) * mu + sigma, eps_i, wbar)
            if state is None:
                state = _base_state(prev, wbar, ladder, base, ctx)
                if check is not None:
                    audits.phi1_bound(check, state, mst.weight, sigma)
            elif state.scale < prev * (1 - 1e-12):
                state = steps.coarsen(state, prev, ctx, levels_log, sigma, i)
            if empty_from(sigma, i, state.reach):
                done = t
                break

            bucket = buckets.edges(sigma, i)
            ei = steps.build_cluster_graph(state, bucket, ctx)
            ops["level_work"] += len(bucket)
            if not ei:
                levels_log.append(steps.trivial_row(sigma, i, state, len(bucket)))
                continue

            if not steps.has_high_degree(ei, ctx) and (
                t + 1 == len(level_ids)
                or empty_from(sigma, level_ids[t + 1],
                              state.reach + sum(e[2] for e in ei))
            ):
                chosen.update(e[3] for e in ei)
                levels_log.append(
                    steps.trivial_row(sigma, i, state, len(bucket), added=len(ei))
                )
                done = t + 1
                break

            ops["level_work"] += state.count
            li = threshold(i * mu + sigma, eps_i, wbar)
            state, picked, row = steps.process_level(state, ei, li, sigma, i, ctx)
            chosen.update(picked)
            levels_log.append(row)

        for i in level_ids[done:]:
            levels_log.append(steps.trivial_row(
                sigma, i, state, len(buckets.edges(sigma, i)), skipped=True))


def _base_state(prev_scale, wbar, ladder, base, ctx):
    """Entering clusters for a class's first processed level: the singleton
    state `base` when the previous scale undercuts the subdivision
    granularity, otherwise `base` carved at a power-of-two scale in
    [prev_scale, 2*prev_scale).  Each rung is carved once per build and
    kept in `ladder`; states are immutable and own their adjacency and LCA,
    so every class entering at a rung shares them."""
    if prev_scale < wbar * (1 - 1e-12):
        return base
    t = max(0, math.ceil(math.log2(prev_scale / wbar) - 1e-12))
    if t not in ladder:
        ladder[t] = steps.carved_state(base, wbar * (2.0 ** t), ctx)
    return ladder[t]
