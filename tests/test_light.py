from __future__ import annotations

import contextlib
import dataclasses
import math
import random
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

import spanlab.linear
import spanlab.pm
from spanlab.generators import gnm_graph, gnp_graph
from spanlab.graphs import (
    WeightedGraph,
    connected_components,
    induced_subgraph,
    minimum_spanning_tree,
)
from spanlab.light import (
    build_light,
    internal_eps_light,
    split_light_heavy,
    subdivide_mst,
)
from spanlab import lightsteps as steps
from spanlab.linear import build_linear
from spanlab.oracle import spanner_metrics, verify_stretch
from spanlab.pm import build_levels, build_pm
from conftest import (
    CheckSink,
    assert_built_per_component,
    k4_pieces,
    unscaled_eps,
    wgraph,
)


@dataclasses.dataclass
class FixedTauContext(steps.StepContext):
    """A StepContext whose high-degree threshold is `tau` when given, so a
    small level can reach step 1; None keeps the derived threshold."""

    tau: Optional[int] = None

    @property
    def tau_high(self) -> int:
        return super().tau_high if self.tau is None else self.tau


# ---------------------------------------------------------------- split


def test_split_threshold_formula():
    # w(MST)=3 over m=4 edges at eps=0.5 -> threshold 3/(4*0.5) = 1.5
    g = wgraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1.4)])
    light, heavy, discarded = split_light_heavy(g, 0.5)
    weights = sorted(g.edges[e][2] for e in light)
    assert weights == [1.0, 1.0, 1.0, 1.4]
    assert heavy == [] and discarded == 0


def test_split_all_light_iff_under_threshold():
    g = wgraph(4, [(0, 1, 2), (1, 2, 2), (2, 3, 2)])
    light, heavy, _ = split_light_heavy(g, 0.5)  # threshold 6/1.5 = 4
    assert len(light) == 3 and not heavy


def test_split_discards_overweight():
    g = wgraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 7.0)])
    light, heavy, discarded = split_light_heavy(g, 0.5)
    # w(MST)=3; the chord weighs more than w(MST) and is dropped entirely
    assert discarded == 1 and not heavy


def test_split_weight_mass_bound():
    rng = random.Random(31)
    for trial in range(20):
        g = gnm_graph(rng.randint(5, 40), rng.randint(10, 120), seed=trial,
                      law="loguniform", wmax=200)
        eps = rng.choice([0.1, 0.25, 0.5])
        mst_w = minimum_spanning_tree(g).weight
        light, _, _ = split_light_heavy(g, eps, mst_w)
        assert sum(g.edges[e][2] for e in light) <= mst_w / eps + 1e-9


# ---------------------------------------------------------------- subdivide


def test_subdivide_ceiling_split():
    g = wgraph(2, [(0, 1, 5.0)])
    mst = minimum_spanning_tree(g)
    sub = subdivide_mst(mst, 2.0, g.n)
    assert sub.n_total == 4  # two virtual vertices
    ws = sorted((w for _, _, w, _ in sub.edges), reverse=True)
    assert ws == [2.0, 2.0, 1.0]


def test_subdivide_boundary_untouched():
    g = wgraph(2, [(0, 1, 2.0)])
    sub = subdivide_mst(minimum_spanning_tree(g), 2.0, g.n)
    assert sub.n_total == 2 and len(sub.edges) == 1


def test_subdivide_conserves_weight():
    rng = random.Random(3)
    g = gnm_graph(20, 40, seed=5, law="loguniform", wmax=500)
    mst = minimum_spanning_tree(g)
    wbar = mst.weight / (g.m * 0.25)
    sub = subdivide_mst(mst, wbar, g.n)
    assert abs(sum(w for _, _, w, _ in sub.edges) - mst.weight) <= 1e-9 * mst.weight
    assert all(w <= wbar * (1 + 1e-12) for _, _, w, _ in sub.edges)
    assert sub.n_total <= 2 * (g.n + g.m) + 2


def test_subdivide_parent_tracking():
    g = wgraph(3, [(0, 1, 10.0), (1, 2, 1.0)])
    mst = minimum_spanning_tree(g)
    sub = subdivide_mst(mst, 3.0, g.n)
    heavy_eid = next(i for i, (u, v, w) in enumerate(mst.edges) if w == 10.0)
    for v in range(g.n, sub.n_total):
        assert sub.parent_edge_of(v) == heavy_eid


# ---------------------------------------------------------------- cluster graph


def _mini_ctx(g, k=2, eps=0.25, tau=None, check=None):
    from spanlab.light import FILTER_SLACK, G_LIGHT

    mst = minimum_spanning_tree(g)
    wbar = mst.weight / (g.m * eps)
    sub = subdivide_mst(mst, wbar, g.n)
    eps_i = internal_eps_light(eps)
    ctx = FixedTauContext(
        g=g, sub=sub, k=k, eps=eps_i, gconst=G_LIGHT,
        filter_factor=(2 * k - 1) * (1 + FILTER_SLACK * eps_i),
        check=check, tau=tau,
    )
    return ctx, sub, mst


def test_cluster_graph_tree_only_edge_is_empty():
    g = wgraph(2, [(0, 1, 1.0)])
    ctx, sub, _ = _mini_ctx(g)
    state = steps.singleton_state(sub)
    assert steps.build_cluster_graph(state, [], g, 1.0, ctx) == []


def test_cluster_graph_parallel_bundle_keeps_lightest():
    # three clusters on a long tree path; a parallel bundle {7, 9} between
    # the end clusters keeps only the lightest edge, which survives the
    # stretch filter because the tree detour (25) exceeds ~3x its weight
    g = wgraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 7.0), (0, 2, 9.0)])
    ctx, sub, _ = _mini_ctx(g)
    merged = [0, 1, 2, 2]
    state2 = steps.ClassState(
        count=3, pot=[0.0, 0.0, 0.0], virtual=[False] * 3,
        tree=[(0, 1, 12.5, 0), (1, 2, 12.5, 1)],
        cl_of_sub=[merged[v] for v in range(sub.n_total)], scale=1.0,
    )
    eids = [i for i, (u, v, w) in enumerate(g.edges) if w in (7.0, 9.0)]
    out = steps.build_cluster_graph(state2, eids, g, 10.0, ctx)
    assert len(out) == 1
    assert out[0][2] == 7.0


def _brute_aug_dist(state: steps.ClassState, a: int, b: int) -> float:
    adj = state.adj
    import heapq

    dist = {a: state.pot[a]}
    heap = [(state.pot[a], a)]
    while heap:
        d, v = heapq.heappop(heap)
        if v == b:
            return d
        if d > dist.get(v, math.inf):
            continue
        for u, w, sid in adj[v]:
            nd = d + w + state.pot[u]
            if nd < dist.get(u, math.inf):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return dist.get(b, math.inf)


def test_lca_matches_brute_force_tree_distance():
    rng = random.Random(10)
    for trial in range(20):
        n = rng.randint(2, 64)
        g = gnm_graph(n, 2 * n, seed=200 + trial, law="loguniform", wmax=100)
        ctx, sub, _ = _mini_ctx(g)
        state = steps.singleton_state(sub)
        # give nodes nonzero weights to exercise the augmented part
        state = steps.ClassState(
            count=state.count,
            pot=[rng.uniform(0, 2) for _ in range(state.count)],
            virtual=state.virtual, tree=state.tree,
            cl_of_sub=state.cl_of_sub, scale=0.0,
        )
        lca = steps.TreeLCA(state)
        for _ in range(30):
            a, b = rng.randrange(state.count), rng.randrange(state.count)
            want = _brute_aug_dist(state, a, b)
            got = lca.aug_dist(a, b)
            assert abs(want - got) <= 1e-9 * max(1.0, want)


def test_filter_drops_tree_spanned_edges():
    # chord whose tree path is tiny relative to its weight gets filtered
    g = wgraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 2.9)])
    ctx, sub, _ = _mini_ctx(g, k=2)
    state = steps.singleton_state(sub)
    eid = next(i for i, (u, v, w) in enumerate(g.edges) if w == 2.9)
    out = steps.build_cluster_graph(state, [eid], g, 3.0, ctx)
    assert out == []  # path weight 3 <= (2k-1)(1+...)*2.9


# ---------------------------------------------------------------- 5B


def _level_for_path(weights, pots, virtual, nonisolated, li, tau=10**9):
    """Construct a bare _Level over a path with the given tree-edge weights."""
    n = len(pots)
    tree = [(i, i + 1, float(weights[i]), i) for i in range(n - 1)]
    state = steps.ClassState(
        count=n, pot=[float(p) for p in pots], virtual=list(virtual),
        tree=tree,
        cl_of_sub=list(range(n)), scale=li,
    )
    sink = CheckSink()
    ctx = FixedTauContext(
        g=wgraph(2, [(0, 1, 1.0)]), sub=None, k=2, eps=0.05, gconst=42,
        filter_factor=3.0, check=sink, tau=tau,
    )
    ei = []
    for v, flag in enumerate(nonisolated):
        if flag:
            other = (v + 2) % n
            ei.append((min(v, other), max(v, other), li, len(ei)))
    lvl = steps._Level(state, [], li, ctx)
    lvl.nonisolated = list(nonisolated)
    return lvl, sink


def test_break_long_path_all_virtual():
    li = 1.0
    n = 12
    lvl, sink = _level_for_path([0.4] * (n - 1), [0.0] * n,
                                [True] * n, [False] * n, li)
    pieces = steps.break_long_path(lvl, list(range(n)))
    # pieces partition the path
    covered = sorted(x for a, b in pieces for x in range(a, b + 1))
    assert covered == list(range(n))
    total, pos = steps._path_positions(lvl, list(range(n)))
    for a, b in pieces:
        adm = steps._range_adm(lvl, list(range(n)), pos, a, b)
        assert li * (1 - 1e-9) <= adm <= 7 * li * (1 + 1e-9)
    sink.assert_clean()


def test_break_long_path_keeps_nonisolated_with_companion():
    li = 1.0
    n = 10
    virtual = [False if v in (3, 4) else True for v in range(n)]
    nonisolated = [v == 3 for v in range(n)]
    lvl, sink = _level_for_path([0.5] * (n - 1), [0.0] * n, virtual,
                                nonisolated, li)
    pieces = steps.break_long_path(lvl, list(range(n)))
    for a, b in pieces:
        if a <= 3 <= b:
            nonvirt = sum(1 for v in range(a, b + 1) if not virtual[v])
            assert nonvirt >= 2 or a == 0 or b == n - 1
    sink.assert_clean()


def test_break_path_boundary_diameter():
    li = 1.0
    n = 7
    lvl, sink = _level_for_path([1.0] * (n - 1), [0.0] * n,
                                [True] * n, [False] * n, li)
    total, pos = steps._path_positions(lvl, list(range(n)))
    assert total == 6.0  # boundary: exactly 6 L_i
    pieces = steps.break_long_path(lvl, list(range(n)))
    assert len(pieces) >= 1
    for a, b in pieces:
        adm = steps._range_adm(lvl, list(range(n)), pos, a, b)
        assert li * (1 - 1e-9) <= adm <= 7 * li * (1 + 1e-9)
    sink.assert_clean()


# ---------------------------------------------------------------- step 4


def test_blue_pair_beside_its_partner_run_is_a_tree():
    # unit path, one level edge (16, 18) at L_i = 1: a = 16 takes the run
    # [15, 16, 17], so b = 18's run stops at 17 and lists 19 before 18.
    # Both runs and the level edge must form one tree
    n, li = 26, 1.0
    path_lvl, _ = _level_for_path([1.0] * (n - 1), [0.0] * n, [False] * n,
                                  [False] * n, li)
    state = path_lvl.state
    ctx = dataclasses.replace(path_lvl.ctx, check=None)
    ei = [(16, 18, 1.0, 0)]
    lvl = steps._Level(state, ei, li, ctx)
    steps.step4_blue_edges(lvl)
    (blue,) = [x for x in lvl.xs if x.step == "blue"]
    assert sorted(blue.nodes) == [15, 16, 17, 18, 19]
    assert len(blue.graph_edges) == 4
    assert blue.adm(lvl.pot) == 3.0   # raises when the edges leave a node out
    new_state, picked, row = steps.process_level(state, ei, li, 0, 1, ctx)
    assert picked == {0} and new_state.count < n


# ---------------------------------------------------------------- min Adm


def reference_force_min_adm(lvl, merges: list) -> None:
    """`_force_min_adm` as a restart loop: after each merge, rescan every
    subgraph from index 0 for the first under-length one.  Appends the
    index of each subgraph it merges away to `merges`."""
    guard = len(lvl.xs) + 4
    while guard:
        guard -= 1
        worst = None
        for xid, x in enumerate(lvl.xs):
            if not x.nodes:
                continue
            if x.adm(lvl.pot) < lvl.li * (1 - 1e-12):
                worst = xid
                break
        if worst is None:
            break
        hook = steps._adjacent_subgraph(lvl, worst, prefer="any")
        if hook is None:
            if lvl.ctx.check is not None and sum(1 for x in lvl.xs if x.nodes) > 1:
                lvl.ctx.check("min-adm", False,
                              f"isolated short subgraph size={len(lvl.xs[worst].nodes)}")
            break
        other, bridge = hook
        merges.append(worst)
        lvl.merge_into(worst, other, bridge)


def _random_levels(seeds):
    """(state, level edges, L_i, ctx) over carved states of small loguniform
    gnm graphs, one level per tau in {3, 6, None} and seed; levels whose
    cluster graph is empty are skipped."""
    for seed in seeds:
        rng = random.Random(seed)
        n = rng.randint(20, 80)
        g = gnm_graph(n, rng.randint(3 * n, 6 * n), seed, "loguniform", 100)
        base_ctx, sub, mst = _mini_ctx(g, eps=0.5)
        mst_keys = {(min(u, v), max(u, v)) for u, v, _ in mst.edges}
        base = steps.singleton_state(sub)
        for tau in (3, 6, None):
            ctx = dataclasses.replace(base_ctx, tau=tau)
            state = steps.carved_state(base, sub.wbar * rng.choice([1, 2, 4]), ctx)
            li = rng.choice([w for u, v, w in g.edges
                             if (min(u, v), max(u, v)) not in mst_keys])
            bucket = [e for e, (u, v, w) in enumerate(g.edges) if li / 10 < w <= li]
            ei = steps.build_cluster_graph(state, bucket, g, li, ctx)
            if ei:
                yield state, ei, li, ctx


def _long_tree_levels():
    """(state, level edges, L_i, ctx) over a random tree of 1200 vertices
    (1457 subdivided nodes) plus two chords that the filter keeps, once on
    the singleton state and once carved at the subdivision granularity."""
    tree = gnm_graph(1200, 1199, 7, "loguniform", 100)
    nbrs: dict[int, list[tuple[int, float]]] = {v: [] for v in range(tree.n)}
    for u, v, w in tree.edges:
        nbrs[u].append((v, w))
        nbrs[v].append((u, w))

    def farthest(s):
        dist = {s: 0.0}
        stack = [s]
        while stack:
            x = stack.pop()
            for y, w in nbrs[x]:
                if y not in dist:
                    dist[y] = dist[x] + w
                    stack.append(y)
        return max(dist, key=dist.get), dist

    a, _ = farthest(0)
    b, from_a = farthest(a)
    # chords a fifth of their tree detour, heavier than every tree edge
    g = WeightedGraph(tree.n, tree.edges + [(a, b, from_a[b] / 5), (0, a, from_a[0] / 5)])
    ctx, sub, _ = _mini_ctx(g, eps=0.5)
    li = from_a[b] / 5
    base = steps.singleton_state(sub)
    for state in (base, steps.carved_state(base, sub.wbar, ctx)):
        ei = steps.build_cluster_graph(state, [g.m - 2, g.m - 1], g, li, ctx)
        assert len(ei) == 2
        yield state, ei, li, ctx


# sha256 of `process_level`'s outputs (new state without its derived views,
# sorted picked ids, row) and of the audited outcome stream, over
# `_random_levels(range(40))` and `_long_tree_levels()`
PROCESS_LEVEL_DIGEST = {
    "levels": 112,
    "outputs": "75321734525eb5cc0f1a203f163d9f385ae1d6cf4711610a169b7009ebd974db",
    "audits": "2ba1aa6c7cae94efdd9b8cf4375d33a9dc4f7d389c2a805779e5754583b1c6de",
}


def test_process_level_digest():
    import hashlib
    import itertools

    outputs, audits = hashlib.sha256(), hashlib.sha256()
    levels = 0
    for state, ei, li, ctx in itertools.chain(_random_levels(range(40)),
                                              _long_tree_levels()):
        levels += 1
        new, picked, row = steps.process_level(state, ei, li, 0, 1, ctx)
        outputs.update(repr((new.count, new.pot, new.virtual, new.tree, new.cl_of_sub,
                             new.scale, sorted(picked), row)).encode())
        stream: list[tuple[str, bool, str]] = []
        audited = steps.process_level(state, ei, li, 0, 1, dataclasses.replace(
            ctx, check=lambda *outcome: stream.append(outcome)))
        assert (audited[0].tree, audited[1], audited[2]) == (new.tree, picked, row)
        for name, ok, detail in stream:
            audits.update(f"{name}\t{ok}\t{detail}\n".encode())
    assert {"levels": levels, "outputs": outputs.hexdigest(),
            "audits": audits.hexdigest()} == PROCESS_LEVEL_DIGEST


def test_force_min_adm_matches_restart_reference(monkeypatch):
    one_pass = steps._force_min_adm
    merges: list[int] = []
    levels = 0
    for state, ei, li, ctx in _random_levels(range(40)):
        levels += 1
        for audited in (False, True):
            runs = []
            for force in (one_pass, lambda lvl: reference_force_min_adm(lvl, merges)):
                monkeypatch.setattr(steps, "_force_min_adm", force)
                stream: list[tuple[str, bool, str]] = []
                check = (lambda *outcome: stream.append(outcome)) if audited else None
                out = steps.process_level(state, ei, li, 0, 1,
                                          dataclasses.replace(ctx, check=check))
                runs.append((out, stream))
            assert runs[0] == runs[1]
    assert levels >= 100
    assert merges   # the reference did merge, so the levels test the merge order


# ---------------------------------------------------------------- Adm


def _brute_adm(nbrs, pot) -> float:
    """Largest augmented path length over all node pairs (a == b included),
    each path found by its own search."""
    best = 0.0
    for a in nbrs:
        length = {a: pot[a]}
        st_ = [a]
        while st_:
            v = st_.pop()
            for u, w in nbrs[v]:
                if u not in length:
                    length[u] = length[v] + w + pot[u]
                    st_.append(u)
        best = max(best, max(length.values()))
    return best


@st.composite
def _trees(draw):
    """A random tree on at most 12 labelled nodes, listed in random order,
    with non-negative integer weights and potentials (so sums are exact)."""
    n = draw(st.integers(1, 12))
    labels = draw(st.permutations(range(n)))
    nbrs = {v: [] for v in labels}
    for child in range(1, n):
        parent = draw(st.integers(0, child - 1))
        w = float(draw(st.integers(0, 50)))
        a, b = labels[child], labels[parent]
        nbrs[a].append((b, w))
        nbrs[b].append((a, w))
    pot = [float(draw(st.integers(0, 50))) for _ in range(n)]
    return list(labels), nbrs, pot


@settings(max_examples=150, deadline=None)
@given(_trees())
def test_tree_adm_matches_brute_force(tree):
    nodes, nbrs, pot = tree
    assert steps._tree_adm(nodes, nbrs, pot) == _brute_adm(nbrs, pot)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12), st.data())
def test_range_adm_matches_tree_adm_on_paths(pots, data):
    n = len(pots)
    weights = data.draw(st.lists(st.floats(0.0, 10.0), min_size=n - 1, max_size=n - 1))
    lvl, _ = _level_for_path(weights, pots, [True] * n, [False] * n, 1.0)
    path = list(range(n))
    _, pos = steps._path_positions(lvl, path)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(a, n - 1))
    seg = path[a:b + 1]
    nbrs = {v: [(u, w) for u, w, _ in lvl.adj[v] if a <= u <= b] for v in seg}
    want = steps._tree_adm(seg, nbrs, lvl.pot)
    got = steps._range_adm(lvl, path, pos, a, b)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_unaudited_build_runs_no_audit(monkeypatch):
    # the guard case runs `process_level`; without `check` no audit helper
    # may be entered, with it the helpers run
    audits = [name for name in vars(steps) if name.startswith("_audit_")]
    assert len(audits) >= 6
    entered = []

    def refuse(name):
        def helper(*args, **kwargs):
            raise AssertionError(f"{name} entered by an unaudited build")
        return helper

    def counted(name, fn):
        def helper(*args, **kwargs):
            entered.append(name)
            return fn(*args, **kwargs)
        return helper

    g = gnm_graph(200, 3000, seed=1, law="loguniform", wmax=1e9)
    real = {name: getattr(steps, name) for name in audits}
    with monkeypatch.context() as mp:
        for name in audits:
            mp.setattr(steps, name, refuse(name))
        with unscaled_eps():
            plain = build_light(g, 2, 0.25)
    for name in audits:
        monkeypatch.setattr(steps, name, counted(name, real[name]))
    with unscaled_eps():
        audited = build_light(g, 2, 0.25, check=CheckSink())
    assert {"_audit_carve", "_audit_coarsen", "_audit_balls", "_audit_path_pieces",
            "_audit_level", "_audit_cycle_property"} <= set(entered)
    assert audited.edge_key_set() == plain.edge_key_set()


# ---------------------------------------------------------------- build


def test_tree_input_lightness_one():
    g = wgraph(6, [(0, 1, 4), (1, 2, 1), (2, 3, 9), (1, 4, 2), (4, 5, 3)])
    sp = build_light(g, 2, 0.25)
    assert sp.edge_key_set() == g.edge_key_set()
    met = spanner_metrics(g, sp)
    assert abs(met.lightness - 1.0) <= 1e-12


def test_unit_k16(sink):
    g = wgraph(16, [(u, v, 1.0) for u in range(16) for v in range(u + 1, 16)])
    sp = build_light(g, 2, 0.25, check=sink)
    sink.assert_clean()
    rep = verify_stretch(g, sp, 3 * 1.25)
    assert rep.ok
    met = spanner_metrics(g, sp)
    assert met.lightness <= 12 * 4      # measured headroom over C_L * n^(1/2)
    assert met.sparsity <= 12 * 4


def test_heavy_chord_with_cheap_detour_excluded():
    g = wgraph(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (0, 4, 30.0)])
    sp = build_light(g, 2, 0.25)
    assert (0, 4) not in sp.edge_key_set()
    assert verify_stretch(g, sp, 3.75).ok


def test_mst_always_contained():
    rng = random.Random(71)
    for trial in range(20):
        g = gnm_graph(rng.randint(5, 40), rng.randint(10, 100), seed=700 + trial,
                      law=rng.choice(["unit", "uniform", "loguniform"]), wmax=80)
        sp = build_light(g, rng.choice([1, 2, 3]), rng.choice([0.1, 0.25, 0.5]))
        mst_keys = {(min(u, v), max(u, v))
                    for u, v, _ in minimum_spanning_tree(g).edges}
        assert mst_keys <= sp.edge_key_set()


def test_potential_rows_telescope(sink):
    g = gnm_graph(60, 380, seed=11, law="loguniform", wmax=1000)
    sp = build_light(g, 2, 0.25, check=sink)
    sink.assert_clean()
    per_sigma: dict[int, list[dict]] = {}
    for row in sp.levels:
        per_sigma.setdefault(row["sigma"], []).append(row)
    mst_w = minimum_spanning_tree(g).weight
    for sigma, rows in per_sigma.items():
        assert rows[0]["phi"] <= mst_w * (1 + 1e-9)
        total_delta = sum(r["delta"] for r in rows)
        first_phi = rows[0]["phi"]
        last_phi = rows[-1]["phi"] - rows[-1]["delta"]
        assert abs(total_delta - (first_phi - last_phi)) <= 1e-9 * max(
            1.0, abs(first_phi)
        )


def test_forced_high_degree_path(sink):
    # low tau forces the high-degree machinery (step 1 + the inner
    # unweighted spanner) on a hub fixture
    hub_edges = [(0, i, 10.0 + 0.001 * i) for i in range(1, 12)]
    ring = [(i, i + 1, 1.0) for i in range(1, 11)]
    g = wgraph(12, hub_edges + ring)
    from spanlab.light import FILTER_SLACK, G_LIGHT

    mst = minimum_spanning_tree(g)
    wbar = mst.weight / (g.m * 0.25)
    sub = subdivide_mst(mst, wbar, g.n)
    eps_i = 0.05
    ctx = FixedTauContext(
        g=g, sub=sub, k=2, eps=eps_i, gconst=G_LIGHT,
        filter_factor=3.0, check=sink, tau=3,
    )
    state = steps.singleton_state(sub)
    eids = [i for i, (u, v, w) in enumerate(g.edges) if w >= 10.0]
    li = 10.2
    ei = steps.build_cluster_graph(state, eids, g, li, ctx)
    if ei and steps.has_high_degree(state, ei, ctx):
        new_state, picked, row = steps.process_level(state, ei, li, 0, 1, ctx)
        assert row["step_edge_counts"][1] >= 0
        assert picked
    hard = [f for f in sink.failures]
    assert not hard, hard


def test_fast_path_and_full_path_agree():
    # unaudited builds let single-level classes take a shortcut; the
    # chosen edge set must match the audited run
    for seed in range(6):
        g = gnm_graph(30, 120, seed=seed, law="loguniform", wmax=300)
        fast = build_light(g, 2, 0.25)
        sink = CheckSink()
        full = build_light(g, 2, 0.25, check=sink)
        sink.assert_clean()
        assert fast.edge_key_set() == full.edge_key_set()


def test_oracle_random_grid(sink):
    for k in (2, 3):
        for eps in (0.1, 0.5):
            g = gnp_graph(70, 0.12, seed=int(100 * eps) + k, law="uniform",
                          wmax=120)
            sp = build_light(g, k, eps, check=sink)
            assert verify_stretch(g, sp, (2 * k - 1) * (1 + eps)).ok
    sink.assert_clean()


def test_disconnected_components():
    # vertex 8 is isolated; the pieces at 9..20 and 21..32 have heavy-side
    # levels
    pieces = [gnm_graph(12, 30, seed=s, law="loguniform", wmax=1e4)
              for s in (0, 1)]
    g = wgraph(33, [(0, 1, 1), (1, 2, 5), (0, 2, 2), (3, 4, 1), (4, 5, 1),
                    (5, 6, 1), (3, 6, 9), (6, 7, 2)]
               + [(u + 9 + 12 * p, v + 9 + 12 * p, w)
                  for p, piece in enumerate(pieces) for u, v, w in piece.edges])
    comps = [[0, 1, 2], [3, 4, 5, 6, 7], [8], list(range(9, 21)),
             list(range(21, 33))]
    sp = assert_built_per_component(build_light, g, comps)
    assert sp.levels
    assert verify_stretch(g, sp, 3.75).ok


# ---------------------------------------------------------------- light pool


def reference_pool_pm(g: WeightedGraph, pool: list[int], k: int, eps: float):
    """The light part as light once built it: the pool copied into a graph
    of its own, built by the public `build_pm`, and the kept edges mapped
    back to g's ids by their endpoints.  Returns (g's kept ids, pm's ops)."""
    lg = WeightedGraph(g.n, [g.edges[e] for e in pool])
    hp = build_pm(lg, k, eps)
    back_key = {(min(u, v), max(u, v)): eid for eid, (u, v, _) in zip(pool, lg.edges)}
    return {back_key[(min(u, v), max(u, v))] for u, v, _ in hp.edges}, hp.ops


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pool_levels_match_nested_reference(data):
    # tied weights from a short list; simple graphs, since the back-map
    # keys by endpoints; each component's own light pool, as light passes
    # it, and a random subset of g's ids over all components at once
    n = data.draw(st.integers(min_value=2, max_value=12))
    vid = st.integers(min_value=0, max_value=n - 1)
    g = WeightedGraph.from_edges(n, data.draw(st.lists(
        st.tuples(vid, vid, st.sampled_from([1.0, 1.5, 2.0, 7.0, 40.0, 1e3])),
        min_size=1, max_size=40)))
    k = data.draw(st.integers(min_value=1, max_value=3))
    eps = data.draw(st.sampled_from([0.1, 0.25, 0.5, 0.9]))
    cases = []
    for comp in connected_components(g):
        sub, _ = induced_subgraph(g, sorted(comp))
        if sub.m:
            mst = minimum_spanning_tree(sub)
            light_ids, _, _ = split_light_heavy(sub, eps, mst.weight)
            cases.append((sub, sorted(set(mst.eids) | set(light_ids))))
    keep = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
    cases.append((g, [e for e in range(g.m) if keep[e]]))
    with unscaled_eps() if data.draw(st.booleans()) else contextlib.nullcontext():
        for h, pool in cases:
            ops = {"uf": 0, "hz": 0}
            kept, _ = build_levels(h, pool, k, eps, ops)
            assert (kept, ops) == reference_pool_pm(h, pool, k, eps)


def test_light_checks_and_hashes_its_input_once(monkeypatch):
    # the pool used to go through the public build_pm, once per component
    calls = {"check_edges": 0, "graph_hash": 0}
    for module in (spanlab.linear, spanlab.pm):
        for name in calls:
            def counting(*args, _name=name, _fn=getattr(module, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counting)
    build_light(k4_pieces(30, 1), 2, 0.25)
    assert calls == {"check_edges": 1, "graph_hash": 1}


def test_discarded_edge_may_stretch_the_weight_range():
    # only the pool's weights are normalized: the 1e200 edge weighs at
    # least w(MST) and never reaches pm's levels, where pm and linear
    # reject the 1e400 ratio
    g = WeightedGraph(3, [(0, 1, 1e-200), (1, 2, 1.0), (0, 2, 1e200)])
    sp = build_light(g, 2, 0.25)
    assert sp.edges == [(0, 1, 1e-200), (1, 2, 1.0)]
    assert verify_stretch(g, sp, 3.75).ok
    for build in (build_pm, build_linear):
        with pytest.raises(ValueError, match="bucket grid"):
            build(g, 2, 0.25)


def test_internal_eps_light_values():
    assert internal_eps_light(0.25) == 0.25 / 421
    with unscaled_eps():
        assert internal_eps_light(0.9) == 1 / 168
    assert internal_eps_light(0.9) == 0.9 / 421


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, math.nan, math.inf])
def test_build_rejects_eps_outside_unit_interval(eps):
    # eps = 0 used to divide by zero in the light/heavy split, and an
    # edgeless graph used to accept NaN; pm and linear reject both
    for g in (gnm_graph(30, 80, seed=4, law="loguniform", wmax=1e3),
              wgraph(3, [])):
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\)"):
            build_light(g, 2, eps)


def test_build_rejects_k_below_one():
    with pytest.raises(ValueError, match="k must be >= 1"):
        build_light(wgraph(3, []), 0, 0.25)


@pytest.mark.parametrize("bad", [(1, 5, 1.0), (-1, 2, 1.0)])
def test_build_rejects_out_of_range_vertex(bad):
    with pytest.raises(ValueError, match=r"vertex id out of range"):
        build_light(WeightedGraph(3, [(0, 1, 1.0), bad]), 2, 0.25)


# ---------------------------------------------------------------- bases


def test_carved_state_diameter_window():
    g = gnm_graph(40, 80, seed=12, law="loguniform", wmax=400)
    sink = CheckSink()
    ctx, sub, mst = _mini_ctx(g, check=sink)
    base = steps.singleton_state(sub)
    for mult in (1.0, 2.0, 8.0):
        scale = sub.wbar * mult
        state = steps.carved_state(base, scale, ctx)
        if state.count > 1:
            assert all(scale * (1 - 1e-9) <= d <= 14 * scale * (1 + 1e-9)
                       for d in state.pot)
        total = sum(1 for _ in state.tree)
        assert total == state.count - 1
        # partition covers every subdivided vertex
        assert sorted(set(state.cl_of_sub)) == list(range(state.count))
    sink.assert_clean()


def test_coarsen_merges_and_keeps_budget():
    g = gnm_graph(30, 60, seed=14, law="loguniform", wmax=300)
    sink = CheckSink()
    ctx, sub, mst = _mini_ctx(g, check=sink)
    state = steps.singleton_state(sub)
    log: list[dict] = []
    target = sub.wbar * 4.0
    new = steps.coarsen(state, target, ctx, log, sigma=0, i=1)
    assert new.count < state.count
    assert log and log[0]["coarsen"] is True
    if new.count > 1:
        assert all(p >= target * (1 - 1e-9) for p in new.pot)
    # potentials bound the tree diameters of the merged pieces
    assert all(p <= 14 * target * (1 + 1e-9) for p in new.pot)
    sink.assert_clean()


def test_state_totals_match_plain_sums():
    # rows read Phi and the real-cluster count from the state's cached
    # totals, which must equal plain sums over the state's lists bit for bit
    g = gnm_graph(60, 240, seed=21, law="loguniform", wmax=1e4)
    ctx, sub, mst = _mini_ctx(g)
    base = steps.singleton_state(sub)
    states = [base] + [steps.carved_state(base, sub.wbar * mult, ctx)
                       for mult in (1.0, 3.0, 16.0)]
    log: list[dict] = []
    states.append(steps.coarsen(states[1], sub.wbar * 6.0, ctx, log, sigma=2, i=1))
    for st in states:
        for added in (0, 3):
            row = steps.trivial_row(0, 1, st, 7, added=added)
            assert row["phi"] == sum(st.pot)
            assert row["n_nodes"] == sum(1 for v in st.virtual if not v)
    (row,) = log
    assert row["phi"] == sum(states[1].pot)
    assert row["delta"] == sum(states[1].pot) - sum(states[-1].pot)
    assert row["n_nodes"] == sum(1 for v in states[-1].virtual if not v)


def test_lca_tables_built_once_per_state(monkeypatch):
    # a wide weight range under unscaled eps enters classes from several
    # carve-ladder rungs; every class entering at a rung shares its LCA.
    # On that build and on the golden case steps-gnm500-k3-e0.5, whose
    # classes run the five steps 10 times, a build makes one singleton
    # state and every state builds its adjacency and LCA at most once
    import functools
    import spanlab.light

    calls = {"lca": 0, "rungs": 0, "process": 0, "coarsen": 0, "starts": 0}
    built: dict[str, list] = {"adj": [], "lca": [], "singleton": []}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def recorded(key, fn):
        def wrapper(arg, *args, **kwargs):
            built[key].append(arg)   # held, so no two recorded states share an id
            return fn(arg, *args, **kwargs)
        return wrapper

    adj = functools.cached_property(recorded("adj", steps.ClassState.adj.func))
    adj.__set_name__(steps.ClassState, "adj")
    monkeypatch.setattr(steps.ClassState, "adj", adj)
    monkeypatch.setattr(steps, "singleton_state",
                        recorded("singleton", steps.singleton_state))
    monkeypatch.setattr(steps, "TreeLCA",
                        counted("lca", recorded("lca", steps.TreeLCA)))
    monkeypatch.setattr(steps, "carved_state", counted("rungs", steps.carved_state))
    monkeypatch.setattr(steps, "process_level", counted("process", steps.process_level))
    monkeypatch.setattr(steps, "coarsen", counted("coarsen", steps.coarsen))
    monkeypatch.setattr(spanlab.light, "_base_state",
                        counted("starts", spanlab.light._base_state))

    def assert_views_built_once():
        assert len(built["singleton"]) == 1
        for key in ("adj", "lca"):
            assert built[key]
            assert len({id(st) for st in built[key]}) == len(built[key])
            built[key].clear()
        built["singleton"].clear()

    g = gnm_graph(100, 1500, seed=1, law="loguniform", wmax=1e9)
    with unscaled_eps():
        build_light(g, 3, 0.5)
    assert calls["rungs"] >= 2
    bound = 1 + calls["rungs"] + calls["process"] + calls["coarsen"]
    assert calls["lca"] <= bound
    assert calls["starts"] > bound  # one table per class would break it
    assert_views_built_once()

    calls["process"] = 0
    build_light(gnm_graph(500, 6000, seed=3, law="loguniform", wmax=1e9), 3, 0.5)
    assert calls["process"] == 10
    assert_views_built_once()


def test_level_work_counts_buckets_and_processed_levels(monkeypatch):
    # every level costs its bucket; only a level that runs the five steps
    # also costs its entering cluster count
    seen = {"bucket": 0, "count": 0, "levels": 0, "process": 0}

    def cluster_graph(state, bucket, *args):
        seen["bucket"] += len(bucket)
        seen["levels"] += 1
        return build_cluster_graph(state, bucket, *args)

    def process(state, *args):
        seen["count"] += state.count
        seen["process"] += 1
        return process_level(state, *args)

    build_cluster_graph, process_level = steps.build_cluster_graph, steps.process_level
    monkeypatch.setattr(steps, "build_cluster_graph", cluster_graph)
    monkeypatch.setattr(steps, "process_level", process)
    # audited, so that levels also run the five steps on a graph this small
    g = gnm_graph(40, 160, seed=1, law="loguniform", wmax=1e3)
    sink = CheckSink()
    sp = build_light(g, 2, 0.25, check=sink)
    sink.assert_clean()
    assert 0 < seen["process"] < seen["levels"]
    assert sp.ops["level_work"] == seen["bucket"] + seen["count"]


def test_deep_level_cells_exercise_carved_base():
    # at eps=0.5 and m*eps past 1/eps' the heavy grid reaches level >= 1,
    # which routes through the carve ladder rather than singleton bases
    g = gnm_graph(120, 2400, seed=5, law="loguniform", wmax=10_000)
    sink = CheckSink()
    sp = build_light(g, 2, 0.5, check=sink)
    sink.assert_clean()
    assert any(row.get("i", 0) >= 1 for row in sp.levels)
    assert verify_stretch(g, sp, 3 * 1.5).ok


def test_adm_upper_bounds_cluster_diameter():
    # the formation Adm of every subgraph bounds the diameter its cluster
    # induces in (subdivided tree + selected edges)
    import heapq

    # unit path as MST plus long-detour chords that survive the filter
    n = 40
    path = [(i, i + 1, 1.0) for i in range(n - 1)]
    chords = [(i, i + 16, 4.0) for i in range(0, n - 16, 5)]
    g = wgraph(n, path + chords)
    sink = CheckSink()
    ctx, sub, mst = _mini_ctx(g, check=sink, tau=4)
    state = steps.singleton_state(sub)
    bucket = [i for i, (u, v, w) in enumerate(g.edges) if w == 4.0]
    li = 4.0
    ei = steps.build_cluster_graph(state, bucket, g, li, ctx)
    assert ei, "fixture chords must survive the tree-path filter"
    new_state, picked, row = steps.process_level(state, ei, li, 0, 1, ctx)
    sink.assert_clean()

    # graph available to the new clusters: subdivided tree + picked edges
    adj: dict[int, list[tuple[int, float]]] = {}
    for a, b, w, sid in sub.edges:
        adj.setdefault(a, []).append((b, w))
        adj.setdefault(b, []).append((a, w))
    for eid in picked:
        u, v, w = g.edges[eid]
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))

    members: dict[int, list[int]] = {}
    for vsub, cid in enumerate(new_state.cl_of_sub):
        members.setdefault(cid, []).append(vsub)
    for cid, mem in members.items():
        memset = set(mem)
        worst = 0.0
        for s in mem:
            dist = {s: 0.0}
            heap = [(0.0, s)]
            while heap:
                d, x = heapq.heappop(heap)
                if d > dist.get(x, math.inf):
                    continue
                for y, w in adj.get(x, []):
                    if y in memset:
                        nd = d + w
                        if nd < dist.get(y, math.inf):
                            dist[y] = nd
                            heapq.heappush(heap, (nd, y))
            if len(dist) == len(mem):
                worst = max(worst, max(dist.values()))
        assert worst <= new_state.pot[cid] * (1 + 1e-9)


def test_deterministic_output():
    g = gnm_graph(45, 180, seed=33, law="loguniform", wmax=200)
    assert build_light(g, 2, 0.25).edges == build_light(g, 2, 0.25).edges
