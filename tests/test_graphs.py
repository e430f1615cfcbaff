from __future__ import annotations

import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from spanlab.graphs import (
    GraphFormatError,
    MstResult,
    WeightedGraph,
    check_edges,
    induced_subgraph,
    load_graph,
    minimum_spanning_tree,
    normalize_weights,
    save_graph,
    sssp_distances,
)
from conftest import triangle, wgraph

INF = math.inf


# ---------------------------------------------------------------- loading


def test_load_edge_list_triangle(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("3 3\n0 1 1.0\n1 2 1.0\n0 2 2.0\n")
    g = load_graph(str(p))
    assert g.n == 3 and g.m == 3
    assert (0, 2, 2.0) in g.edges


def test_load_collapses_duplicates_keeping_lightest(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("2 2\n0 1 5\n0 1 2\n")
    g = load_graph(str(p))
    assert g.edges == [(0, 1, 2.0)]
    assert g.collapsed_count == 1


def test_load_drops_self_loop_with_counter(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("2 2\n0 0 1\n0 1 1\n")
    g = load_graph(str(p))
    assert g.edges == [(0, 1, 1.0)]
    assert g.selfloop_count == 1


@pytest.mark.parametrize(
    "content,msg",
    [
        ("3 1\n0 1\n", "expected 'u v w'"),
        ("3 1\n0 9 1.0\n", "out of range"),
        ("3 1\n0 1 -2\n", "nonpositive"),
        ("3 1\n0 1 nan\n", "non-finite weight nan"),
        ("3 1\n0 1 inf\n", "non-finite weight inf"),
        ("", "empty file"),
    ],
)
def test_load_errors(tmp_path, content, msg):
    p = tmp_path / "bad.txt"
    p.write_text(content)
    with pytest.raises((GraphFormatError, ValueError), match=msg):
        load_graph(str(p))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("edge", [(1, 2), (1, 1)])   # self-loops are checked too
def test_from_edges_rejects_nonpositive_or_non_finite_weight(bad, edge):
    with pytest.raises(ValueError, match="nonpositive or non-finite weight"):
        WeightedGraph.from_edges(3, [(0, 1, 1.0), (*edge, bad)])


def test_load_error_carries_line_number(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3 2\n0 1 1.0\nnot an edge\n")
    with pytest.raises(GraphFormatError, match="line 3"):
        load_graph(str(p))


def test_dimacs_gr_round(tmp_path):
    p = tmp_path / "g.gr"
    p.write_text("c comment\np sp 3 4\na 1 2 1.5\na 2 1 1.5\na 2 3 2\na 1 3 4\n")
    g = load_graph(str(p), fmt="dimacs-gr")
    assert g.n == 3
    # reverse arc collapses onto the same undirected edge
    assert g.m == 3
    assert (0, 1, 1.5) in g.edges


def test_save_load_roundtrip(tmp_path):
    g = wgraph(4, [(0, 1, 1.25), (1, 2, 2.5), (2, 3, 0.75), (0, 3, 9)])
    p = tmp_path / "g.txt"
    save_graph(g, str(p))
    g2 = load_graph(str(p))
    assert g2.n == g.n and sorted(g2.edges) == sorted(g.edges)


# ---------------------------------------------------------------- MST


def test_mst_triangle_unique():
    g = triangle(1, 2, 3)
    mst = minimum_spanning_tree(g)
    assert sorted((min(u, v), max(u, v)) for u, v, _ in mst.edges) == [(0, 1), (1, 2)]
    assert mst.weight == 3


def _all_spanning_trees(g: WeightedGraph):
    n = g.n
    for combo in itertools.combinations(range(g.m), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for eid in combo:
            u, v, _ = g.edges[eid]
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            yield [g.edges[e] for e in combo]


def _lexicographic_minimal_tree(g: WeightedGraph):
    # independent oracle: enumerate spanning trees, keep the minimum-weight
    # ones, pick the minimal under the sorted (w, min, max) key sequence
    best = None
    best_key = None
    for tree in _all_spanning_trees(g):
        weight = sum(w for _, _, w in tree)
        key = (weight, sorted((w, min(u, v), max(u, v)) for u, v, w in tree))
        if best_key is None or key < best_key:
            best_key = key
            best = tree
    return best


def test_mst_four_cycle_tie_break_matches_enumeration():
    g = wgraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    mst = minimum_spanning_tree(g)
    expect = _lexicographic_minimal_tree(g)
    assert sorted(mst.edges) == sorted(expect)
    # frozen from the enumeration oracle: among the four spanning trees the
    # sorted key sequence [(1,0,1),(1,0,3),(1,1,2)] is minimal
    assert sorted((min(u, v), max(u, v)) for u, v, _ in mst.edges) == [
        (0, 1), (0, 3), (1, 2)
    ]


def test_mst_star_is_identity():
    g = wgraph(5, [(0, i, i) for i in range(1, 5)])
    mst = minimum_spanning_tree(g)
    assert sorted(mst.edges) == sorted(g.edges)
    assert mst.weight == sum(range(1, 5))


def test_mst_deterministic():
    rng = random.Random(5)
    g = wgraph(8, [(u, v, rng.choice([1, 2])) for u in range(8) for v in range(u + 1, 8)])
    a = minimum_spanning_tree(g)
    b = minimum_spanning_tree(g)
    assert a.edges == b.edges and a.parent == b.parent
    assert [g.edges[e] for e in a.eids] == a.edges


def test_mst_disconnected_reports_witnesses():
    g = wgraph(4, [(0, 1, 1), (2, 3, 1)])
    with pytest.raises(ValueError, match="different components"):
        minimum_spanning_tree(g)


def parent_weight(mst: MstResult) -> list[float]:
    """Weight of each vertex's edge to its MST parent; 0.0 at the root."""
    w = [0.0] * len(mst.parent)
    for u, v, wt in mst.edges:
        child = u if mst.parent[u] == v else v
        w[child] = wt
    return w


def tree_path_max_weight(mst: MstResult, u: int, v: int) -> float:
    """Max edge weight on the tree path u..v (naive walk)."""
    pw = parent_weight(mst)
    depth = [0] * len(mst.parent)
    children: list[list[int]] = [[] for _ in mst.parent]
    for x, p in enumerate(mst.parent):
        if p >= 0:
            children[p].append(x)
    stack = [mst.root]
    while stack:
        x = stack.pop()
        for c in children[x]:
            depth[c] = depth[x] + 1
            stack.append(c)
    best = 0.0
    while u != v:
        if depth[u] < depth[v]:
            u, v = v, u
        best = max(best, pw[u])
        u = mst.parent[u]
    return best


def test_mst_cycle_property_exhaustive_small():
    # for every non-tree edge, each tree edge on its tree path weighs no more
    rng = random.Random(11)
    for trial in range(40):
        n = rng.randint(4, 12)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    edges.append((u, v, float(rng.randint(1, 9))))
        for i in range(1, n):
            edges.append((0, i, float(rng.randint(1, 9))))
        g = WeightedGraph.from_edges(n, edges)
        mst = minimum_spanning_tree(g)
        tree_keys = {(min(u, v), max(u, v)) for u, v, _ in mst.edges}
        for u, v, w in g.edges:
            if (min(u, v), max(u, v)) in tree_keys:
                continue
            assert tree_path_max_weight(mst, u, v) <= w + 1e-12


# ---------------------------------------------------------------- distances


def test_sssp_path():
    g = wgraph(3, [(0, 1, 1), (1, 2, 1)])
    assert sssp_distances(g, 0) == [0, 1, 2]


def test_sssp_shortcut():
    g = triangle(1, 1, 10)
    assert sssp_distances(g, 0)[2] == 2


def test_sssp_unreachable_is_inf():
    g = wgraph(3, [(0, 1, 1)])
    assert sssp_distances(g, 0)[2] == INF


def test_sssp_source_out_of_range():
    with pytest.raises(ValueError):
        sssp_distances(wgraph(2, [(0, 1, 1)]), 5)


# ---------------------------------------------------------------- scaling


@pytest.mark.parametrize(
    "weights,expected,scale",
    [
        ([2, 4, 6], [1, 2, 3], 2),
        ([1, 5], [1, 5], 1),
        ([0.5, 0.5], [1, 1], 0.5),
    ],
)
def test_normalize(weights, expected, scale):
    g = wgraph(len(weights) + 1, [(i, i + 1, w) for i, w in enumerate(weights)])
    norm, s = normalize_weights(g)
    assert s == scale
    assert [w for _, _, w in norm.edges] == [float(x) for x in expected]
    assert min(w for _, _, w in norm.edges) == 1.0


def test_normalize_empty_errors():
    with pytest.raises(ValueError):
        normalize_weights(wgraph(3, []))


def test_normalize_divides_only_the_given_ids():
    # the extreme pair lies outside ids 1 and 2, so its ratio is not checked
    g = wgraph(4, [(0, 1, 1e-200), (1, 2, 4.0), (2, 3, 2.0), (0, 3, 1e200)])
    norm, scale = normalize_weights(g, [1, 2])
    assert scale == 2.0
    assert norm.edges == [(0, 1, 1e-200), (1, 2, 2.0), (2, 3, 1.0), (0, 3, 1e200)]
    assert g.edges[1] == (1, 2, 4.0)
    with pytest.raises(ValueError, match="weight range is too wide"):
        normalize_weights(g)
    with pytest.raises(ValueError, match="no edges"):
        normalize_weights(g, [])


def test_normalize_distance_round_trip():
    rng = random.Random(3)
    g = wgraph(10, [(u, v, rng.uniform(0.5, 50)) for u in range(10)
                    for v in range(u + 1, 10) if rng.random() < 0.6]
               + [(i, (i + 1) % 10, rng.uniform(0.5, 50)) for i in range(9)])
    g = WeightedGraph.from_edges(g.n, g.edges)
    norm, scale = normalize_weights(g)
    before = sssp_distances(g, 0)
    after = sssp_distances(norm, 0)
    for b, a in zip(before, after):
        if math.isinf(b):
            assert math.isinf(a)
        else:
            assert abs(b - a * scale) <= 1e-12 * max(1.0, abs(b))


# ---------------------------------------------------------------- raw-graph checks


@pytest.mark.parametrize("second", [(0, 2, 3.0), (2, 0, 3.0)])
def test_check_edges_names_a_repeated_pair(second):
    g = WeightedGraph(4, [(0, 2, 1.0), (1, 2, 1.0), second, (2, 3, 1.0)])
    with pytest.raises(ValueError, match=re.escape(
            "vertex pair (0, 2) has more than one edge (edge 2 repeats it); "
            "WeightedGraph.from_edges keeps the lightest copy")):
        check_edges(g)
    check_edges(WeightedGraph.from_edges(4, g.edges))


# ---------------------------------------------------------------- induced subgraphs


def _filtered_induced(g, vertices):
    """induced_subgraph by a filter over all of g's edges."""
    index = {v: i for i, v in enumerate(vertices)}
    return [(index[u], index[v], w) for u, v, w in g.edges
            if u in index and v in index]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_induced_subgraph_matches_edge_filter(data):
    # raw constructor: any orientation, parallel edges and self-loops
    n = data.draw(st.integers(min_value=1, max_value=10))
    vid = st.integers(min_value=0, max_value=n - 1)
    edges = data.draw(st.lists(
        st.tuples(vid, vid, st.integers(min_value=1, max_value=5).map(float)),
        max_size=30))
    g = WeightedGraph(n, edges)
    vertices = data.draw(st.lists(vid, unique=True))
    sub, back = induced_subgraph(g, vertices)
    assert sub.n == len(vertices) and back == vertices
    assert sub.edges == _filtered_induced(g, vertices)

