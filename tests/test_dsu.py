from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from spanlab.dsu import (
    ClassicUF,
    StaticTreeIndex,
    StaticTreeUF,
    classic_uf_session,
    static_tree_uf_session,
)


# ---------------------------------------------------------------- classic


def test_classic_session_basic():
    answers, cost = classic_uf_session(3, [("U", 0, 1), ("F", 1), ("F", 2)])
    assert answers[0] in (0, 1)
    assert answers[1] == 2
    assert cost > 0


def test_classic_singleton():
    answers, _ = classic_uf_session(1, [("F", 0)])
    assert answers == [0]


def test_classic_out_of_range():
    uf = ClassicUF(3)
    with pytest.raises(IndexError):
        uf.find(7)


class NaiveSets:
    """List-of-sets oracle for partition semantics."""

    def __init__(self, n):
        self.sets = [{i} for i in range(n)]

    def locate(self, x):
        for s in self.sets:
            if x in s:
                return s
        raise AssertionError

    def union(self, a, b):
        sa, sb = self.locate(a), self.locate(b)
        if sa is not sb:
            self.sets.remove(sa)
            sb |= sa

    def partition(self, n):
        out = [0] * n
        for idx, s in enumerate(sorted(self.sets, key=min)):
            for x in s:
                out[x] = idx
        return out


def test_classic_matches_naive_oracle():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(2, 12)
        uf = ClassicUF(n)
        naive = NaiveSets(n)
        for _ in range(50):
            a, b = rng.randrange(n), rng.randrange(n)
            uf.union(a, b)
            naive.union(a, b)
        mine = {}
        for v in range(n):
            mine.setdefault(uf.find(v), []).append(v)
        got = sorted(sorted(s) for s in mine.values())
        want = sorted(sorted(s) for s in naive.sets)
        assert got == want


def test_classic_union_keeps_second_representative():
    uf = ClassicUF(4)
    uf.union(2, 3)
    assert uf.find(2) == 3
    uf.union(0, 2)
    assert uf.find(0) == 3


def _replay(uf: ClassicUF, ops) -> list[tuple[int, int]]:
    """(answer, cost increment) of each op; unions answer 1 if they merged."""
    out = []
    for op in ops:
        before = uf.cost
        if op[0] == "U":
            ans = int(uf.union(op[1], op[2]))
        else:
            ans = uf.find(op[1])
        out.append((ans, uf.cost - before))
    return out


def _classic_ops(n: int):
    node = st.integers(min_value=0, max_value=n - 1)
    return st.lists(
        st.one_of(st.tuples(st.just("U"), node, node), st.tuples(st.just("F"), node)),
        max_size=60,
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_classic_reset_equals_fresh(data):
    n = data.draw(st.integers(min_value=1, max_value=24))
    uf = ClassicUF(n)
    # several rounds, as pm runs one class after another on one structure
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        _replay(uf, data.draw(_classic_ops(n)))
        uf.reset()
        fresh = ClassicUF(n)
        assert (uf.parent, uf.rank, uf.label) == (fresh.parent, fresh.rank, fresh.label)
        probe = data.draw(_classic_ops(n))
        cost0 = uf.cost
        assert _replay(uf, probe) == _replay(fresh, probe)
        assert uf.cost - cost0 == fresh.cost


def test_classic_reset_keeps_counting_cost():
    uf = ClassicUF(5)
    uf.union(0, 1)
    uf.find(0)
    cost = uf.cost
    uf.reset()
    assert uf.cost == cost
    assert uf.find(0) == 0 and uf.find(1) == 1


# ---------------------------------------------------------------- static


def test_static_path_tree_example():
    # path tree 0 <- 1 <- 2 (root 0)
    parent = [-1, 0, 1]
    answers, _ = static_tree_uf_session(parent, [("L", 2), ("F", 2)])
    assert answers == [1]
    answers, _ = static_tree_uf_session(
        parent, [("L", 2), ("L", 1), ("F", 2)]
    )
    assert answers == [0]


def test_static_rejects_illegal_links():
    idx = StaticTreeIndex([-1, 0, 0])
    uf = StaticTreeUF(idx)
    with pytest.raises(ValueError):
        uf.link(0)  # root
    uf.link(1)
    with pytest.raises(ValueError):
        uf.link(1)  # double link


def test_static_rejects_malformed_tree():
    with pytest.raises(ValueError):
        StaticTreeIndex([1, 0])  # two roots / cycle
    with pytest.raises(ValueError):
        StaticTreeIndex([-1, -1])  # forest


def _random_tree(rng: random.Random, n: int) -> list[int]:
    parent = [-1] * n
    for v in range(1, n):
        parent[v] = rng.randrange(v)
    return parent


def _random_legal_trace(rng: random.Random, n: int, parent):
    linked = set()
    ops = []
    candidates = list(range(1, n))
    rng.shuffle(candidates)
    for v in candidates:
        if rng.random() < 0.7:
            ops.append(("L", v))
            linked.add(v)
        for _ in range(rng.randint(0, 2)):
            ops.append(("F", rng.randrange(n)))
    return ops


def _topmost_oracle(parent, linked, v):
    while linked[v]:
        v = parent[v]
    return v


def test_static_topmost_matches_direct_walk():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(2, 64)
        parent = _random_tree(rng, n)
        ops = _random_legal_trace(rng, n, parent)
        idx = StaticTreeIndex(parent)
        uf = StaticTreeUF(idx)
        linked = [False] * n
        for op in ops:
            if op[0] == "L":
                uf.link(op[1])
                linked[op[1]] = True
            else:
                got = uf.find(op[1])
                assert got == _topmost_oracle(parent, linked, op[1])


def test_cross_engine_equivalence_random():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 64)
        parent = _random_tree(rng, n)
        ops = _random_legal_trace(rng, n, parent)
        stat, _ = static_tree_uf_session(parent, ops)
        classic_ops = [
            ("U", op[1], parent[op[1]]) if op[0] == "L" else op for op in ops
        ]
        classic, _ = classic_uf_session(n, classic_ops)
        assert stat == classic


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cross_engine_equivalence_property(data):
    n = data.draw(st.integers(min_value=2, max_value=48))
    parent = [-1] + [data.draw(st.integers(min_value=0, max_value=v - 1))
                     for v in range(1, n)]
    order = data.draw(st.permutations(list(range(1, n))))
    cut = data.draw(st.integers(min_value=0, max_value=n - 1))
    ops = []
    for v in order[:cut]:
        ops.append(("L", v))
        ops.append(("F", data.draw(st.integers(min_value=0, max_value=n - 1))))
    stat, _ = static_tree_uf_session(parent, ops)
    classic_ops = [("U", op[1], parent[op[1]]) if op[0] == "L" else op for op in ops]
    classic, _ = classic_uf_session(n, classic_ops)
    assert stat == classic


def test_topmost_is_ancestor_invariant():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 64)
        parent = _random_tree(rng, n)
        idx = StaticTreeIndex(parent)
        uf = StaticTreeUF(idx)
        linked = [False] * n
        for op in _random_legal_trace(rng, n, parent):
            if op[0] == "L":
                uf.link(op[1])
                linked[op[1]] = True
            else:
                rep = uf.find(op[1])
                x = op[1]
                seen = False
                while x != -1:
                    if x == rep:
                        seen = True
                        break
                    x = parent[x]
                assert seen

