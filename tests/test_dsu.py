from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from spanlab.dsu import _MICRO_CAP, ClassicUF, StaticTreeIndex, StaticTreeUF
from conftest import classic_uf_session, static_tree_uf_session


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
    with pytest.raises(IndexError):
        uf.peek(-1)


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


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_classic_peek_answers_like_find_and_writes_nothing(data):
    # pm's audit reads every vertex's cluster through `peek`; it must leave
    # the paths and the cost that later finds see as they were
    n = data.draw(st.integers(min_value=1, max_value=24))
    uf, unpeeked, found = ClassicUF(n), ClassicUF(n), ClassicUF(n)
    ops = data.draw(_classic_ops(n))
    for twin in (uf, unpeeked, found):
        _replay(twin, ops)
    before = (list(uf.parent), list(uf.rank), list(uf.label), uf.cost)
    peeked = [uf.peek(v) for v in range(n)]
    assert (uf.parent, uf.rank, uf.label, uf.cost) == before
    assert peeked == [found.find(v) for v in range(n)]
    probe = data.draw(_classic_ops(n))
    assert _replay(uf, probe) == _replay(unpeeked, probe)


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


@pytest.mark.parametrize("parent", [[-1, 2, 1], [-1, 0, 3, 4, 2], [2, -1, 0]],
                         ids=["two-cycle", "three-cycle", "cycle-through-0"])
def test_static_rejects_cycle_off_the_root(parent):
    # one root, and a cycle the root's subtree never reaches
    with pytest.raises(ValueError, match="parent array contains a cycle"):
        StaticTreeIndex(parent)


def _star(n: int) -> list[int]:
    return [-1] + [0] * (n - 1)


@pytest.mark.parametrize("make", ["random", "path", "star", "broom"])
def test_static_microset_members_lie_within_cap_of_top(make):
    # find's walk inside a partly linked microset climbs from a member to
    # the microset's top, so it takes at most _MICRO_CAP - 1 steps
    rng = random.Random(make)
    for _ in range(40):
        n = rng.randint(1, 200)
        if make == "random":
            parent = _random_tree(rng, n)
        elif make == "path":
            parent = _chain(n)
        elif make == "star":
            parent = _star(n)
        else:
            handle = rng.randint(1, n)
            parent = _broom(handle, n - handle)
        index = StaticTreeIndex(parent)
        seen = []
        for mid, members in enumerate(index.micro_members):
            top = members[0]
            assert index.micro_above[mid] == index.parent[top]
            for x in members:
                assert index.micro_of[x] == mid
                steps = 0
                while x != top:
                    x = index.parent[x]
                    steps += 1
                    assert index.micro_of[x] == mid
                assert steps <= _MICRO_CAP - 1, f"{make} n={n}: {steps} steps"
            seen += members
        assert sorted(seen) == list(range(n))


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



# ---------------------------------------------------------------- cost model


class ReferenceStaticTreeUF:
    """Gabow and Tarjan's microset tables, built here from the index's
    microsets and parent links: each microset numbers its members 0, 1,
    ... in `micro_members` order, keeps a bitmask of its linked members,
    and answers an in-microset find from a memoized transition table that
    maps every member to its first unlinked ancestor inside the microset,
    or -1.  Every find walks the microsets and looks each table up; it has
    no answer for an unlinked vertex without that lookup.  The engine must
    give the same answer and the same `cost` increment on every op.  peek
    is find that records no skip."""

    def __init__(self, index: StaticTreeIndex):
        self.index = index
        self.linked = [False] * index.n
        self.cost = 0
        self._local = [0] * index.n
        self._shape = []   # per microset, each member's local parent or -1
        for members in index.micro_members:
            local = {x: i for i, x in enumerate(members)}
            for x, i in local.items():
                self._local[x] = i
            self._shape.append(tuple(local.get(index.parent[x], -1) for x in members))
        self._full = [(1 << len(members)) - 1 for members in index.micro_members]
        self._mask = [0] * len(index.micro_members)
        self._skip = [None] * len(index.micro_members)
        self._tables = {}  # (shape, mask) -> table

    def _table(self, mid: int) -> tuple:
        key = (self._shape[mid], self._mask[mid])
        table = self._tables.get(key)
        if table is None:
            shape, mask = key
            table = []
            for x in range(len(shape)):
                while x != -1 and (mask >> x) & 1:
                    x = shape[x]
                table.append(x)
            table = self._tables[key] = tuple(table)
        return table

    def link(self, v: int) -> None:
        idx = self.index
        if v == idx.root:
            raise ValueError("cannot Link the root of the union tree")
        if self.linked[v]:
            raise ValueError(f"vertex {v} already linked")
        self.linked[v] = True
        self.cost += 1
        self._mask[idx.micro_of[v]] |= 1 << self._local[v]

    def peek(self, v: int) -> int:
        return self.find(v, record=False)

    def find(self, v: int, record: bool = True) -> int:
        if not (0 <= v < self.index.n):
            raise IndexError(f"element {v} out of range")
        self.cost += 1
        idx = self.index
        trail = []
        while True:
            mid = idx.micro_of[v]
            top_parent = idx.parent[idx.micro_members[mid][0]]
            self.cost += 1
            if self._mask[mid] == self._full[mid]:
                skip = self._skip[mid]
                trail.append(mid)
                v = skip if skip is not None else top_parent
                continue
            local = self._table(mid)[self._local[v]]
            if local != -1:
                ans = idx.micro_members[mid][local]
                if record:
                    for m in trail:
                        self._skip[m] = ans
                return ans
            v = top_parent


_CALLS = {"L": "link", "F": "find", "P": "peek"}


def _assert_same_per_op(parent, ops) -> StaticTreeUF:
    """Replay `ops` (L link, F find, P peek) on the engine and on the
    reference side by side; a peek must also leave the engine's state and
    the reference's skips as they were.  Returns the engine."""
    index = StaticTreeIndex(parent)
    engines = (StaticTreeUF(index), ReferenceStaticTreeUF(index))
    for step, op in enumerate(ops):
        seen = []
        state = [x[:] for x in _session_state(engines[0])[1:]] + [engines[1]._skip[:]]
        for uf in engines:
            before = uf.cost
            ans = getattr(uf, _CALLS[op[0]])(op[1])
            seen.append((ans, uf.cost - before))
        assert seen[0] == seen[1], f"op {step} {op}: engine {seen[0]}, reference {seen[1]}"
        if op[0] == "P":
            assert [*_session_state(engines[0])[1:], engines[1]._skip] == state, \
                f"op {step} {op} wrote the session"
    return engines[0]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_static_cost_per_op_matches_reference(data):
    n = data.draw(st.integers(min_value=1, max_value=64))
    shape = [-1] + [data.draw(st.integers(min_value=0, max_value=v - 1))
                    for v in range(1, n)]
    # relabel, so that the root and the parent order vary
    label = data.draw(st.permutations(list(range(n))))
    parent = [-1] * n
    for v in range(1, n):
        parent[label[v]] = label[shape[v]]
    root = label[0]
    probes = st.lists(st.tuples(st.sampled_from("FP"),
                                st.integers(min_value=0, max_value=n - 1)),
                      max_size=4)
    order = data.draw(st.permutations([v for v in range(n) if v != root]))
    cut = data.draw(st.integers(min_value=0, max_value=len(order)))
    ops = data.draw(probes)
    for v in order[:cut]:
        ops.append(("L", v))
        ops += data.draw(probes)
    _assert_same_per_op(parent, ops)


def _chain(n: int) -> list[int]:
    return [-1] + list(range(n - 1))


def _broom(handle: int, bristles: int) -> list[int]:
    """A path of `handle` vertices from the root with `bristles` leaves
    under its last vertex."""
    return _chain(handle) + [handle - 1] * bristles


@pytest.mark.parametrize("parent", [_chain(300), _broom(200, 100), _broom(100, 200)],
                         ids=["chain300", "broom200+100", "broom100+200"])
@pytest.mark.parametrize("order", ["bottom-up", "top-down", "shuffled"])
def test_static_cost_per_op_matches_reference_on_deep_trees(parent, order):
    # long paths stack dozens of microsets; finds from the bottom cross
    # the fully linked ones and fill and then follow the skip cache, and
    # peeks climb them before and after a find has filled it
    n = len(parent)
    rng = random.Random(f"{n}-{order}")
    links = list(range(1, n))
    if order == "bottom-up":
        links.reverse()
    elif order == "shuffled":
        rng.shuffle(links)
    ops = []
    for count, v in enumerate(links, 1):
        ops.append(("L", v))
        if count % 7 == 0:
            ops += [("P", n - 1), ("F", n - 1), ("P", rng.randrange(n)),
                    ("F", rng.randrange(n)), ("F", n - 1), ("P", n - 1)]
    ops += [("P", v) for v in range(n - 1, -1, -1)]
    ops += [("F", v) for v in range(n - 1, -1, -1)]
    ops += [(rng.choice("FP"), rng.randrange(n)) for _ in range(n)]
    uf = _assert_same_per_op(parent, ops)
    assert len(uf.index.micro_members) >= 15
    assert any(skip is not None for skip in uf._skip)


# ---------------------------------------------------------------- batched calls


def _session_state(uf: StaticTreeUF):
    return uf.cost, uf._left, uf._skip, uf.linked


def _warm_pair(data, n_max: int = 64):
    """Two sessions on one drawn tree, driven through the same links and
    finds (so that skip caches are filled), plus the drawn
    link order of the vertices left unlinked."""
    n = data.draw(st.integers(min_value=2, max_value=n_max))
    parent = [-1] + [data.draw(st.integers(min_value=0, max_value=v - 1))
                     for v in range(1, n)]
    index = StaticTreeIndex(parent)
    pair = (StaticTreeUF(index), StaticTreeUF(index))
    order = data.draw(st.permutations(list(range(1, n))))
    cut = data.draw(st.integers(min_value=0, max_value=n - 1))
    probes = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=8))
    for uf in pair:
        for v in order[:cut]:
            uf.link(v)
        for v in probes:
            uf.find(v)
    assert _session_state(pair[0]) == _session_state(pair[1])
    return n, pair, list(order[cut:])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_static_link_all_equals_link_loop(data):
    _, (batched, looped), rest = _warm_pair(data)
    vs = rest[:data.draw(st.integers(min_value=0, max_value=len(rest)))]
    batched.link_all(vs)
    for v in vs:
        looped.link(v)
    assert _session_state(batched) == _session_state(looped)


@pytest.mark.parametrize("vs, error", [([3, 0, 4], ValueError),    # the root
                                       ([3, 5, 4], ValueError),    # linked
                                       ([3, 4, 3], ValueError),    # repeated
                                       ([3, 10, 4], IndexError)],  # out of range
                         ids=["root", "linked", "repeated", "out-of-range"])
def test_static_link_all_raises_like_link(vs, error):
    # 0 <- 1 <- 2 <- ... <- 9, with 5 linked up front
    index = StaticTreeIndex(_chain(10))
    batched, looped = StaticTreeUF(index), StaticTreeUF(index)
    errors = []
    for uf in (batched, looped):
        uf.link(5)
        with pytest.raises(error) as info:
            if uf is batched:
                uf.link_all(vs)
            else:
                for v in vs:
                    uf.link(v)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    # the links before the bad vertex happened on both sides
    assert _session_state(batched) == _session_state(looped)
    assert batched.linked[3]


def test_static_find_unlinked_costs_two_each():
    index = StaticTreeIndex(_chain(8))
    for call in ("find", "peek"):
        uf = StaticTreeUF(index)
        uf.link(3)
        assert [getattr(uf, call)(v) for v in [1, 2, 5]] == [1, 2, 5]
        assert uf.cost == 1 + 3 * 2


@pytest.mark.parametrize("bad", [8, -1])
def test_static_peek_raises_like_find(bad):
    uf = StaticTreeUF(StaticTreeIndex(_chain(8)))
    uf.link(3)
    for call in (uf.find, uf.peek):
        with pytest.raises(IndexError, match="out of range"):
            call(bad)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_static_restore_is_independent_of_its_snapshot(data):
    # `twin` stays in the snapshot's state throughout: later links and
    # finds on either side of a copy or a restore must not reach the other
    n, (uf, twin), rest = _warm_pair(data)
    snap = uf.copy()
    assert _session_state(snap) == _session_state(twin)
    cut = data.draw(st.integers(min_value=0, max_value=len(rest)))
    uf.link_all(rest[:cut])
    for v in range(n):
        uf.find(v)
    assert _session_state(snap) == _session_state(twin)

    cost = uf.cost
    uf.restore(snap)
    assert uf.cost == cost
    assert _session_state(uf)[1:] == _session_state(twin)[1:]
    uf.link_all(rest)
    assert _session_state(snap) == _session_state(twin)

    uf.restore(snap)
    cost = uf.cost
    vs = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=40))
    assert [uf.find(v) for v in vs] == [twin.find(v) for v in vs]
    assert uf.cost - cost == twin.cost - snap.cost
    assert _session_state(uf)[1:] == _session_state(twin)[1:]


# ---------------------------------------------------------------- amortized cost

# cost of the seeded trace below on each rung n = 2^10 .. 2^14
LADDER_COST = [5180, 10487, 21225, 42615, 85322]


def test_static_tree_cost_ladder():
    # Gabow and Tarjan (JCSS 30(2), 1985): m Link/Find ops on an n-node
    # static tree cost O(m + n).  Each rung draws a random tree, links
    # every non-root vertex in random order with a random find after each
    # link from the second on, then makes n/2 more finds; the rungs share
    # one seeded stream, in order.
    rng = random.Random(0)
    for n, expected in zip([2 ** e for e in range(10, 15)], LADDER_COST):
        parent = [-1] + [rng.randrange(v) for v in range(1, n)]
        uf = StaticTreeUF(StaticTreeIndex(parent))
        ops = 0
        order = list(range(1, n))
        rng.shuffle(order)
        for v in order:
            uf.link(v)
            ops += 1
            if ops % 2 == 0:
                uf.find(rng.randrange(n))
                ops += 1
        for _ in range(n // 2):
            uf.find(rng.randrange(n))
            ops += 1
        assert uf.cost == expected, f"n={n}"
        assert uf.cost / (ops + n) <= 1.5, f"n={n}: {uf.cost}/{ops + n}"
