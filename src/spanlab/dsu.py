"""The package's two union-find engines, one per role.

ClassicUF handles arbitrary unions (Kruskal's MST, pm's per-class
clustering, light's tree contraction): path compression + union by rank
with an explicit representative label so that directional unions keep a
caller-chosen representative.  StaticTreeUF handles the special case where
every union is Link(v) = Union(v, parent(v)) along a fixed rooted tree
(linear's clusters): it decomposes the tree into microsets of bounded size,
answers in-microset queries from memoized transition tables keyed on
(microset shape, linked mask), and short-circuits fully-linked microsets at
the macro level.  The representative of a set is always its topmost member
in the union tree.

Both engines count their elementary steps in `.cost` so callers can record
amortized-op evidence.
"""
from __future__ import annotations

from typing import Iterable, Optional, Sequence

# ---------------------------------------------------------------- classic


class ClassicUF:
    """Union-find with path compression and union by rank.

    union(a, b) merges the two sets and makes the *representative of b's
    set* the representative of the merged set, so driving it with
    (v, parent(v)) pairs reproduces topmost-representative semantics.
    """

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.label = list(range(n))   # representative reported for each root
        self.cost = 0
        self._touched: list[int] = []  # both roots of every union since reset

    def reset(self) -> None:
        """Return to n singletons at the cost of the unions since the last
        reset, not of n.

        Only a union writes `rank` and `label`, and only on the two roots
        it joins; path compression rewrites `parent` only on vertices that
        some union made non-root.  Restoring the recorded roots therefore
        restores every changed entry.  `cost` keeps counting across resets.
        """
        parent, rank, label = self.parent, self.rank, self.label
        for x in self._touched:
            parent[x] = x
            rank[x] = 0
            label[x] = x
        self._touched.clear()

    def find(self, x: int) -> int:
        if not (0 <= x < len(self.parent)):
            raise IndexError(f"element {x} out of range")
        p = self.parent
        self.cost += 1
        root = x
        while p[root] != root:
            root = p[root]
            self.cost += 1
        while p[x] != root:
            p[x], x = root, p[x]
        return self.label[root]

    def _root(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge; the representative of b's set survives. False if same set."""
        ra, rb = self._root(a), self._root(b)
        self.cost += 1
        if ra == rb:
            return False
        keep = self.label[rb]
        self._touched += (ra, rb)
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        self.label[ra] = keep
        return True


# ---------------------------------------------------------------- static tree

_MICRO_CAP = 6  # microset size bound; table space is shapes * 2^cap


def _first_free_table(shape: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """For every local node: first ancestor (incl. itself) not in `mask`,
    or -1 when the whole in-microset ancestor path is linked."""
    out = []
    for v in range(len(shape)):
        x = v
        while x != -1 and (mask >> x) & 1:
            x = shape[x]
        out.append(x)
    return tuple(out)


class StaticTreeIndex:
    """Microset decomposition of a rooted tree, shared by UF sessions."""

    def __init__(self, parent: Sequence[int], root: Optional[int] = None):
        n = len(parent)
        self.n = n
        self.parent = list(parent)
        roots = [v for v in range(n) if parent[v] < 0 or parent[v] == v]
        if len(roots) != 1:
            raise ValueError(f"parent array must define one rooted tree, found roots {roots}")
        self.root = roots[0]
        if root is not None and root != self.root:
            raise ValueError(f"declared root {root} but parent array roots at {self.root}")
        self.parent[self.root] = -1
        self._validate_tree()
        self._decompose()

    def _validate_tree(self) -> None:
        state = [0] * self.n  # 0 unseen, 1 done
        for v in range(self.n):
            path = []
            x = v
            while x != -1 and not state[x]:
                path.append(x)
                state[x] = 2
                x = self.parent[x]
                if x != -1 and state[x] == 2:
                    raise ValueError("parent array contains a cycle")
            for y in path:
                state[y] = 1

    def _decompose(self) -> None:
        n = self.n
        children: list[list[int]] = [[] for _ in range(n)]
        order = []
        for v in range(n):
            if v != self.root:
                children[self.parent[v]].append(v)
        stack = [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            for c in children[v]:
                stack.append(c)

        micro_of = [-1] * n
        local_of = [0] * n
        micros: list[list[int]] = []
        residue_size = [1] * n
        residue_children: list[list[int]] = [[] for _ in range(n)]

        def close(top: int) -> None:
            members = []
            st = [top]
            while st:
                x = st.pop()
                members.append(x)
                st.extend(residue_children[x])
            mid = len(micros)
            micros.append(members)
            for i, x in enumerate(members):
                micro_of[x] = mid
                local_of[x] = i

        for v in reversed(order):  # post-order
            for c in children[v]:
                if micro_of[c] == -1:
                    residue_size[v] += residue_size[c]
                    residue_children[v].append(c)
            if residue_size[v] >= _MICRO_CAP or v == self.root:
                close(v)

        self.micro_of = micro_of
        self.local_of = local_of
        self.micro_members = micros
        self.micro_top = [members[0] for members in micros]
        # local parent pointers (-1 at the microset top)
        shapes: list[tuple[int, ...]] = []
        for members in micros:
            index = {x: i for i, x in enumerate(members)}
            shape = []
            for x in members:
                p = self.parent[x]
                shape.append(index.get(p, -1) if p != -1 else -1)
            shapes.append(tuple(shape))
        self.micro_shape = shapes
        self.micro_full = [(1 << len(members)) - 1 for members in micros]
        self._tables: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}

    def table(self, mid: int, mask: int) -> tuple[int, ...]:
        key = (self.micro_shape[mid], mask)
        t = self._tables.get(key)
        if t is None:
            t = _first_free_table(self.micro_shape[mid], mask)
            self._tables[key] = t
        return t


class StaticTreeUF:
    """Union-find whose unions are Link(v) = Union(v, parent(v)).

    find(v) returns the topmost member of v's set, resolved through the
    microset tables of the shared StaticTreeIndex.
    """

    def __init__(self, index: StaticTreeIndex):
        self.index = index
        self.linked = [False] * index.n
        self.cost = 0
        self._mask = [0] * len(index.micro_members)
        # per-microset continuation node, cached once the set is fully
        # linked (a full microset stays full, so the cache never goes stale)
        self._skip: list[Optional[int]] = [None] * len(index.micro_members)

    def link(self, v: int) -> None:
        idx = self.index
        if v == idx.root:
            raise ValueError("cannot Link the root of the union tree")
        if self.linked[v]:
            raise ValueError(f"vertex {v} already linked")
        self.linked[v] = True
        self.cost += 1
        self._mask[idx.micro_of[v]] |= 1 << idx.local_of[v]

    def find(self, v: int) -> int:
        if not (0 <= v < self.index.n):
            raise IndexError(f"element {v} out of range")
        self.cost += 1
        # The root is never linkable, so the microset containing the root is
        # never full and its table always yields an answer: termination.
        idx = self.index
        trail: list[int] = []  # fully-linked microsets crossed, for caching
        while True:
            mid = idx.micro_of[v]
            mask = self._mask[mid]
            if mask == idx.micro_full[mid]:
                self.cost += 1
                skip = self._skip[mid]
                trail.append(mid)
                # the answer is the first unlinked ancestor above this
                # microset; a previously found one is still on that path
                v = skip if skip is not None else idx.parent[idx.micro_top[mid]]
                continue
            local = idx.table(mid, mask)[idx.local_of[v]]
            self.cost += 1
            if local != -1:
                ans = idx.micro_members[mid][local]
                for m in trail:
                    self._skip[m] = ans
                return ans
            # every in-microset ancestor of v is linked; continue above
            v = idx.parent[idx.micro_top[mid]]


# ---------------------------------------------------------------- sessions

Op = tuple  # ("U", a, b) | ("L", v) | ("F", v)


def classic_uf_session(n: int, ops: Iterable[Op]) -> tuple[list[int], int]:
    """Run a Union/Find trace on ClassicUF; returns (find answers, cost)."""
    uf = ClassicUF(n)
    answers: list[int] = []
    for op in ops:
        if op[0] == "U":
            uf.union(op[1], op[2])
        elif op[0] == "F":
            answers.append(uf.find(op[1]))
        else:
            raise ValueError(f"classic session does not accept op {op!r}")
    return answers, uf.cost


def static_tree_uf_session(
    parent: Sequence[int], ops: Iterable[Op]
) -> tuple[list[int], int]:
    """Run a Link/Find trace on StaticTreeUF; returns (find answers, cost)."""
    uf = StaticTreeUF(StaticTreeIndex(parent))
    answers: list[int] = []
    for op in ops:
        if op[0] == "L":
            uf.link(op[1])
        elif op[0] == "F":
            answers.append(uf.find(op[1]))
        else:
            raise ValueError(f"static session does not accept op {op!r}")
    return answers, uf.cost
