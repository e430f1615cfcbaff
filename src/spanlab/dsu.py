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
amortized-op evidence.  For StaticTreeUF one unit is one of: a call (find
or link), a fully linked microset that a find crosses, or a table step (one
lookup in a partly linked microset's table).  What a step costs in Python
is not part of the count: a session keeps each microset's current table
until a link into that microset, and answers an unlinked vertex as itself,
but both count the table step that the lookup would have taken.
"""
from __future__ import annotations

from itertools import compress
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

    def peek(self, x: int) -> int:
        """find(x)'s answer, without compressing a path or charging cost."""
        if not (0 <= x < len(self.parent)):
            raise IndexError(f"element {x} out of range")
        p = self.parent
        while p[x] != x:
            x = p[x]
        return self.label[x]

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

    def __init__(self, parent: Sequence[int]):
        n = len(parent)
        self.n = n
        self.parent = list(parent)
        roots = [v for v in range(n) if parent[v] < 0 or parent[v] == v]
        if len(roots) != 1:
            raise ValueError(f"parent array must define one rooted tree, found roots {roots}")
        self.root = roots[0]
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
        # the parent of each microset's top member (-1 for the root's):
        # where a find continues once a microset's ancestors are all linked
        self.micro_above = [self.parent[members[0]] for members in micros]
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

    `cost` counts 1 per link and, per find, 1 for the call, 1 for each
    fully linked microset crossed and 1 for each table step.  Two shortcuts
    leave the count as it is.  The current table of each microset is kept
    until a link changes its mask, which stands for the shared memo lookup
    it replaces.  An unlinked v is its own topmost member: its microset is
    not full and its table maps v to itself, so the answer is v after the
    call and one table step, and 2 is counted.  link is link_all of one
    vertex, and find_all counts exactly what a loop of find would.

    Only link, link_all, find and find_all write the session: a find
    that crosses fully linked microsets records its answer in their skip
    caches, and keeps each table it looks up.  peek is find without
    those writes: it reads the skip caches and tables as they stand, so
    it gives find's answer and counts find's cost, but leaves every
    later answer and count as it was.
    """

    def __init__(self, index: StaticTreeIndex):
        self.index = index
        self.linked = [False] * index.n
        self.cost = 0
        n_micro = len(index.micro_members)
        self._mask = [0] * n_micro
        # current table per microset; None once a link has changed its mask
        self._table: list[Optional[tuple[int, ...]]] = [None] * n_micro
        # per-microset continuation node, cached once the set is fully
        # linked (a full microset stays full, so the cache never goes stale)
        self._skip: list[Optional[int]] = [None] * n_micro

    def copy(self) -> "StaticTreeUF":
        """An independent session on the same index, in this one's state
        and with its `cost`."""
        new = object.__new__(type(self))
        new.index, new.cost = self.index, self.cost
        new.restore(self)
        return new

    def restore(self, other: "StaticTreeUF") -> None:
        """Put this session in `other`'s state (linked vertices, masks,
        tables and skip caches), one list copy per array, so that neither
        session sees the other's later steps.  `cost` is left as it is:
        the caller charges whatever the restored state stands for."""
        self.linked = other.linked[:]
        self._mask = other._mask[:]
        self._table = other._table[:]
        self._skip = other._skip[:]

    def link(self, v: int) -> None:
        self.link_all((v,))

    def link_all(self, vs: Iterable[int]) -> None:
        """Link every v of vs in order.  A bad v raises before it changes
        anything, and the links before it stay made and counted."""
        idx = self.index
        root, linked = idx.root, self.linked
        micro_of, local_of = idx.micro_of, idx.local_of
        masks, tables = self._mask, self._table
        done = 0
        try:
            for v in vs:
                if v == root:
                    raise ValueError("cannot Link the root of the union tree")
                if linked[v]:
                    raise ValueError(f"vertex {v} already linked")
                linked[v] = True
                mid = micro_of[v]
                masks[mid] |= 1 << local_of[v]
                tables[mid] = None
                done += 1
        finally:
            self.cost += done

    def find_all(self, vs: Iterable[int]) -> list[int]:
        """[find(v) for v in vs], with the same answers and cost.  Each
        unlinked v is answered as itself and counted 2, as find counts it;
        the linked ones climb in one batch."""
        out = list(vs)
        if out and not (0 <= min(out) and max(out) < self.index.n):
            return [self.find(v) for v in out]   # raises find's error
        hits = list(compress(range(len(out)), map(self.linked.__getitem__, out)))
        if hits:
            for j, top in zip(hits, self._climb([out[j] for j in hits])):
                out[j] = top
        self.cost += 2 * (len(out) - len(hits))
        return out

    def find(self, v: int) -> int:
        if not 0 <= v < self.index.n:
            raise IndexError(f"element {v} out of range")
        if not self.linked[v]:
            self.cost += 2   # the call and the table step that returns v
            return v
        return self._climb([v])[0]

    def peek(self, v: int) -> int:
        """find(v), with its answer and its cost, that writes no skip
        cache and no table."""
        if not 0 <= v < self.index.n:
            raise IndexError(f"element {v} out of range")
        if not self.linked[v]:
            self.cost += 2
            return v
        return self._climb([v], record=False)[0]

    def _climb(self, vs: list[int], record: bool = True) -> list[int]:
        """Topmost members of linked vertices, found in order and counted
        as one find each.  Without `record`, the skip caches and tables
        are read but not written."""
        # The root is never linkable, so the microset containing the root is
        # never full and its table always yields an answer: termination.
        idx = self.index
        micro_of, local_of, above = idx.micro_of, idx.local_of, idx.micro_above
        members, full = idx.micro_members, idx.micro_full
        masks, tables, skips = self._mask, self._table, self._skip
        cost = len(vs)   # the calls
        out: list[int] = []
        for v in vs:
            trail: list[int] = []  # fully-linked microsets crossed, for caching
            while True:
                mid = micro_of[v]
                mask = masks[mid]
                cost += 1
                if mask == full[mid]:
                    trail.append(mid)
                    # the answer is the first unlinked ancestor above this
                    # microset; a previously found one is still on that path
                    skip = skips[mid]
                    v = skip if skip is not None else above[mid]
                    continue
                table = tables[mid]
                if table is None:
                    table = idx.table(mid, mask)
                    if record:
                        tables[mid] = table
                local = table[local_of[v]]
                if local != -1:
                    ans = members[mid][local]
                    if record:
                        for m in trail:
                            skips[m] = ans
                    out.append(ans)
                    break
                # every in-microset ancestor of v is linked; continue above
                v = above[mid]
        self.cost += cost
        return out
