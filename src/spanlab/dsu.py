"""The package's two union-find engines, one per role.

ClassicUF handles arbitrary unions (Kruskal's MST, pm's per-class
clustering, light's tree contraction): path compression + union by rank
with an explicit representative label so that directional unions keep a
caller-chosen representative.  StaticTreeUF handles the special case where
every union is Link(v) = Union(v, parent(v)) along a fixed rooted tree
(linear's clusters): it decomposes the tree into microsets of bounded depth,
answers an in-microset query by walking up at most _MICRO_CAP - 1 linked
ancestors, and short-circuits fully-linked microsets at the macro level.
The representative of a set is always its topmost member in the union
tree.

Both engines count their elementary steps in `.cost` so callers can record
amortized-op evidence.  For StaticTreeUF one unit is one of: a call (find
or link), a fully linked microset that a find crosses, or a partly linked
microset searched.  A find answers an unlinked vertex as itself, but counts
the search of its microset that this answer stands for.
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

# A microset closes once its residue reaches _MICRO_CAP nodes, so it takes
# child residues of fewer than _MICRO_CAP nodes: each member lies at most
# _MICRO_CAP - 1 parent steps below the microset's top, which bounds a
# find's walk inside a partly linked microset.
_MICRO_CAP = 6


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
        self._decompose()

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
        # one root, so a node the walk misses lies on a cycle or below one
        if len(order) < n:
            raise ValueError("parent array contains a cycle")

        micro_of = [-1] * n
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
            for x in members:
                micro_of[x] = mid

        for v in reversed(order):  # post-order
            for c in children[v]:
                if micro_of[c] == -1:
                    residue_size[v] += residue_size[c]
                    residue_children[v].append(c)
            if residue_size[v] >= _MICRO_CAP or v == self.root:
                close(v)

        self.micro_of = micro_of
        self.micro_members = micros   # each microset's top member first
        # the parent of each microset's top member (-1 for the root's):
        # where a find continues once a microset's ancestors are all linked
        self.micro_above = [self.parent[members[0]] for members in micros]


class StaticTreeUF:
    """Union-find whose unions are Link(v) = Union(v, parent(v)).

    find(v) returns the topmost member of v's set: it skips the fully
    linked microsets of the shared StaticTreeIndex and walks up the parent
    links inside a partly linked one, at most _MICRO_CAP - 1 steps.

    `cost` counts 1 per link and, per find, 1 for the call, 1 for each
    fully linked microset crossed and 1 for each partly linked microset
    searched.  An unlinked v is its own topmost member: find answers v
    without the search and counts the call and the search of v's
    microset, 2.  link is link_all of one vertex.

    Only link, link_all and find write the session: a find that crosses
    fully linked microsets records its answer in their skip caches.  peek
    is find without that write: it reads the skip caches as they stand,
    so it gives find's answer and counts find's cost, but leaves every
    later answer and count as it was.
    """

    def __init__(self, index: StaticTreeIndex):
        self.index = index
        self.linked = [False] * index.n
        self.cost = 0
        # per microset, its members not yet linked; 0 means fully linked
        self._left = [len(members) for members in index.micro_members]
        # per-microset continuation node, cached once the set is fully
        # linked (a full microset stays full, so the cache never goes stale)
        self._skip: list[Optional[int]] = [None] * len(self._left)

    def copy(self) -> "StaticTreeUF":
        """An independent session on the same index, in this one's state
        and with its `cost`."""
        new = object.__new__(type(self))
        new.index, new.cost = self.index, self.cost
        new.restore(self)
        return new

    def restore(self, other: "StaticTreeUF") -> None:
        """Put this session in `other`'s state (linked vertices, unlinked
        counts and skip caches), one list copy per array, so that neither
        session sees the other's later steps.  `cost` is left as it is:
        the caller charges whatever the restored state stands for."""
        self.linked = other.linked[:]
        self._left = other._left[:]
        self._skip = other._skip[:]

    def link(self, v: int) -> None:
        self.link_all((v,))

    def link_all(self, vs: Iterable[int]) -> None:
        """Link every v of vs in order.  A bad v raises before it changes
        anything, and the links before it stay made and counted."""
        idx = self.index
        root, linked = idx.root, self.linked
        micro_of, left = idx.micro_of, self._left
        done = 0
        try:
            for v in vs:
                if v == root:
                    raise ValueError("cannot Link the root of the union tree")
                if linked[v]:
                    raise ValueError(f"vertex {v} already linked")
                linked[v] = True
                left[micro_of[v]] -= 1
                done += 1
        finally:
            self.cost += done

    def find(self, v: int) -> int:
        if not 0 <= v < self.index.n:
            raise IndexError(f"element {v} out of range")
        if not self.linked[v]:
            self.cost += 2   # the call and the search that returns v
            return v
        return self._climb(v, record=True)

    def peek(self, v: int) -> int:
        """find(v), with its answer and its cost, that writes no skip
        cache."""
        if not 0 <= v < self.index.n:
            raise IndexError(f"element {v} out of range")
        if not self.linked[v]:
            self.cost += 2
            return v
        return self._climb(v, record=False)

    def _climb(self, v: int, record: bool) -> int:
        """Topmost member of linked v's set, counted as one find.  With
        `record`, the fully linked microsets crossed cache the answer."""
        # The root is never linkable, so the microset containing the root is
        # never full and its search always stops at an unlinked member.
        idx = self.index
        parent, micro_of, above = idx.parent, idx.micro_of, idx.micro_above
        linked, left, skips = self.linked, self._left, self._skip
        cost = 1   # the call
        trail: list[int] = []  # fully-linked microsets crossed, for caching
        while True:
            mid = micro_of[v]
            cost += 1
            if not left[mid]:
                trail.append(mid)
                # the answer is the first unlinked ancestor above this
                # microset; a previously found one is still on that path
                skip = skips[mid]
                v = skip if skip is not None else above[mid]
                continue
            # the first unlinked ancestor of v inside the microset, if any
            while linked[v]:
                v = parent[v]
                if micro_of[v] != mid:
                    break   # every in-microset ancestor is linked: go above
            else:
                break       # v is unlinked: the answer
        if record:
            for m in trail:
                skips[m] = v
        self.cost += cost
        return v
