"""Ground-truth machinery: greedy baseline, exact stretch verification, and
sparsity/lightness metrics.

Deliberately self-contained: this module re-implements its own searches
and a Prim-style spanning forest so that nothing it certifies depends on
the code paths under test.

The greedy baseline runs the same bounded `_dijkstra` as verification, one
search per edge of G, bounded by t * w over the spanner kept so far.

Stretch verification measures each edge (u, v) of G as d_H(u, v) / w.  How
the distances are found is picked from H alone.

When every edge of H has one weight c (an H with no edges included), the
distance of a query is its hop count h, read as S[h] (below), and two
bit-parallel searches find h.  One scan of H indexes its pairs as ints,
range-checking its ids first, and one scan of G registers the queries and
marks each pair of H that G holds with weight c, so this case builds no
index of G's edges: `_check_subgraph` runs only when an id is out of
range or a pair is left unmarked, to raise.  A query whose endpoints lie in
different H-components is never searched: its distance is inf.  Nor is a
query whose pair is an edge of H: its endpoints differ and one hop is the
fewest, so its distance is S[1] = c, and it makes no vertex a source.
Each H-component with a query then takes one of the two searches, by a
rule (`_grows_balls`) that costs one OR per run of a live source's
queries and one bit count per level.

The ball DP.  Each vertex of a component with at most `_ROUND` vertices
gets a bit for its rank in the component, and Ball_0(x) = {x}.  Level r
sets Ball_r(x) = Ball_{r-1}(x) | the OR of Ball_{r-1}(y) over x's
H-neighbours y: one OR per H-edge end, all components in the same sweep.
A live query (s, t) meets when Ball_r(s) & Ball_r(t) is not empty, and
only then is Ball_{r-1}(t) tested: it gets S[2r-1] when Ball_r(s) &
Ball_{r-1}(t) is not empty, else S[2r].  So a query still waiting costs
one AND a level.  This is exact: balls of radii r and r' meet iff
d <= r + r', Ball_{r-1}(t) lies inside Ball_r(t), and every query with
d <= 2r-2 was answered on an earlier level.  Level r answers hop
distances 2r-1 and 2r, so the DP needs half the BFS's hops.  A
component enters the DP only when at least half its vertices are
sources, and runs level r+1 only while (r+2) * |OR of Ball_r(s) over its
sources with a live query| >= its size: a level sweeps the whole
component, so it pays while the live sources' balls cover much of it.

The BFS takes the other components' queries, and those a component
leaves unanswered when the rule stops its balls (multi-source BFS, after
Then et al., PVLDB 8(4), 2014).  Each vertex holds Python-int bitsets of
the sources that have reached it (`seen`) and that reached it on the last
hop (the frontier); each hop ORs a vertex's frontier bits into its
neighbours.  A source's bit is its rank among the sources of its own
H-component: components share no vertex, so their bits never meet, all
components run in the same sweep, and a bitset is only as wide as its
component's source count.  A component with more than `_ROUND` sources
runs in rounds of `_ROUND` ranks.  A source whose queries are all
answered stops spreading its bit, so a long, thin H costs only what its
waiting sources reach, and a round stops once every query is answered or
the frontier is empty.  A query is answered on the hop h at which its
source's bit first reaches its target.

Both are exact bit for bit.  S[0] = 0.0 and S[h] = S[h-1] + c.  In a
graph with one weight, Dijkstra's distance to a vertex is a float sum
c + c + ... + c added in order along a path; that sum depends only on
the number of hops h and never falls as h grows, so the distance is the
sum over the fewest hops, which is S[h] (and the same from either end).
Computing h * c instead can round differently: ten 0.1s add up to
0.9999999999999999, but 10 * 0.1 is 1.0.

When H has several weights, one heap Dijkstra per source runs over H,
each stopping once its targets are final, over adjacency lists sorted by
weight once.  Sources run in order of first appearance in G's edges.
The first source of each H-component is its anchor: it searches the whole
component and keeps its distances A, one n-sized array for all components
since they share no vertex; the vertices it reaches label the component.
Every later source s runs on a shared distance array and skips any
relaxation to more than B = (A[s] + max A[t]) * (1 + 1e-9) over its
targets t in its component; since the lists are sorted, the first such
edge ends the scan of its list.  By the triangle inequality through the
anchor, B is at least d_H(s, t), and the 1e-9 covers the round-off of the
float sums (cf. the landmark bounds of Goldberg and Harrelson, SODA 2005).
Once the search has reached every target, the largest first tentative
distance of a target tightens B: when the source's own edges reach them
all, as on a dense H, that is a bound about the size of a G edge, where
A[s] + A[t] can be the span of the component.
The pruning checks itself, so no error analysis has to hold: a bounded
search gives every vertex whose unbounded float distance is at most B
exactly that distance, because the float sums along a shortest path never
fall; should a target still go unreached when the heap empties, that one
source searches again unbounded.  A query between two H-components gets
inf without any search.

The anchor's distances also settle most edges of a wide-weight G without
a search.  A later source s drops each target t whose edge (s, t, w)
passes fl(A[s] + A[t]) * 4 * (1 + slack) < w, where
1 + slack = exp(n * 2^-50): the walk s -> anchor -> t bounds d_H(s, t)
from above, so d_H(s, t) / w rounds below 1/4, the edge's quarter bucket
is 0.00 and its ratio can never be the witness.  The slack covers the
round-off of the float sums along both halves of that walk, each of at
most n - 1 hops, for every n; `_dijkstra_distances` proves it.  Its B
then runs over the targets left, and a source with none left runs no
search.

Either way the reports equal those of a full Dijkstra from every source.
Memory is O(n + m), plus two bitsets per vertex for the ball DP and three
for the BFS, each of at most `_ROUND` bits.
"""
from __future__ import annotations

import heapq
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter

from .graphs import WeightedGraph
from .spanner import Spanner, graph_hash

INF = math.inf


# a component with more sources than this is searched in rounds of this
# many ranks, so no bitset is wider than this many bits; one with more
# vertices than this skips the ball DP
_ROUND = 4096


def _grows_balls(r: int, covered: int, size: int) -> bool:
    """Whether an H-component of `size` vertices runs ball level r + 1,
    when the balls of radius r around its sources that still have a query
    cover `covered` of its vertices.  A level sweeps the whole component;
    handing its queries to the BFS instead redoes about 2r hops over at
    least the covered vertices, so the DP goes on while (r + 2) * covered
    is at least the size.  At r = 0 each ball is its source alone: the DP
    is entered only when at least half the component are sources."""
    return (r + 2) * covered >= size


def _dijkstra(adj: list[list[tuple[int, float]]], source: int, targets: set[int],
              dist: list[float], bound: float = INF) -> tuple[list[int], int]:
    """Shortest distances from `source` into `dist`, which holds INF on
    every vertex on entry; stops once every vertex of `targets` is final
    (an empty `targets` searches to the end).  A popped distance is final
    and later pops never lower it, so each target's entry equals a full
    run's.

    A relaxation to more than `bound` is skipped.  Each list of `adj` is
    sorted by weight, so the first such edge ends the scan of its list.
    Every vertex whose unbounded distance is at most `bound` still gets
    exactly that distance: the float sums along its shortest path never
    fall, so none of them exceeds it.  Once every target has a tentative
    distance, the largest first one, no lower than any final one, lowers
    the bound; when the source's own edges reach every target, that is
    the largest of their weights.  Returns the vertices whose entry was
    set, for the caller to reset to INF, and the number of targets never
    reached.
    """
    dist[source] = 0.0
    touched = [source]
    left = len(targets)
    unseen = left - (source in targets)     # targets not yet reached
    reach = 0.0     # the largest first tentative distance of a target
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u in targets:
            left -= 1
            if not left:
                break
        for v, w in adj[u]:
            nd = d + w
            if nd > bound:
                break
            if nd < dist[v]:
                if dist[v] == INF:
                    touched.append(v)
                    if v in targets:
                        if nd > reach:
                            reach = nd
                        unseen -= 1
                        if not unseen and reach < bound:
                            bound = reach
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return touched, left


class _Round:
    """The sources of one round of ranks and the queries they answer."""

    __slots__ = ("sources", "want", "wmask", "alive", "left")

    def __init__(self, n: int) -> None:
        self.sources: list[tuple[int, int]] = []    # (vertex, bit)
        # target -> [bit, edge id, source, bit, edge id, source, ...]
        self.want: dict[int, list[int]] = {}
        self.wmask = [0] * n    # per target: the OR of its query bits
        self.alive = [0] * n    # per component: bits of sources still waiting
        self.left = 0           # queries not yet answered


def _one_weight_distances(n: int, g_edges: list[tuple[int, int, float]],
                          h_edges: list[tuple[int, int, float]],
                          step: float) -> list[float] | None:
    """d_H(u, v) for every edge (u, v) of G, in g_edges order, over an H
    whose edges all weigh `step` (see the module docstring), or None when
    H is not inside G: an id of H lies outside 0..n-1, or a pair of H has
    no copy of weight `step` in G.  One scan registers the queries and
    marks each pair of H that G holds with weight `step`; each H-component
    that `_grows_balls` admits answers them in `_ball_distances`, and the
    rest go to `_bfs_distances`.  An edge is measured from u if u is
    already a source or v is not, else from v; with one weight the
    distance is the same both ways.  A pair that H does not connect gets
    INF, and a pair that is an edge of H gets S[1] = step; neither makes a
    vertex a source."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    # u * n + v with u <= v, for each edge of H -> whether G holds that
    # pair with weight step
    h_pairs: dict[int, bool] = {}
    for u, v, _ in h_edges:
        # before nbrs[u] is read: a negative id would index from the end
        if not (0 <= u < n and 0 <= v < n):
            return None
        nbrs[u].append(v)
        nbrs[v].append(u)
        h_pairs[u * n + v if u < v else v * n + u] = False
    dists = [INF] * len(g_edges)
    comp = [-1] * n     # H-component, labelled by one of its vertices
    members: dict[int, list[int]] = {}  # label -> its vertices, in BFS order
    asked: dict[int, list[int]] = {}    # label -> [edge id, source, target, ...]
    count = [0] * n     # per component: its sources
    is_source = bytearray(n)
    for eid, (u, v, w) in enumerate(g_edges):
        if u == v:
            dists[eid] = 0.0
            # a self-loop of G can match one of H
            if w == step and u * n + u in h_pairs:
                h_pairs[u * n + u] = True
            continue
        pair = u * n + v if u < v else v * n + u
        if pair in h_pairs:
            dists[eid] = step
            if w == step:
                h_pairs[pair] = True
            continue
        c = comp[u]
        if c < 0:
            c = comp[u] = u
            queue = [u]
            for x in queue:
                for y in nbrs[x]:
                    if comp[y] < 0:
                        comp[y] = u
                        queue.append(y)
            members[u] = queue
            asked[u] = []
        if comp[v] != c:
            continue
        if not is_source[u]:
            if is_source[v]:
                u, v = v, u
            else:
                is_source[u] = 1
                count[c] += 1
        asked[c] += (eid, u, v)
    if not all(h_pairs.values()):
        return None

    sums = [0.0]    # sums[h]: step added h times, left to right
    live: dict[int, list[int]] = {}     # label -> queries, for the ball DP
    tail: list[list[int]] = []          # queries of one component each, for the BFS
    for c, qs in asked.items():
        if not qs:
            continue
        size = len(members[c])
        if size <= _ROUND and _grows_balls(0, count[c], size):
            live[c] = qs
        else:
            tail.append(qs)
    if live:
        _ball_distances(n, nbrs, members, live, tail, dists, sums, step)
    if tail:
        _bfs_distances(n, nbrs, comp, tail, dists, sums, step)
    return dists


def _ball_distances(n: int, nbrs: list[list[int]], members: dict[int, list[int]],
                    live: dict[int, list[int]], tail: list[list[int]],
                    dists: list[float], sums: list[float], step: float) -> None:
    """Answer the queries in `live` (component label -> [edge id, source,
    target, ...]) by growing a ball around every vertex of those
    components, one radius per level.  A vertex's bit is its rank in
    `members`, so each ball is at most _ROUND bits wide, and all
    components share each level.  A query whose balls meet on level r gets
    S[2r - 1] or S[2r] in `dists`.  The cover that `_grows_balls` reads
    ORs in a waiting source's ball once per run of its queries.  A
    component that `_grows_balls` stops appends its unanswered queries to
    `tail`."""
    ball = [0] * n      # Ball_r(x), over the vertices of x's component
    prev = [0] * n      # Ball_{r-1}(x)
    for c in live:
        bit = 1
        for x in members[c]:
            ball[x] = bit
            bit <<= 1
    r = 0
    while live:
        r += 1
        while len(sums) <= 2 * r:
            sums.append(sums[-1] + step)
        odd, even = sums[2 * r - 1], sums[2 * r]
        prev, ball = ball, prev
        for c in live:
            for x in members[c]:
                b = prev[x]
                for y in nbrs[x]:
                    b |= prev[y]
                ball[x] = b
        # every query of hop distance 2r - 2 or less was answered on an
        # earlier level: balls of radii r and r - 1 meet iff d <= 2r - 1,
        # and two of radius r iff d <= 2r
        going: dict[int, list[int]] = {}
        for c, qs in live.items():
            left: list[int] = []
            covered = 0
            last = -1   # the source whose ball was last ORed into covered
            it = iter(qs)
            for eid, s, t in zip(it, it, it):
                around = ball[s]
                if around & ball[t]:
                    # Ball_{r-1}(t) lies inside Ball_r(t), so this tells
                    # 2r - 1 from 2r only for a query that meets
                    dists[eid] = odd if around & prev[t] else even
                else:
                    left += (eid, s, t)
                    if s != last:
                        covered |= around
                        last = s
            if not left:
                continue
            if _grows_balls(r, covered.bit_count(), len(members[c])):
                going[c] = left
            else:
                tail.append(left)
        live = going


def _bfs_distances(n: int, nbrs: list[list[int]], comp: list[int], tail: list[list[int]],
                   dists: list[float], sums: list[float], step: float) -> None:
    """Answer the queries in `tail`, each list [edge id, source, target,
    ...] of one H-component, by one bit-parallel BFS per round over H (see
    the module docstring).  A source's rank is its place among its
    component's sources in its list; a query answered on hop h gets S[h]
    in `dists`."""
    bit_of = [0] * n    # per source: 1 << (its rank mod _ROUND)
    round_of = [0] * n  # per source: its rank // _ROUND
    pend = [0] * n      # per source: queries not yet answered
    rounds: list[_Round] = []
    for qs in tail:
        count = 0
        for i in range(0, len(qs), 3):
            eid, u, v = qs[i], qs[i + 1], qs[i + 2]
            bit = bit_of[u]
            if bit:
                rnd = rounds[round_of[u]]
            else:
                r, rank = divmod(count, _ROUND)
                count += 1
                if r == len(rounds):
                    rounds.append(_Round(n))
                rnd = rounds[r]
                round_of[u] = r
                bit = bit_of[u] = 1 << rank
                rnd.sources.append((u, bit))
                rnd.alive[comp[u]] |= bit
            wmask = rnd.wmask
            if wmask[v]:
                rnd.want[v] += (bit, eid, u)
            else:
                rnd.want[v] = [bit, eid, u]
            wmask[v] |= bit
            pend[u] += 1
            rnd.left += 1

    for rnd in rounds:
        want, wmask, alive, left = rnd.want, rnd.wmask, rnd.alive, rnd.left
        seen = [0] * n
        cur = [0] * n   # bits a vertex first saw on the last hop
        nxt = [0] * n   # and on this hop
        frontier = []
        for src, bit in rnd.sources:
            seen[src] = cur[src] = bit
            frontier.append(src)
        hop = 0
        while left and frontier:
            hop += 1
            if hop == len(sums):
                sums.append(sums[-1] + step)
            d = sums[hop]
            touched = []
            for v in frontier:
                # a source whose queries are all answered spreads no
                # further: bits nobody waits for would make a long, thin
                # H cost a sweep of every vertex on every hop
                bits = cur[v] & alive[comp[v]]
                cur[v] = 0
                if not bits:
                    continue
                for u in nbrs[v]:
                    new = bits & ~seen[u]
                    if new:
                        seen[u] |= new
                        if nxt[u]:
                            nxt[u] |= new
                        else:
                            nxt[u] = new
                            touched.append(u)
            # once per vertex and hop, so a target's queries are scanned
            # at most once a hop; a bit reaches a vertex once, so no query
            # is answered twice
            for u in touched:
                hit = nxt[u] & wmask[u]
                if hit:
                    qs = want[u]
                    for i in range(0, len(qs), 3):
                        bit = qs[i]
                        if bit & hit:
                            dists[qs[i + 1]] = d
                            left -= 1
                            src = qs[i + 2]
                            pend[src] -= 1
                            if not pend[src]:
                                alive[comp[u]] ^= bit
            frontier = touched
            cur, nxt = nxt, cur


def _dijkstra_distances(n: int, g_edges: list[tuple[int, int, float]],
                        h_edges: list[tuple[int, int, float]]) -> list[float]:
    """For every edge (u, v, w) of G, in g_edges order, d_H(u, v), or a
    stand-in below w / 4 where d_H(u, v) / w is sure to round below 1/4;
    either way the ratio's quarter bucket is exact.  One `_dijkstra` runs
    per anchor and per later source that has a target left to search (see
    the module docstring).

    Edges are grouped by source in one scan (u if u is already a source or
    v is not, else v).  An anchor searches into `anchor` and is never
    reset, and reads its own edges' distances there.  A later source s
    skips each edge to a target t of its component with X * q < w, where
    X = fl(A[s] + A[t]) and q = 4 * exp(n * 2^-50), and gives it the
    stand-in X.  It searches only for the targets left, on the shared
    `dist`, and resets only what it touched.  A sum or product that
    overflows is inf, never below w, so such an edge is searched.

    Why a skipped edge's ratio rounds below 1/4.  Let u = 2^-53.  A float
    + of nonnegative operands with a finite result is the exact sum times
    1 + d, |d| <= u, and exact below 2^-1022; a float * of positive
    operands with a finite result of at least 2^-1022 is the exact
    product times such a 1 + d; rounding never reverses an order.  D is
    the float distance a full Dijkstra from s gives t, which is what the
    reports hold for a searched edge.

    1. D is at most the left-to-right float sum along any walk from s to
       t: a full search leaves D(y) <= fl(D(x) + w) on every edge (x, y),
       and fl(. + w) never falls as its argument grows.
    2. A float sum of h >= 1 nonnegative terms, in any order, lies between
       E (1-u)^(h-1) and E (1+u)^(h-1), E its exact value.
    3. Walk from s up the anchor's search tree to the anchor, then down to
       t.  The halves have h1, h2 <= n - 1 hops and exact lengths E1, E2,
       and A[s], A[t] are their float sums taken from the anchor.  By 2,
       E1 + E2 <= (A[s] + A[t]) (1-u)^-(n-2) <= X (1-u)^-(n-1), and by 1
       and 2, D <= (E1 + E2) (1+u)^(2n-3) <= X (1-u)^-(3n-4), since
       1 + u <= 1 / (1-u).  X obeys the same bound, as s is not the
       anchor and so n >= 2.
    4. If fl(X * q) >= 2^-1022, fl(X * q) < w gives X q (1-u) < w, so
       D / w and X / w are below (1-u)^-(3n-3) / q.  Below 2^-1022 every
       sum in 3 is smaller still, so exact, and D <= E1 + E2 = X; as
       q >= 4, fl(X * q) >= 4X, which is exact, and the float just
       below w is at most w (1-u), so D / w <= X / w <= (1-u) / 4.
    5. (1-u) / 4 = 1/4 - 2^-55 is the float just below 1/4, so fl(D / w)
       and fl(X / w) are below 1/4 once q >= 4 (1-u)^-(3n-2).  As
       -ln(1-u) <= u (1+u), ln(q / 4) >= (3n-2) u (1+u) suffices.
    6. n * 2^-50 is 8nu, exact below n = 2^53 and at least 8nu (1-u)
       above.  CPython's math.exp calls the C library's exp, which is
       within one ulp, a factor of at least 1 - 2u, so
       ln(q / 4) >= 8nu (1-u) - 2u (1+2u).  That exceeds
       (3n-2) u (1+u) by (n (5 - 11u) - 2u) u > 0 for every n >= 1.
       Should exp overflow, q is inf and no edge is skipped.

    Without the slack (q = 4) the rule fails: on the H path 3-2-1-0-4
    with weights 0.1, 0.2, 0.3, 0.1 from 0, A[3] = (0.3 + 0.2) + 0.1 =
    0.6 and X = 0.7, but D = ((0.1 + 0.2) + 0.3) + 0.1 is the next float
    above 0.7, so an edge (3, 4) of weight 4D would be put in bucket 0.00
    instead of 0.25."""
    by_source: dict[int, list[tuple[int, int, float]]] = {}   # source -> [(edge id, other, w)]
    for eid, (u, v, w) in enumerate(g_edges):
        if u in by_source or v not in by_source:
            by_source.setdefault(u, []).append((eid, v, w))
        else:
            by_source[v].append((eid, u, w))
    dists = [INF] * len(g_edges)
    adj_h = _adjacency(n, h_edges)
    by_weight = itemgetter(1)
    for nbrs in adj_h:
        nbrs.sort(key=by_weight)
    quarter = 4.0 * math.exp(n * 2.0 ** -50)
    anchor = [INF] * n
    comp = [-1] * n     # per vertex: the anchor of its H-component
    dist = [INF] * n
    for src, pairs in by_source.items():
        c = comp[src]
        if c < 0:
            touched, _ = _dijkstra(adj_h, src, set(), anchor)
            for x in touched:
                comp[x] = src
            for eid, other, _ in pairs:
                if comp[other] == src:
                    dists[eid] = anchor[other]
            continue
        # a target outside the component keeps INF
        a = anchor[src]
        searched = []
        targets = set()
        for eid, other, w in pairs:
            if comp[other] == c:
                x = a + anchor[other]
                if x * quarter < w:
                    dists[eid] = x
                else:
                    searched.append((eid, other))
                    targets.add(other)
        if not targets:
            continue
        bound = (a + max([anchor[t] for t in targets])) * (1.0 + 1e-9)
        touched, missed = _dijkstra(adj_h, src, targets, dist, bound)
        if missed:
            for x in touched:
                dist[x] = INF
            touched, _ = _dijkstra(adj_h, src, targets, dist)
        for eid, other in searched:
            dists[eid] = dist[other]
        for x in touched:
            dist[x] = INF
    return dists


def _check_graph(g: WeightedGraph) -> None:
    """ValueError, naming the edge, unless both ends of every edge of g lie
    in 0..n-1 and its weight lies in (0, inf).  A raw WeightedGraph skips
    from_edges' checks: an id past n would raise IndexError and a negative
    one index from the end of a list; a negative weight would keep the
    greedy search relaxing forever, a zero one divide by zero in a stretch,
    and a NaN one pass unnoticed into lightness."""
    n = g.n
    for u, v, w in g.edges:
        if not (0 <= u < n and 0 <= v < n and 0 < w < INF):
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(
                    f"edge {(u, v, w)} has a vertex id outside 0..{n - 1} (n={n})")
            raise ValueError(f"edge {(u, v, w)} has weight {w!r}, outside (0, inf)")


def _adjacency(n: int, edges: list[tuple[int, int, float]]) -> list[list[tuple[int, float]]]:
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def _prim_msf_weight(g: WeightedGraph) -> float:
    """Minimum spanning forest weight via Prim, restarted at every vertex
    that no earlier tree reached."""
    adj = _adjacency(g.n, g.edges)
    in_tree = [False] * g.n
    total = 0.0
    for root in range(g.n):
        if in_tree[root]:
            continue
        heap: list[tuple[float, int]] = [(0.0, root)]
        while heap:
            w, u = heapq.heappop(heap)
            if in_tree[u]:
                continue
            in_tree[u] = True
            total += w
            for v, wv in adj[u]:
                if not in_tree[v]:
                    heapq.heappush(heap, (wv, v))
    return total


# ---------------------------------------------------------------- greedy


def greedy_spanner(g: WeightedGraph, t: float) -> Spanner:
    """Classic greedy: scan edges by nondecreasing weight (ties by edge id);
    keep an edge iff the spanner built so far has detour > t * w.  t must
    be finite and >= 1: no detour exceeds an infinite or NaN t * w, so
    such a t would keep no edge."""
    if not 1.0 <= t < INF:
        raise ValueError(f"stretch target t must be finite and >= 1, got {t}")
    _check_graph(g)
    adj: list[list[tuple[int, float]]] = [[] for _ in range(g.n)]
    dist = [INF] * g.n
    kept: list[tuple[int, int, float]] = []
    order = sorted(range(g.m), key=lambda e: (g.edges[e][2], e))
    for eid in order:
        u, v, w = g.edges[eid]
        # edges are kept in nondecreasing weight order, so every list of
        # adj stays sorted by weight, as _dijkstra's early break requires
        touched, _ = _dijkstra(adj, u, {v}, dist, t * w)
        if dist[v] > t * w:
            kept.append((u, v, w))
            adj[u].append((v, w))
            adj[v].append((u, w))
        for x in touched:
            dist[x] = INF
    return Spanner(
        algo="greedy", k=0, eps=0.0, n=g.n, edges=kept, source_hash=graph_hash(g)
    )


# ---------------------------------------------------------------- verify


@dataclass
class StretchReport:
    max_stretch: float
    witness: tuple[int, int, float] | None
    ok: bool
    target: float
    histogram: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> str:
        wit = list(self.witness) if self.witness else None
        return json.dumps(
            {
                "max_stretch": self.max_stretch,
                "witness": wit,
                "pass": self.ok,
                "target": self.target,
                "histogram_buckets": self.histogram,
            }
        )


def _check_subgraph(g: WeightedGraph, h: Spanner | WeightedGraph) -> None:
    """ValueError unless every edge of h matches some copy of its pair in
    g, weight included."""
    in_g = {(u, v, w) if u <= v else (v, u, w) for u, v, w in g.edges}
    for u, v, w in h.edges:
        if ((u, v, w) if u <= v else (v, u, w)) not in in_g:
            key = (u, v) if u < v else (v, u)
            raise ValueError(f"spanner edge {key} (w={w}) is not an edge of the graph")


def verify_stretch(g: WeightedGraph, h: Spanner | WeightedGraph, t: float) -> StretchReport:
    """Exact per-edge stretch of h over g.

    The maximum of d_H(u,v)/w(u,v) over edges of g equals the stretch over
    all vertex pairs: any shortest g-path is a chain of edges, each
    stretched at most that much.  Pass iff max <= t*(1+1e-9); t must be
    finite and >= 1, and g's vertex ids and weights valid (see
    `_check_graph`), else ValueError.

    Cost: one scan of g.edges checks vertex ids and weights.  When every
    edge of H has one weight c, the scan that registers the queries also
    matches each pair of H to a copy of weight c in g, and g's edges are
    indexed (by `_check_subgraph`) only to raise when one is missing; with
    several weights, they are indexed first, so that each edge of H is
    matched to one.  A one-weight query of h hops gets S[h], c added h
    times from left to right, which is the sum Dijkstra forms (h * c can
    round differently).  An H-component of at most `_ROUND` vertices, at
    least half of them sources, grows a ball of radius r around every
    vertex on level r, one OR per H-edge end, and a query is answered on
    the level where the balls around its two ends meet, one AND a level
    while it waits: S[2r-1] or S[2r].  It goes on while `_grows_balls`
    finds the live sources' balls large enough; the queries of the other
    components, and those the balls leave, go to one multi-source BFS per
    round of `_ROUND` ranks, in which a source's bit is its rank among the
    sources of its H-component and stops spreading once its queries are
    answered.  All components share each ball level and each BFS sweep.
    Otherwise one heap Dijkstra per source runs over H, with each list
    sorted by weight, and stops once that source's targets are final.
    The first source of each H-component, its anchor, searches the whole
    component; each later source s skips relaxations past
    B = (A[s] + max A[t]) * (1 + 1e-9), A being the anchor's distances,
    tightens B once it has reached every target, and searches again
    unbounded if a target goes unreached.  Before that, s drops each
    target t whose edge (s, t, w) has
    fl(A[s] + A[t]) * 4 * exp(n * 2^-50) < w: its ratio is proved to
    round below 1/4, so it is counted in bucket 0.00 without a search
    (see `_dijkstra_distances`).  A query between H-components is inf
    without a search.  The witness and
    the histogram are read in g.edges order; the histogram counts quarter
    indices floor(4 * ratio) and formats each distinct one once.
    """
    if not 1.0 <= t < INF:
        raise ValueError(f"stretch target t must be finite and >= 1, got {t}")
    _check_graph(g)
    step = h.edges[0][2] if h.edges else 1.0
    if all(w == step for _, _, w in h.edges):
        dists = _one_weight_distances(g.n, g.edges, h.edges, step)
        if dists is None:
            _check_subgraph(g, h)   # raises, naming the first such edge of H
    else:
        _check_subgraph(g, h)
        dists = _dijkstra_distances(g.n, g.edges, h.edges)

    ratios = [d / w for (_, _, w), d in zip(g.edges, dists)]
    max_stretch = max(ratios, default=0.0)
    witness = None
    if max_stretch > 1.0:
        u, v, w = g.edges[ratios.index(max_stretch)]
        witness = (u, v, w)
    elif g.m:
        max_stretch = 1.0
    # count by quarter index, then format each index once; counts are
    # summed by label, so two indices that printed alike would share one
    quarters = Counter([math.floor(r * 4) if r != INF else INF for r in ratios])
    hist: dict[str, int] = {}
    for q, count in quarters.items():
        key = "inf" if q == INF else f"{q / 4:.2f}"
        hist[key] = hist.get(key, 0) + count
    ok = max_stretch <= t * (1.0 + 1e-9)
    return StretchReport(
        max_stretch=max_stretch, witness=witness, ok=ok, target=t, histogram=hist
    )


# ---------------------------------------------------------------- metrics


@dataclass
class QualityMetrics:
    edges: int
    weight: float
    sparsity: float
    lightness: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "edges": self.edges,
                "weight": self.weight,
                "sparsity": self.sparsity,
                "lightness": self.lightness,
            }
        )


def spanner_metrics(g: WeightedGraph, h: Spanner | WeightedGraph) -> QualityMetrics:
    """Size, weight, sparsity |H|/(n-1) and lightness w(H)/w(MSF) of H,
    where MSF is G's minimum spanning forest (its MST when G is connected)."""
    _check_graph(g)
    msf_w = _prim_msf_weight(g)
    hw = sum(w for _, _, w in h.edges)
    denom = max(g.n - 1, 1)
    return QualityMetrics(
        edges=len(h.edges),
        weight=hw,
        sparsity=len(h.edges) / denom,
        lightness=hw / msf_w if msf_w > 0 else INF,
    )
