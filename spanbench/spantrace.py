"""Span tracing of spanlab from outside the package.

`Tracer.install()` replaces the public names that each builder module
looks up at call time (for example `spanlab.pm.hz_spanner`) with wrappers
that record a span per call, and `Tracer.restore()` puts the originals
back.  Nothing inside `src/` is edited.  Per-op union-find calls are not
wrapped; their counts come from `Spanner.ops`.

A span records its name, its root (the outermost open span, e.g.
`build.pm`), start, end and parent.  Self time is the span's duration
minus the durations of its direct children, so the self times of all
spans under one root add up to the root's duration.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Optional

import spanlab.light
import spanlab.lightsteps
import spanlab.linear
import spanlab.oracle
import spanlab.pm


def _partition_counts(tr: "Tracer", buckets) -> None:
    tr.count("buckets.cells", sum(len(lv) for lv in buckets.by_class.values()))
    tr.count("buckets.multi_level_classes",
             sum(1 for lv in buckets.by_class.values() if len(lv) > 1))


def _components_count(tr: "Tracer", comps) -> None:
    tr.count("graphs.components", len(comps))


def _subdivide_count(tr: "Tracer", sub) -> None:
    tr.count("light.virtual_nodes", sub.n_total - sub.n_real)


# (module, attribute, span name, optional hook on the result)
PATCHES: list[tuple[object, str, str, Optional[Callable]]] = [
    (spanlab.pm, "normalize_weights", "graphs.normalize", None),
    (spanlab.linear, "normalize_weights", "graphs.normalize", None),
    (spanlab.linear, "minimum_spanning_tree", "graphs.mst", None),
    (spanlab.light, "minimum_spanning_tree", "graphs.mst", None),
    (spanlab.linear, "connected_components", "graphs.components", _components_count),
    (spanlab.light, "connected_components", "graphs.components", _components_count),
    (spanlab.linear, "induced_subgraph", "graphs.induced", None),
    (spanlab.light, "induced_subgraph", "graphs.induced", None),
    (spanlab.pm, "partition_edges", "buckets.partition", _partition_counts),
    (spanlab.linear, "partition_edges", "buckets.partition", _partition_counts),
    (spanlab.pm, "ClassicUF", "dsu.classic_init", None),
    (spanlab.linear, "StaticTreeIndex", "dsu.static_index", None),
    (spanlab.linear, "StaticTreeUF", "dsu.static_init", None),
    (spanlab.pm, "dedupe_source_edges", "pm.dedupe", None),
    (spanlab.linear, "dedupe_source_edges", "pm.dedupe", None),
    (spanlab.pm, "grow_star_cover", "pm.cover", None),
    (spanlab.linear, "grow_star_cover", "pm.cover", None),
    (spanlab.linear, "cluster_forest_edges", "linear.forest", None),
    (spanlab.linear, "merge_forest_subtrees", "linear.merge", None),
    (spanlab.light, "split_light_heavy", "light.split", None),
    (spanlab.light, "subdivide_mst", "light.subdivide", _subdivide_count),
    (spanlab.light, "build_pm", "light.pm_part", None),
    (spanlab.lightsteps, "singleton_state", "lightsteps.singleton", None),
    (spanlab.lightsteps, "carved_state", "lightsteps.carve", None),
    (spanlab.lightsteps, "coarsen", "lightsteps.carve", None),
    (spanlab.lightsteps, "TreeLCA", "lightsteps.lca", None),
    (spanlab.lightsteps, "build_cluster_graph", "lightsteps.cluster_graph", None),
    (spanlab.lightsteps, "has_high_degree", "lightsteps.high_degree", None),
    (spanlab.lightsteps, "trivial_row", "lightsteps.trivial_row", None),
    (spanlab.lightsteps, "process_level", "lightsteps.process_level", None),
    (spanlab.lightsteps, "step1_high", "lightsteps.step1", None),
    (spanlab.lightsteps, "step2_branching", "lightsteps.step2", None),
    (spanlab.lightsteps, "step3_absorb_branching", "lightsteps.step3", None),
    (spanlab.lightsteps, "step4_blue_edges", "lightsteps.step4", None),
    (spanlab.lightsteps, "step5_paths", "lightsteps.step5", None),
    (spanlab.lightsteps, "select_level_edges", "lightsteps.select", None),
    (spanlab.pm, "graph_hash", "spanner.hash", None),
    (spanlab.linear, "graph_hash", "spanner.hash", None),
    (spanlab.light, "graph_hash", "spanner.hash", None),
    (spanlab.oracle, "_dijkstra", "oracle.search", None),
]

# hz_spanner gets its own wrapper: it also counts adjacency scans, which
# lightsteps' caller does not ask for
HZ_CALLERS = (spanlab.pm, spanlab.linear, spanlab.lightsteps)


class Tracer:
    def __init__(self) -> None:
        # finished spans: (name, root, start, end, parent id, self seconds)
        self.spans: list[Optional[tuple]] = []
        self._open: list[list] = []     # [span id, name, child seconds]
        self.counters: dict[tuple[str, str], float] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording

    def _root(self) -> str:
        return self._open[0][1] if self._open else ""

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1][0] if self._open else -1
        frame = [sid, name, 0.0]
        self._open.append(frame)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._open.pop()
            if self._open:
                self._open[-1][2] += end - start
            root = self._root() or name
            self.spans[sid] = (name, root, start, end, parent, end - start - frame[2])

    def duration(self, sid: int) -> float:
        _, _, start, end, _, _ = self.spans[sid]
        return end - start

    def count(self, name: str, value: float) -> None:
        key = (self._root(), name)
        self.counters[key] = self.counters.get(key, 0) + value

    # -- installing wrappers

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, result)
            return result
        return traced

    def _wrap_hz(self, fn: Callable) -> Callable:
        def traced(g, k, stats=None):
            own = {} if stats is None else stats
            before = own.get("ops", 0)
            with self.span("hz.spanner"):
                result = fn(g, k, stats=own)
            self.count("hz.ops", own["ops"] - before)
            self.count("hz.nodes", g.n)
            return result
        return traced

    def _patch(self, module, attr: str, new) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, hook in PATCHES:
            self._patch(module, attr, self._wrap(name, getattr(module, attr), hook))
        for module in HZ_CALLERS:
            self._patch(module, "hz_spanner", self._wrap_hz(module.hz_spanner))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reading

    def totals(self, root: Optional[str] = None) -> dict[str, list[float]]:
        """name -> [calls, total seconds, self seconds], over spans under
        `root` (every root when None)."""
        out: dict[str, list[float]] = {}
        for name, rt, start, end, _, own in self.spans:
            if root is not None and rt != root:
                continue
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += own
        return out

    def counter(self, name: str, root: Optional[str] = None) -> float:
        return sum(v for (rt, nm), v in self.counters.items()
                   if nm == name and (root is None or rt == root))

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, root, start, end, parent, own) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "root": root,
                                     "start": start, "end": end,
                                     "parent": parent, "self": own}) + "\n")
