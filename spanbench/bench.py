"""One benchmark run: gen -> ingest -> build pm, linear, light -> verify.

`--trace 0` measures the end-to-end metrics with no wrapper installed:
repeated full passes, timed in reference seconds (see refclock.py).
`--trace 1` runs the same workload with the span wrappers of spantrace.py
and reports the per-layer metrics, the greedy baseline, the op-count
ladder and the tracing overhead.

Every build is gated: H must be a subgraph of G, the oracle must pass it
at (2k-1)(1+eps), and every repeated build must be byte-identical (sha256
of the sorted edge list) to the verified first one.  A build that raises
counts as a failed check; the run goes on.  The exit status is 1 when any
check failed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines above it give each metric with
its sample count, the failed checks and the spanners' fingerprints.  A
JSON record of the run, and the spans of a traced run, are written under
spanbench/results/.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

from spanlab.graphs import WeightedGraph, load_graph, save_graph
from spanlab.light import build_light
from spanlab.linear import build_linear
from spanlab.oracle import greedy_spanner, spanner_metrics, verify_stretch
from spanlab.pm import build_pm

from refclock import RefClock
from spantrace import Tracer
from workloads import LADDER_BASE, LADDER_SCALE, LADDER_STEPS, WORKLOADS, Workload

RESULTS = Path(__file__).resolve().parent / "results"
BUILDERS = {"pm": build_pm, "linear": build_linear, "light": build_light}
SETUP_REPEATS = 5       # ingests in a traced run
MIN_PASSES = 5          # fewest timed full passes in a plain run
TRACED_REPEATS = 2      # traced and untraced builds per builder, interleaved
# the timings of a plain run, in the order they are reported
END_TO_END_TIMES = [("setup_s", "s"), ("pm.build_s", "s"), ("linear.build_s", "s"),
                    ("light.build_s", "s"), ("verify_s", "s"), ("pipeline_s", "s")]


# ---------------------------------------------------------------- checks


class Gate:
    """Counts correctness checks; a failed check never aborts the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def edges_sha(h) -> str:
    digest = hashlib.sha256()
    for u, v, w in sorted(h.edges):
        digest.update(f"{u} {v} {w!r}\n".encode())
    return digest.hexdigest()


def is_subgraph(g, h) -> bool:
    weight = {(min(u, v), max(u, v)): w for u, v, w in g.edges}
    return h.n == g.n and all(
        weight.get((min(u, v), max(u, v))) == w for u, v, w in h.edges
    )


def timed_build(algo: str, g, wl: Workload):
    gc.collect()
    start = time.perf_counter()
    h = BUILDERS[algo](g, wl.k, wl.eps)
    return h, time.perf_counter() - start


def first_build(algo: str, g, wl: Workload, gate: Gate):
    """The build every later one is compared with; None when it raised."""
    try:
        h, seconds = timed_build(algo, g, wl)
    except Exception as exc:  # a crashing builder is a failed check
        gate.check(False, f"{algo}: build raised {exc!r}")
        return None, 0.0
    gate.check(is_subgraph(g, h), f"{algo}: H is not a subgraph of G")
    return h, seconds


def rebuild(algo: str, g, wl: Workload, sha: str, gate: Gate):
    """A repeated build, checked byte-identical; (None, 0) when it raised."""
    try:
        h, seconds = timed_build(algo, g, wl)
    except Exception as exc:
        gate.check(False, f"{algo}: rebuild raised {exc!r}")
        return None, 0.0
    gate.check(edges_sha(h) == sha, f"{algo}: rebuild differs from the first build")
    return h, seconds


def verify(algo: str, g, h, wl: Workload, gate: Optional[Gate]):
    """Oracle check, counted in `gate` unless it is None; returns (report
    or None, seconds)."""
    gate = gate or Gate()
    gc.collect()
    start = time.perf_counter()
    try:
        report = verify_stretch(g, h, wl.target)
    except ValueError as exc:   # the oracle rejects an H that is not in G
        gate.check(False, f"{algo}: oracle rejected H: {exc}")
        return None, time.perf_counter() - start
    seconds = time.perf_counter() - start
    gate.check(report.ok, f"{algo}: stretch {report.max_stretch!r} above "
                          f"target {wl.target!r}")
    return report, seconds


# ---------------------------------------------------------------- setup


def setup_once(wl: Workload, seed: int, scale: float, workdir: Path, gate: Gate):
    """Generate, write as an edge list, read back: the CLI ingest path.
    Returns (graph, {phase: seconds})."""
    path = workdir / "graph.txt"
    t0 = time.perf_counter()
    generated = wl.make(seed, scale)
    t1 = time.perf_counter()
    save_graph(generated, str(path))
    t2 = time.perf_counter()
    g = load_graph(str(path))
    t3 = time.perf_counter()
    gate.check(g.n == generated.n and g.edges == generated.edges,
               "ingest: the loaded graph differs from the generated one")
    return g, {"gen": t1 - t0, "save": t2 - t1, "load": t3 - t2}


# ---------------------------------------------------------------- quality


def components_of(g) -> list[list[int]]:
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in g.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def lightness(g, h) -> float:
    """w(H) / w(MST) from spanner_metrics.  spanner_metrics needs a
    connected graph, so a disconnected G is measured per component and the
    ratio taken over the minimum spanning forest."""
    comps = components_of(g)
    if len(comps) == 1:
        return spanner_metrics(g, h).lightness
    comp_of = [0] * g.n
    local = [0] * g.n
    for c, members in enumerate(comps):
        for i, v in enumerate(members):
            comp_of[v], local[v] = c, i
    g_parts: list[list] = [[] for _ in comps]
    h_parts: list[list] = [[] for _ in comps]
    for edges, parts in ((g.edges, g_parts), (h.edges, h_parts)):
        for u, v, w in edges:
            parts[comp_of[u]].append((local[u], local[v], w))
    h_weight = forest_weight = 0.0
    for members, ge, he in zip(comps, g_parts, h_parts):
        if len(members) == 1:
            continue
        q = spanner_metrics(WeightedGraph(len(members), ge),
                            WeightedGraph(len(members), he))
        h_weight += q.weight
        forest_weight += q.weight / q.lightness
    return h_weight / forest_weight


# ---------------------------------------------------------------- reporting


def describe(samples: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    n = len(samples)
    text = f"median of n={n}"
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            text += f", p{p}={statistics.quantiles(samples, n=100)[p - 1]:.6g}"
            break
    return text


class Report:
    def __init__(self) -> None:
        self.metrics: dict[str, dict] = {}
        self.notes: dict[str, str] = {}

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        if note:
            self.notes[name] = note

    def lines(self) -> list[str]:
        return [f"  {name:<40} {m['value']:<14.6g} {m['unit']:<9} "
                f"{self.notes.get(name, '')}".rstrip()
                for name, m in self.metrics.items()]


# ---------------------------------------------------------------- plain run


def full_pass(wl: Workload, seed: int, scale: float, workdir: Path, gate: Gate,
              sha: dict[str, Optional[str]], clock: RefClock):
    """One full pass, as a CLI user runs it: ingest, the three builds, the
    three verifies and lightness.  In the first pass (`sha` empty) each
    spanner is checked H ⊆ G and its fingerprint stored in `sha`; in later
    passes each is checked byte-identical to it, and a builder that raised
    (fingerprint None) is left out.  Returns (graph, spanners, oracle
    reports, lightness, {metric: wall seconds}, {metric: reference seconds});
    `pipeline_s` is the sum of the phases."""
    wall: dict[str, float] = {}
    ref: dict[str, float] = {}

    def timed(name: str, seconds: float) -> None:
        wall[name] = wall.get(name, 0.0) + seconds
        ref[name] = ref.get(name, 0.0) + clock.scale(seconds)

    g, phases = setup_once(wl, seed, scale, workdir, gate)
    timed("setup_s", sum(phases.values()))
    first_pass = not sha
    built = {}
    for algo in BUILDERS:
        if first_pass:
            h, dt = first_build(algo, g, wl, gate)
            sha[algo] = edges_sha(h) if h else None
        elif sha[algo] is None:
            continue            # raised in an earlier pass
        else:
            h, dt = rebuild(algo, g, wl, sha[algo], gate)
            if h is None:
                sha[algo] = None
        if h is not None:
            built[algo] = h
            timed(f"{algo}.build_s", dt)
    # a later pass's spanners are byte-identical to the first's, so only
    # the first pass's oracle verdicts are counted as checks
    reports = {}
    for algo, h in built.items():
        reports[algo], dt = verify(algo, g, h, wl, gate if first_pass else None)
        timed("verify_s", dt)
    start = time.perf_counter()
    light_ratio = lightness(g, built["light"]) if "light" in built else 0.0
    timed("lightness_s", time.perf_counter() - start)
    for times in (wall, ref):
        times["pipeline_s"] = sum(times.values())
    return g, built, reports, light_ratio, wall, ref


def run_plain(wl: Workload, seed: int, seconds: float, scale: float,
              workdir: Path, gate: Gate, report: Report, record: dict) -> None:
    # the first pass is the gated one and the warm-up: it is not timed
    clock = RefClock()
    sha: dict[str, Optional[str]] = {}
    g, first, reports, light_ratio, *_ = full_pass(wl, seed, scale, workdir, gate,
                                                    sha, clock)

    # then full passes for `seconds`, each one sample of every timing
    walls: dict[str, list[float]] = {}
    refs: dict[str, list[float]] = {}
    deadline = time.perf_counter() + seconds
    while len(refs.get("pipeline_s", ())) < MIN_PASSES or time.perf_counter() < deadline:
        gc.collect()
        *_, wall, ref = full_pass(wl, seed, scale, workdir, gate, sha, clock)
        for samples, times in ((walls, wall), (refs, ref)):
            for name, dt in times.items():
                samples.setdefault(name, []).append(dt)

    for name, unit in END_TO_END_TIMES:
        s = refs.get(name) or [0.0]
        note = describe(s)
        if name in walls:
            note += f"; wall median {statistics.median(walls[name]):.6g} s"
        report.add(name, statistics.median(s), unit, note)
    report.add("peak_rss_mb",
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    for algo in BUILDERS:
        h = first.get(algo)
        report.add(f"{algo}.kept_frac", h.m / g.m if h else 0.0, "ratio",
                   f"{h.m if h else 0} of {g.m} edges")
    report.add("light.lightness", light_ratio, "ratio")
    report.add("stretch_ratio_max",
               max((r.max_stretch / r.target for r in reports.values() if r),
                   default=0.0), "ratio")
    record["samples"] = {"reference_s": refs, "wall_s": walls}
    record["fingerprints"] = {f"{a}.edges_sha": s for a, s in sha.items() if s}


# ---------------------------------------------------------------- traced run


def _per_m(count: float, m: int) -> float:
    return count / m if m else 0.0


@contextmanager
def phase(record: dict, name: str):
    """Wall time of one phase of a traced run, kept in the record."""
    start = time.perf_counter()
    try:
        yield
    finally:
        record.setdefault("phase_s", {})[name] = time.perf_counter() - start


def run_traced(wl: Workload, seed: int, scale: float, workdir: Path,
               gate: Gate, report: Report, record: dict) -> Tracer:
    with phase(record, "setup"):
        gens, loads = [], []
        for _ in range(SETUP_REPEATS):
            g, phases = setup_once(wl, seed, scale, workdir, gate)
            gens.append(phases["gen"])
            loads.append(phases["load"])
    report.add("generators.gen_s", statistics.median(gens), "s", describe(gens))
    report.add("graphs.load_s", statistics.median(loads), "s", describe(loads))

    tracer = Tracer()
    with phase(record, "builds"):
        first, plain, traced, peak = _traced_builds(wl, g, tracer, gate)
    with phase(record, "verify"):
        verify_s = {}
        for algo, h in first.items():
            with tracer, tracer.span(f"verify.{algo}") as sid:
                verify(algo, g, h, wl, gate)
            verify_s[algo] = tracer.duration(sid)
        oracle_peak = 0.0
        if "light" in first:
            _, oracle_peak = peak_alloc_mb(verify_stretch, g, first["light"], wl.target)

    _layer_metrics(g, tracer, first, report)
    for algo in BUILDERS:
        report.add(f"oracle.{algo}.verify_s", verify_s.get(algo, 0.0), "s")
    searches = sum(tracer.totals(f"verify.{a}").get("oracle.search", [0])[0]
                   for a in first)
    report.add("oracle.searches", searches, "count", "Dijkstra runs over the three verifies")
    report.add("oracle.searches_per_n", searches / (len(BUILDERS) * g.n), "ratio")
    report.add("oracle.peak_alloc_mb", oracle_peak, "MB", "tracemalloc, verify of light's H")
    for algo in BUILDERS:
        report.add(f"{algo}.peak_alloc_mb", peak.get(algo, 0.0), "MB", "tracemalloc")

    with phase(record, "greedy"):
        greedy = greedy_spanner(g, wl.target)
    report.add("oracle.greedy_edges", greedy.m, "count")
    for algo in BUILDERS:
        ratio = first[algo].m / greedy.m if algo in first and greedy.m else 0.0
        report.add(f"{algo}.greedy_ratio", ratio, "ratio")

    for algo in BUILDERS:
        overhead = build_s = own_s = 0.0
        if algo in first:
            base = statistics.median(plain[algo])
            overhead = (statistics.median(traced[algo]) - base) / base
            _, build_s, own_s = tracer.totals(f"build.{algo}")[f"build.{algo}"]
        report.add(f"{algo}.trace_overhead_frac", overhead, "ratio",
                   f"medians of n={TRACED_REPEATS} traced and untraced builds")
        report.add(f"{algo}.traced_build_s", build_s / TRACED_REPEATS, "s")
        report.add(f"{algo}.self_s", own_s / TRACED_REPEATS, "s",
                   "builder's own code, outside every wrapped layer")

    with phase(record, "ladder"):
        _ladder(seed, scale, gate, report)
    record["fingerprints"] = {f"{a}.edges_sha": edges_sha(h) for a, h in first.items()}
    record["self_time_by_layer"] = {
        algo: self_time_by_layer(tracer, f"build.{algo}") for algo in first
    }
    return tracer


def peak_alloc_mb(fn, *args):
    """Call fn under tracemalloc; returns (its result, peak MB)."""
    gc.collect()
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _traced_builds(wl: Workload, g, tracer: Tracer, gate: Gate):
    """Per builder: the verified first build under tracemalloc, then
    untraced and traced rebuilds interleaved."""
    first, plain, traced, peak = {}, {}, {}, {}
    for algo, build in BUILDERS.items():
        # the first build is not timed here, so it carries the memory probe
        (h, _), peak[algo] = peak_alloc_mb(first_build, algo, g, wl, gate)
        if h is None:
            continue
        first[algo], sha = h, edges_sha(h)
        plain[algo], traced[algo] = [], []
        for _ in range(TRACED_REPEATS):
            plain[algo].append(rebuild(algo, g, wl, sha, gate)[1])
            gc.collect()
            with tracer, tracer.span(f"build.{algo}") as sid:
                h2 = build(g, wl.k, wl.eps)
            traced[algo].append(tracer.duration(sid))
            gate.check(edges_sha(h2) == sha,
                       f"{algo}: traced build differs from the first build")
    return first, plain, traced, peak


def self_time_by_layer(tracer: Tracer, root: str) -> dict[str, float]:
    """Self seconds per layer (the module part of the span name) under
    `root`, per build; the builder's own code is listed under the root."""
    out: dict[str, float] = {}
    for name, (_, _, own) in tracer.totals(root).items():
        layer = name if name == root else name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + own / TRACED_REPEATS
    return out


def _layer_metrics(g, tracer: Tracer, first: dict, report: Report) -> None:
    totals: dict[str, list[float]] = {}
    for algo in BUILDERS:
        for name, acc in tracer.totals(f"build.{algo}").items():
            cur = totals.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                cur[i] += acc[i]
    r = TRACED_REPEATS

    def seconds(*names: str) -> float:
        return sum(totals.get(n, [0, 0.0])[1] for n in names) / r

    def calls(name: str) -> float:
        return totals.get(name, [0])[0] / r

    def ops(algo: str, key: str) -> float:
        return first[algo].ops.get(key, 0) if algo in first else 0

    m = g.m
    report.add("graphs.normalize_s", seconds("graphs.normalize"), "s")
    report.add("graphs.mst_s", seconds("graphs.mst"), "s")
    report.add("graphs.components_s", seconds("graphs.components"), "s")
    report.add("graphs.induced_s", seconds("graphs.induced"), "s")
    report.add("graphs.components",
               tracer.counter("graphs.components", "build.linear") / r, "count")
    report.add("spanner.hash_s", seconds("spanner.hash"), "s")
    report.add("spanner.hash_calls", calls("spanner.hash"), "count")
    report.add("buckets.partition_s", seconds("buckets.partition"), "s")
    report.add("buckets.cells", tracer.counter("buckets.cells", "build.pm") / r,
               "count", "cells of pm's partition of G")
    report.add("buckets.multi_level_classes",
               tracer.counter("buckets.multi_level_classes", "build.pm") / r, "count")
    report.add("dsu.classic_inits", calls("dsu.classic_init"), "count")
    report.add("dsu.classic_init_s", seconds("dsu.classic_init"), "s")
    report.add("pm.uf_cost_per_m", _per_m(ops("pm", "uf"), m), "ops/edge")
    report.add("dsu.static_sessions", calls("dsu.static_init"), "count")
    report.add("dsu.static_init_s", seconds("dsu.static_index", "dsu.static_init"), "s")
    report.add("linear.uf_cost_per_m", _per_m(ops("linear", "uf_cost"), m), "ops/edge")
    report.add("linear.links_per_m", _per_m(ops("linear", "links"), m), "ops/edge")
    levels = first["linear"].levels if "linear" in first else []
    report.add("linear.fast_level_frac",
               sum(1 for row in levels if row.get("fast")) / len(levels) if levels else 0.0,
               "ratio", f"of {len(levels)} levels")
    hz_calls = calls("hz.spanner")
    report.add("hz.calls", hz_calls, "count", "per set of three builds")
    report.add("hz.s", seconds("hz.spanner"), "s")
    report.add("hz.ops_per_m",
               _per_m(tracer.counter("hz.ops") / r, len(BUILDERS) * m), "ops/edge",
               "adjacency scans per edge per build")
    report.add("hz.mean_nodes",
               tracer.counter("hz.nodes") / r / hz_calls if hz_calls else 0.0, "count")
    report.add("pm.dedupe_s", seconds("pm.dedupe"), "s")
    report.add("pm.cover_s", seconds("pm.cover"), "s")
    rows = first["pm"].levels if "pm" in first else []
    bucket_edges = sum(row["bucket_edges"] for row in rows)
    added = sum(row["kept_edges"] + row.get("merge_edges", 0) for row in rows)
    report.add("pm.levels", len(rows), "count")
    report.add("pm.kept_per_bucket_edge", added / bucket_edges if bucket_edges else 0.0,
               "ratio")
    report.add("linear.forest_s", seconds("linear.forest"), "s")
    report.add("linear.merge_s", seconds("linear.merge"), "s")
    report.add("light.split_s", seconds("light.split"), "s")
    report.add("light.subdivide_s", seconds("light.subdivide"), "s")
    report.add("light.pm_part_s", seconds("light.pm_part"), "s")
    report.add("light.level_work_per_m", _per_m(ops("light", "level_work"), m), "ops/edge")
    report.add("light.virtual_nodes",
               tracer.counter("light.virtual_nodes", "build.light") / r, "count")
    report.add("lightsteps.trivial_row_s", seconds("lightsteps.trivial_row"), "s")
    trivial, processed = calls("lightsteps.trivial_row"), calls("lightsteps.process_level")
    report.add("lightsteps.trivial_level_frac",
               trivial / (trivial + processed) if trivial + processed else 0.0, "ratio",
               f"{trivial:.0f} trivial of {trivial + processed:.0f} levels")
    for name in ("carve", "lca", "cluster_graph", "process_level", "step1", "step2",
                 "step3", "step4", "step5", "select"):
        report.add(f"lightsteps.{name}_s", seconds(f"lightsteps.{name}"), "s")


def _ladder(seed: int, scale: float, gate: Gate, report: Report) -> None:
    """Exact op counts of linear and pm on the wide-weights family at 2x, 4x
    and 8x its size: flat per-edge counts back the O(m) claim.  These builds
    are checked H ⊆ G only; the oracle on the largest rung would take longer
    than the rest of the traced run."""
    base = WORKLOADS[LADDER_BASE]
    for step in LADDER_STEPS:
        g = base.make(seed, scale * LADDER_SCALE * step)
        built = {}
        for algo in ("linear", "pm"):
            h, _ = first_build(algo, g, base, gate)
            built[algo] = h.ops if h is not None else {}
        prefix = f"ladder.x{step}"
        report.add(f"{prefix}.linear.uf_cost_per_m",
                   _per_m(built["linear"].get("uf_cost", 0), g.m), "ops/edge", f"n={g.n}")
        report.add(f"{prefix}.linear.links_per_m",
                   _per_m(built["linear"].get("links", 0), g.m), "ops/edge")
        report.add(f"{prefix}.pm.uf_cost_per_m",
                   _per_m(built["pm"].get("uf", 0), g.m), "ops/edge")
        hz = built["linear"].get("hz", 0) + built["pm"].get("hz", 0)
        report.add(f"{prefix}.hz.ops_per_m", _per_m(hz, 2 * g.m), "ops/edge",
                   "adjacency scans per edge per build")


# ---------------------------------------------------------------- main


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="spanbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time spent on timed full passes in a plain run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str], scale: float = 1.0) -> int:
    """Run one workload; `scale` multiplies the vertex counts (the
    self-test runs tiny sizes)."""
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    gate, report = Gate(), Report()
    record: dict = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
                    "scale": scale}
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    tracer = None
    try:
        if args.trace:
            tracer = run_traced(wl, args.seed, scale, workdir, gate, report, record)
        else:
            run_plain(wl, args.seed, args.seconds, scale, workdir, gate, report, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if scale != 1.0:
        stem = stem.with_name(f"{stem.name}-scale{scale:g}")
    if tracer is not None:
        tracer.dump(f"{stem}.spans.jsonl")
        record["spans"] = f"{stem.name}.spans.jsonl"
    record.update(metrics=report.metrics, attempted=gate.attempted,
                  failures=gate.failures)
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"spanbench {wl.name} seed={args.seed} trace={args.trace} "
          f"k={wl.k} eps={wl.eps} pid={os.getpid()}")
    print("\n".join(report.lines()))
    print(f"  {'fail_frac':<40} {gate.failed / gate.attempted:<14.6g} ratio     "
          f"{gate.failed} of {gate.attempted} checks failed")
    for what in gate.failures:
        print(f"  FAILED: {what}")
    for key, value in record.get("fingerprints", {}).items():
        print(f"  {key:<40} {value}")
    for name, seconds in record.get("phase_s", {}).items():
        print(f"  phase {name:<34} {seconds:.3f} s")
    for algo, layers in record.get("self_time_by_layer", {}).items():
        parts = ", ".join(f"{k}={v:.4g}" for k, v in sorted(layers.items()))
        print(f"  self time by layer, {algo} (sum {sum(layers.values()):.6g} s): {parts}")
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": report.metrics}))
    return 0 if gate.failed == 0 else 1
