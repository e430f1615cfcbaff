"""Self-test of the spanlab benchmark, run at tiny sizes.

    python -m pytest spanbench/tests -q
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import bench  # noqa: E402
import refclock  # noqa: E402
import spanlab.pm  # noqa: E402
from spantrace import PATCHES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.05


def run_bench(capsys, workload: str, trace: int, seed: int = 1):
    """(exit status, stdout) of one tiny in-process run."""
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
            "--trace", str(trace)]
    status = bench.main(argv, scale=TINY)
    return status, capsys.readouterr().out


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    status, stdout = run_bench(capsys, workload, trace)
    assert status == 0, stdout
    result = last_json(stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        line = rf"^  {re.escape(name)} +\S+ +{re.escape(unit)}\b"
        assert re.search(line, stdout, re.M), name
    assert re.search(r"^  fail_frac +0 +ratio", stdout, re.M)
    for algo in bench.BUILDERS:
        assert re.search(rf"^  {algo}\.edges_sha +[0-9a-f]{{64}}$", stdout, re.M)


def test_layer_self_times_add_up_to_the_traced_build(capsys):
    status, stdout = run_bench(capsys, "fragmented", 1)
    assert status == 0, stdout
    metrics = last_json(stdout)["metrics"]
    record = json.loads((bench.RESULTS / "fragmented-seed1-trace1-scale0.05.json").read_text())
    for algo, layers in record["self_time_by_layer"].items():
        assert sum(layers.values()) == pytest.approx(
            metrics[f"{algo}.traced_build_s"]["value"], rel=1e-9)
        assert layers[f"build.{algo}"] == pytest.approx(metrics[f"{algo}.self_s"]["value"])


def _drop_a_leaf_edge(build):
    """A builder whose spanner misses one edge at a degree-1 vertex of H,
    so the oracle sees infinite stretch on it."""
    def tampered(g, k, eps):
        h = build(g, k, eps)
        degree = [0] * h.n
        for u, v, _ in h.edges:
            degree[u] += 1
            degree[v] += 1
        drop = next(e for e in h.edges if degree[e[0]] == 1 or degree[e[1]] == 1)
        h.edges = [e for e in h.edges if e != drop]
        return h
    return tampered


def test_a_removed_edge_is_counted_in_fail_frac(monkeypatch, capsys):
    monkeypatch.setitem(bench.BUILDERS, "light", _drop_a_leaf_edge(bench.build_light))
    status, stdout = run_bench(capsys, "wide-weights", 0, seed=2)
    result = last_json(stdout)
    assert status == 1
    assert not result["correct"] and result["failed"] == 1
    assert "FAILED: light: stretch inf above target" in stdout
    fail_frac = float(re.search(r"^  fail_frac +(\S+)", stdout, re.M).group(1))
    assert fail_frac == pytest.approx(1 / result["attempted"], rel=1e-5)


def test_a_raising_build_is_counted_and_the_run_goes_on(monkeypatch, capsys):
    def broken(g, k, eps):
        raise RuntimeError("boom")
    monkeypatch.setitem(bench.BUILDERS, "pm", broken)
    status, stdout = run_bench(capsys, "unit-dense", 0, seed=2)
    result = last_json(stdout)
    assert status == 1 and result["failed"] == 1
    assert result["metrics"]["linear.kept_frac"]["value"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_the_seed_fixes_the_graph(name):
    make = WORKLOADS[name].make
    a, b, c = make(7, TINY), make(7, TINY), make(8, TINY)
    assert (a.n, a.edges) == (b.n, b.edges)
    assert c.edges != a.edges


def test_tracer_restores_every_wrapped_name():
    before = [getattr(module, attr) for module, attr, _, _ in PATCHES]
    with Tracer():
        assert spanlab.pm.hz_spanner is not spanlab.hz.hz_spanner
    assert [getattr(module, attr) for module, attr, _, _ in PATCHES] == before
    assert spanlab.pm.hz_spanner is spanlab.hz.hz_spanner


def test_describe_reports_a_percentile_only_with_ten_samples_beyond_it():
    assert bench.describe([1.0] * 19) == "median of n=19"
    assert bench.describe([float(i) for i in range(20)]).startswith("median of n=20, p50=")
    assert ", p90=" in bench.describe([float(i) for i in range(100)])


def test_the_reference_clock_scales_by_the_loops_around_each_phase(monkeypatch):
    loops = iter([0.01, 0.03, 0.0075])
    monkeypatch.setattr(refclock, "reference_loop", lambda: next(loops))
    clock = refclock.RefClock()
    nominal = refclock.REF_NOMINAL_S
    assert clock.scale(2.0) == pytest.approx(2.0 * nominal / 0.02)
    assert clock.scale(1.0) == pytest.approx(1.0 * nominal / 0.01875)


def test_without_the_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "spanbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "spanbench/run.py", "--workload", "wide-weights",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
