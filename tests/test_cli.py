from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spanlab
from spanlab.cli import main
from spanlab.graphs import load_graph
from spanlab.light import build_light
from spanlab.linear import build_linear
from spanlab.pm import build_pm
from spanlab.spanner import load_spanner

def test_gen_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["gen", "--type", "grid", "--n", "100", "--seed", "7",
                 "-o", str(a)]) == 0
    assert main(["gen", "--type", "grid", "--n", "100", "--seed", "7",
                 "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["gen", "--type", "gnp", "--n", "30", "--seed", "1", "-o", str(a)])
    main(["gen", "--type", "gnp", "--n", "30", "--seed", "2", "-o", str(b)])
    assert a.read_bytes() != b.read_bytes()


@pytest.mark.parametrize("argv, msg", [
    (["--type", "gnm", "--n", "-3"], "n must be >= 0, got -3"),
    (["--type", "gnp", "--n", "10", "--wmax", "-1"],
     "uniform weights are drawn from [1, wmax]: wmax must be finite and >= 1, got -1.0"),
    (["--type", "gnm", "--n", "10", "--weights", "loguniform", "--wmax", "0.5"],
     "wmax must be finite and >= 1, got 0.5"),
    (["--type", "grid", "--n", "16", "--weights", "loguniform", "--wmax", "inf"],
     "wmax must be finite and >= 1, got inf"),
    (["--type", "gnp", "--n", "10", "--wmax", "nan"], "wmax must be finite and >= 1, got nan"),
    (["--type", "gnp", "--n", "10", "--p", "2"], "p must lie in [0, 1], got 2.0"),
    (["--type", "gnp", "--n", "10", "--p", "-0.5"], "p must lie in [0, 1], got -0.5"),
    (["--type", "gnp", "--n", "10", "--p", "nan"], "p must lie in [0, 1], got nan"),
    (["--type", "gnm", "--n", "10", "--m", "-3"], "m must be >= 0, got -3"),
])
def test_gen_rejects_negative_n_or_bad_wmax_exit_2(tmp_path, capsys, argv, msg):
    # gnm at n = -3 wrote the header "-3 0", which build and verify then
    # passed; gnp at wmax = -1 wrote negative weights that build rejected;
    # gnp at p = 2 wrote K10, and gnm at m = -3 a 9-edge tree
    out = tmp_path / "g.txt"
    assert main(["gen", *argv, "-o", str(out)]) == 2
    assert msg in capsys.readouterr().err
    assert not out.exists()


def test_gen_ignores_wmax_for_weights_it_does_not_draw(tmp_path):
    # unit weights, a grid's default unit weights and geometric's
    # Euclidean weights never read wmax
    for argv in (["--type", "gnm", "--weights", "unit"], ["--type", "grid"],
                 ["--type", "geometric", "--weights", "loguniform"]):
        assert main(["gen", *argv, "--n", "16", "--wmax", "-1",
                     "-o", str(tmp_path / "g.txt")]) == 0


@pytest.mark.parametrize("name, header, fmt", [("g.txt", "-3 0", "edge-list"),
                                                ("g.gr", "p sp -3 0", "dimacs-gr")])
def test_negative_vertex_count_exit_2(tmp_path, capsys, name, header, fmt):
    # both formats reach WeightedGraph.from_edges, which now rejects n < 0;
    # the spanner below is what build used to write for such a file
    gpath, spath, out = tmp_path / name, tmp_path / "h.txt", tmp_path / "new.txt"
    gpath.write_text(header + "\n")
    spath.write_text("# algo=light k=2 eps=0.25 n=-3 source_hash=b0633f1a729c\n-3 0\n")
    for argv in (["build", "--algo", "light", "-i", str(gpath), "-o", str(out)],
                 ["verify", "-g", str(gpath), "-s", str(spath)]):
        assert main([*argv, "--format", fmt]) == 2
        assert "vertex count must be >= 0, got n=-3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("algo", ["pm", "linear", "light", "greedy"])
def test_build_verify_roundtrip(tmp_path, algo):
    gpath = tmp_path / "g.txt"
    spath = tmp_path / "h.txt"
    main(["gen", "--type", "gnp", "--n", "40", "--seed", "3",
          "--weights", "uniform", "--wmax", "9", "-o", str(gpath)])
    rc = main(["build", "--algo", algo, "--k", "2", "--eps", "0.25",
               "-i", str(gpath), "-o", str(spath)])
    assert rc == 0
    # default target from the header: (2k-1)(1+eps) = 3.75
    assert main(["verify", "-g", str(gpath), "-s", str(spath)]) == 0


def test_build_linear_then_explicit_t(tmp_path):
    gpath, spath = tmp_path / "g.txt", tmp_path / "h.txt"
    main(["gen", "--type", "gnp", "--n", "30", "--seed", "5", "-o", str(gpath)])
    main(["build", "--algo", "linear", "--k", "2", "--eps", "0.25",
          "-i", str(gpath), "-o", str(spath)])
    assert main(["verify", "-g", str(gpath), "-s", str(spath),
                 "-t", "3.75"]) == 0


def test_verify_fails_with_exit_1(tmp_path):
    gpath, spath = tmp_path / "g.txt", tmp_path / "h.txt"
    gpath.write_text("3 3\n0 1 1\n1 2 1\n0 2 1\n")
    # hand-made spanner missing one edge, checked at an impossible target
    spath.write_text("# algo=pm k=1 eps=0.25 n=3 source_hash=x\n3 2\n0 1 1\n1 2 1\n")
    assert main(["verify", "-g", str(gpath), "-s", str(spath), "-t", "1.5"]) == 1


@pytest.mark.parametrize("t", ["inf", "nan", "0.5"])
def test_verify_rejects_bad_target_exit_2(tmp_path, capsys, t):
    gpath, spath = tmp_path / "g.txt", tmp_path / "h.txt"
    gpath.write_text("3 2\n0 1 1\n1 2 1\n")
    # no spanner edges: every stretch is inf, which `-t inf` used to pass
    spath.write_text("# algo=pm k=1 eps=0.25 n=3 source_hash=x\n3 0\n")
    assert main(["verify", "-g", str(gpath), "-s", str(spath), "-t", t]) == 2
    assert "stretch target t must be finite and >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("header", ["", "# algo=pm k=2 n=30\n", "# eps=0.25\n"])
def test_verify_without_header_target_needs_t(tmp_path, capsys, header):
    # a header without k or eps used to default to k=1, eps=0.5: verify
    # then passed the spanner at t = 1.5, a target nobody asked for
    gpath, spath = tmp_path / "g.txt", tmp_path / "h.txt"
    main(["gen", "--type", "gnm", "--n", "30", "--m", "80", "--weights",
          "loguniform", "--seed", "1", "-o", str(gpath)])
    main(["build", "--algo", "pm", "-i", str(gpath), "-o", str(spath)])
    body = spath.read_text().split("\n", 1)[1]
    spath.write_text(header + body)
    assert main(["verify", "-g", str(gpath), "-s", str(spath)]) == 2
    assert "pass it with -t" in capsys.readouterr().err
    assert main(["verify", "-g", str(gpath), "-s", str(spath), "-t", "3.75"]) == 0


def test_verify_short_spanner_line_exit_2(tmp_path, capsys):
    gpath, spath = tmp_path / "g.txt", tmp_path / "h.txt"
    gpath.write_text("3 2\n0 1 1\n1 2 1\n")
    spath.write_text("# algo=pm k=1 eps=0.25 n=3 source_hash=x\n3 2\n0 1 1\n1 2\n")
    assert main(["verify", "-g", str(gpath), "-s", str(spath)]) == 2
    assert f"{spath}: line 4: expected 'u v w'" in capsys.readouterr().err


@pytest.mark.parametrize("body, error", [
    ("3 3\n0 1 1\n1 2 1\n", "header announced 3 edges, found 2"),
    ("3 2\n0 1 1\n1 2 1 7\n", "line 4: expected 'u v w'"),
], ids=["truncated", "four-fields"])
def test_verify_malformed_spanner_exit_2(tmp_path, capsys, body, error):
    # a spanner file is read like a graph file: its header's edge count
    # and each line's field count are checked, not skipped
    gpath, spath = tmp_path / "g.txt", tmp_path / "h.txt"
    gpath.write_text("3 3\n0 1 1\n1 2 1\n0 2 1\n")
    spath.write_text("# algo=pm k=1 eps=0.25 n=3 source_hash=x\n" + body)
    assert main(["verify", "-g", str(gpath), "-s", str(spath)]) == 2
    out = capsys.readouterr()
    assert "PASS" not in out.out
    assert f"{spath}: {error}" in out.err


@pytest.mark.parametrize("command", ["verify", "build"])
def test_malformed_graph_file_error_names_it(tmp_path, capsys, command):
    # with a graph and a spanner file on the command line, the message
    # must say which one is malformed
    gpath, spath = tmp_path / "g.txt", tmp_path / "h.txt"
    gpath.write_text("3 3\n0 1 1\n1 2 1\n0 2 1\n")
    main(["build", "--algo", "pm", "-i", str(gpath), "-o", str(spath)])
    gpath.write_text("3 3\n0 1 1\n1 2 1\n0 2 1\n0 2 2\n")
    args = (["verify", "-g", str(gpath), "-s", str(spath)] if command == "verify"
            else ["build", "--algo", "pm", "-i", str(gpath), "-o", str(tmp_path / "o.txt")])
    capsys.readouterr()
    assert main(args) == 2
    assert f"{gpath}: header announced 3 edges, found 4" in capsys.readouterr().err


@pytest.mark.parametrize("fmt, text, error", [
    ("edge-list", "3 1\n0 9 1.0\n", "vertex id out of range: (0, 9) with n=3"),
    ("edge-list", "3 1\n0 1 -2\n", "nonpositive or non-finite weight -2.0 on edge (0, 1)"),
    ("dimacs-gr", "p sp x 1\na 1 2 1.0\n", "line 1: non-integer header fields"),
    ("dimacs-gr", "p sp 3 y\na 1 2 1.0\n", "line 1: non-integer header fields"),
], ids=["vertex-id", "weight", "dimacs-n", "dimacs-m"])
@pytest.mark.parametrize("command", ["verify", "build"])
def test_bad_graph_file_value_error_names_it(tmp_path, capsys, command, fmt, text, error):
    # a bad value that parses (an id past n, a negative weight) and a
    # problem line that does not both name the file, and exit 2
    gpath, spath = tmp_path / "bad.txt", tmp_path / "h.txt"
    spath.write_text("# algo=pm k=2 eps=0.25 n=3 source_hash=x\n3 0\n")
    gpath.write_text(text)
    args = (["verify", "-g", str(gpath), "-s", str(spath)] if command == "verify"
            else ["build", "--algo", "pm", "-i", str(gpath), "-o", str(tmp_path / "o.txt")])
    assert main([*args, "--format", fmt]) == 2
    assert f"error: {gpath}: {error}" in capsys.readouterr().err


def test_spanner_file_round_trips_byte_for_byte(tmp_path):
    gpath, spath, again = tmp_path / "g.txt", tmp_path / "h.txt", tmp_path / "h2.txt"
    main(["gen", "--type", "gnm", "--n", "40", "--m", "160", "--weights", "loguniform",
          "--wmax", "1e9", "--seed", "3", "-o", str(gpath)])
    main(["build", "--algo", "linear", "--k", "2", "--eps", "0.3",
          "-i", str(gpath), "-o", str(spath)])
    load_spanner(str(spath)).save(str(again))
    assert again.read_bytes() == spath.read_bytes()


def test_greedy_on_tree_equals_input(tmp_path):
    gpath, spath = tmp_path / "g.txt", tmp_path / "h.txt"
    gpath.write_text("4 3\n0 1 2\n1 2 3\n2 3 4\n")
    main(["build", "--algo", "greedy", "--k", "1", "-i", str(gpath),
          "-o", str(spath)])
    g = load_graph(str(gpath))
    sp = load_spanner(str(spath))
    assert sp.edge_key_set() == g.edge_key_set()


def test_config_error_exit_2(tmp_path):
    assert main(["build", "--algo", "pm", "-i", str(tmp_path / "missing.txt"),
                 "-o", str(tmp_path / "out.txt")]) == 2
    assert main(["bogus-subcommand"]) == 2


def test_build_non_finite_weight_exit_2(tmp_path, capsys):
    gpath = tmp_path / "nan.txt"
    gpath.write_text("3 2\n0 1 1.0\n1 2 nan\n")
    spath = tmp_path / "h.txt"
    assert main(["build", "--algo", "linear", "-i", str(gpath),
                 "-o", str(spath)]) == 2
    assert "non-finite weight nan" in capsys.readouterr().err
    assert not spath.exists()


@pytest.mark.parametrize("algo", ["pm", "linear"])
def test_build_extreme_weight_ratio_exit_2(tmp_path, algo):
    # run as a process, so that an uncaught exception would show as a
    # traceback on stderr and exit status 1
    gpath = tmp_path / "wide.txt"
    gpath.write_text("3 3\n0 1 1e-300\n1 2 1e300\n0 2 1.0\n")
    spath = tmp_path / "h.txt"
    src = str(Path(spanlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "spanlab.cli", "build", "--algo", algo,
         "-i", str(gpath), "-o", str(spath)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: weight ratio 1e+300 / 1e-300 ")
    assert not spath.exists()


@pytest.mark.parametrize("algo,eps,message", [
    ("light", "0", "error: eps must lie in (0, 1)"),
    ("greedy", "nan", "error: stretch target t must be finite and >= 1, got nan"),
], ids=["light-eps0", "greedy-epsnan"])
def test_build_bad_eps_exit_2(tmp_path, algo, eps, message):
    # run as a process: light used to die with a ZeroDivisionError
    # traceback, and greedy used to write an empty spanner and exit 0
    gpath = tmp_path / "g.txt"
    gpath.write_text("3 3\n0 1 1.0\n1 2 2.0\n0 2 4.0\n")
    spath = tmp_path / "h.txt"
    src = str(Path(spanlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "spanlab.cli", "build", "--algo", algo,
         "--eps", eps, "-i", str(gpath), "-o", str(spath)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip() == message
    assert not spath.exists()


def test_build_metrics_and_instrument(tmp_path):
    gpath = tmp_path / "g.txt"
    spath = tmp_path / "h.txt"
    mpath = tmp_path / "m.json"
    ipath = tmp_path / "levels.jsonl"
    main(["gen", "--type", "gnp", "--n", "30", "--seed", "4", "-o", str(gpath)])
    rc = main(["build", "--algo", "light", "--k", "2", "--eps", "0.25",
               "-i", str(gpath), "-o", str(spath), "--metrics", str(mpath),
               "--instrument-out", str(ipath)])
    assert rc == 0
    met = json.loads(mpath.read_text())
    assert {"edges", "weight", "sparsity", "lightness"} <= set(met)
    assert met["lightness"] >= 1.0


@pytest.mark.parametrize("algo", ["pm", "linear", "light"])
def test_build_metrics_on_a_forest(tmp_path, algo):
    # lightness is measured against the minimum spanning forest, so a
    # disconnected input the builders accept gets metrics too
    gpath = tmp_path / "forest.txt"
    gpath.write_text("4 2\n0 1 1.0\n2 3 2.0\n")
    mpath = tmp_path / "m.json"
    assert main(["build", "--algo", algo, "-i", str(gpath),
                 "-o", str(tmp_path / "h.txt"), "--metrics", str(mpath)]) == 0
    assert json.loads(mpath.read_text())["lightness"] == 1.0


@pytest.mark.parametrize("algo", ["pm", "linear", "light"])
def test_instrument_out_writes_level_rows(tmp_path, algo):
    # --instrument-out alone writes one JSON line per `levels` row and
    # leaves the spanner file as a build without it writes it
    gpath = tmp_path / "g.txt"
    main(["gen", "--type", "gnm", "--n", "40", "--m", "200", "--weights",
          "loguniform", "--wmax", "1e6", "--seed", "3", "-o", str(gpath)])
    plain, rowed = tmp_path / "plain.txt", tmp_path / "rowed.txt"
    rows = tmp_path / "rows.jsonl"
    base = ["build", "--algo", algo, "-i", str(gpath)]
    assert main(base + ["-o", str(plain)]) == 0
    assert main(base + ["-o", str(rowed), "--instrument-out", str(rows)]) == 0
    assert rowed.read_bytes() == plain.read_bytes()
    build = {"pm": build_pm, "linear": build_linear, "light": build_light}[algo]
    levels = build(load_graph(str(gpath)), 2, 0.25).levels
    assert levels
    got = [json.loads(line) for line in rows.read_text().splitlines()]
    assert got == json.loads(json.dumps(levels))


# names that no build, verify or CLI path reads, by the module that held them
REMOVED_NAMES = [
    ("spanlab", "sssp_distances"),
    ("spanlab.cli", "_dsu_bench"),
    ("spanlab.cli", "cmd_bench"),
    ("spanlab.dsu", "Op"),
    ("spanlab.dsu", "classic_uf_session"),
    ("spanlab.dsu", "static_tree_uf_session"),
    ("spanlab.hz", "hop_distances"),
    ("spanlab.lightsteps", "StepContext.tau_override"),
    ("spanlab.light", "SubdividedMst.virtual_parent"),
    ("spanlab.light", "SubdividedMst.parent_edge_of"),
    ("spanlab.buckets", "bucket_index"),
    ("spanlab.audits", "pm_charging"),
    ("spanlab.audits", "step1_size"),
    ("spanlab.graphs", "DistanceMap"),
    ("spanlab.graphs", "tree_path_max_weight"),
    ("spanlab.graphs", "MstResult.parent_weight"),
    ("spanlab.graphs", "WeightedGraph.weight"),
    ("spanlab.graphs", "WeightedGraph.adjacency"),
    ("spanlab.spanner", "Spanner.weight"),
]


@pytest.mark.parametrize("module,name", REMOVED_NAMES,
                         ids=[f"{m}.{n}" for m, n in REMOVED_NAMES])
def test_removed_name_is_gone(module, name):
    owner = importlib.import_module(module)
    *path, attr = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, attr)
    if not path:
        assert not hasattr(spanlab, attr)
        assert attr not in spanlab.__all__


@pytest.mark.parametrize("argv,choice", [
    (["bench", "--dsu"], "bench"),
    (["build", "--algo", "hz", "-i", "g.txt", "-o", "h.txt"], "hz"),
], ids=["bench", "build-hz"])
def test_removed_cli_paths_exit_2(tmp_path, capsys, monkeypatch, argv, choice):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: spanlab")
    assert f"invalid choice: '{choice}'" in err
    assert not (tmp_path / "h.txt").exists()


def test_removed_nominal_eps_flag_exit_2(tmp_path, capsys, monkeypatch):
    # the flag skipped the eps scaling, so light wrote spanners that failed
    # their own header's (2k-1)(1+eps)
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--type", "gnm", "--n", "30", "--m", "90", "-o", "g.txt"]) == 0
    capsys.readouterr()
    assert main(["build", "--algo", "light", "--nominal-eps",
                 "-i", "g.txt", "-o", "h.txt"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: spanlab")
    assert "unrecognized arguments: --nominal-eps" in err
    assert not (tmp_path / "h.txt").exists()


def test_spanner_header_round_trip(tmp_path):
    gpath, spath = tmp_path / "g.txt", tmp_path / "h.txt"
    main(["gen", "--type", "geometric", "--n", "25", "--seed", "9",
          "-o", str(gpath)])
    main(["build", "--algo", "pm", "--k", "3", "--eps", "0.1",
          "-i", str(gpath), "-o", str(spath)])
    sp = load_spanner(str(spath))
    assert sp.algo == "pm" and sp.k == 3 and sp.eps == 0.1
    assert sp.source_hash
    text = spath.read_text().splitlines()[0]
    assert text.startswith("# algo=pm k=3 eps=0.1")


def _graph_and_spanner(tmp_path):
    """A generated graph file and pm's spanner file of it (k=2 eps=0.25)."""
    gpath, spath = tmp_path / "g.txt", tmp_path / "h.txt"
    main(["gen", "--type", "gnm", "--n", "30", "--m", "90", "--seed", "1", "-o", str(gpath)])
    main(["build", "--algo", "pm", "-i", str(gpath), "-o", str(spath)])
    return gpath, spath


def test_headerless_spanner_survives_resave(tmp_path, capsys):
    # a spanner loaded from a file without a header has no k or eps; saving
    # it leaves them out, so the saved file loads and verifies at -t
    gpath, spath = _graph_and_spanner(tmp_path)
    bare, resaved = tmp_path / "bare.txt", tmp_path / "resaved.txt"
    bare.write_text("".join(line for line in spath.read_text().splitlines(True)
                            if not line.startswith("#")))
    load_spanner(str(bare)).save(str(resaved))
    assert "None" not in resaved.read_text()
    sp = load_spanner(str(resaved))
    assert (sp.k, sp.eps) == (None, None)
    assert main(["verify", "-g", str(gpath), "-s", str(resaved), "-t", "3"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_spanner_header_bad_field_names_file_and_field(tmp_path, capsys):
    gpath, spath = _graph_and_spanner(tmp_path)
    bad = tmp_path / "bad-k.txt"
    bad.write_text(spath.read_text().replace("k=2", "k=x", 1))
    with pytest.raises(ValueError, match="bad-k.txt: header field k='x' is not a valid int"):
        load_spanner(str(bad))
    assert main(["verify", "-g", str(gpath), "-s", str(bad)]) == 2
    assert f"error: {bad}: header field k='x'" in capsys.readouterr().err


def test_spanner_header_target_below_one_points_to_t(tmp_path, capsys):
    # k=0 gives (2k-1)(1+eps) < 1: an error about the header, not about a
    # -t that was never passed; with -t the file verifies
    gpath, spath = _graph_and_spanner(tmp_path)
    bad = tmp_path / "k0.txt"
    bad.write_text(spath.read_text().replace("k=2", "k=0", 1))
    assert main(["verify", "-g", str(gpath), "-s", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: the header's k=0 eps=0.25" in err
    assert "pass a target with -t" in err
    assert main(["verify", "-g", str(gpath), "-s", str(bad), "-t", "3"]) == 0


def test_dimacs_input(tmp_path):
    gpath, spath = tmp_path / "g.gr", tmp_path / "h.txt"
    gpath.write_text("p sp 4 4\na 1 2 1\na 2 3 1\na 3 4 1\na 1 4 5\n")
    rc = main(["build", "--algo", "linear", "--format", "dimacs-gr",
               "-i", str(gpath), "-o", str(spath)])
    assert rc == 0
    sp = load_spanner(str(spath))
    assert sp.n == 4
