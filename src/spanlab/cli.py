"""Command-line surface: gen | build | verify.

Exit codes: 0 success, 1 verification failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .generators import generate
from .graphs import GraphFormatError, WeightedGraph, load_graph, save_graph
from .light import build_light
from .linear import build_linear
from .oracle import greedy_spanner, spanner_metrics, verify_stretch
from .pm import build_pm
from .spanner import Spanner, load_spanner

ALGOS = ("greedy", "pm", "linear", "light")


def _build(algo: str, g: WeightedGraph, k: int, eps: float) -> Spanner:
    if algo == "pm":
        return build_pm(g, k, eps)
    if algo == "linear":
        return build_linear(g, k, eps)
    if algo == "light":
        return build_light(g, k, eps)
    if algo == "greedy":
        sp = greedy_spanner(g, (2 * k - 1) * (1 + eps))
        sp.k, sp.eps = k, eps
        return sp
    raise ValueError(f"unknown algorithm {algo!r}")


def cmd_gen(args) -> int:
    g = generate(args.type, args.n, args.seed, p=args.p, m=args.m,
                 law=args.weights, wmax=args.wmax)
    save_graph(g, args.output,
               header_comment=f"gen type={args.type} n={args.n} seed={args.seed} "
                              f"weights={args.weights}")
    print(f"wrote {args.output}: n={g.n} m={g.m}")
    return 0


def cmd_build(args) -> int:
    g = load_graph(args.input, args.format)
    if g.collapsed_count or g.selfloop_count:
        print(f"ingest: collapsed {g.collapsed_count} multi-edges, "
              f"dropped {g.selfloop_count} self-loops", file=sys.stderr)
    t0 = time.perf_counter()
    sp = _build(args.algo, g, args.k, args.eps)
    elapsed = time.perf_counter() - t0
    sp.save(args.output)
    if args.metrics:
        rep = spanner_metrics(g, sp)
        with open(args.metrics, "w", encoding="utf-8") as fh:
            fh.write(rep.to_json() + "\n")
    if args.instrument_out:
        with open(args.instrument_out, "w", encoding="utf-8") as fh:
            for row in sp.levels:
                fh.write(json.dumps(row) + "\n")
    print(f"{args.algo}: kept {sp.m}/{g.m} edges in {elapsed:.3f}s "
          f"-> {args.output}")
    return 0


def cmd_verify(args) -> int:
    g = load_graph(args.graph, args.format)
    sp = load_spanner(args.spanner)
    t = args.t
    if t is None:
        if sp.k is None or sp.eps is None:
            raise ValueError(f"{args.spanner}: the header gives no k and eps "
                             "to take the target from; pass it with -t")
        t = (2 * sp.k - 1) * (1 + sp.eps)
        if not (math.isfinite(t) and t >= 1):
            raise ValueError(f"{args.spanner}: the header's k={sp.k} eps={sp.eps!r} give the "
                             f"target {t!r}, not finite and >= 1; pass a target with -t")
    report = verify_stretch(g, sp, t)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    status = "PASS" if report.ok else "FAIL"
    print(f"{status}: max stretch {report.max_stretch:.6f} vs target {t:.6f}"
          + (f" witness={report.witness}" if report.witness else ""))
    return 0 if report.ok else 1


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spanlab",
                                 description="graph spanner construction toolkit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a graph file")
    g.add_argument("--type", choices=("gnp", "gnm", "grid", "geometric"),
                   default="gnp")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--p", type=float, default=None)
    g.add_argument("--m", type=int, default=None)
    g.add_argument("--weights", choices=("unit", "uniform", "loguniform"),
                   default="uniform")
    g.add_argument("--wmax", type=float, default=100.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_gen)

    b = sub.add_parser("build", help="build a spanner")
    b.add_argument("--algo", choices=ALGOS, required=True)
    b.add_argument("--k", type=int, default=2)
    b.add_argument("--eps", type=float, default=0.25)
    b.add_argument("--instrument-out", default=None,
                   help="write the per-level rows here, one JSON line each")
    b.add_argument("--format", choices=("edge-list", "dimacs-gr"),
                   default="edge-list")
    b.add_argument("-i", "--input", required=True)
    b.add_argument("-o", "--output", required=True)
    b.add_argument("--metrics", default=None, help="write metrics JSON here")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="verify a spanner against its graph")
    v.add_argument("-g", "--graph", required=True)
    v.add_argument("-s", "--spanner", required=True)
    v.add_argument("-t", type=float, default=None,
                   help="target stretch, finite and >= 1; defaults to (2k-1)(1+eps) "
                        "from the header")
    v.add_argument("--format", choices=("edge-list", "dimacs-gr"),
                   default="edge-list")
    v.add_argument("--report", default=None)
    v.set_defaults(func=cmd_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
