"""Spanner artifact: edge subset plus provenance metadata and the
spanner-file round-trip: an ordinary edge-list file, read and written by
`graphs`, whose header comment is "# algo=.. k=.. eps=.. n=.. source_hash=..".
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from .graphs import GraphFormatError, WeightedGraph, _parse_edge_list, save_graph


def graph_hash(g: WeightedGraph) -> str:
    h = hashlib.sha256()
    h.update(f"{g.n} {g.m}\n".encode())
    for u, v, w in sorted(g.edges):
        h.update(f"{u} {v} {w!r}\n".encode())
    return h.hexdigest()[:12]


@dataclass
class Spanner:
    algo: str
    k: Optional[int]      # None when a loaded file's header does not give it
    eps: Optional[float]
    n: int
    edges: list[tuple[int, int, float]]
    source_hash: str = ""
    levels: list[dict] = field(default_factory=list)  # per-level instrumentation
    ops: dict = field(default_factory=dict)           # op counters by engine

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_key_set(self) -> set[tuple[int, int]]:
        return {(u, v) if u < v else (v, u) for u, v, _ in self.edges}

    def save(self, path: str) -> None:
        save_graph(WeightedGraph(self.n, self.edges), path,
                   header_comment=f"algo={self.algo} k={self.k} eps={self.eps!r} "
                                  f"n={self.n} source_hash={self.source_hash}")


def load_spanner(path: str) -> Spanner:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    try:
        n, edges = _parse_edge_list(lines)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None
    meta: dict[str, str] = {}
    for line in lines:
        text = line.strip()
        if text.startswith("#"):
            meta.update(token.split("=", 1) for token in text[1:].split() if "=" in token)
    return Spanner(
        algo=meta.get("algo", "?"),
        k=int(meta["k"]) if "k" in meta else None,
        eps=float(meta["eps"]) if "eps" in meta else None,
        n=n,
        edges=edges,
        source_hash=meta.get("source_hash", ""),
    )
