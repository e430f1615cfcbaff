"""Spanner artifact: edge subset plus provenance metadata and the
spanner-file round-trip: an ordinary edge-list file, read and written by
`graphs`, whose header comment is "# algo=.. k=.. eps=.. n=.. source_hash=..";
a spanner without k or eps is saved without that field.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from .graphs import WeightedGraph, _read_graph_file, save_graph


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
        meta = {"algo": self.algo, "k": self.k, "eps": self.eps, "n": self.n,
                "source_hash": self.source_hash}
        save_graph(WeightedGraph(self.n, self.edges), path, header_comment=" ".join(
            f"{key}={value}" for key, value in meta.items() if value is not None))


def load_spanner(path: str) -> Spanner:
    """Read a spanner file.  A header field k or eps that does not parse
    raises ValueError naming the file and the field."""
    lines, n, edges = _read_graph_file(path)
    meta: dict[str, str] = {}
    for line in lines:
        text = line.strip()
        if text.startswith("#"):
            meta.update(token.split("=", 1) for token in text[1:].split() if "=" in token)

    def field_value(name: str, parse):
        try:
            return parse(meta[name]) if name in meta else None
        except ValueError:
            raise ValueError(f"{path}: header field {name}={meta[name]!r} "
                             f"is not a valid {parse.__name__}") from None

    return Spanner(
        algo=meta.get("algo", "?"),
        k=field_value("k", int),
        eps=field_value("eps", float),
        n=n,
        edges=edges,
        source_hash=meta.get("source_hash", ""),
    )
