"""Spanner artifact: edge subset plus provenance metadata and the
spanner-file round-trip ("# algo=.. k=.. eps=.. n=.. source_hash=.."
header followed by an ordinary edge list)."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from .graphs import WeightedGraph


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
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                f"# algo={self.algo} k={self.k} eps={self.eps!r} "
                f"n={self.n} source_hash={self.source_hash}\n"
            )
            fh.write(f"{self.n} {self.m}\n")
            for u, v, w in self.edges:
                fh.write(f"{u} {v} {w!r}\n")


def load_spanner(path: str) -> Spanner:
    meta: dict[str, str] = {}
    n: Optional[int] = None
    edges: list[tuple[int, int, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text:
                continue
            if text.startswith("#"):
                for token in text[1:].split():
                    if "=" in token:
                        key, val = token.split("=", 1)
                        meta[key] = val
                continue
            parts = text.split()
            if n is None:
                n = int(parts[0])
                continue
            if len(parts) < 3:
                raise ValueError(f"{path}:{lineno}: edge line needs 'u v w', got {text!r}")
            edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
    if n is None:
        raise ValueError(f"{path}: not a spanner file")
    return Spanner(
        algo=meta.get("algo", "?"),
        k=int(meta["k"]) if "k" in meta else None,
        eps=float(meta["eps"]) if "eps" in meta else None,
        n=n,
        edges=edges,
        source_hash=meta.get("source_hash", ""),
    )
