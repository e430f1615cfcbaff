"""spanlab: deterministic (2k-1)(1+eps) spanner constructions with an
independent stretch/sparsity/lightness verifier."""

from .graphs import (
    MstResult,
    WeightedGraph,
    load_graph,
    minimum_spanning_tree,
    normalize_weights,
    save_graph,
)
from .buckets import LevelBuckets, partition_edges
from .dsu import ClassicUF, StaticTreeIndex, StaticTreeUF
from .hz import UnweightedGraph, hz_spanner
from .light import build_light, split_light_heavy, subdivide_mst
from .linear import build_linear
from .oracle import greedy_spanner, spanner_metrics, verify_stretch
from .pm import build_pm, dedupe_source_edges, grow_star_cover
from .spanner import Spanner, load_spanner

__all__ = [
    "ClassicUF",
    "LevelBuckets",
    "MstResult",
    "Spanner",
    "StaticTreeIndex",
    "StaticTreeUF",
    "UnweightedGraph",
    "WeightedGraph",
    "build_light",
    "build_linear",
    "build_pm",
    "dedupe_source_edges",
    "greedy_spanner",
    "grow_star_cover",
    "hz_spanner",
    "load_graph",
    "load_spanner",
    "minimum_spanning_tree",
    "normalize_weights",
    "partition_edges",
    "save_graph",
    "spanner_metrics",
    "split_light_heavy",
    "subdivide_mst",
    "verify_stretch",
]
