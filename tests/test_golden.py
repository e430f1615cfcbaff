"""Golden-output guard: the sha256 of each builder's sorted edge list over a
fixed grid of inputs.

Performance work and refactors must keep the spanners byte-identical; a
digest that moves means the edge set changed.  If a change is meant to
alter the output, regenerate the table with

    PYTHONPATH=src python tests/test_golden.py

and say why in the change log.
"""
from __future__ import annotations

import hashlib
import random

import pytest

from spanlab import lightsteps
from spanlab.buckets import mu_classes, threshold
from spanlab.generators import gnm_graph
from spanlab.graphs import WeightedGraph
from spanlab.light import build_light
from spanlab.linear import build_linear
from spanlab.pm import build_pm, internal_eps

BUILDERS = {"pm": build_pm, "linear": build_linear, "light": build_light}


def k4_pieces(pieces: int, seed: int) -> WeightedGraph:
    """Disjoint K4 pieces with loguniform weights in [1, 1e3] and shuffled
    vertex ids, like the benchmark's fragmented workload."""
    rng = random.Random(f"golden-k4-{seed}")
    label = list(range(4 * pieces))
    rng.shuffle(label)
    edges = []
    for p in range(pieces):
        piece = gnm_graph(4, 6, rng.randrange(2**31), "loguniform", 1e3)
        edges.extend((label[4 * p + u], label[4 * p + v], w) for u, v, w in piece.edges)
    return WeightedGraph.from_edges(4 * pieces, edges)


def two_level_classes() -> WeightedGraph:
    """gnm(48, 400) whose weights sit on the grid thresholds of pm's nominal
    eps' at 0.25: classes 0, 1, 2, each with levels 0 and 1."""
    eps_i = internal_eps(0.25, nominal=True)
    mu = mu_classes(eps_i)
    grid = [threshold(i * mu + sigma, eps_i) for sigma in (0, 1, 2) for i in (0, 1)]
    rng = random.Random("golden-two-level")
    base = gnm_graph(48, 400, 9, "unit")
    return WeightedGraph(base.n, [(u, v, rng.choice(grid)) for u, v, _ in base.edges])


# `light` runs its five steps (`process_level`) unaudited on these two: some
# class has several levels (2 and 10 calls).  The other cases never run them
# unaudited.
STEPS_CASES = {
    "steps-gnm200-k2-e0.25": (
        lambda: gnm_graph(200, 3000, 1, "loguniform", 1e9), 2, 0.25, True),
    "steps-gnm500-k3-e0.5": (
        lambda: gnm_graph(500, 6000, 3, "loguniform", 1e9), 3, 0.5, False),
}


def _cases():
    """name -> (graph factory, k, eps, nominal_eps)."""
    out = {}
    for law in ("uniform", "loguniform", "unit"):
        for k in (2, 3):
            for eps in (0.25, 0.5):
                out[f"gnm48-{law}-k{k}-e{eps}"] = (
                    lambda law=law: gnm_graph(48, 192, 5, law), k, eps, False)
    out["k4x30-k2-e0.25"] = (lambda: k4_pieces(30, 1), 2, 0.25, False)
    # on the grid above pm and linear keep H = G for weighted laws; here
    # dense cells in three classes of two levels each make every class merge
    # clusters at its first level and dedupe through them at its second
    out["two-level-classes-k2-e0.25"] = (two_level_classes, 2, 0.25, True)
    # nominal eps keeps the level span near 1/eps, so the heavy side of
    # `light` enters classes from three rungs of its carve ladder
    out["ladder-gnm100-k3-e0.5"] = (
        lambda: gnm_graph(100, 1500, 1, "loguniform", 1e9), 3, 0.5, True)
    out.update(STEPS_CASES)
    return out


CASES = _cases()


def edges_sha(sp) -> str:
    h = hashlib.sha256()
    for u, v, w in sorted(sp.edges):
        h.update(f"{u} {v} {w!r}\n".encode())
    return h.hexdigest()


def _digests(name: str) -> dict[str, str]:
    make, k, eps, nominal = CASES[name]
    g = make()
    return {algo: edges_sha(build(g, k, eps, nominal_eps=nominal))
            for algo, build in BUILDERS.items()}


GOLDEN = {
    'gnm48-loguniform-k2-e0.25': {
        'pm': '8322dfdcfb3f56504a59b5b7b871dc47bb1420dd68aa4a3294d03473677e3618',
        'linear': '8322dfdcfb3f56504a59b5b7b871dc47bb1420dd68aa4a3294d03473677e3618',
        'light': '5e18ea5109f9feee1f5c70406c058036f83163b4a9393c8ced540a16c4e39ab5',
    },
    'gnm48-loguniform-k2-e0.5': {
        'pm': '8322dfdcfb3f56504a59b5b7b871dc47bb1420dd68aa4a3294d03473677e3618',
        'linear': '8322dfdcfb3f56504a59b5b7b871dc47bb1420dd68aa4a3294d03473677e3618',
        'light': '62bc4e8b347fb48aa9939450042dc29ab2376984ea5bb7d93e39b1faca18fdc6',
    },
    'gnm48-loguniform-k3-e0.25': {
        'pm': '8322dfdcfb3f56504a59b5b7b871dc47bb1420dd68aa4a3294d03473677e3618',
        'linear': '8322dfdcfb3f56504a59b5b7b871dc47bb1420dd68aa4a3294d03473677e3618',
        'light': '8bc1e04a0d14e374d206ac9841fdddaffd77e120728e0229b88deebdcfab32f5',
    },
    'gnm48-loguniform-k3-e0.5': {
        'pm': '8322dfdcfb3f56504a59b5b7b871dc47bb1420dd68aa4a3294d03473677e3618',
        'linear': '8322dfdcfb3f56504a59b5b7b871dc47bb1420dd68aa4a3294d03473677e3618',
        'light': '01172927513a7bf29d8a34576093813b109926edd451642f122e1cdef35b0ac4',
    },
    'gnm48-uniform-k2-e0.25': {
        'pm': '15e4e8f47636bc5293378e8b55bf490e8fe7da482cc2738d9f3212561a572ca6',
        'linear': '15e4e8f47636bc5293378e8b55bf490e8fe7da482cc2738d9f3212561a572ca6',
        'light': 'f88af9242795dfdd741f41d6fa427ef7cae4b3f9e190897d5a9a093efb34691d',
    },
    'gnm48-uniform-k2-e0.5': {
        'pm': '15e4e8f47636bc5293378e8b55bf490e8fe7da482cc2738d9f3212561a572ca6',
        'linear': '15e4e8f47636bc5293378e8b55bf490e8fe7da482cc2738d9f3212561a572ca6',
        'light': '5d81fa93e9a258e401deda859c76bb8ee65a7993c22ddabd7015fba6cd91ec2e',
    },
    'gnm48-uniform-k3-e0.25': {
        'pm': '15e4e8f47636bc5293378e8b55bf490e8fe7da482cc2738d9f3212561a572ca6',
        'linear': '15e4e8f47636bc5293378e8b55bf490e8fe7da482cc2738d9f3212561a572ca6',
        'light': 'c1554966d9c44ef65e71e0b790801dfb0a5be06e266e046342f6a9a2ca57172d',
    },
    'gnm48-uniform-k3-e0.5': {
        'pm': '15e4e8f47636bc5293378e8b55bf490e8fe7da482cc2738d9f3212561a572ca6',
        'linear': '15e4e8f47636bc5293378e8b55bf490e8fe7da482cc2738d9f3212561a572ca6',
        'light': 'c1554966d9c44ef65e71e0b790801dfb0a5be06e266e046342f6a9a2ca57172d',
    },
    'gnm48-unit-k2-e0.25': {
        'pm': '3e013025f15861d8c6625f83dd9d4142466ed8b2d29de02bea83ea71c15dd55f',
        'linear': '68269b13b004c9d2180c4532fd33603a6e0e9cc403c615cbc15aacb0ec5d7475',
        'light': '4d36f0a231cb07dc711680be862306681fdaceb86189456cc26a11fe6f277321',
    },
    'gnm48-unit-k2-e0.5': {
        'pm': '3e013025f15861d8c6625f83dd9d4142466ed8b2d29de02bea83ea71c15dd55f',
        'linear': '68269b13b004c9d2180c4532fd33603a6e0e9cc403c615cbc15aacb0ec5d7475',
        'light': '4d36f0a231cb07dc711680be862306681fdaceb86189456cc26a11fe6f277321',
    },
    'gnm48-unit-k3-e0.25': {
        'pm': 'f765d95726ac6663f7d9d05e59c2c81903cd1add7bfef280b8023c8b6bd2cd4f',
        'linear': 'c438e3894767497764a8aa34e40c131acf6567c1966e94b416cffa9aba95663a',
        'light': '00d460ea47b00159b73ce44c80c89643c901b577b8e15f754f0b5f4b64ec47c9',
    },
    'gnm48-unit-k3-e0.5': {
        'pm': 'f765d95726ac6663f7d9d05e59c2c81903cd1add7bfef280b8023c8b6bd2cd4f',
        'linear': 'c438e3894767497764a8aa34e40c131acf6567c1966e94b416cffa9aba95663a',
        'light': '1ca58a2a3c3d3bac3af1f7361d4acef7aec3daa6a3334091cff0ceaa1d2bf36d',
    },
    'k4x30-k2-e0.25': {
        'pm': '345414d46d1aa5ad6919f0585d49237a3faaaa1e596e854b771c271cba45c561',
        'linear': '345414d46d1aa5ad6919f0585d49237a3faaaa1e596e854b771c271cba45c561',
        'light': '6a15041dac9e04a218e8473ea3db91ebb13516d3e6b3599e0a454faa30bd7895',
    },
    'ladder-gnm100-k3-e0.5': {
        'pm': '50c0c01901b350d6f603f0b4959c24865597d5202e5461575cf2e35e3b4bf430',
        'linear': 'b4627b7f3124891dfa47961bca860e321ec8fb208ca6f05b109737427550e12b',
        'light': '9aac745e999363e819776d0f4a2cdd8e4ed69485091b0cd53a1515c131dd0bc9',
    },
    'steps-gnm200-k2-e0.25': {
        'pm': 'c8e15420fdb5f9f2a6727dae6f82ca3e4dff189ab10cca29544b4edd23e8ca37',
        'linear': '88c41dbd5354c2a677083cc69b063c0f3599b3710cbed8e05c0c50cc7eb61950',
        'light': '3eae7ef55a686cca4e941cb6f9d129abfd0037e8e291c5761e856cf8812ce284',
    },
    'steps-gnm500-k3-e0.5': {
        'pm': '36d1fec376935673f95c21d65ae0c19047645ddf87c62a8d2fa43e4f2c767c37',
        'linear': '728309f3b94ecd54f565d077a9feab20b274e4db6a307a7e9067d5ff881d2a1f',
        'light': '73314c167bce715a3e60778c53c083ebf4d55a1146d134ff54bb78f09b7913bd',
    },
    'two-level-classes-k2-e0.25': {
        'pm': '8784d2e2283e78c8cd1f7ca903fc13af9a85f0ac88edf35c9464e47b49af37fd',
        'linear': '5e3e359f9d4ab9bad6fab7210c3e6c517798d996bd9f8ced5fb1e818ddf02811',
        'light': '71d41e76968ae9fd8242cbbc4bfcc53f07d019494f767302c70e78290b926bae',
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_edge_sets(name):
    assert _digests(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(STEPS_CASES))
def test_steps_cases_run_process_level(name, monkeypatch):
    calls = []
    real = lightsteps.process_level

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(lightsteps, "process_level", counted)
    make, k, eps, nominal = CASES[name]
    build_light(make(), k, eps, nominal_eps=nominal)
    assert calls


# sha256 over "name\tok\tdetail\n" of every audit outcome of the audited
# steps-gnm200 build, in report order (see `audit_stream`): moving an audit
# must not change it
AUDIT_STREAM = {
    "outcomes": 3343,
    "size_warnings_failed": 586,
    "sha256": "ee1f04736833f960c4728dfb07e19c27e6ab4ee30652b1da3501843ed132dac9",
}


def audit_stream(name: str) -> list[tuple[str, bool, str]]:
    make, k, eps, nominal = CASES[name]
    out: list[tuple[str, bool, str]] = []
    build_light(make(), k, eps, nominal_eps=nominal,
                check=lambda n, ok, detail: out.append((n, ok, detail)))
    return out


def test_audit_stream_of_steps_case():
    stream = audit_stream("steps-gnm200-k2-e0.25")
    h = hashlib.sha256()
    for n, ok, detail in stream:
        h.update(f"{n}\t{ok}\t{detail}\n".encode())
    warned = sum(1 for n, ok, _ in stream if n == "p2-size-warning" and not ok)
    assert {"outcomes": len(stream), "size_warnings_failed": warned,
            "sha256": h.hexdigest()} == AUDIT_STREAM


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in sorted(CASES):
        print(f"    {name!r}: {{")
        for algo, digest in _digests(name).items():
            print(f"        {algo!r}: {digest!r},")
        print("    },")
    print("}")
