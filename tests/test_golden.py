"""Golden-output guard: the sha256 of each builder's sorted edge list, and
of its `levels` rows and `ops` counters, over a fixed grid of inputs.

Performance work and refactors must keep the spanners and their level logs
byte-identical; an edge digest that moves means the edge set changed, a row
digest that moves means some level was processed differently.  The digest
of an audited build's outcome stream guards the audits the same way.  If a
change is meant to alter the output, regenerate all three tables with

    PYTHONPATH=src python tests/test_golden.py

and say why in the change log.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import random

import pytest

from spanlab import lightsteps
from spanlab.buckets import mu_classes, threshold
from spanlab.generators import gnm_graph
from spanlab.graphs import WeightedGraph
from spanlab.light import build_light
from spanlab.linear import build_linear
from spanlab.pm import build_pm, internal_eps
from conftest import CheckSink, unscaled_eps

BUILDERS = {"pm": build_pm, "linear": build_linear, "light": build_light}
SCALED = contextlib.nullcontext  # the builders' own eps scaling


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
    """gnm(48, 400) whose weights sit on the grid thresholds of pm's
    unscaled eps' at 0.25: classes 0, 1, 2, each with levels 0 and 1."""
    with unscaled_eps():
        eps_i = internal_eps(0.25)
    mu = mu_classes(eps_i)
    grid = [threshold(i * mu + sigma, eps_i) for sigma in (0, 1, 2) for i in (0, 1)]
    rng = random.Random("golden-two-level")
    base = gnm_graph(48, 400, 9, "unit")
    return WeightedGraph(base.n, [(u, v, rng.choice(grid)) for u, v, _ in base.edges])


# `light` runs its five steps (`process_level`) on these two (1 and 9
# calls): at k = 1 the filter factor is about 1.3, so the potential bound
# that skips a class's later levels leaves some level with a later one it
# cannot rule out.  The other cases never run them.
STEPS_CASES = {
    "steps-gnm300-k1-e0.5": (
        lambda: gnm_graph(300, 3600, 2, "loguniform", 1e9), 1, 0.5, SCALED),
    "steps-gnm500-k1-e0.5": (
        lambda: gnm_graph(500, 6000, 3, "loguniform", 1e9), 1, 0.5, SCALED),
}


def _cases():
    """name -> (graph factory, k, eps, the eps scaling to build under)."""
    out = {}
    for law in ("uniform", "loguniform", "unit"):
        for k in (2, 3):
            for eps in (0.25, 0.5):
                out[f"gnm48-{law}-k{k}-e{eps}"] = (
                    lambda law=law: gnm_graph(48, 192, 5, law), k, eps, SCALED)
    out["k4x30-k2-e0.25"] = (lambda: k4_pieces(30, 1), 2, 0.25, SCALED)
    # on the grid above pm and linear keep H = G for weighted laws; here
    # dense cells in three classes of two levels each make every class merge
    # clusters at its first level and dedupe through them at its second
    out["two-level-classes-k2-e0.25"] = (two_level_classes, 2, 0.25, unscaled_eps)
    # unscaled eps keeps the level span near 1/eps, so the heavy side of
    # `light` enters classes from three rungs of its carve ladder
    out["ladder-gnm100-k3-e0.5"] = (
        lambda: gnm_graph(100, 1500, 1, "loguniform", 1e9), 3, 0.5, unscaled_eps)
    # builds ran the five steps on these two (2 and 10 calls) until the
    # potential bound showed those levels' successors empty
    out["steps-gnm200-k2-e0.25"] = (
        lambda: gnm_graph(200, 3000, 1, "loguniform", 1e9), 2, 0.25, unscaled_eps)
    out["steps-gnm500-k3-e0.5"] = (
        lambda: gnm_graph(500, 6000, 3, "loguniform", 1e9), 3, 0.5, SCALED)
    out.update(STEPS_CASES)
    return out


CASES = _cases()


def edges_sha(sp) -> str:
    h = hashlib.sha256()
    for u, v, w in sorted(sp.edges):
        h.update(f"{u} {v} {w!r}\n".encode())
    return h.hexdigest()


def rows_sha(sp) -> str:
    """sha256 of the spanner's `levels` and `ops` as JSON with sorted keys."""
    text = json.dumps({"levels": sp.levels, "ops": sp.ops}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _spanners(name: str) -> dict:
    """Each builder's spanner of case `name`, built once per test session."""
    make, k, eps, scaling = CASES[name]
    g = make()
    with scaling():
        return {algo: build(g, k, eps) for algo, build in BUILDERS.items()}


def _digests(name: str) -> dict[str, str]:
    return {algo: edges_sha(sp) for algo, sp in _spanners(name).items()}


def _row_digests(name: str) -> dict[str, str]:
    return {algo: rows_sha(sp) for algo, sp in _spanners(name).items()}


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
    'steps-gnm300-k1-e0.5': {
        'pm': '287a3025e443104b0f6b69614e4cdc6636f7a5f1415e2a6114243b15becff512',
        'linear': '9a02011c14efd2a31f7e618d8c3a2657cc38a4ac35e44316c4eb0c2d469fb79b',
        'light': '1eb7e89abec7cbfa7db0dc0beb2549558cfb7ff3e280858430a44e51298d8b0f',
    },
    'steps-gnm500-k1-e0.5': {
        'pm': '36d1fec376935673f95c21d65ae0c19047645ddf87c62a8d2fa43e4f2c767c37',
        'linear': 'c9fefa1231b722e72e8d72176eae1e0c675c3af4aaddf53b71a95225eeef3ee8',
        'light': '5abb25c2e46634a647e9711b20524dd84f85555e6086f86a9888161bf38c540e',
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


GOLDEN_ROWS = {
    'gnm48-loguniform-k2-e0.25': {
        'pm': '258e5c815650f8ed7f33dd729746538b91bdf4431a8a7cb62ac95b1f49703796',
        'linear': '68b5d9fa199517b36dfdaef2af84da063ffe61b40e23e899a2534bb1856092c4',
        'light': 'abf647cf180b9d5fc2961191778e479278ffe9bbb5a202d73724570d2b3375ee',
    },
    'gnm48-loguniform-k2-e0.5': {
        'pm': 'ca8ab745a7b7db68728537b0db46696e4f0e0a4928070fa404779897e6355053',
        'linear': '7193b04b6cc8aabfb35d1845147b16497e6f9776a20dbfc49120e6b37ca24289',
        'light': '38b46f21f2fe4e94062e2deceec19a8962918a6b6e7d58c93e114b03eed64a28',
    },
    'gnm48-loguniform-k3-e0.25': {
        'pm': '258e5c815650f8ed7f33dd729746538b91bdf4431a8a7cb62ac95b1f49703796',
        'linear': '68b5d9fa199517b36dfdaef2af84da063ffe61b40e23e899a2534bb1856092c4',
        'light': 'a9bf8b3e9ebeba5c4e5e532ed7810e76dddb356e545d4fe3ad7a02c3d748e755',
    },
    'gnm48-loguniform-k3-e0.5': {
        'pm': 'ca8ab745a7b7db68728537b0db46696e4f0e0a4928070fa404779897e6355053',
        'linear': '7193b04b6cc8aabfb35d1845147b16497e6f9776a20dbfc49120e6b37ca24289',
        'light': '3e73fc81c13a34af63aae64a73eca6d298461b35aa3eb398da3fec938fdb95e2',
    },
    'gnm48-uniform-k2-e0.25': {
        'pm': '882ef31b7c921c7fa8025294f9080238b643fa270b1684b8e0678eb28dd5bfd3',
        'linear': '481cdd100e2a6af93567056a6f5ad123ba2cd6b832ab9535748aa1ebcdbf4956',
        'light': 'e1582264405328fabec7749c571c07177e802387ec6dac1c161a465619a5301b',
    },
    'gnm48-uniform-k2-e0.5': {
        'pm': '90b617c7d19b18a900dfc07c811495019c60464d81becf4df54e3b261d28bff6',
        'linear': '8fac32727b35db9136d8025e45ba98f4c6e702be2212180b370fe615799e850d',
        'light': '5b9752a447666aa4a1939f49fc3928b432bb3fd2842ae2df1c98a836f626c1f2',
    },
    'gnm48-uniform-k3-e0.25': {
        'pm': '882ef31b7c921c7fa8025294f9080238b643fa270b1684b8e0678eb28dd5bfd3',
        'linear': '481cdd100e2a6af93567056a6f5ad123ba2cd6b832ab9535748aa1ebcdbf4956',
        'light': 'd7673f419b2151aedcb1fa9b1cbd2135f692ae42d6c5e0261c0beeacb0ae8a01',
    },
    'gnm48-uniform-k3-e0.5': {
        'pm': '90b617c7d19b18a900dfc07c811495019c60464d81becf4df54e3b261d28bff6',
        'linear': '8fac32727b35db9136d8025e45ba98f4c6e702be2212180b370fe615799e850d',
        'light': 'd70c187499279a5bc7c77931ded9652b3ff64f6a54db0ae350171288076ce6ef',
    },
    'gnm48-unit-k2-e0.25': {
        'pm': '67b8c45863a1be770a8e7083adfaa5d36c09fcecf69a4e35942e68b1ac075bab',
        'linear': '76ad7785a06f5f88def484698c34907cb38b0a4ae1be33da2ad498f5ebbe3a51',
        'light': 'd2c9d5d3181b5d78dbf28c4a9791c65edf86797651a51da7c17de9efa3a7a5df',
    },
    'gnm48-unit-k2-e0.5': {
        'pm': '67b8c45863a1be770a8e7083adfaa5d36c09fcecf69a4e35942e68b1ac075bab',
        'linear': '76ad7785a06f5f88def484698c34907cb38b0a4ae1be33da2ad498f5ebbe3a51',
        'light': 'aa800607bfe8442a5ed3cd08a054648dde0ce21f8dc1bd87f62c8ab64830929e',
    },
    'gnm48-unit-k3-e0.25': {
        'pm': 'db5b8f127e1b52fdfcff0bd66e549d91c5c7873dfd27c5288ff18b82d289ea9e',
        'linear': '3018fe3b5ec4eaa296a70c9f02d03c431757c261c922511dd3a1868230cb265b',
        'light': '9f3d58b051a6ec75fc669563d80983e4c7db00b220f2085afdcc213e5173a979',
    },
    'gnm48-unit-k3-e0.5': {
        'pm': 'db5b8f127e1b52fdfcff0bd66e549d91c5c7873dfd27c5288ff18b82d289ea9e',
        'linear': '3018fe3b5ec4eaa296a70c9f02d03c431757c261c922511dd3a1868230cb265b',
        'light': '9966b5632f5fefb18efb3d5866afbfe9aad61e9deeca4d1269fdf236126347f9',
    },
    'k4x30-k2-e0.25': {
        'pm': 'df7340cb9e1599cb06e9e94387df1762c14b4df23f6d81a6bddce06ee17d2c03',
        'linear': '7dd2c86ae5a54b8a27024e783c5d94c8f02ac894cf3341ed033c58c945d729d2',
        'light': '288addc712de921122802a58eddf9be99bf43e49c6da4ef50eaf607da3ece5f0',
    },
    'ladder-gnm100-k3-e0.5': {
        'pm': '4a4b6cc4eaa768c5d96c505ccc595ea52f6d380c0141c057407a6fa531de9c77',
        'linear': 'ff51ead40eab94f15ccbad852ed8474c59d3df557bf01b88ad1704e7b8917bc3',
        'light': 'e76ccbc4b4e146ddcfabf662f3b13ced450b1d3387bfce646dda35b3fe3cd827',
    },
    'steps-gnm200-k2-e0.25': {
        'pm': '9d87bfbf0da4eabe21813675c49e043986d5b25ce8bd6c22e2387532462b259e',
        'linear': '45a94679fc148b0a5b19426576f0b85401ec0b301fd3a29f53cada7583c5af22',
        'light': 'c051cf3922574fe43e62d68d97002b09026d9d3784515437df7b474394cdf85a',
    },
    'steps-gnm300-k1-e0.5': {
        'pm': 'a426322241b34a60438cee05ec4839e0ef198792ef0e699ee821f8f299595ac2',
        'linear': '5bb62d26f4b8180343a7ddaa413a1bd5106c3e537eb1d02e53767707dd8a5cc2',
        'light': '53881003f9627fb1d5cc7ad343f554b0524ee1f9bdb4c34bf0b2b38857d8f766',
    },
    'steps-gnm500-k1-e0.5': {
        'pm': 'cbd79efc4b3667b5380e0fa34dc4d7b56c7bdf8dea55e707021cacb0fab84e3e',
        'linear': '0ecd54ebdc3c062853abe8f0ea24d3dd6a64e29fbe27ed1e269cd8d905701bc8',
        'light': '2fce54f3424098d327181aceffcdf3c091a8ded7cf18156e6f026c603babf662',
    },
    'steps-gnm500-k3-e0.5': {
        'pm': 'cbd79efc4b3667b5380e0fa34dc4d7b56c7bdf8dea55e707021cacb0fab84e3e',
        'linear': 'de07aa4b3aaaaead0388b91c723513b46ffb9e25fc8a4cc690d06395d89cba81',
        'light': '97436a07997eaa9d399cab3b4aaaf4ee98bc433c08d8fd2ad9eae48bd053e3c2',
    },
    'two-level-classes-k2-e0.25': {
        'pm': '306d984e869cc17cef833ccfcf746d3ab1a8d0d8fa685bc6c25fd3a8c4bd9968',
        'linear': 'df1bb5e9231be71a117ee0a4c6185d173c8ba30e6a498043ee183e8d64f85791',
        'light': '0ce32f103250be27bf4b554151cd6ccadfc0fca0184da909a4f875c89d5e81e8',
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_edge_sets(name):
    assert _digests(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_levels_and_ops(name):
    assert _row_digests(name) == GOLDEN_ROWS[name]


@pytest.mark.parametrize("name", sorted(STEPS_CASES))
def test_steps_cases_run_process_level(name, monkeypatch):
    calls = []
    real = lightsteps.process_level

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(lightsteps, "process_level", counted)
    make, k, eps, scaling = CASES[name]
    with scaling():
        build_light(make(), k, eps)
    assert calls


# six small graphs more for the audited-vs-plain test
AUDIT_CASES = dict(CASES, **{
    f"gnm30-loguniform-s{seed}-k2-e0.25": (
        lambda seed=seed: gnm_graph(30, 120, seed, "loguniform", 300), 2, 0.25, SCALED)
    for seed in range(6)
})


@pytest.mark.parametrize("algo", sorted(BUILDERS))
@pytest.mark.parametrize("name", sorted(AUDIT_CASES))
def test_audited_build_equals_plain(name, algo):
    # the audits observe a build and never steer it: an audited build keeps
    # the same edges, logs the same rows and counts the same ops
    make, k, eps, scaling = AUDIT_CASES[name]
    sink = CheckSink()
    with scaling():
        plain = (_spanners(name)[algo] if name in CASES
                 else BUILDERS[algo](make(), k, eps))
        audited = BUILDERS[algo](make(), k, eps, check=sink)
    sink.assert_clean()
    assert (audited.edges, audited.levels, audited.ops) == \
        (plain.edges, plain.levels, plain.ops)


# sha256 over "name\tok\tdetail\n" of every audit outcome of the audited
# build of AUDIT_STREAM_CASE, in report order (see `audit_stream`): moving
# an audit must not change it.  Its plain build runs the five steps once
AUDIT_STREAM_CASE = "steps-gnm300-k1-e0.5"
AUDIT_STREAM = {
    'outcomes': 1799,
    'sha256': 'c0658a802473614fa117e30fd4e954efd5d82b7a3ca6564ab694fb4abbd723c2',
}


def audit_stream(name: str) -> list[tuple[str, bool, str]]:
    make, k, eps, scaling = CASES[name]
    out: list[tuple[str, bool, str]] = []
    with scaling():
        build_light(make(), k, eps,
                    check=lambda n, ok, detail: out.append((n, ok, detail)))
    return out


def _audit_stream_digest(name: str) -> dict:
    stream = audit_stream(name)
    h = hashlib.sha256()
    for n, ok, detail in stream:
        h.update(f"{n}\t{ok}\t{detail}\n".encode())
    return {"outcomes": len(stream), "sha256": h.hexdigest()}


def test_audit_stream_of_steps_case():
    assert _audit_stream_digest(AUDIT_STREAM_CASE) == AUDIT_STREAM


if __name__ == "__main__":
    for table, digests in (("GOLDEN", _digests), ("GOLDEN_ROWS", _row_digests)):
        print(f"{table} = {{")
        for name in sorted(CASES):
            print(f"    {name!r}: {{")
            for algo, digest in digests(name).items():
                print(f"        {algo!r}: {digest!r},")
            print("    },")
        print("}")
    print("AUDIT_STREAM = {")
    for key, value in _audit_stream_digest(AUDIT_STREAM_CASE).items():
        print(f"    {key!r}: {value!r},")
    print("}")
