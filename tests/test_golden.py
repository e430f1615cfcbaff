"""Golden-output guard: the sha256 of each builder's sorted edge list, and
of its `levels` rows and `ops` counters, over a fixed grid of inputs.

Performance work and refactors must keep the spanners and their level logs
byte-identical; an edge digest that moves means the edge set changed, a row
digest that moves means some level was processed differently.  If a change
is meant to alter the output, regenerate both tables with

    PYTHONPATH=src python tests/test_golden.py

and say why in the change log.
"""
from __future__ import annotations

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


def rows_sha(sp) -> str:
    """sha256 of the spanner's `levels` and `ops` as JSON with sorted keys."""
    text = json.dumps({"levels": sp.levels, "ops": sp.ops}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _spanners(name: str) -> dict:
    """Each builder's spanner of case `name`, built once per test session."""
    make, k, eps, nominal = CASES[name]
    g = make()
    return {algo: build(g, k, eps, nominal_eps=nominal)
            for algo, build in BUILDERS.items()}


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
        'pm': '18369f2c7905a51a711efacdb13539c0452f080bc291b3cd501db33f76ef4919',
        'linear': '67a4c2e1a8756a2a06e2274b1d73d236b8bf5851d8d646362d8a1fd8c62af111',
        'light': 'cc98b8149bcd61e038bbf48bd4d83959007361c156861c63b52d02c68bffb359',
    },
    'gnm48-loguniform-k2-e0.5': {
        'pm': '4c99bbf3950718031139320c37ababbd68d7645da6288c381fa01e938ac79b66',
        'linear': '8117cfae7b1714958678e80914f1692510b82d1cf1ff6915507261d6248f5287',
        'light': '6233622ef2b0f26c8dabef026c7f8702722f8ef7637ab93d1836614000676933',
    },
    'gnm48-loguniform-k3-e0.25': {
        'pm': '3eb36730a3ecd87ee6637d16901dab9784c26f476d2222cbface9fe54c1207f8',
        'linear': '4631b9a3fd4928fc6d9be0fd54cf1d710b96c22e3b8be57ae55149d827f28df2',
        'light': '9e065ec3e824e397c11acd36b7c45273240563a08cee2794c5a128d949d05d83',
    },
    'gnm48-loguniform-k3-e0.5': {
        'pm': '0e30d0dd1b7696820d2049dabb6d30b9ae95eb3bdea4ee7fcb2e0a9ceb6a8810',
        'linear': 'b7624e8877f1fbd0976597893a6826edcc573b3b2a91be53ca0286e104501f37',
        'light': 'f9251a6f392ec9c9709700aa2a47f3de431f08f4ecd8afdd748ff8b33d256c35',
    },
    'gnm48-uniform-k2-e0.25': {
        'pm': '76feff917f78505c1167bb72ea5841a207da9954e0230acb08ad308660ecefc1',
        'linear': 'c7d54da7ca6e6c91905125b5add32cdbe81342997b8da3061e0f5137b7827a31',
        'light': '653bd4337789a8185f8212c3430f104f3d5e571c4b03f0ce7d345af06108acee',
    },
    'gnm48-uniform-k2-e0.5': {
        'pm': 'e870800bb80f2ba6cf0f9872d55437de53236b47ca2aa7d24d4e2e3bb14cf4d2',
        'linear': '3be1b623a827a77b8453d1572428a172d9335c39a3ba43dc7ac956ceb4ab2916',
        'light': '41f06956e9f26052b3f893597f3d0f308b795c777e7c224601115993163eb178',
    },
    'gnm48-uniform-k3-e0.25': {
        'pm': '497f493ac15c4118a2bb17f82d5c45e74ac0eb846335f0cabf86d4e73efc21a2',
        'linear': '0363595e13eb4dd658f081c0d7a92aad6aca2aad499489250175c5eb21783a50',
        'light': '419b0b5037b86bfbb2efd176e172d1055ed9502ff57aea100362771268b41b3a',
    },
    'gnm48-uniform-k3-e0.5': {
        'pm': '29a9a3e584530fca1af9a84009a1377f1abfb0b1cb717d2912c5ec561d215721',
        'linear': '11e0390a4accdba2f5d7879b24e353207fe5e17901844406d4b5ae5f6597754c',
        'light': 'aea5c6f3fc18447ed12f5ec7a9090c819d76a7eb74a1cedcd4f59a741d950bd4',
    },
    'gnm48-unit-k2-e0.25': {
        'pm': '67b8c45863a1be770a8e7083adfaa5d36c09fcecf69a4e35942e68b1ac075bab',
        'linear': '50c83a70915473639addd9f97bfae90e2e824001e681fb1852642463a5d3d243',
        'light': '710d44218b414d48acbadb021faa53819eb50a07cec3f48fdac8813ff1d1e0a7',
    },
    'gnm48-unit-k2-e0.5': {
        'pm': '67b8c45863a1be770a8e7083adfaa5d36c09fcecf69a4e35942e68b1ac075bab',
        'linear': '50c83a70915473639addd9f97bfae90e2e824001e681fb1852642463a5d3d243',
        'light': '8f5b5290080c06379bb7cac998a800c997256e6bf9e9b6b1a752b0e58f8c56bf',
    },
    'gnm48-unit-k3-e0.25': {
        'pm': 'db5b8f127e1b52fdfcff0bd66e549d91c5c7873dfd27c5288ff18b82d289ea9e',
        'linear': 'd9f762b2c070f740e4a99defe29d814039d4345b732d55f4e3816ab31202fca9',
        'light': '187455bc2ddd094df50146d365bbdf756a80f5704bdf402a5fb19d8e2f725414',
    },
    'gnm48-unit-k3-e0.5': {
        'pm': 'db5b8f127e1b52fdfcff0bd66e549d91c5c7873dfd27c5288ff18b82d289ea9e',
        'linear': 'd9f762b2c070f740e4a99defe29d814039d4345b732d55f4e3816ab31202fca9',
        'light': '3080b63f05292260ae8a94611fd83bbb7440efe5b8a35c008f6541b2eabd9b39',
    },
    'k4x30-k2-e0.25': {
        'pm': 'ccfb4ef38b0922dc201bc6f00cc1011247db1dfd6a2ff8c4cb22440f46da719f',
        'linear': '6e94ed637f2c72999de28a5985f2e1ad8baddf924ae095434a3c3e48634cb94d',
        'light': 'f3437e593f023dfef68cfbf80f89583d7243fc070a7b71ccfcf952af31d84735',
    },
    'ladder-gnm100-k3-e0.5': {
        'pm': '664dfe1ebe4ecd80d50a185d38588bbd62403d5bee429966fdc37ff4bc7c7c22',
        'linear': '8ba42ac311b470382fabf9ced8dc803176393f4083c46bff6ad868157f8f5f88',
        'light': '58b6999a8dd9c4fe2eb104c49bbfbe64391ca0bbb9a38ef98ef80de483bc2770',
    },
    'steps-gnm200-k2-e0.25': {
        'pm': 'f29452ec73483a21ac4b547fa9a4bb88083c62c9c0cf314f3b0fcd626dfcafd4',
        'linear': 'ffb80043f748cc814ef6d011959a949ed4d1960af9f0865a49ad4300177bdcc3',
        'light': '10f858cdfea93461e2f1b849532f51fc882865c81e6994bd3e0317beb659c1a6',
    },
    'steps-gnm500-k3-e0.5': {
        'pm': 'f1e4b68e5af7a67d7053df39c038a1dc5b1a221216f64f5bd405374a54931793',
        'linear': '68680934e72b26fddaf3f8b1cef6b376e446a08882cabac18b7e24f7bee33442',
        'light': '327e4dda523afd13d3f423942324484077141e92539d09573f2a4e5d8068bcc6',
    },
    'two-level-classes-k2-e0.25': {
        'pm': '306d984e869cc17cef833ccfcf746d3ab1a8d0d8fa685bc6c25fd3a8c4bd9968',
        'linear': 'c94ffda275c1cc6421d84e060b9d053e3c62caa5d2bbbe4cb9bb2941abc34fdd',
        'light': 'b4f9eac7434949cfd7a9f1012f9e856d586cf5f234257149a46c172f61bbc957',
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
    for table, digests in (("GOLDEN", _digests), ("GOLDEN_ROWS", _row_digests)):
        print(f"{table} = {{")
        for name in sorted(CASES):
            print(f"    {name!r}: {{")
            for algo, digest in digests(name).items():
                print(f"        {algo!r}: {digest!r},")
            print("    },")
        print("}")
