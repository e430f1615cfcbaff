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
        'pm': '18369f2c7905a51a711efacdb13539c0452f080bc291b3cd501db33f76ef4919',
        'linear': '12aa513655281551f31e949e3604568d6402e2b4a5d518e64568cf5cb882d32f',
        'light': 'ec60099ef5ce28acdcca839c04b6cadb98b1f2b9f113491c57d060b254c002fd',
    },
    'gnm48-loguniform-k2-e0.5': {
        'pm': '4c99bbf3950718031139320c37ababbd68d7645da6288c381fa01e938ac79b66',
        'linear': 'd4e863cb7652c033228e1963b07d489e0f32c89f167bd277bf25d0c5beba6005',
        'light': '7ae432cee005b4ace14ca516673a5c83bd6b3e38004cef0ebf16783a54bc92e4',
    },
    'gnm48-loguniform-k3-e0.25': {
        'pm': '3eb36730a3ecd87ee6637d16901dab9784c26f476d2222cbface9fe54c1207f8',
        'linear': '5d11dd11a739cb6ef420ce22c47df7dd0816ada6f813b875f7a5beba6c7318a6',
        'light': '91805fc6515d55fe79f37520494c69e62930da9ea5b8985d230bbae15f8c24cd',
    },
    'gnm48-loguniform-k3-e0.5': {
        'pm': '0e30d0dd1b7696820d2049dabb6d30b9ae95eb3bdea4ee7fcb2e0a9ceb6a8810',
        'linear': '76d9fead13dfb8267afaef941d479648fc152bcf769408093f33fb64a78c058c',
        'light': 'b31eb64ab453374961f029826ae96b12d96c69a4f812f445c977effbae11abb7',
    },
    'gnm48-uniform-k2-e0.25': {
        'pm': '76feff917f78505c1167bb72ea5841a207da9954e0230acb08ad308660ecefc1',
        'linear': 'ad7a81c7dcab6c6a9fc1d4a28cd1c3e97d1dc1009105d9783b71becae709d6a7',
        'light': '653bd4337789a8185f8212c3430f104f3d5e571c4b03f0ce7d345af06108acee',
    },
    'gnm48-uniform-k2-e0.5': {
        'pm': 'e870800bb80f2ba6cf0f9872d55437de53236b47ca2aa7d24d4e2e3bb14cf4d2',
        'linear': '698261b59d8663d739817ce7e534f4bf0d9a01107ff59cd2541e4577241b1ee4',
        'light': '41f06956e9f26052b3f893597f3d0f308b795c777e7c224601115993163eb178',
    },
    'gnm48-uniform-k3-e0.25': {
        'pm': '497f493ac15c4118a2bb17f82d5c45e74ac0eb846335f0cabf86d4e73efc21a2',
        'linear': '22636ac463256c7df0512553e9d04bba78fc52de2db53470283b6604988f3dd4',
        'light': '419b0b5037b86bfbb2efd176e172d1055ed9502ff57aea100362771268b41b3a',
    },
    'gnm48-uniform-k3-e0.5': {
        'pm': '29a9a3e584530fca1af9a84009a1377f1abfb0b1cb717d2912c5ec561d215721',
        'linear': 'ec5faee5b5093bf278e25cdb0abeb8d569e9025e137637a8d3a7beeb7d52ecaf',
        'light': 'aea5c6f3fc18447ed12f5ec7a9090c819d76a7eb74a1cedcd4f59a741d950bd4',
    },
    'gnm48-unit-k2-e0.25': {
        'pm': '67b8c45863a1be770a8e7083adfaa5d36c09fcecf69a4e35942e68b1ac075bab',
        'linear': '76ad7785a06f5f88def484698c34907cb38b0a4ae1be33da2ad498f5ebbe3a51',
        'light': '710d44218b414d48acbadb021faa53819eb50a07cec3f48fdac8813ff1d1e0a7',
    },
    'gnm48-unit-k2-e0.5': {
        'pm': '67b8c45863a1be770a8e7083adfaa5d36c09fcecf69a4e35942e68b1ac075bab',
        'linear': '76ad7785a06f5f88def484698c34907cb38b0a4ae1be33da2ad498f5ebbe3a51',
        'light': '8f5b5290080c06379bb7cac998a800c997256e6bf9e9b6b1a752b0e58f8c56bf',
    },
    'gnm48-unit-k3-e0.25': {
        'pm': 'db5b8f127e1b52fdfcff0bd66e549d91c5c7873dfd27c5288ff18b82d289ea9e',
        'linear': '3018fe3b5ec4eaa296a70c9f02d03c431757c261c922511dd3a1868230cb265b',
        'light': '187455bc2ddd094df50146d365bbdf756a80f5704bdf402a5fb19d8e2f725414',
    },
    'gnm48-unit-k3-e0.5': {
        'pm': 'db5b8f127e1b52fdfcff0bd66e549d91c5c7873dfd27c5288ff18b82d289ea9e',
        'linear': '3018fe3b5ec4eaa296a70c9f02d03c431757c261c922511dd3a1868230cb265b',
        'light': '3080b63f05292260ae8a94611fd83bbb7440efe5b8a35c008f6541b2eabd9b39',
    },
    'k4x30-k2-e0.25': {
        'pm': 'ccfb4ef38b0922dc201bc6f00cc1011247db1dfd6a2ff8c4cb22440f46da719f',
        'linear': 'fe6a904ba8381fe175bb9205edf4bdbc01ae84dbf0452df9fc05aba0011e30e7',
        'light': 'de07443f33417f5565b677b1ad25d2c53448822366ef25af2eeef4cba005618a',
    },
    'ladder-gnm100-k3-e0.5': {
        'pm': '664dfe1ebe4ecd80d50a185d38588bbd62403d5bee429966fdc37ff4bc7c7c22',
        'linear': 'c67db3f8012a68bd5944011e8d3e5762723a81622861a228ef88ebf49c6193ae',
        'light': '67c3475f4a726ecc21f30ef710a212ee9869de44e83353eccd5d4c042768872d',
    },
    'steps-gnm200-k2-e0.25': {
        'pm': 'f29452ec73483a21ac4b547fa9a4bb88083c62c9c0cf314f3b0fcd626dfcafd4',
        'linear': 'cbe15bce06b3d25a64e5eb3925bfdbc3a43eb08f56adf34a39e6ad0f3c2f804d',
        'light': '0fc42cacd983ccb02b1ae1f5778df6c98fa229cd8b280a50b55cb285133cc37e',
    },
    'steps-gnm300-k1-e0.5': {
        'pm': 'eee11ed9768ad3a65d3e875f71751c06b87c44658fa571a6ca103257d790182a',
        'linear': 'bf2d436de1f020118b84a1ff7198b32d4476ee33a06c6bd0ee8ad3a5c8968560',
        'light': '2ff307b428aa1a16769becf6002b55be0c5674b610d565ed4ee1f3f6fb1e13a7',
    },
    'steps-gnm500-k1-e0.5': {
        'pm': '60b95af9c18a8b54d360aec2b9a2c8f950eeaa57a91e6ae4a7d3e8d8e502e104',
        'linear': '9791340bbeb8db84f99b55c27bcb533101861e9bde8f4ffb073736efb889d3fa',
        'light': 'b6187d5ae797a1d9603228e65c48ecfae6a0bbb61ecd86c1df500b5c810c3a86',
    },
    'steps-gnm500-k3-e0.5': {
        'pm': 'f1e4b68e5af7a67d7053df39c038a1dc5b1a221216f64f5bd405374a54931793',
        'linear': 'f0d254cd60c09a2bee8cf98087a4789e50e8d15019c0ac4cd070405a64d9f051',
        'light': '5e539743ed8a7cd16b69f6ef4a0848bd45809d94d3474de6e0f8a1c8818876e7',
    },
    'two-level-classes-k2-e0.25': {
        'pm': '306d984e869cc17cef833ccfcf746d3ab1a8d0d8fa685bc6c25fd3a8c4bd9968',
        'linear': 'a8d1fef47bcf33e149942f47e0d9beee2d9d28e00ee1d88afd19add524196c70',
        'light': 'c866a1f3fb38a459eea6e234771bb79d17a29e14ee784d7fce791661af578b85',
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
    'outcomes': 3150,
    'size_warnings_failed': 423,
    'sha256': 'a6ea0a311ba63344fe8f3fe0bf0aa6ff3e4e66e602c69543f30302aa378c4591',
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
    warned = sum(1 for n, ok, _ in stream if n == "p2-size-warning" and not ok)
    return {"outcomes": len(stream), "size_warnings_failed": warned,
            "sha256": h.hexdigest()}


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
