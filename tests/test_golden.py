"""Golden digests: the output bytes of short window runs are the behaviour
contract.  A change that moves any of these SHA-256 values changes what the
simulator writes for a fixed config and seed; it must say which and why.

Each case is a 200-epoch `window` run at the config's seed (42), written by
`write_window_csv`.  The shape cases set only the spike shape and
`pair_only = false`, so they also cover lone-spike candidates at the support
edges.  The other cases pin the drive paths and init policies the shipped
configs leave out: amplitude noise on the delayed bank (per-epoch scaled
peaks and the Gauss-Hermite analytic), random init with lone-spike
candidates, the linear switching law from all-OFF, all-ON init, and random
init under amplitude noise.  A last digest pins the `statedist` path: the
`states.csv` that `analytic_window` and `write_states_csv` give for the
noisy delayed bank, which is byte for byte the window run's.  The
`resolved-config.json` that `synstdp window` writes for each shipped config
is pinned too.  The switching law uses no `np.exp` (device._erf builds
exp(-x*x) from basic arithmetic), so these digests do not depend on which
SIMD kernels numpy dispatches to on the CPU.  The dexp and bio shapes are
left out: their waveforms use `np.exp`, which may differ in the last bit
across CPUs; the candidate-table oracle in test_pairing covers them.
"""
import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from synstdp import analytic_window, load_config, parse_config, run_window
from synstdp.output import write_states_csv, write_window_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EPOCHS = 200
FILES = ("window.csv", "mean.csv", "states.csv")
DELAY_BANK = json.loads((CONFIGS / "fig7_delay.json").read_text())["dendrites"]
DELAY_NOISE = {"dendrites": DELAY_BANK, "simulation": {"amp_noise_sigma": 0.05}}

CASES = {
    "fig4b": CONFIGS / "fig4b.json",
    "fig4d": CONFIGS / "fig4d.json",
    "fig7_delay": CONFIGS / "fig7_delay.json",
    "hrht": {"waveform": {"shape": "hrht"}, "simulation": {"pair_only": False}},
    "rect": {"waveform": {"shape": "rect"}, "simulation": {"pair_only": False}},
    "sawtooth": {"waveform": {"shape": "sawtooth"}, "simulation": {"pair_only": False}},
    "fig7_delay_noise": DELAY_NOISE,
    "random_q05": {"simulation": {"pair_only": False, "init_policy": {"random": {"q": 0.5}}}},
    "linear_all_off": {"device": {"prob_model": {"linear": {"gamma": 2.0}}},
                       "simulation": {"init_policy": "all_off"}},
    "all_on": {"simulation": {"init_policy": "all_on"}},
    "random_q025_noise": {"dendrites": DELAY_BANK,
                          "simulation": {"amp_noise_sigma": 0.05,
                                         "init_policy": {"random": {"q": 0.25}}}},
}

GOLDEN = {
    "fig4b": {
        "window.csv": "f5f101f0a5788d0f49b08e69983e381e7b1bce8a157b8c188309017050b0dab4",
        "mean.csv": "3f7349701e26105d014cc1908fe8feceea14c3e743905e3b6c097bff2825b8be",
        "states.csv": "09c6709db35e70ca327c4db49a66f6a531fc06f21604e284ece39240093ba1e3",
    },
    "fig4d": {
        "window.csv": "1419633bc462f3064e43afd9b1514839fc3d56e73046ca9d7e20e264e8fe4dc2",
        "mean.csv": "3028cda4ca2ee59c5cad9196dfea50c8ed7f9e5ed0030402f7935a5211df0160",
        "states.csv": "464b8ba78c74efd0b2300fd46c910eaef10d68ff85b62ca2998edc57e3f16d47",
    },
    "fig7_delay": {
        "window.csv": "2e9b11c4f490307919028b9922b635b647b4f2709f0e4ca650463bdcbd7b7554",
        "mean.csv": "4f8a57ddd10b3e9c87abff69f49f5d2c206a6cfba682d4b845f53962cd0d4765",
        "states.csv": "45d2e597b8263e53e70f04410c957a984c962082f7a8d36d8a6760cb37217134",
    },
    "hrht": {
        "window.csv": "d65c462d0d6755cbc5fb46b1359786e261809b74ba710b0d8de3d3bee58d4c0d",
        "mean.csv": "79a8f8b6db53f2eef6a6e7d97ff84195f71dc26534c1b3c39a949732e87b65da",
        "states.csv": "412b91df60f5ffd7046fe3d261c573da4929280802a67d7e371190f14688a8bf",
    },
    "rect": {
        "window.csv": "bf61aaeecbb4b994ab06b40647fbbe073f1597dc24c48b7d4b5d1f613cf973be",
        "mean.csv": "63c77c81b5b82f562ad04ac02dc107278a4e5f0ff49230ac099f87378e545a2a",
        "states.csv": "91e8e9a67ec16c48b4b2e61f4b257322129ab1d37d7eee11c17bdd7084e03a40",
    },
    "sawtooth": {
        "window.csv": "7dd5d0b2be9c1212e8da4cea4f6549e88aa7477841b212428afb405023ad4845",
        "mean.csv": "789583fc51dad7de5b9efe6332d0c282dd391012b1a4f58dea2be01b20e9c47f",
        "states.csv": "f97926534ed744cca25f36570bbffd397e0b5b5d4906ce38a9ba6ee5b7c7856b",
    },
    "fig7_delay_noise": {
        "window.csv": "030b8b209703d7e0c26d406656b101088e9de2e5d7ded434f3ee41a19619de5a",
        "mean.csv": "e8aec8ee72a391cbff3072cafd20dc75d6b3609f76cf586a2e1344f53789a350",
        "states.csv": "4856e0cfbbaa4dd3c55b4b0663fc35f2506a96795be1427b4a555f71fb8731fc",
    },
    "random_q05": {
        "window.csv": "f174feeea312bfd08b0b8ebe0fc6aad0ec35100e2bd139d6157456a51d8476a2",
        "mean.csv": "8e6304dcc7806c787fb6a632904d4780a90cc62489628a0899834db108a665bc",
        "states.csv": "d92f901b5bbc87fad9e4cc92fb405c1845d79a54ac6512896ef4f4f791067c8c",
    },
    "linear_all_off": {
        "window.csv": "273b517b9c692150725011125097a1f8512456849da24f2cdc7f58740925f260",
        "mean.csv": "2745e3cd213d7b5f509bff8d4cfb2f738b13ef282f10a4452756487961217f47",
        "states.csv": "92d464d4c476a8e34d399633e821d50b798f9c583a1c8b2540dfb1dd8514f14b",
    },
    "all_on": {
        "window.csv": "fc0ad426ce5d708ff799915541962c2489765994a32030d5ad86ba8b5ae9d460",
        "mean.csv": "e9a83c876ac7e5ed8863fbd611d00b50e7ba1e982cb746150c9792e0a7ebeb93",
        "states.csv": "16ece59c49d0fc0c1a37d8b0de3d9bc14b5a95442a7fb70d91e38dbb579ac895",
    },
    "random_q025_noise": {
        "window.csv": "2ed92d41dde79c81cc432f222370312bd4a406a62baed7b9dcac7428ecbdb7d1",
        "mean.csv": "83f2b4fe6fe724f19b77a010b70190afc93d332fdaf9d66585c799079ff5f8ec",
        "states.csv": "73d37af4bc5a742fbbbdbb98bce1a67d2db9146d3b3974f567f1723aedb5331a",
    },
}

RESOLVED = {  # resolved-config.json of the shipped configs, run as given
    "fig4b": "8b75841192b648b1ef840e60b99daffb6b6a08bbd9929d9ebe8b668db1186016",
    "fig4d": "6177aa03ec989b56eb79bb3cb1f3a40e3be0c13835e2e49a9d3c28c792aed656",
    "fig7_delay": "c3cbfbc7cfac39fe2155c3cc4d687d3089afddf63f8df735d5b4ca19eb416eb0",
}


def run_digests(case, out_dir) -> dict[str, str]:
    cfg = load_config(case) if isinstance(case, Path) else parse_config(case)
    wcfg = dataclasses.replace(cfg.window_config(), epochs=EPOCHS)
    paths = write_window_csv(run_window(wcfg, workers=1), out_dir)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths.values() if p.name in FILES}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name, tmp_path):
    assert run_digests(CASES[name], tmp_path) == GOLDEN[name]


def test_statedist_digest(tmp_path):
    grid, _, states = analytic_window(parse_config(DELAY_NOISE).window_config())
    path = write_states_csv(grid, states, tmp_path / "states.csv")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN["fig7_delay_noise"]["states.csv"]


@pytest.mark.parametrize("name", sorted(RESOLVED))
def test_resolved_config_digest(name):
    text = json.dumps(load_config(CASES[name]).to_dict(), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == RESOLVED[name]
