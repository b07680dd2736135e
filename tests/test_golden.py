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
        "window.csv": "a860156932ce9cd7d67bd2742cd88d77cc952e25d5a6ae82ae26bc4cbf29dc88",
        "mean.csv": "ef20e650d9c99d1f5d9a13a1d9f434859546a448f78e52b8610c758281096622",
        "states.csv": "09c6709db35e70ca327c4db49a66f6a531fc06f21604e284ece39240093ba1e3",
    },
    "fig4d": {
        "window.csv": "a6fdb7e745ae53e3c8ef1f3745c398fdd2df4cc913937132b4bc83f485df8772",
        "mean.csv": "2e6350e1998d01d11a94ea019620a4c83729a37bcbe2d51b1c5d31ef91b77a14",
        "states.csv": "464b8ba78c74efd0b2300fd46c910eaef10d68ff85b62ca2998edc57e3f16d47",
    },
    "fig7_delay": {
        "window.csv": "49a0633e645d75de210ecf10c887a8d964e93c712b84386804f34ad4d102d93f",
        "mean.csv": "1a3b225125035747b179f45b0060df55bdf4f321dabe6cb0edf0b862a0f2b697",
        "states.csv": "45d2e597b8263e53e70f04410c957a984c962082f7a8d36d8a6760cb37217134",
    },
    "hrht": {
        "window.csv": "4b816c8f499a4ceaa93ce2f0a12ba4af4d69248e724fe3cd8fe2ac95d6a4a529",
        "mean.csv": "b921822d142f1cb686a47516d79a7fee1e5440ae170b70fcc14109507a94776c",
        "states.csv": "412b91df60f5ffd7046fe3d261c573da4929280802a67d7e371190f14688a8bf",
    },
    "rect": {
        "window.csv": "81e865139f69d62722768179b13f72d83606aed5f57e3e96d3c7013fc7b8ba0d",
        "mean.csv": "7e2dec866b74f61f9106a50087e58c54cc9ec226b60a84159ba2a351caf4c57f",
        "states.csv": "91e8e9a67ec16c48b4b2e61f4b257322129ab1d37d7eee11c17bdd7084e03a40",
    },
    "sawtooth": {
        "window.csv": "14eba3117926b320e136bbc97f2b2641b640dcac90cb14f7664825dcce67a3ee",
        "mean.csv": "c9aabef1260600020a5f7bc6504ccaaf699b9c597ef77fd3b553d5aeae25793b",
        "states.csv": "f97926534ed744cca25f36570bbffd397e0b5b5d4906ce38a9ba6ee5b7c7856b",
    },
    "fig7_delay_noise": {
        "window.csv": "6791b8512e40befdade183b31a723554099a93aca1c896ddd9a4b76bc41a85f7",
        "mean.csv": "63aeda372d854f0830bd6cb8c2a5476d0f7da5ccfe8919b833847dd195b2837a",
        "states.csv": "4856e0cfbbaa4dd3c55b4b0663fc35f2506a96795be1427b4a555f71fb8731fc",
    },
    "random_q05": {
        "window.csv": "a3e923883f59c22a529f4393f5eb6fe21065801fc6d500e568a24a16fef90083",
        "mean.csv": "7811bfc98959168f9f1131693bbf3dc90cb2d32e9fcd42373dd2fd3e56513f40",
        "states.csv": "d92f901b5bbc87fad9e4cc92fb405c1845d79a54ac6512896ef4f4f791067c8c",
    },
    "linear_all_off": {
        "window.csv": "695eea80885eb885db5b1d98a563dc78c3b31d8963312f10b0878462e3038c00",
        "mean.csv": "96ae0c8e49dee3c5d69ec91df68f0481ac35a639d5b3753df49e1a43fa7074d0",
        "states.csv": "92d464d4c476a8e34d399633e821d50b798f9c583a1c8b2540dfb1dd8514f14b",
    },
    "all_on": {
        "window.csv": "a761c14c946187e6b4af9716e9d8c798043b6b0aa7099ac1b41bff0a09fd686c",
        "mean.csv": "4f8f1ee04288830db77de959a97e38e94573867db3268d79ad1368df53e57588",
        "states.csv": "16ece59c49d0fc0c1a37d8b0de3d9bc14b5a95442a7fb70d91e38dbb579ac895",
    },
    "random_q025_noise": {
        "window.csv": "0762ed908dd3a70f53f40222029935f2482919ecc712ce6674c60057621ce960",
        "mean.csv": "78687d6ed316d6efee2cbcd52693c85ef0e7b3ce70b7c1e2df474a7bab60908a",
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
    wcfg = dataclasses.replace(cfg.window, epochs=EPOCHS)
    paths = write_window_csv(run_window(wcfg, workers=1), out_dir)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths.values() if p.name in FILES}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name, tmp_path):
    assert run_digests(CASES[name], tmp_path) == GOLDEN[name]


def test_statedist_digest(tmp_path):
    grid, _, states = analytic_window(parse_config(DELAY_NOISE).window)
    path = write_states_csv(grid, states, tmp_path / "states.csv")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN["fig7_delay_noise"]["states.csv"]


@pytest.mark.parametrize("name", sorted(RESOLVED))
def test_resolved_config_digest(name):
    text = json.dumps(load_config(CASES[name]).to_dict(), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == RESOLVED[name]
