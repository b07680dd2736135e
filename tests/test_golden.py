"""Golden digests: the output bytes of short window runs are the behaviour
contract.  A change that moves any of these SHA-256 values changes what the
simulator writes for a fixed config and seed; it must say which and why.

Each case is a 200-epoch `window` run at the config's seed (42), written by
`write_window_csv`.  The shape cases set only the spike shape and
`pair_only = false`, so they also cover lone-spike candidates at the support
edges; the curved shapes (dexp, bio) run on a 0.5 offset grid, without and
with amplitude noise.  The other cases pin the drive paths and init policies the shipped
configs leave out: amplitude noise on the delayed bank (per-epoch scaled
peaks and the Gauss-Hermite analytic), random init with lone-spike
candidates, the linear switching law from all-OFF, all-ON init, and random
init under amplitude noise.  A last digest pins the `statedist` path: the
`states.csv` that `analytic_window` and `write_states_csv` give for the
noisy delayed bank, which is byte for byte the window run's.  The
`resolved-config.json` that `synstdp window` writes for each shipped config
is pinned too.  The switching law and the curved spikes take e**x from
`_cephes`, built from basic arithmetic, so these digests do not depend on
which SIMD kernels numpy dispatches to on the CPU;
`test_curved_tables_do_not_depend_on_numpy_cpu_dispatch` checks this.
"""
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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
    **{f"{shape}{tag}": {"waveform": {"shape": shape},
                         "simulation": {"pair_only": False, "delta_t_step": 0.5, **noise}}
       for shape in ("dexp", "bio")
       for tag, noise in (("", {}), ("_noise", {"amp_noise_sigma": 0.05}))},
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
        "window.csv": "017b1b23dc2ed11d8a159746cd55d4481d4b07c79477fa6b9648fc369457c411",
        "mean.csv": "e5cfd78dc9137cf3d88c8fdb1b1838bfa4250cdace866e4ef8594a0d700f77e3",
        "states.csv": "09c6709db35e70ca327c4db49a66f6a531fc06f21604e284ece39240093ba1e3",
    },
    "fig4d": {
        "window.csv": "1a4c046cf6932f755f791745890db8cb70543cfff7a78172692424962aa0566d",
        "mean.csv": "4ee315a7729ed51456f5ea50c45539ddbd62e364b1cc7945ab94e7174864bb26",
        "states.csv": "464b8ba78c74efd0b2300fd46c910eaef10d68ff85b62ca2998edc57e3f16d47",
    },
    "fig7_delay": {
        "window.csv": "fc08c750110310e7cb8917a71be3396d1dabba4bbdde17c296fbcc9fc7d093d0",
        "mean.csv": "7c1e18a33fa21c7d3c6afedd4b2f9df7986eaa919a64404968ef91d53a078574",
        "states.csv": "45d2e597b8263e53e70f04410c957a984c962082f7a8d36d8a6760cb37217134",
    },
    "hrht": {
        "window.csv": "1c90911c5b0b2bd36f80c22a1e9f4b70b2c6c1287c3c9fa9fc51c289a1bfe9d6",
        "mean.csv": "85853e1427e2dd2c30de9c9a98b2509b020278cc9f3554bac2b5798f0fe8b04a",
        "states.csv": "412b91df60f5ffd7046fe3d261c573da4929280802a67d7e371190f14688a8bf",
    },
    "rect": {
        "window.csv": "51783a3322da5b2b954ac6fdc76bd40400931cc1ea872aebcef56e17811e4fc2",
        "mean.csv": "f648f979869ebc618cb88820275db67fbbd2aa2c32835de8f049fe2b87482c8d",
        "states.csv": "91e8e9a67ec16c48b4b2e61f4b257322129ab1d37d7eee11c17bdd7084e03a40",
    },
    "sawtooth": {
        "window.csv": "16c258af5758a41efdb403285e371d054f568c2ed4b38114605c0649ab7539ba",
        "mean.csv": "a75e0021f96c52d08b16227e613174c71bd74c842b6913dbd7593292872b3d02",
        "states.csv": "f97926534ed744cca25f36570bbffd397e0b5b5d4906ce38a9ba6ee5b7c7856b",
    },
    "dexp": {
        "window.csv": "9abd6b7b84ddf9b8782937465bf5bffc1e8801b5f171b5b254627641317a2429",
        "mean.csv": "3ee70b14947f3fddeca49aa8f10a8210970c7c020adc55214f1d0521765e5bd7",
        "states.csv": "7d172c9ced064e6c3a5c26afdba7c42b4b28c830167e35717a1be570a177bd87",
    },
    "bio": {
        "window.csv": "5d8d0efd3b4dd2e2f2762f7598ad2800a0d48f2ebb1ab60c07fe02c4eca48b95",
        "mean.csv": "a937fb3b22086a1600f9bc796d832725d683dfec92257228e826ea2135ad487d",
        "states.csv": "8d6aeea837a7b43effdf7e510af5ef08e86711fd53a562b524d964ce368d6fc2",
    },
    "dexp_noise": {
        "window.csv": "d7ad9956d63cba24556025ba7846929a8851a43da5c099a9c2e4ace200a68e6c",
        "mean.csv": "217944e15c9e066b37d247b244f42462e91425c4b6a230cbb3bac01019d26e13",
        "states.csv": "ff4af4b5c78e4f077d491443a8fe58ca7b3bb922202ce55b51a927064b86eddb",
    },
    "bio_noise": {
        "window.csv": "178ecb5572e8cc62ee1325e5a303153bc00f6bf609be82ef11bcfb932eb95951",
        "mean.csv": "4f21486496bd5d316e7051a8e737372009b73f0457c9848448af1ccaa48f9836",
        "states.csv": "c3d07da126c501d78a88cebbc961b4f8afbfdf4f4758fab32c2e08f4fa2b1121",
    },
    "fig7_delay_noise": {
        "window.csv": "6791b8512e40befdade183b31a723554099a93aca1c896ddd9a4b76bc41a85f7",
        "mean.csv": "63aeda372d854f0830bd6cb8c2a5476d0f7da5ccfe8919b833847dd195b2837a",
        "states.csv": "4856e0cfbbaa4dd3c55b4b0663fc35f2506a96795be1427b4a555f71fb8731fc",
    },
    "random_q05": {
        "window.csv": "7ba86d97c6694b1c767d14698bb6d8bced5fe36a684dd4c5532836c87309efb3",
        "mean.csv": "d81637fa3f08d2a6e43189476263f96b5c2533050e23bc6c975a34cc6ae16ec7",
        "states.csv": "d92f901b5bbc87fad9e4cc92fb405c1845d79a54ac6512896ef4f4f791067c8c",
    },
    "linear_all_off": {
        "window.csv": "59db8ac52bbc3534d997cfa9aa1ee3f0094d3c7a41706178eeb3fef51b070651",
        "mean.csv": "a919612d05509b7a7dede8d7ff08d5b411f2ae6d38ae991169b52c1d53083d2a",
        "states.csv": "92d464d4c476a8e34d399633e821d50b798f9c583a1c8b2540dfb1dd8514f14b",
    },
    "all_on": {
        "window.csv": "9070fd5553ab6ff22e5d06684e1b1cac51c53501ba83728d82f0746a2241202b",
        "mean.csv": "c1aa34c3b67de69e29ca5b1a173822247a3177f66f9d5f92c6d66960ad5d6ffd",
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


# the candidate tables of both curved shapes, at both pair_only values, on
# the offsets of the config in argv[1], hashed by a fresh interpreter
TABLES_DIGEST = """
import hashlib, json, sys
from synstdp import parse_config
from synstdp.pairing import candidate_tables
h = hashlib.sha256()
bench = json.load(open(sys.argv[1]))
for shape in ("dexp", "bio"):
    for pair_only in (True, False):
        win = parse_config({**bench, "waveform": {"shape": shape},
                            "simulation": {**bench["simulation"], "pair_only": pair_only}}).window
        for delta_t in win.grid().tolist():
            table = candidate_tables(win.geometry, delta_t)
            for x in (table.t, table.post_v, table.pre_v, table.counts):
                h.update(x.tobytes())
print(h.hexdigest())
"""


def _cpu_dispatch_targets() -> list[str]:
    """numpy's SIMD dispatch targets that this CPU runs."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def test_curved_tables_do_not_depend_on_numpy_cpu_dispatch():
    """The curved spikes' values are the same bytes with numpy's dispatched
    SIMD kernels (AVX2, AVX-512 and the like) masked as without."""
    targets = _cpu_dispatch_targets()
    if not targets:
        pytest.skip(f"numpy {np.__version__} dispatches no SIMD kernels on this CPU")
    bench = CONFIGS.parent / "perfbench" / "configs" / "statedist_bio.json"
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = str(CONFIGS.parent / "src")
    digests = [subprocess.run([sys.executable, "-c", TABLES_DIGEST, str(bench)], env=run_env,
                              capture_output=True, text=True, check=True).stdout
               for run_env in (env, {**env, "NPY_DISABLE_CPU_FEATURES": " ".join(targets)})]
    assert digests[0] and digests[0] == digests[1], targets
