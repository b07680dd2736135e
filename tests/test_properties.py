"""Property tests.  The pairing rule: for any spike shape, pairing mode,
delay ramp and init policy the schema accepts, the Monte Carlo mean agrees
with the analytic expectation and every state distribution sums to 1.  The
CLI: a window run over drawn values of the schema's keys ends in its files
or in one error line, never in a traceback."""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from synstdp import parse_config, run_window
from synstdp.cli import main
from synstdp.validate import mc_outliers

INIT_POLICIES = st.one_of(
    st.sampled_from(["split", "all_off", "all_on"]),
    st.floats(0.0, 1.0).map(lambda q: {"random": {"q": q}}))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(shape=st.sampled_from(["hrht", "rect", "sawtooth", "dexp", "bio"]),
       pair_only=st.booleans(),
       delay_max=st.sampled_from([0.0, 0.3, 1.0]),
       init_policy=INIT_POLICIES,
       seed=st.integers(0, 2**16))
def test_mc_mean_matches_analytic_for_any_setup(shape, pair_only, delay_max, init_policy, seed):
    cfg = parse_config({
        "waveform": {"shape": shape},
        "dendrites": {"n": 8, "delay_max": delay_max},
        "simulation": {"pair_only": pair_only, "init_policy": init_policy, "seed": seed,
                       "delta_t_min": -3.0, "delta_t_max": 3.0, "delta_t_step": 0.5,
                       "epochs": 2000},
    }).window
    w = run_window(cfg)
    assert np.all(np.abs(w.states.sum(axis=1) - 1.0) <= 1e-9)
    assert mc_outliers(w) == []


LAWS = st.one_of(st.just("gaussian"),
                 st.floats(0.1, 200.0).map(lambda gamma: {"linear": {"gamma": gamma}}))
FILES = ["mean.csv", "resolved-config.json", "states.csv", "window.csv"]


# no shrink phase: shrinking a failure over this many keys takes minutes, and
# the first failing config already names the defect
@settings(derandomize=True, max_examples=100, deadline=None,
          phases=[Phase.explicit, Phase.generate])
@given(shape=st.sampled_from(["hrht", "rect", "sawtooth", "dexp", "bio"]),
       a_plus=st.floats(0.1, 2.0), a_minus=st.floats(0.0, 2.0),
       n=st.integers(1, 4), alpha_max=st.floats(0.05, 1.0), alpha_ratio=st.floats(0.05, 1.1),
       delay_max=st.sampled_from([0.0, 0.5, 2.0]),
       delay_assignment=st.sampled_from(["ramp", "uniform", "reversed"]),
       law=LAWS, sigma_th=st.floats(0.01, 0.5), vth_pos=st.floats(0.1, 2.0),
       vth_neg=st.floats(-2.0, -0.1), sigma_lrs=st.floats(0.0, 0.5, exclude_max=True),
       r_off_ratio=st.one_of(st.none(), st.floats(0.5, 1e3)),
       init_policy=INIT_POLICIES, pair_only=st.booleans(),
       amp_noise_sigma=st.sampled_from([0.0, 0.0, 0.05, 0.3]),
       delta_t_min=st.floats(-8.0, 6.0), step=st.sampled_from([0.25, 0.5, 1.0, 3.0]),
       offsets=st.integers(2, 5), epochs=st.integers(0, 20), seed=st.integers(0, 2**16))
def test_window_cli_writes_its_files_or_one_error_line(
        shape, a_plus, a_minus, n, alpha_max, alpha_ratio, delay_max, delay_assignment, law,
        sigma_th, vth_pos, vth_neg, sigma_lrs, r_off_ratio, init_policy, pair_only,
        amp_noise_sigma, delta_t_min, step, offsets, epochs, seed):
    """Any config over the schema's keys at a tiny size: `synstdp window`
    exits 0 with its four files, or 1 with one `error:` line and nothing
    written (an exception leaving `main` is the traceback a user would see).
    Some drawn values are config errors: an alpha_ratio above 1 (alpha_min
    above alpha_max), an r_off_ratio at most 1, no epochs."""
    config = {
        "waveform": {"shape": shape, "a_plus": a_plus, "a_minus": a_minus},
        "dendrites": {"n": n, "alpha_min": alpha_max * alpha_ratio, "alpha_max": alpha_max,
                      "delay_max": delay_max, "delay_assignment": delay_assignment},
        "device": {"prob_model": law, "sigma_th": sigma_th, "vth_pos": vth_pos,
                   "vth_neg": vth_neg, "sigma_lrs": sigma_lrs, "r_off_ratio": r_off_ratio},
        "simulation": {"init_policy": init_policy, "pair_only": pair_only,
                       "amp_noise_sigma": amp_noise_sigma, "delta_t_min": delta_t_min,
                       "delta_t_max": delta_t_min + step * (offsets - 1),
                       "delta_t_step": step, "epochs": epochs, "seed": seed},
        "output": {"svg": False},
    }
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["window", "--config", str(path), "--out", str(out)])
        if code == 0:
            assert sorted(p.name for p in out.iterdir()) == FILES
        else:
            lines = stderr.getvalue().splitlines()
            assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), lines
            assert not out.exists() and stdout.getvalue() == ""
