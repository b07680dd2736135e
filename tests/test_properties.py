"""Property test of the pairing rule: for any spike shape, pairing mode,
delay ramp and init policy the schema accepts, the Monte Carlo mean agrees
with the analytic expectation and every state distribution sums to 1."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from synstdp import parse_config, run_window
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
