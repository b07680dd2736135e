import math

import numpy as np
import pytest

from synstdp import DeviceModel, ProbModel, reset_probability, set_probability
from synstdp.montecarlo import _lrs_draws, _point_stream

# standard-normal table values
PHI_3 = 0.99865
PHI_M3 = 0.00135
PHI_22 = 0.98610


def phi(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


@pytest.fixture
def dev():
    return DeviceModel()


def test_set_probability_examples(dev):
    # at the mean threshold the lower-limit correction term is < 1e-22
    assert abs(set_probability(dev, 1.0) - 0.5) < 1e-12
    assert abs(set_probability(dev, 1.3) - PHI_3) < 1e-4
    assert abs(set_probability(dev, 0.7) - PHI_M3) < 1e-4
    assert set_probability(dev, 0.0) == 0.0
    assert set_probability(dev, -0.5) == 0.0


def test_reset_probability_examples(dev):
    assert abs(reset_probability(dev, -1.0) - 0.5) < 1e-12
    assert abs(reset_probability(dev, -1.22) - phi(2.2)) < 1e-12
    assert abs(phi(2.2) - PHI_22) < 1e-4
    assert reset_probability(dev, 0.5) == 0.0
    assert reset_probability(dev, 0.0) == 0.0


def test_three_sigma_invariant(dev):
    assert abs(set_probability(dev, dev.vth_pos + 3 * dev.sigma_th) - PHI_3) < 1e-4
    assert abs(set_probability(dev, dev.vth_pos - 3 * dev.sigma_th) - PHI_M3) < 1e-4


def test_monotone_in_magnitude(dev):
    rng = np.random.default_rng(7)
    v = np.sort(rng.uniform(0.0, 3.0, 200))
    ps = set_probability(dev, v)
    assert np.all(np.diff(ps) >= 0.0)
    pr = reset_probability(dev, -v)
    assert np.all(np.diff(pr) >= 0.0)
    assert np.all((ps >= 0) & (ps <= 1)) and np.all((pr >= 0) & (pr <= 1))


def test_linear_model():
    dev = DeviceModel(prob_model=ProbModel(kind="linear", gamma=2.0))
    assert set_probability(dev, 1.25) == 0.5
    assert set_probability(dev, 1.0) == 0.0
    assert set_probability(dev, 1.5) == 1.0
    assert set_probability(dev, 2.0) == 1.0
    # continuous and piecewise linear across the ramp
    v = np.linspace(0.5, 2.0, 301)
    p = set_probability(dev, v)
    assert np.all(np.abs(np.diff(p)) <= 2.0 * (v[1] - v[0]) + 1e-12)
    assert reset_probability(dev, -1.25) == 0.5


# ON conductances are drawn by the window engine, normalized by 1/r_on

def test_sample_on_conductance_zero_variance():
    stream = _point_stream(0, 0)
    assert np.array_equal(_lrs_draws(stream, 0.0, (4, 16)), np.ones((4, 16)))
    assert stream.random() == _point_stream(0, 0).random()  # no draw taken


def test_sample_on_conductance_statistics():
    draws = _lrs_draws(_point_stream(123, 0), 0.1, 100_000)
    assert np.all(draws > 0.0)
    assert abs(draws.mean() - 1.0) < 0.001
    assert abs(draws.std() - 0.1) < 0.1 * 0.02


def test_sample_on_conductance_redraw_rule():
    # sigma close to the cap makes nonpositive raw draws plausible
    raw = 1.0 + _point_stream(5, 0).normal(0.0, 0.49, 20_000)
    draws = _lrs_draws(_point_stream(5, 0), 0.49, 20_000)
    assert (raw <= 0.0).sum() > 100 and draws.min() > 0.0
    assert np.array_equal(draws[raw > 0.0], raw[raw > 0.0])  # only those are redrawn


def test_validation():
    with pytest.raises(ValueError):
        DeviceModel(vth_pos=-1.0)
    with pytest.raises(ValueError):
        DeviceModel(vth_neg=1.0)
    with pytest.raises(ValueError):
        DeviceModel(sigma_th=0.0)
    with pytest.raises(ValueError):
        DeviceModel(sigma_lrs=0.5)
    with pytest.raises(ValueError):
        DeviceModel(r_off_ratio=0.5)
    with pytest.raises(ValueError):
        ProbModel(kind="nope")


def test_off_conductance_default_zero(dev):
    assert dev.g_off_norm == 0.0
    assert DeviceModel(r_off_ratio=100.0).g_off_norm == 0.01
