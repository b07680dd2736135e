import numpy as np
import pytest

from synstdp import SpikeWaveform

ALL_SHAPES = ["hrht", "rect", "sawtooth", "dexp", "bio"]


def test_defaults():
    w = SpikeWaveform("hrht")
    assert (w.a_plus, w.tau_minus, w.a_minus, w.tau_plus) == (0.9, 1.0, 0.4, 5.0)


def test_zero_duration_head_rejected():
    with pytest.raises(ValueError):
        SpikeWaveform("hrht", tau_minus=0.0)


def test_amplitude_bounds():
    with pytest.raises(ValueError):
        SpikeWaveform("hrht", a_plus=0.0)
    with pytest.raises(ValueError):
        SpikeWaveform("hrht", a_plus=11.0)
    with pytest.raises(ValueError):
        SpikeWaveform("hrht", a_minus=-0.1)
    # zero tail amplitude is a valid (tail-less) waveform
    w = SpikeWaveform("hrht", a_minus=0.0)
    assert w.limits_with_support(2.5, +1)[0] == 0.0


def test_unknown_parameter_rejected():
    with pytest.raises(TypeError):
        SpikeWaveform("hrht", bogus=1.0)
    with pytest.raises(ValueError):
        SpikeWaveform("dexp", extra={"tau_nope": 1.0})


def test_dexp_extras_accepted_and_bounded():
    w = SpikeWaveform("dexp", extra={"tau_head": 0.3, "tau_tail": 1.5})
    t = np.linspace(-2.0, 7.0, 4001)
    v = w.limits_with_support(t, +1)[0]
    assert np.all(v <= w.a_plus + 1e-12)
    assert np.all(v >= -w.a_minus - 1e-12)


def test_hrht_evaluate_examples():
    w = SpikeWaveform("hrht")
    assert w.limits_with_support(-0.5, +1)[0] == 0.9
    assert abs(w.limits_with_support(2.5, +1)[0] - (-0.2)) < 1e-15  # -0.4*(1 - 2.5/5)
    assert w.limits_with_support(10.0, +1)[0] == 0.0


def test_support():
    assert SpikeWaveform("hrht").support() == (-1.0, 5.0)
    assert SpikeWaveform("rect").support() == (-1.0, 5.0)
    assert SpikeWaveform("bio").support() == (-1.5, 6.0)


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_zero_outside_support(shape):
    w = SpikeWaveform(shape)
    lo, hi = w.support()
    t = np.concatenate([np.linspace(lo - 5, lo - 1e-9, 100),
                        np.linspace(hi, hi + 5, 100)])
    # left of the support from below, right of it from above
    v, inside = w.limits_with_support(t, np.repeat([-1, +1], 100))
    assert np.all(v == 0.0) and not inside.any()


@pytest.mark.parametrize("shape", ["hrht", "rect", "sawtooth"])
def test_extrema_piecewise(shape):
    w = SpikeWaveform(shape)
    lo, hi = w.support()
    step = 0.01
    t = np.arange(lo, hi, step)
    v = w.limits_with_support(t, +1)[0]
    # head peak within one sample step of a_plus; tail bottom exactly -a_minus
    assert v.max() >= w.a_plus * (1.0 - step / w.tau_minus) - 1e-12
    assert v.max() <= w.a_plus + 1e-12
    assert abs(v.min() - (-w.a_minus)) < 1e-12


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_evaluate_bounded(shape):
    w = SpikeWaveform(shape)
    lo, hi = w.support()
    v = w.limits_with_support(np.linspace(lo - 1, hi + 1, 5000), +1)[0]
    assert np.all(v <= w.a_plus + 1e-12) and np.all(v >= -w.a_minus - 1e-12)


def test_one_sided_limits():
    w = SpikeWaveform("hrht")
    v, inside = w.limits_with_support([0.0, 0.0, -1.0, -1.0], [-1, +1, -1, +1])
    assert v.tolist() == [0.9, -0.4, 0.0, 0.9]
    assert inside.tolist() == [True, True, False, True]
    # tail decays continuously to zero: still inside at the edge from below
    v, inside = w.limits_with_support([5.0, 5.0], [-1, +1])
    assert v.tolist() == [0.0, 0.0] and inside.tolist() == [True, False]


def test_sawtooth_head_ramp():
    w = SpikeWaveform("sawtooth")
    assert abs(w.limits_with_support(-1.0, +1)[0]) < 1e-15      # ramps from 0
    assert w.limits_with_support([0.0], [-1])[0][0] == 0.9   # peak at the head end


def test_shape_enum_round_trip():
    for name in ALL_SHAPES:
        assert SpikeWaveform(name).shape == name


def test_unknown_shape_rejected():
    with pytest.raises(ValueError, match=r"^shape: unknown shape 'bogus'; expected one of \["):
        SpikeWaveform("bogus")


def test_dexp_head_peak_within_slope_scaled_step():
    w = SpikeWaveform("dexp")
    step = 0.01
    t = np.arange(*w.support(), step)
    tau_head = dict(w.extra)["tau_head"]
    assert w.limits_with_support(t, +1)[0].max() >= w.a_plus * (1.0 - step / tau_head) - 1e-12


def test_extras_rejected_for_piecewise_shapes():
    with pytest.raises(ValueError):
        SpikeWaveform("hrht", extra={"tau_head": 0.3})


def test_direct_construction_is_checked_and_defaulted():
    w = SpikeWaveform("dexp")
    assert w == SpikeWaveform("dexp") and w.support() == (-1.0, 5.0)
    assert dict(w.extra) == {"tau_head": 0.3, "tau_tail": 1.5}
    assert SpikeWaveform("bio", extra={"head_width": 0.5}) == \
        SpikeWaveform("bio", extra=(("head_width", 0.5),))
    with pytest.raises(ValueError, match=r"^tau_minus: must be positive, got -1\.0$"):
        SpikeWaveform("hrht", tau_minus=-1.0)
    with pytest.raises(ValueError, match=r"^extra\.tau_tail: must be positive, got 0\.0$"):
        SpikeWaveform("dexp", extra={"tau_tail": 0.0})
