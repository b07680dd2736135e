import numpy as np
import pytest

from synstdp import DendriteBank, SpikeWaveform, branch_pre_spike_value, make_bank


def test_sixteen_branch_ramp():
    bank = make_bank(16, 0.6, 1.0, 0.0)
    assert bank.n == 16
    assert bank.alphas[0] == 0.6
    assert abs(bank.alphas[1] - 0.62667) < 1e-5
    assert bank.alphas[-1] == 1.0
    assert all(d == 0.0 for d in bank.delays)


def test_uniform_attenuation_bank():
    bank = make_bank(16, 1.0, 1.0, 0.0)
    assert all(a == 1.0 for a in bank.alphas)


def test_two_point_ramp():
    bank = make_bank(2, 0.5, 1.0, 0.3)
    assert bank.alphas == (0.5, 1.0)
    assert bank.delays == (0.0, 0.3)


def test_single_branch_collapses_to_max():
    bank = make_bank(1, 0.6, 0.9, 0.3)
    assert bank.alphas == (0.9,)
    assert bank.delays == (0.0,)


def test_delay_assignments():
    assert make_bank(3, 0.5, 1.0, 0.3, "uniform").delays == (0.3, 0.3, 0.3)
    rev = make_bank(3, 0.5, 1.0, 0.3, "reversed").delays
    assert rev[0] == 0.3 and rev[-1] == 0.0


def test_validation():
    with pytest.raises(ValueError):
        make_bank(0, 0.6, 1.0, 0.0)
    with pytest.raises(ValueError):
        make_bank(4, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        make_bank(4, 0.8, 0.6, 0.0)
    with pytest.raises(ValueError):
        make_bank(4, 0.6, 1.1, 0.0)
    with pytest.raises(ValueError):
        make_bank(4, 0.6, 1.0, -0.1)
    with pytest.raises(ValueError):
        make_bank(4, 0.6, 1.0, 0.1, "diagonal")


def test_branch_value_examples():
    w = SpikeWaveform("hrht")
    bank = make_bank(2, 0.6, 1.0, 0.0)
    assert abs(branch_pre_spike_value(bank, 1, w, -0.5) - 0.54) < 1e-15
    delayed = make_bank(2, 1.0, 1.0, 0.3, "uniform")
    assert branch_pre_spike_value(delayed, 2, w, 0.1) == 0.9  # head shifted to [-0.7, 0.3)
    assert branch_pre_spike_value(delayed, 1, w, 50.0) == 0.0
    with pytest.raises(IndexError):
        branch_pre_spike_value(bank, 3, w, 0.0)
    with pytest.raises(IndexError):
        branch_pre_spike_value(bank, 0, w, 0.0)


def test_branch_value_bounded_by_alpha():
    w = SpikeWaveform("hrht")
    bank = make_bank(8, 0.6, 1.0, 0.2)
    t = np.linspace(-3, 8, 800)
    for i in range(1, 9):
        v = branch_pre_spike_value(bank, i, w, t)
        assert np.all(np.abs(v) <= bank.alphas[i - 1] * w.a_plus + 1e-12)


def test_identity_bank():
    w = SpikeWaveform("sawtooth")
    bank = make_bank(5, 1.0, 1.0, 0.0)
    t = np.linspace(-2, 6, 500)
    for i in range(1, 6):
        assert np.array_equal(branch_pre_spike_value(bank, i, w, t), w.evaluate(t))


def test_monotone_orderings():
    bank = make_bank(7, 0.55, 0.95, 0.4)
    assert np.all(np.diff(bank.alphas) >= 0)
    assert np.all(np.diff(bank.delays) >= 0)


def test_bank_holds_the_numbers_it_was_given():
    bank = DendriteBank(1, 0.6, 0.9, 0.3, "reversed")
    assert (bank.n, bank.alpha_min, bank.alpha_max, bank.delay_max,
            bank.delay_assignment) == (1, 0.6, 0.9, 0.3, "reversed")
    assert bank.alphas == (0.9,) and bank.delays == (0.0,)
    assert make_bank is DendriteBank and DendriteBank() == make_bank(16, 0.6, 1.0)
    huge = DendriteBank(10**9)  # nothing of size n is built until alphas or delays is read
    assert huge.n == 10**9


def test_single_field_checks_name_the_field():
    with pytest.raises(ValueError, match="^n: need at least one branch, got 0$"):
        DendriteBank(0)
    with pytest.raises(ValueError, match="^alpha_min: must be positive, got 0.0$"):
        DendriteBank(alpha_min=0.0)
    with pytest.raises(ValueError, match="^delay_max: must be >= 0, got -0.1$"):
        DendriteBank(delay_max=-0.1)
