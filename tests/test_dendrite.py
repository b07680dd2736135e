import numpy as np
import pytest

from synstdp import DendriteBank, DeviceModel, PairingGeometry, SpikeWaveform
from synstdp.pairing import candidate_tables


def test_sixteen_branch_ramp():
    bank = DendriteBank(16, 0.6, 1.0, 0.0)
    assert bank.n == 16
    assert bank.alphas[0] == 0.6
    assert abs(bank.alphas[1] - 0.62667) < 1e-5
    assert bank.alphas[-1] == 1.0
    assert all(d == 0.0 for d in bank.delays)


def test_uniform_attenuation_bank():
    bank = DendriteBank(16, 1.0, 1.0, 0.0)
    assert all(a == 1.0 for a in bank.alphas)


def test_two_point_ramp():
    bank = DendriteBank(2, 0.5, 1.0, 0.3)
    assert bank.alphas == (0.5, 1.0)
    assert bank.delays == (0.0, 0.3)


def test_single_branch_collapses_to_max():
    bank = DendriteBank(1, 0.6, 0.9, 0.3)
    assert bank.alphas == (0.9,)
    assert bank.delays == (0.0,)


def test_delay_assignments():
    assert DendriteBank(3, 0.5, 1.0, 0.3, "uniform").delays == (0.3, 0.3, 0.3)
    rev = DendriteBank(3, 0.5, 1.0, 0.3, "reversed").delays
    assert rev[0] == 0.3 and rev[-1] == 0.0


def test_validation():
    with pytest.raises(ValueError):
        DendriteBank(0, 0.6, 1.0, 0.0)
    with pytest.raises(ValueError):
        DendriteBank(4, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        DendriteBank(4, 0.8, 0.6, 0.0)
    with pytest.raises(ValueError):
        DendriteBank(4, 0.6, 1.1, 0.0)
    with pytest.raises(ValueError):
        DendriteBank(4, 0.6, 1.0, -0.1)
    with pytest.raises(ValueError):
        DendriteBank(4, 0.6, 1.0, 0.1, "diagonal")


def test_branch_value_bounded_by_alpha():
    """Branch i's attenuated, delayed pre spike, as the engine's candidate
    tables hold it, stays within alpha_i * a_plus."""
    w = SpikeWaveform("hrht")
    bank = DendriteBank(8, 0.6, 1.0, 0.2)
    g = PairingGeometry(pre=w, post=w, bank=bank, device=DeviceModel(), pair_only=False)
    bound = np.asarray(bank.alphas) * w.a_plus + 1e-12
    for delta_t in np.linspace(-8, 8, 33):
        pre_v = candidate_tables(g, delta_t).pre_v
        assert np.all(np.abs(pre_v) <= bound)


def test_monotone_orderings():
    bank = DendriteBank(7, 0.55, 0.95, 0.4)
    assert np.all(np.diff(bank.alphas) >= 0)
    assert np.all(np.diff(bank.delays) >= 0)


def test_bank_holds_the_numbers_it_was_given():
    bank = DendriteBank(1, 0.6, 0.9, 0.3, "reversed")
    assert (bank.n, bank.alpha_min, bank.alpha_max, bank.delay_max,
            bank.delay_assignment) == (1, 0.6, 0.9, 0.3, "reversed")
    assert bank.alphas == (0.9,) and bank.delays == (0.0,)
    assert DendriteBank() == DendriteBank(16, 0.6, 1.0)
    huge = DendriteBank(10**9)  # nothing of size n is built until alphas or delays is read
    assert huge.n == 10**9


def test_single_field_checks_name_the_field():
    with pytest.raises(ValueError, match="^n: need at least one branch, got 0$"):
        DendriteBank(0)
    with pytest.raises(ValueError, match="^alpha_min: must be positive, got 0.0$"):
        DendriteBank(alpha_min=0.0)
    with pytest.raises(ValueError, match="^delay_max: must be >= 0, got -0.1$"):
        DendriteBank(delay_max=-0.1)
