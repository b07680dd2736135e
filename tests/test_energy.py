import math

import pytest

from synstdp import (AGGRESSIVE, CONSERVATIVE, MEDIUM, EnergyScenario,
                     render_table, snn_event_energy, spike_energy, table1,
                     throughput_per_watt)
from synstdp.energy import MAX_COUNT, MAX_DEVICES, format_si


def rel(a, b):
    return abs(a - b) / abs(b)


def test_spike_energy_head_reference_values():
    assert rel(spike_energy(CONSERVATIVE), 45e-15) < 0.005
    assert rel(spike_energy(MEDIUM), 0.45e-15) < 0.005
    assert rel(spike_energy(AGGRESSIVE), 0.045e-15) < 0.005


def test_spike_energy_full_adds_triangular_tail():
    # analytic tail integral: A-^2 * tau+ / 3R
    assert abs(spike_energy(CONSERVATIVE, "full") - 63.75e-15) < 1e-18
    for sc in (CONSERVATIVE, MEDIUM, AGGRESSIVE):
        assert spike_energy(sc, "full") >= spike_energy(sc, "head")
    flat = EnergyScenario(tau_minus_s=500e-9, tau_plus_s=2500e-9, a_minus_v=0.0)
    assert spike_energy(flat, "full") == spike_energy(flat, "head")


def test_event_energy_reference_values():
    assert rel(snn_event_energy(CONSERVATIVE), 62e-6) < 0.02
    assert rel(snn_event_energy(MEDIUM), 560e-9) < 0.01
    assert rel(snn_event_energy(AGGRESSIVE), 25e-9) < 0.02
    # frozen reconstruction values
    assert abs(snn_event_energy(CONSERVATIVE) - 62.3680e-6) < 1e-10
    assert abs(snn_event_energy(MEDIUM) - 557.80e-9) < 1e-13
    assert abs(snn_event_energy(AGGRESSIVE) - 24.596e-9) < 1e-14


def test_throughput_reference_values():
    assert rel(throughput_per_watt(CONSERVATIVE), 16e3) < 0.02
    assert rel(throughput_per_watt(MEDIUM), 1.8e6) < 0.02
    assert rel(throughput_per_watt(AGGRESSIVE), 41e6) < 0.02


def test_acceleration_ratios():
    res = table1()
    assert abs(res["rows"]["conservative"]["acceleration_vs_gpu"] - 94) < 0.03 * 94
    assert abs(res["rows"]["medium"]["acceleration_vs_gpu"] - 10.5e3) < 0.1 * 11e3
    assert abs(res["rows"]["aggressive"]["acceleration_vs_gpu"] - 240e3) < 0.02 * 240e3


def test_event_energy_linear_in_counts():
    import dataclasses
    doubled_s = dataclasses.replace(CONSERVATIVE, synapses=2 * CONSERVATIVE.synapses)
    doubled_n = dataclasses.replace(CONSERVATIVE, neurons=2 * CONSERVATIVE.neurons)
    base = snn_event_energy(CONSERVATIVE)
    syn_part = CONSERVATIVE.eta_act * CONSERVATIVE.eta_on * CONSERVATIVE.synapses \
        * CONSERVATIVE.devices_per_synapse * spike_energy(CONSERVATIVE)
    neu_part = CONSERVATIVE.neurons * CONSERVATIVE.e_neuron_j
    assert abs(snn_event_energy(doubled_s) - (base + syn_part)) < 1e-18
    assert abs(snn_event_energy(doubled_n) - (base + neu_part)) < 1e-18


def test_zero_size_network_flagged_overflow():
    sc = EnergyScenario(tau_minus_s=500e-9, tau_plus_s=2500e-9, synapses=0, neurons=0)
    assert snn_event_energy(sc) == 0.0
    assert math.isinf(throughput_per_watt(sc))
    res = table1({"empty": sc})
    assert res["rows"]["empty"]["overflow"]
    assert "overflow" in render_table(res)


def test_scenario_validation():
    with pytest.raises(ValueError):
        EnergyScenario(tau_minus_s=0.0, tau_plus_s=1e-9)
    with pytest.raises(ValueError):
        EnergyScenario(tau_minus_s=1e-9, tau_plus_s=1e-9, eta_act=0.0)
    with pytest.raises(ValueError):
        EnergyScenario(tau_minus_s=1e-9, tau_plus_s=1e-9, devices_per_synapse=0)
    with pytest.raises(ValueError):
        spike_energy(CONSERVATIVE, "both")
    for baseline in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^baseline must be positive and finite"):
            table1(baseline_img_s_w=baseline)


@pytest.mark.parametrize("name,lo,hi", [("synapses", 0, MAX_COUNT), ("neurons", 0, MAX_COUNT),
                                         ("devices_per_synapse", 1, MAX_DEVICES)])
def test_counts_are_bounded_inclusively(name, lo, hi):
    times = dict(tau_minus_s=1e-9, tau_plus_s=1e-9)
    for count in (lo, hi):
        assert getattr(EnergyScenario(**times, **{name: count}), name) == count
    for count in (lo - 1, hi + 1):
        with pytest.raises(ValueError, match=rf"^{name}: must be in \[{lo}, {hi}\], got {count}$"):
            EnergyScenario(**times, **{name: count})


def test_render_table_contains_reference_numbers():
    text = render_table(table1())
    assert "45 fJ" in text
    assert "x94" in text
    assert "conservative" in text and "aggressive" in text


def test_format_si():
    assert format_si(45e-15, "J") == "45 fJ"
    assert format_si(62.368e-6, "J").endswith("uJ")
    assert format_si(0.0, "J") == "0 J"
    assert format_si(math.inf, "W") == "inf W"
