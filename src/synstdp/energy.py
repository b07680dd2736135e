"""Energy-efficiency estimator for a memristive spiking network.

Single-spike energy over one device follows the head/tail decomposition of
the spike shape; network event energy scales it by activity, ON-state
ratio, synapse count and devices per compound synapse, plus the neuron
baseline.  Three reference scenarios (conservative / medium / aggressive)
are built in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .closedform import MAX_N

SPIKE_MODES = ("head", "full")
# Count bounds, so that a scenario describes a network that could be built;
# 10**300 synapses would give a 1e+275 TJ event and a x0 acceleration
MAX_COUNT = 10**15  # synapses or neurons: about the synapses of a human brain
MAX_DEVICES = MAX_N  # devices per compound synapse: the closed form's largest bank


@dataclass(frozen=True)
class EnergyScenario:
    tau_minus_s: float          # head duration (s)
    tau_plus_s: float           # tail duration (s)
    a_plus_v: float = 0.3       # head amplitude (V)
    a_minus_v: float = 0.15     # tail peak amplitude (V)
    r_on_ohm: float = 1e6
    e_neuron_j: float = 70e-12  # neuron baseline energy per event (J)
    eta_act: float = 0.8        # neuron activity ratio
    eta_on: float = 0.5         # ON-state device ratio
    synapses: int = 61_000_000
    neurons: int = 640_000
    devices_per_synapse: int = 16

    def __post_init__(self):
        for name in ("tau_minus_s", "tau_plus_s", "a_plus_v", "r_on_ohm", "e_neuron_j"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name}: must be positive, got {getattr(self, name)}")
        if self.a_minus_v < 0.0:
            raise ValueError(f"a_minus_v: must be >= 0, got {self.a_minus_v}")
        for name in ("eta_act", "eta_on"):
            if not (0.0 < getattr(self, name) <= 1.0):
                raise ValueError(f"{name}: must be in (0, 1], got {getattr(self, name)}")
        for name, lo, hi in (("synapses", 0, MAX_COUNT), ("neurons", 0, MAX_COUNT),
                             ("devices_per_synapse", 1, MAX_DEVICES)):
            if not (lo <= getattr(self, name) <= hi):
                raise ValueError(f"{name}: must be in [{lo}, {hi}], got {getattr(self, name)}")


CONSERVATIVE = EnergyScenario(tau_minus_s=500e-9, tau_plus_s=2500e-9, r_on_ohm=1e6,
                              e_neuron_j=70e-12, eta_act=0.8)
MEDIUM = EnergyScenario(tau_minus_s=50e-9, tau_plus_s=250e-9, r_on_ohm=10e6,
                        e_neuron_j=700e-15, eta_act=0.5)
AGGRESSIVE = EnergyScenario(tau_minus_s=5e-9, tau_plus_s=25e-9, r_on_ohm=10e6,
                            e_neuron_j=35e-15, eta_act=0.1)
SCENARIOS = {"conservative": CONSERVATIVE, "medium": MEDIUM, "aggressive": AGGRESSIVE}

DEFAULT_GPU_BASELINE = 170.0  # img/s/W reference for the acceleration ratio


def spike_energy(sc: EnergyScenario, mode: str = "head") -> float:
    """Energy of one spike across one ON device (J).

    "head": A+^2 * tau- / R_ON, the rectangular head only.
    "full": adds the triangular tail, A-^2 * tau+ / (3 * R_ON).
    """
    if mode not in SPIKE_MODES:
        raise ValueError(f"mode must be one of {SPIKE_MODES}, got {mode!r}")
    head = sc.a_plus_v ** 2 * sc.tau_minus_s / sc.r_on_ohm
    if mode == "head":
        return head
    return head + sc.a_minus_v ** 2 * sc.tau_plus_s / (3.0 * sc.r_on_ohm)


def snn_event_energy(sc: EnergyScenario, mode: str = "head") -> float:
    """Network energy for one event (J): activity- and ON-ratio-weighted
    spike energy over all synaptic devices plus the neuron baseline."""
    return (sc.eta_act * sc.eta_on * sc.synapses * sc.devices_per_synapse
            * spike_energy(sc, mode) + sc.neurons * sc.e_neuron_j)


def throughput_per_watt(sc: EnergyScenario, mode: str = "head") -> float:
    """Images per second per watt, one network event per image; infinite for
    the degenerate zero-energy network."""
    e = snn_event_energy(sc, mode)
    return math.inf if e == 0.0 else 1.0 / e


_SI_PREFIXES = [(1e-18, "a"), (1e-15, "f"), (1e-12, "p"), (1e-9, "n"), (1e-6, "u"),
                (1e-3, "m"), (1.0, ""), (1e3, "k"), (1e6, "M"), (1e9, "G"), (1e12, "T")]


def format_si(value: float, unit: str) -> str:
    if value == 0.0:
        return f"0 {unit}"
    if math.isinf(value):
        return f"inf {unit}"
    mag = abs(value)
    factor, prefix = _SI_PREFIXES[0]
    for f, p in _SI_PREFIXES:
        if mag >= f:
            factor, prefix = f, p
    return f"{value / factor:.3g} {prefix}{unit}"


def table1(scenarios: dict[str, EnergyScenario] | None = None,
           baseline_img_s_w: float = DEFAULT_GPU_BASELINE,
           mode: str = "head") -> dict:
    """All derived quantities per scenario plus the acceleration ratio to the
    GPU baseline; zero-energy scenarios are flagged as overflow."""
    if scenarios is None:
        scenarios = SCENARIOS
    if not 0.0 < baseline_img_s_w < math.inf:
        raise ValueError(f"baseline must be positive and finite, got {baseline_img_s_w}")
    rows = {}
    for name, sc in scenarios.items():
        e_spk = spike_energy(sc, mode)
        e_snn = snn_event_energy(sc, mode)
        thr = throughput_per_watt(sc, mode)
        rows[name] = {
            "tau_minus_s": sc.tau_minus_s,
            "tau_plus_s": sc.tau_plus_s,
            "a_plus_v": sc.a_plus_v,
            "a_minus_v": sc.a_minus_v,
            "r_on_ohm": sc.r_on_ohm,
            "e_spike_j": e_spk,
            "e_neuron_j": sc.e_neuron_j,
            "eta_act": sc.eta_act,
            "eta_on": sc.eta_on,
            "e_event_j": e_snn,
            "img_per_s_per_w": thr,
            "acceleration_vs_gpu": thr / baseline_img_s_w,
            "overflow": math.isinf(thr),
        }
    return {"mode": mode, "baseline_img_s_w": baseline_img_s_w, "rows": rows}


_TABLE_LINES = [
    ("Spike head duration", "tau_minus_s", "s"),
    ("Spike tail duration", "tau_plus_s", "s"),
    ("Head amplitude", "a_plus_v", "V"),
    ("Tail amplitude", "a_minus_v", "V"),
    ("ON resistance", "r_on_ohm", "ohm"),
    ("Single spike energy", "e_spike_j", "J"),
    ("Neuron baseline energy", "e_neuron_j", "J"),
    ("Neuron activity ratio", "eta_act", ""),
    ("ON-state device ratio", "eta_on", ""),
    ("Single event energy", "e_event_j", "J"),
    ("Images / sec / watt", "img_per_s_per_w", ""),
    ("Acceleration vs GPU", "acceleration_vs_gpu", "x"),
]


def render_table(result: dict) -> str:
    names = list(result["rows"])
    widths = [max(len(n), 12) + 2 for n in names]
    head = f"{'':34s}" + "".join(f"{n:>{w}s}" for n, w in zip(names, widths))
    lines = [head, "-" * len(head)]
    for label, key, unit in _TABLE_LINES:
        cells = []
        for n, w in zip(names, widths):
            v = result["rows"][n][key]
            if key == "acceleration_vs_gpu":
                txt = "overflow" if result["rows"][n]["overflow"] else f"x{v:,.0f}"
            elif unit in ("", "x"):
                txt = f"{v:g}"
            else:
                txt = format_si(v, unit)
            cells.append(f"{txt:>{w}s}")
        lines.append(f"{label:34s}" + "".join(cells))
    lines.append(f"(spike energy mode: {result['mode']}; "
                 f"GPU baseline {result['baseline_img_s_w']:g} img/s/W)")
    return "\n".join(lines)
