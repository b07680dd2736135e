"""Stochastic STDP learning windows for compound binary resistive synapses
with dendritic-inspired attenuation and delay."""

__version__ = "0.1.0"

from .analysis import FitResult, fit_exponential, fit_linear, fit_quadratic
from .closedform import (ClosedFormParams, avg_conductance_continuous,
                         avg_conductance_direct, comparison_report,
                         quadratic_coeffs_fitted, quadratic_coeffs_published)
from .config import ConfigError, OutputOptions, RunConfig, default_config, load_config, parse_config
from .dendrite import DendriteBank
from .device import DeviceModel, ProbModel, reset_probability, set_probability
from .energy import (AGGRESSIVE, CONSERVATIVE, MEDIUM, SCENARIOS, EnergyScenario,
                     render_table, snn_event_energy, spike_energy, table1,
                     throughput_per_watt)
from .montecarlo import (InitPolicy, StdpWindow, WindowConfig, analytic_window, run_window,
                         state_distribution)
from .pairing import BranchDrive, PairingGeometry, all_branch_drives, branch_drives
from .waveforms import SpikeWaveform

__all__ = [
    "AGGRESSIVE", "ClosedFormParams", "BranchDrive", "CONSERVATIVE", "ConfigError",
    "DendriteBank", "DeviceModel", "EnergyScenario", "FitResult", "InitPolicy",
    "MEDIUM", "OutputOptions", "PairingGeometry", "ProbModel", "RunConfig", "SCENARIOS",
    "SpikeWaveform", "StdpWindow", "WindowConfig", "all_branch_drives", "analytic_window",
    "avg_conductance_continuous", "avg_conductance_direct", "branch_drives",
    "comparison_report", "default_config", "fit_exponential", "fit_linear", "fit_quadratic",
    "load_config", "parse_config", "quadratic_coeffs_fitted", "quadratic_coeffs_published",
    "render_table", "reset_probability", "run_window", "set_probability",
    "snn_event_energy", "spike_energy", "state_distribution", "table1",
    "throughput_per_watt",
]
