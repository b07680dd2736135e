"""Stochastic binary resistive device model.

Switching is a single Bernoulli trial per spike pairing, with probability
given either by the integral of a normal threshold distribution from 0 to
the peak voltage, or by a piecewise-linear ramp of slope gamma above the
threshold.  ON-state conductance carries optional lot-to-lot variation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

SQRT2 = math.sqrt(2.0)


def _phi(z):
    """Standard normal CDF, accurate to ~1e-15 via erf."""
    return 0.5 * (1.0 + erf(np.asarray(z, dtype=float) / SQRT2))


@dataclass(frozen=True)
class ProbModel:
    """Switching-probability law: Gaussian threshold CDF or linear ramp."""
    kind: str = "gaussian"  # "gaussian" | "linear"
    gamma: float = 2.0      # ramp slope, used only by the linear model

    def __post_init__(self):
        if self.kind not in ("gaussian", "linear"):
            raise ValueError(f"kind: must be 'gaussian' or 'linear', got {self.kind!r}")
        if self.kind == "linear" and self.gamma <= 0.0:
            raise ValueError(f"gamma: must be positive, got {self.gamma}")


@dataclass(frozen=True)
class DeviceModel:
    vth_pos: float = 1.0       # mean SET threshold (V), > 0
    vth_neg: float = -1.0      # mean RESET threshold (V), < 0
    sigma_th: float = 0.1      # threshold spread (V)
    r_on: float = 1e6          # nominal LRS resistance (ohm)
    sigma_lrs: float = 0.1     # relative LRS spread
    r_off_ratio: float | None = None  # R_OFF / R_ON; None means infinite
    prob_model: ProbModel = ProbModel()

    def __post_init__(self):
        if not self.vth_pos > 0.0:
            raise ValueError(f"vth_pos: must be positive, got {self.vth_pos}")
        if not self.vth_neg < 0.0:
            raise ValueError(f"vth_neg: must be negative, got {self.vth_neg}")
        if self.sigma_th <= 0.0:
            raise ValueError(f"sigma_th: must be positive, got {self.sigma_th}")
        if self.r_on <= 0.0:
            raise ValueError(f"r_on: must be positive, got {self.r_on}")
        if not (0.0 <= self.sigma_lrs < 0.5):
            # keeps negative conductance draws astronomically rare
            raise ValueError(f"sigma_lrs: must be in [0, 0.5), got {self.sigma_lrs}")
        if self.r_off_ratio is not None and self.r_off_ratio <= 1.0:
            raise ValueError(f"r_off_ratio: must be > 1 or null, got {self.r_off_ratio}")

    @property
    def g_off_norm(self) -> float:
        """OFF conductance normalized by 1/r_on (0 when the ratio is infinite)."""
        return 0.0 if self.r_off_ratio is None else 1.0 / self.r_off_ratio


def _switch_probability(m: DeviceModel, v, vth: float, off):
    """The switching law applied to |v| against threshold vth (> 0): the
    Gaussian threshold integral Phi((|v|-vth)/sigma) - Phi(-vth/sigma), or
    the linear ramp gamma (|v| - vth), clamped to [0, 1]; 0 where off."""
    mag = np.abs(v)
    if m.prob_model.kind == "gaussian":
        p = _phi((mag - vth) / m.sigma_th) - _phi((0.0 - vth) / m.sigma_th)
    else:
        p = m.prob_model.gamma * (mag - vth)
    p = np.where(off, 0.0, np.clip(p, 0.0, 1.0))
    return float(p) if v.ndim == 0 else p


def set_probability(m: DeviceModel, v_peak):
    """SET probability for peak voltage(s) v_peak; 0 for v_peak <= 0.

    Gaussian model: integral of N(vth_pos, sigma_th^2) over (0, v_peak],
    i.e. Phi((v-vth)/sigma) - Phi(-vth/sigma), clamped to [0, 1].
    """
    v = np.asarray(v_peak, dtype=float)
    return _switch_probability(m, v, m.vth_pos, v <= 0.0)


def reset_probability(m: DeviceModel, v_peak):
    """RESET probability, the mirror of SET against |vth_neg|; 0 for v_peak >= 0."""
    v = np.asarray(v_peak, dtype=float)
    return _switch_probability(m, v, abs(m.vth_neg), v >= 0.0)
