"""Stochastic binary resistive device model.

Switching is a single Bernoulli trial per spike pairing, with probability
given either by the integral of a normal threshold distribution from 0 to
the peak voltage, or by a piecewise-linear ramp of slope gamma above the
threshold.  ON-state conductance carries optional lot-to-lot variation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._cephes import exp, phi


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

    @cached_property  # read once per offset by the analytic layer
    def g_on_mean(self) -> float:
        """Mean ON conductance normalized by 1/r_on.  The sampler redraws a
        nonpositive draw, so an ON conductance is N(1, sigma_lrs^2) truncated
        to (0, inf), with mean 1 + sigma phi(1/sigma) / Phi(1/sigma); exactly
        1 at sigma_lrs = 0, and at sigma_lrs = 0.1 the correction (7.7e-24)
        is below half an ulp of 1."""
        if self.sigma_lrs == 0.0:
            return 1.0
        z = 1.0 / self.sigma_lrs
        density = float(exp(-0.5 * z * z)) / math.sqrt(2.0 * math.pi)
        return 1.0 + self.sigma_lrs * density / float(phi(z))

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
        # the lower limit's Phi rides along in the same erf call
        cdf = phi(np.append((mag - vth) / m.sigma_th, (0.0 - vth) / m.sigma_th))
        p = cdf[:-1].reshape(mag.shape) - cdf[-1]
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


# Cells of the screen's table over [0, span], span the power of two at or
# above the largest drive.  A draw is left to the exact law only when u
# falls within about three cells' rise of p, a share that shrinks as 1/cells
# (0.10 % of the draws of the fig7_delay bank under 0.05 amplitude noise at
# 4,096), while a table costs 4,097 law values; switch_draws skips the
# table when there are fewer drives than that.
_SCREEN_CELLS = 4096
# The computed law is monotone in the drive only up to its rounding (erf
# steps back by an ulp in places); the screen's bounds are widened by this
_SCREEN_SLACK = 1e-15


@lru_cache(maxsize=64)
def _screen(m: DeviceModel, polarity: int, span: float):
    """(below, above) of switch_draws' screen over [0, span], read-only:
    cell k's lower bound, the law at node max(k-1, 0) less _SCREEN_SLACK,
    and its upper bound, the law at node min(k+2, cells) plus the slack.
    Cached, so one process builds each table once, however many offsets
    have their top drive in the same octave."""
    law = {1: set_probability, -1: reset_probability}[polarity]
    p = law(m, polarity * np.linspace(0.0, span, _SCREEN_CELLS + 1))
    below = np.concatenate([p[:1], p[:-1]]) - _SCREEN_SLACK
    above = np.concatenate([p[2:], p[-1:], p[-1:]]) + _SCREEN_SLACK
    below.flags.writeable = above.flags.writeable = False
    return below, above


def switch_draws(m: DeviceModel, u, v_peak, polarity: int) -> np.ndarray:
    """Exactly `u < p(v_peak)`, elementwise, for p the SET law (polarity 1)
    or the RESET law (polarity -1), without evaluating p at every entry.

    p is a nondecreasing function of the drive a = max(polarity v, 0) with
    p(0) = 0.  It is evaluated on a table of nodes over [0, span], span the
    power of two at or above max a.  An entry in cell k is settled true when
    u is below the node k-1 value and false when u is at or above the node
    k+2 value, each widened by _SCREEN_SLACK.  span and the cell count are
    powers of two, so the nodes and each drive's cell are exact; the cell of
    slack on each side is a margin.  Only the entries left between are
    evaluated exactly."""
    law = {1: set_probability, -1: reset_probability}[polarity]
    v = np.asarray(v_peak, dtype=float)
    u = np.asarray(u, dtype=float)
    if v.size <= _SCREEN_CELLS:
        return u < law(m, v)
    u, v = np.broadcast_arrays(u, v)
    top = float(v.max() if polarity == 1 else -v.min())
    if not 2.0**-1000 <= top <= 2.0**1000:  # no drive above 0, or a non-finite or extreme one
        return u < law(m, v)
    mant, octave = math.frexp(top)
    span = math.ldexp(1.0, octave - (mant == 0.5))
    below, above = _screen(m, polarity, span)
    k = v * (polarity * _SCREEN_CELLS / span)
    k = np.maximum(k, 0.0, out=k).astype(np.intp)  # a drive of the other sign is in cell 0
    out = u < above.take(k)  # below[k] <= above[k], so out is a superset of the settled trues
    left = np.flatnonzero(out ^ (u < below.take(k)))
    out.flat[left] = u.flat[left] < law(m, v.flat[left])
    return out
