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

SQRT2 = math.sqrt(2.0)

# erf and erfc of Cephes ndtr.c (S. L. Moshier, Methods and Programs for
# Mathematical Functions, 1989): T/U on |x| <= 1, P/Q on 1 < |x| < 8, R/S
# beyond; the leading 1 of each denominator is implied
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # ln(2**1024); exp(-x*x) underflows past it
# exp of Cephes exp.c: e**x = e**g 2**n with |g| <= ln(2)/2, ln(2) split in two
_EXP_P = (1.26177193074810590878e-4, 3.02994407707441961300e-2, 9.99999999999999999910e-1)
_EXP_Q = (3.00198505138664455042e-6, 2.52448340349684104192e-3, 2.27265548208155028766e-1,
          2.00000000000000000009e0)
_LN2_HI, _LN2_LO = 6.93145751953125e-1, 1.42860682030941723212e-6
_LOG2E = 1.4426950408889634073599


def _polevl(x, coef):
    """coef[0] x^N + ... + coef[N], by Horner's rule in Cephes' order."""
    y = coef[0] * x + coef[1]
    for c in coef[2:]:
        y = y * x + c
    return y


def _p1evl(x, coef):
    """x^N + coef[0] x^(N-1) + ... + coef[N-1]: _polevl with a leading 1."""
    y = x + coef[0]
    for c in coef[1:]:
        y = y * x + c
    return y


def _exp(x):
    """e**x for x in [-_MAXLOG, 0], by Cephes exp.c's rational form.  Only
    + - * /, floor and ldexp, so the bits do not depend on which SIMD kernels
    numpy picks for the CPU, as np.exp's do."""
    n = np.floor(_LOG2E * x + 0.5)
    g = x - n * _LN2_HI
    g = g - n * _LN2_LO
    gg = g * g
    px = g * _polevl(gg, _EXP_P)
    return np.ldexp(1.0 + 2.0 * (px / (_polevl(gg, _EXP_Q) - px)), n.astype(np.int64))


def _erf(x):
    """erf of a float array, shape kept: Cephes ndtr.c's erf of |x| with the
    sign of x.  The C original takes exp(-x*x) from the C library; _exp
    stands in for it, which moves erf by at most 1 ulp."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    a = np.abs(flat)
    out = a.copy()  # nan stays nan
    small = a <= 1.0
    s = a[small]
    if s.size:
        z = s * s
        out[small] = s * _polevl(z, _T) / _p1evl(z, _U)
    # 1 - erfc(a) beyond 1; erfc underflows to 0 where exp(-a*a) would
    for part, num, den in (((a > 1.0) & (a < 8.0), _P, _Q), (a >= 8.0, _R, _S)):
        s = a[part]
        if not s.size:
            continue
        z = -s * s
        live = z >= -_MAXLOG
        s, erfc = s[live], np.zeros(z.shape)
        erfc[live] = _exp(z[live]) * _polevl(s, num) / _p1evl(s, den)
        out[part] = 1.0 - erfc
    return np.copysign(out, flat).reshape(x.shape)


def _phi(z):
    """Standard normal CDF, accurate to ~1e-15 via erf."""
    return 0.5 * (1.0 + _erf(np.asarray(z, dtype=float) / SQRT2))


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
        density = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return 1.0 + self.sigma_lrs * density / float(_phi(z))

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
        phi = _phi(np.append((mag - vth) / m.sigma_th, (0.0 - vth) / m.sigma_th))
        p = phi[:-1].reshape(mag.shape) - phi[-1]
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
    mant, exp = math.frexp(top)
    span = math.ldexp(1.0, exp - (mant == 0.5))
    below, above = _screen(m, polarity, span)
    k = v * (polarity * _SCREEN_CELLS / span)
    k = np.maximum(k, 0.0, out=k).astype(np.intp)  # a drive of the other sign is in cell 0
    out = u < above.take(k)  # below[k] <= above[k], so out is a superset of the settled trues
    left = np.flatnonzero(out ^ (u < below.take(k)))
    out.flat[left] = u.flat[left] < law(m, v.flat[left])
    return out
