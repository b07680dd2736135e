"""Closed-form average-conductance analysis for the linear switching model.

Under a linear switching probability of slope gamma and branch peaks that
fall off linearly with both branch index and pairing offset,

    V_i(dt) = A - i*dV - beta*dt,

the compound average conductance is a sum of clamped ramps.  Treating the
active-branch cutoff as a continuous quantity turns that sum into an exact
quadratic in dt, which is the analytic route to the exponential-like window
shape.  Two coefficient sets are produced: the published formulas taken
verbatim, and the expansion of the continuous-cutoff expression; they
disagree, and both are reported side by side against the direct sum rather
than silently reconciled.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import DeviceModel, ProbModel, set_probability

# Largest closed-form bank: `synstdp closedform` takes 0.35 s at n = MAX_N,
# 0.04 s above n = 16 (2-core Xeon, Python 3.11), so the bound stays not for
# run time but as energy.MAX_DEVICES, the most devices a compound synapse has
MAX_N = 20_000


@dataclass(frozen=True)
class ClosedFormParams:
    n: int            # parallel branches
    a_total: float    # peak-to-peak amplitude A = a_plus + a_minus (V)
    delta_v: float    # per-branch amplitude step (V)
    beta: float       # peak decay per unit offset, a_minus / tau_plus (V per time unit)
    v_th: float       # switching threshold (V)
    gamma: float      # linear switching slope (1/V)

    def __post_init__(self):
        for name in ("a_total", "delta_v", "v_th", "gamma"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name}: must be positive, got {getattr(self, name)}")
        if self.beta < 0.0:  # zero allowed: offset-independent degenerate case
            raise ValueError(f"beta: must be >= 0, got {self.beta}")
        if self.n < 1:
            raise ValueError(f"n: must be >= 1, got {self.n}")
        if self.n > MAX_N:
            raise ValueError(f"n: must be at most {MAX_N}, got {self.n}")
        if self.n * self.delta_v >= self.a_total:
            raise ValueError("need n*delta_v < a_total so every branch peaks positive at dt=0")


@dataclass(frozen=True)
class KIndex:
    k: float       # continuous cutoff index a1 + b1*dt
    a1: float      # (A - v_th) / delta_v
    b1: float      # beta / delta_v


def branch_peak(p: ClosedFormParams, i: int, delta_t: float) -> float:
    """Peak potential of branch i: A - i*dV - beta*dt."""
    if not (1 <= i <= p.n):
        raise IndexError(f"branch index {i} out of range 1..{p.n}")
    return p.a_total - i * p.delta_v - p.beta * delta_t


def k_index(p: ClosedFormParams, delta_t: float) -> KIndex:
    """Cutoff index where the linear switching probability reaches zero,
    as the published linear function of the offset."""
    a1 = (p.a_total - p.v_th) / p.delta_v
    b1 = p.beta / p.delta_v
    k = a1 + b1 * delta_t
    return KIndex(k=k, a1=a1, b1=b1)


def avg_conductance_direct(p: ClosedFormParams, delta_t: float) -> float:
    """Average compound conductance (r_on normalized to 1): the sum of every
    branch's SET probability under the device's linear law, which clamps the
    bare per-branch ramp to [0, 1].  The peaks are `branch_peak`'s, and the
    sum runs in branch order from the first branch."""
    device = DeviceModel(vth_pos=p.v_th, prob_model=ProbModel("linear", p.gamma))
    peaks = p.a_total - np.arange(1, p.n + 1) * p.delta_v - p.beta * delta_t
    return float(np.cumsum(set_probability(device, peaks))[-1])


def _kappa(p: ClosedFormParams, delta_t: float) -> float:
    """Continuous active-branch cutoff: branch i switches with positive
    probability iff i < kappa."""
    ki = k_index(p, delta_t)
    return ki.a1 - ki.b1 * delta_t


def avg_conductance_continuous(p: ClosedFormParams, delta_t: float) -> float:
    """Continuous-cutoff form of the direct sum: with kappa = a1 - b1*dt and
    no branch saturated, sum_{i=1..kappa} gamma*dV*(kappa - i) collapses to
    gamma*dV*kappa*(kappa - 1)/2 -- a single quadratic in dt."""
    kap = _kappa(p, delta_t)
    return p.gamma * p.delta_v * kap * (kap - 1.0) / 2.0


def quadratic_coeffs_published(p: ClosedFormParams) -> tuple[float, float, float]:
    """The published closed-form coefficients of value = a - b*dt + c*dt^2,
    evaluated verbatim (they are not consistent with the expansion of the
    continuous-cutoff expression; see quadratic_coeffs_fitted)."""
    ki = k_index(p, 0.0)
    a1, b1 = ki.a1, ki.b1
    a = p.gamma * (p.a_total - p.v_th) * (p.n - a1) \
        - p.gamma * p.delta_v * (p.n * (p.n + 1) - a1 * (a1 + 1)) / 2.0
    b = b1 * p.gamma * (0.5 * p.delta_v * (a1 + 1.0) - p.beta)
    c = b1 * (p.beta * p.gamma + b1)
    return a, b, c


def _clamp_breakpoints(p: ClosedFormParams) -> list[float]:
    """Offsets where some branch's probability crosses a clamp bound."""
    if p.beta == 0.0:
        return []
    pts = []
    for i in range(1, p.n + 1):
        pts.append((p.a_total - p.v_th - i * p.delta_v) / p.beta)               # p_i hits 0
        pts.append((p.a_total - p.v_th - 1.0 / p.gamma - i * p.delta_v) / p.beta)  # p_i hits 1
    return pts


def quadratic_coeffs_fitted(p: ClosedFormParams, dt_lo: float, dt_hi: float) -> tuple[float, float, float]:
    """The continuous-cutoff expression gamma*dV*kappa*(kappa - 1)/2, with
    kappa = a1 - b1*dt, expanded as a - b*dt + c*dt^2.  It describes the
    piece [dt_lo, dt_hi] only if the piece holds no clamping breakpoint (a
    branch probability crossing 0 or 1), keeps the cutoff inside [0, n] and
    saturates no branch; each is checked."""
    if not (np.isfinite(dt_lo) and np.isfinite(dt_hi)):
        raise ValueError(f"interval [{dt_lo}, {dt_hi}]: ends must be finite")
    if dt_lo > dt_hi:
        raise ValueError("need dt_lo <= dt_hi")
    for b in _clamp_breakpoints(p):
        if dt_lo < b < dt_hi:
            raise ValueError(f"interval [{dt_lo}, {dt_hi}] contains a clamping breakpoint at dt={b:.6g}")
    for dt in (dt_lo, dt_hi):
        kap = _kappa(p, dt)
        if kap > p.n + 1e-12:
            raise ValueError(f"cutoff {kap:.6g} exceeds n={p.n} at dt={dt}: piece is not quadratic")
        if kap < -1e-12:
            raise ValueError(f"cutoff negative at dt={dt}: no active branches")
        if p.gamma * (p.a_total - p.delta_v - p.beta * dt - p.v_th) > 1.0 + 1e-12:
            raise ValueError(f"branch 1 saturated at dt={dt}: piece is not quadratic")
    ki, g = k_index(p, 0.0), p.gamma * p.delta_v
    return (g * ki.a1 * (ki.a1 - 1.0) / 2.0, g * ki.b1 * (2.0 * ki.a1 - 1.0) / 2.0,
            g * ki.b1 * ki.b1 / 2.0)


def comparison_report(p: ClosedFormParams, dt_lo: float, dt_hi: float) -> dict:
    """Both coefficient paths against the direct sum over 20 probe offsets."""
    fitted = quadratic_coeffs_fitted(p, dt_lo, dt_hi)  # checks the interval first
    probes = np.linspace(dt_lo, dt_hi, 20)
    ki = k_index(p, 0.0)
    published = quadratic_coeffs_published(p)

    def quad(coeffs, x):
        a, b, c = coeffs
        return a - b * x + c * x * x

    direct = np.array([avg_conductance_direct(p, x) for x in probes])
    cont = np.array([avg_conductance_continuous(p, x) for x in probes])
    fit_vals = quad(fitted, probes)
    return {
        "a1": ki.a1,
        "b1": ki.b1,
        "k_samples": [{"dt": float(x), "k": k_index(p, float(x)).k} for x in probes],
        "direct_sum": [{"dt": float(x), "value": float(v)} for x, v in zip(probes, direct)],
        "published_coeffs": {"a": published[0], "b": published[1], "c": published[2]},
        "fitted_coeffs": {"a": fitted[0], "b": fitted[1], "c": fitted[2]},
        "max_dev_fitted_vs_continuous": float(np.abs(fit_vals - cont).max()),
        "max_dev_fitted_vs_direct": float(np.abs(fit_vals - direct).max()),
        "max_dev_published_vs_direct": float(np.abs(quad(published, probes) - direct).max()),
        "discretization_envelope": p.gamma * p.delta_v * p.n,
    }
