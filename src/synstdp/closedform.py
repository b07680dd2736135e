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

    @property
    def a1(self) -> float:
        """Cutoff index (A - v_th) / delta_v: branch i can switch iff i < a1 - b1*dt."""
        return (self.a_total - self.v_th) / self.delta_v

    @property
    def b1(self) -> float:
        """Cutoff index lost per unit offset, beta / delta_v."""
        return self.beta / self.delta_v


# worked set: `synstdp closedform`'s default, configs/closedform.json, the self-checks
WORKED_PARAMS = ClosedFormParams(n=16, a_total=1.3, delta_v=0.02, beta=0.08, v_th=1.0, gamma=2.0)


def quadratic(coeffs: tuple[float, float, float], delta_t):
    """a - b*dt + c*dt*dt of coeffs (a, b, c), in the order the report's bytes hold."""
    a, b, c = coeffs
    return a - b * delta_t + c * delta_t * delta_t


def avg_conductance_direct(p: ClosedFormParams, delta_t: float) -> float:
    """Average compound conductance (r_on normalized to 1): the sum of every
    branch's SET probability under the device's linear law, which clamps the
    bare per-branch ramp to [0, 1].  Branch i peaks at A - i*dV - beta*dt,
    and the sum runs in branch order from the first branch."""
    device = DeviceModel(vth_pos=p.v_th, prob_model=ProbModel("linear", p.gamma))
    peaks = p.a_total - np.arange(1, p.n + 1) * p.delta_v - p.beta * delta_t
    return float(np.cumsum(set_probability(device, peaks))[-1])


def avg_conductance_continuous(p: ClosedFormParams, delta_t: float) -> float:
    """Continuous-cutoff form of the direct sum: with kappa = a1 - b1*dt and
    no branch saturated, sum_{i=1..kappa} gamma*dV*(kappa - i) collapses to
    gamma*dV*kappa*(kappa - 1)/2 -- a single quadratic in dt."""
    kap = p.a1 - p.b1 * delta_t
    return p.gamma * p.delta_v * kap * (kap - 1.0) / 2.0


def quadratic_coeffs_published(p: ClosedFormParams) -> tuple[float, float, float]:
    """The published closed-form coefficients of value = a - b*dt + c*dt^2,
    evaluated verbatim (they are not consistent with the expansion of the
    continuous-cutoff expression; see quadratic_coeffs_fitted)."""
    a1, b1 = p.a1, p.b1
    a = p.gamma * (p.a_total - p.v_th) * (p.n - a1) \
        - p.gamma * p.delta_v * (p.n * (p.n + 1) - a1 * (a1 + 1)) / 2.0
    b = b1 * p.gamma * (0.5 * p.delta_v * (a1 + 1.0) - p.beta)
    c = b1 * (p.beta * p.gamma + b1)
    return a, b, c


def _clamp_breakpoints(p: ClosedFormParams) -> np.ndarray:
    """Offsets where some branch's probability crosses a clamp bound, in
    branch order: branch i's offset where p_i hits 0, then where it hits 1."""
    if p.beta == 0.0:
        return np.empty(0)
    i_dv = np.arange(1, p.n + 1) * p.delta_v
    return np.column_stack([(p.a_total - p.v_th - i_dv) / p.beta,
                            (p.a_total - p.v_th - 1.0 / p.gamma - i_dv) / p.beta]).ravel()


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
    b = _clamp_breakpoints(p)
    b = b[(dt_lo < b) & (b < dt_hi)]
    if b.size:
        raise ValueError(f"interval [{dt_lo}, {dt_hi}] contains a clamping breakpoint "
                         f"at dt={b[0]:.6g}")
    for dt in (dt_lo, dt_hi):
        kap = p.a1 - p.b1 * dt
        if kap > p.n + 1e-12:
            raise ValueError(f"cutoff {kap:.6g} exceeds n={p.n} at dt={dt}: piece is not quadratic")
        if kap < -1e-12:
            raise ValueError(f"cutoff negative at dt={dt}: no active branches")
        if p.gamma * (p.a_total - p.delta_v - p.beta * dt - p.v_th) > 1.0 + 1e-12:
            raise ValueError(f"branch 1 saturated at dt={dt}: piece is not quadratic")
    a1, b1, g = p.a1, p.b1, p.gamma * p.delta_v
    return g * a1 * (a1 - 1.0) / 2.0, g * b1 * (2.0 * a1 - 1.0) / 2.0, g * b1 * b1 / 2.0


def comparison_report(p: ClosedFormParams, dt_lo: float, dt_hi: float) -> dict:
    """Both coefficient paths against the direct sum over 20 probe offsets."""
    fitted = quadratic_coeffs_fitted(p, dt_lo, dt_hi)  # checks the interval first
    probes = np.linspace(dt_lo, dt_hi, 20)
    published = quadratic_coeffs_published(p)
    direct = np.array([avg_conductance_direct(p, x) for x in probes])
    cont = np.array([avg_conductance_continuous(p, x) for x in probes])
    fit_vals = quadratic(fitted, probes)
    return {
        "a1": p.a1, "b1": p.b1,
        # the published cutoff index a1 + b1*dt (the forms above use a1 - b1*dt)
        "k_samples": [{"dt": float(x), "k": p.a1 + p.b1 * float(x)} for x in probes],
        "direct_sum": [{"dt": float(x), "value": float(v)} for x, v in zip(probes, direct)],
        "published_coeffs": {"a": published[0], "b": published[1], "c": published[2]},
        "fitted_coeffs": {"a": fitted[0], "b": fitted[1], "c": fitted[2]},
        "max_dev_fitted_vs_continuous": float(np.abs(fit_vals - cont).max()),
        "max_dev_fitted_vs_direct": float(np.abs(fit_vals - direct).max()),
        "max_dev_published_vs_direct": float(np.abs(quadratic(published, probes) - direct).max()),
        "discretization_envelope": p.gamma * p.delta_v * p.n,
    }
