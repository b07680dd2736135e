"""Self-check property suite behind the `validate` CLI subcommand.

Four groups of checks: the energy table against its published reference
values, Monte Carlo means against the analytic expectation on the two
reference window setups, the Poisson-binomial recurrence against exhaustive
enumeration, and the closed-form quadratic against an independent
brute-force sum.  The oracles (`mc_outliers`, `enumerate_pmf`,
`bruteforce_direct`) are the ones the test suite imports.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .closedform import (WORKED_PARAMS, ClosedFormParams, avg_conductance_continuous,
                         avg_conductance_direct, quadratic, quadratic_coeffs_fitted,
                         quadratic_coeffs_published)
from .config import parse_config
from .energy import table1
from .montecarlo import StdpWindow, run_window, state_distribution

# energy-table reference design values (scenario -> (E_spk J, E_SNN J, img/s/W))
TABLE1_REFERENCE = {
    "conservative": (45e-15, 62e-6, 16e3),
    "medium": (0.45e-15, 560e-9, 1.8e6),
    "aggressive": (0.045e-15, 25e-9, 41e6),
}
TABLE1_ACCELERATION = ("conservative", 94.0, 0.03)  # scenario, ratio, rel tolerance


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def check_energy_table() -> list[CheckResult]:
    t0 = time.perf_counter()
    res = table1(mode="head")
    out = []
    for name, (e_spk, e_snn, thr) in TABLE1_REFERENCE.items():
        row = res["rows"][name]
        ok_spk = abs(row["e_spike_j"] - e_spk) <= 0.005 * e_spk
        ok_snn = abs(row["e_event_j"] - e_snn) <= 0.02 * e_snn
        ok_thr = abs(row["img_per_s_per_w"] - thr) <= 0.02 * thr
        out.append(CheckResult(
            f"energy table [{name}]", ok_spk and ok_snn and ok_thr,
            f"E_spk={row['e_spike_j']:.3e} J (ref {e_spk:.3e}), "
            f"E_event={row['e_event_j']:.3e} J (ref {e_snn:.3e}), "
            f"throughput={row['img_per_s_per_w']:.3e} (ref {thr:.3e})"))
    name, ratio, tol = TABLE1_ACCELERATION
    acc = res["rows"][name]["acceleration_vs_gpu"]
    out.append(CheckResult(
        "energy table [acceleration]", abs(acc - ratio) <= tol * ratio,
        f"x{acc:.1f} vs reference x{ratio:g} at baseline {res['baseline_img_s_w']:g} "
        f"({time.perf_counter() - t0:.3f} s)"))
    return out


# An offset whose N epochs all gave the same value c has no standard error.
# If delta_g differs from c with per-epoch probability p, all N epochs agree
# with probability (1 - p)^N <= exp(-p N), which is below ZERO_VAR_ALPHA once
# p > ln(1 / ZERO_VAR_ALPHA) / N.  Below that p, |E - c| <= p (max - min of
# delta_g) <= 2 B p, B = StdpWindow.delta_g_bound.  So if the analytic value
# and c differed by more than 2 B ln(1 / ZERO_VAR_ALPHA) / N, all N epochs
# would agree with probability below ZERO_VAR_ALPHA.
ZERO_VAR_ALPHA = 1e-6


def zero_var_tolerance(w: StdpWindow) -> float:
    """Largest |MC mean - analytic| allowed where all N epochs agree."""
    return 2.0 * w.delta_g_bound * math.log(1.0 / ZERO_VAR_ALPHA) / w.epochs


def mc_outliers(w: StdpWindow) -> list[float]:
    """The offsets at which the Monte Carlo mean disagrees with the analytic
    expectation: beyond 4 s / sqrt(N) at a live offset (sample std s > 0,
    ddof = 1), beyond `zero_var_tolerance` where all N epochs agree (every
    offset when N = 1)."""
    mean = w.delta_g.mean(axis=1)
    std = w.delta_g.std(axis=1, ddof=1) if w.epochs > 1 else np.zeros_like(mean)
    diff = np.abs(mean - w.analytic)
    bad = np.where(std > 0, diff > 4.0 * std / np.sqrt(w.epochs), diff > zero_var_tolerance(w))
    return w.delta_t[bad].tolist()


def _mc_check(config_patch: dict, label: str, epochs: int) -> CheckResult:
    cfg = parse_config({"simulation": {"epochs": epochs}, **config_patch}).window
    t0 = time.perf_counter()
    w = run_window(cfg)
    elapsed = time.perf_counter() - t0
    outliers = mc_outliers(w)
    return CheckResult(
        f"mc vs analytic [{label}]", len(outliers) <= 1,
        f"{len(outliers)} outlier(s) (1 allowed) beyond 4*s/sqrt(N), or "
        f"{zero_var_tolerance(w):.3g} where all epochs agree, over {w.delta_t.size} points, "
        f"{epochs} epochs, {elapsed:.2f} s")


def check_mc_vs_analytic(epochs: int = 10_000) -> list[CheckResult]:
    fig4b = {"dendrites": {"alpha_min": 1.0, "alpha_max": 1.0}}
    fig4d = {}
    return [_mc_check(fig4b, "uniform attenuation", epochs),
            _mc_check(fig4d, "ramped attenuation", epochs)]


def enumerate_pmf(ps) -> np.ndarray:
    """Poisson-binomial pmf by exhaustive enumeration of the 2^n outcomes."""
    ps = np.asarray(ps, dtype=float)
    out = np.zeros(ps.size + 1)
    for bits in itertools.product((0, 1), repeat=ps.size):
        pr = 1.0
        for b, p in zip(bits, ps):
            pr *= p if b else 1.0 - p
        out[sum(bits)] += pr
    return out


def check_poisson_binomial() -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in range(1, 13):
        ps = rng.random((50, n))
        exact = np.array([enumerate_pmf(row) for row in ps])
        worst = max(worst, float(np.abs(state_distribution(ps) - exact).max()))
    return CheckResult(
        "poisson binomial vs enumeration", worst <= 1e-12,
        f"max |pmf error| {worst:.2e} over 50 vectors at each n<=12 "
        f"({time.perf_counter() - t0:.2f} s)")


def bruteforce_direct(p: ClosedFormParams, dt: float) -> float:
    """Deliberately plain re-derivation of the direct sum."""
    total = 0.0
    for i in range(1, p.n + 1):
        prob = p.gamma * (p.a_total - i * p.delta_v - p.beta * dt - p.v_th)
        if prob < 0.0:
            prob = 0.0
        elif prob > 1.0:
            prob = 1.0
        total += prob
    return total


def check_closedform() -> list[CheckResult]:
    t0 = time.perf_counter()
    p = WORKED_PARAMS
    out = []
    v0 = avg_conductance_direct(p, 0.0)
    brute0 = bruteforce_direct(p, 0.0)
    out.append(CheckResult(
        "closed form [direct sum at 0]", abs(v0 - 4.2) <= 1e-12 and abs(v0 - brute0) <= 1e-12,
        f"value {v0!r} vs brute force {brute0!r} and reference 4.2"))

    fitted = quadratic_coeffs_fitted(p, 0.3, 0.4)
    probes = np.linspace(0.0, (p.a1 - 1.0) / p.b1, 20)  # cutoff reaches the last active branch
    fit_vals = quadratic(fitted, probes)
    cont = np.array([avg_conductance_continuous(p, x) for x in probes])
    direct = np.array([bruteforce_direct(p, x) for x in probes])
    dev_cont = float(np.abs(fit_vals - cont).max())
    dev_direct = float(np.abs(fit_vals - direct).max())
    envelope = p.gamma * p.delta_v * p.n
    published = quadratic_coeffs_published(p)
    out.append(CheckResult(
        "closed form [fitted quadratic]",
        dev_cont <= 1e-9 and fitted[2] > 0.0 and dev_direct <= envelope,
        f"max dev vs continuous {dev_cont:.2e}, c={fitted[2]:.4g}, "
        f"max dev vs direct {dev_direct:.4g} (envelope {envelope:.4g}); "
        f"published coeffs {tuple(round(v, 6) for v in published)} deviate from fitted "
        f"{tuple(round(v, 6) for v in fitted)} as documented "
        f"({time.perf_counter() - t0:.3f} s)"))
    return out


def run_all(epochs: int = 10_000) -> list[CheckResult]:
    checks = []
    checks.extend(check_energy_table())
    checks.extend(check_mc_vs_analytic(epochs))
    checks.append(check_poisson_binomial())
    checks.extend(check_closedform())
    return checks


def render_report(checks: list[CheckResult]) -> str:
    lines = [c.line() for c in checks]
    n_fail = sum(not c.passed for c in checks)
    lines.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return "\n".join(lines)
