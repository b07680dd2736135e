import math
from pathlib import Path

import numpy as np
import pytest

from synstdp import (ClosedFormParams, avg_conductance_continuous,
                     avg_conductance_direct, comparison_report, quadratic_coeffs_fitted,
                     quadratic_coeffs_published)
from synstdp.closedform import MAX_N, WORKED_PARAMS as WORKED, _clamp_breakpoints
from synstdp.config import load_params, parse_config
from synstdp.montecarlo import analytic_window
from synstdp.validate import bruteforce_direct

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_cutoff_index_examples():
    assert abs(WORKED.a1 - 15.0) < 1e-9
    assert abs(WORKED.b1 - 4.0) < 1e-12
    assert abs(WORKED.a1 + WORKED.b1 * 0.25 - 16.0) < 1e-9  # the published cutoff


def test_direct_sum_worked_values():
    assert abs(avg_conductance_direct(WORKED, 0.0) - 4.2) <= 1e-12
    assert abs(avg_conductance_direct(WORKED, 0.0) - bruteforce_direct(WORKED, 0.0)) == 0.0
    # one more branch drops out by dt = 0.25; every remaining term loses beta*dt
    assert abs(avg_conductance_direct(WORKED, 0.25) - bruteforce_direct(WORKED, 0.25)) == 0.0
    assert abs(avg_conductance_direct(WORKED, 0.25) - 3.64) <= 1e-12


def test_direct_sum_matches_bruteforce_everywhere():
    # branch 1 saturates below dt = -2.75, so the clamp to 1 is compared too
    for dt in np.linspace(-20.0, 6.0, 2601):
        assert avg_conductance_direct(WORKED, float(dt)) == bruteforce_direct(WORKED, float(dt))


def test_direct_sum_nonincreasing_reaches_zero():
    dts = np.linspace(0.0, 6.0, 241)
    vals = [avg_conductance_direct(WORKED, float(t)) for t in dts]
    assert np.all(np.diff(vals) <= 1e-12)
    assert vals[-1] == 0.0


def test_taylor_second_order_bound():
    for x in np.linspace(0.0, 0.5, 51):
        err = abs(math.exp(-x) - (1.0 - x + 0.5 * x * x))
        assert err <= x ** 3 / 6.0 + 1e-15


def test_published_coefficients_verbatim():
    a, b, c = quadratic_coeffs_published(WORKED)
    assert abs(b - 0.64) < 1e-12   # b1*gamma*(dV*(a1+1)/2 - beta)
    assert abs(c - 16.64) < 1e-12  # b1*(beta*gamma + b1)
    assert abs(a - (-0.04)) < 1e-12


def test_fitted_quadratic_interpolates_continuous_form():
    a, b, c = quadratic_coeffs_fitted(WORKED, 0.3, 0.4)
    assert c > 0.0
    probes = np.linspace(0.0, 3.4, 20)
    for x in probes:
        poly = a - b * x + c * x * x
        assert abs(poly - avg_conductance_continuous(WORKED, float(x))) <= 1e-9
    # integer-cutoff direct sum stays within the single-branch envelope
    envelope = WORKED.gamma * WORKED.delta_v * WORKED.n
    for x in probes:
        poly = a - b * x + c * x * x
        assert abs(poly - bruteforce_direct(WORKED, float(x))) <= envelope


def test_fitted_quadratic_closed_form_values():
    # expansion of gamma*dV*kappa*(kappa-1)/2 with kappa = a1 - b1*dt
    a, b, c = quadratic_coeffs_fitted(WORKED, 0.3, 0.4)
    assert abs(a - 4.2) < 1e-9
    assert abs(b - 2.32) < 1e-9
    assert abs(c - 0.32) < 1e-9


def test_fitted_quadratic_rejects_breakpoint_interval():
    # kappa crosses the integer 14 at dt = 0.25
    with pytest.raises(ValueError):
        quadratic_coeffs_fitted(WORKED, 0.2, 0.3)


def per_branch_breakpoints(p):
    """Reference: each branch's offsets where its probability hits 0, then 1."""
    pts = []
    for i in range(1, p.n + 1):
        pts.append((p.a_total - p.v_th - i * p.delta_v) / p.beta)
        pts.append((p.a_total - p.v_th - 1.0 / p.gamma - i * p.delta_v) / p.beta)
    return np.array(pts)


def test_clamp_breakpoints_bitwise_match_the_per_branch_loop():
    rng = np.random.default_rng(5)
    cases = [WORKED, ClosedFormParams(n=MAX_N, a_total=1.3, delta_v=1.0 / MAX_N, beta=0.08,
                                      v_th=1.0, gamma=2.0)]
    for n in rng.integers(1, 300, 40).tolist():
        dv = rng.uniform(1e-4, 0.1)
        cases.append(ClosedFormParams(n=n, a_total=n * dv * rng.uniform(1.01, 5.0), delta_v=dv,
                                      beta=rng.uniform(1e-3, 5.0), v_th=rng.uniform(0.01, 2.0),
                                      gamma=rng.uniform(0.1, 20.0)))
    for p in cases:
        assert _clamp_breakpoints(p).tobytes() == per_branch_breakpoints(p).tobytes()
    # the error names the first breakpoint inside in that order: branch 1 hits 0
    with pytest.raises(ValueError, match=r"contains a clamping breakpoint at dt=3\.5$"):
        quadratic_coeffs_fitted(WORKED, -20.0, 6.0)


def test_fitted_quadratic_degenerate_beta_zero():
    p = ClosedFormParams(n=16, a_total=1.3, delta_v=0.02, beta=0.0, v_th=1.0, gamma=2.0)
    a, b, c = quadratic_coeffs_fitted(p, 0.3, 0.4)
    assert abs(b) < 1e-9 and abs(c) < 1e-9
    assert abs(a - avg_conductance_continuous(p, 0.0)) < 1e-9


def test_fitted_curvature_positive_for_random_params():
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 50:
        n = int(rng.integers(4, 24))
        v_th = rng.uniform(0.5, 1.5)
        headroom = rng.uniform(0.1, 1.0)
        delta_v = headroom * rng.uniform(0.5, 2.0) / n
        beta = rng.uniform(0.01, 0.3)
        gamma = 0.8 * min(3.0, 1.0 / (headroom - delta_v))  # no saturation anywhere
        p = ClosedFormParams(n=n, a_total=v_th + headroom, delta_v=delta_v, beta=beta,
                           v_th=v_th, gamma=gamma)
        m = min(n, math.floor(p.a1))
        if m < 2:
            continue
        # probe strictly between two adjacent branch-dropout offsets
        t0 = (p.a1 - m) / p.b1
        t1 = (p.a1 - (m - 1)) / p.b1
        width = (t1 - t0) / 4.0
        _, _, c = quadratic_coeffs_fitted(p, t0 + width, t1 - width)
        assert c > 0.0
        assert abs(c - p.gamma * p.delta_v * p.b1 ** 2 / 2.0) < 1e-6 * c
        checked += 1


def test_saturated_branch_rejected():
    """Each check of quadratic_coeffs_fitted's piece, on a case that passes
    the checks before it."""
    p = ClosedFormParams(n=4, a_total=2.0, delta_v=0.05, beta=0.08, v_th=1.0, gamma=2.0)
    with pytest.raises(ValueError, match=r"^cutoff 20 exceeds n=4 at dt=0\.0: "):
        quadratic_coeffs_fitted(p, 0.0, 0.1)
    # branch 1 peak 1.4 -> unclamped probability 1.8 > 1, with a cutoff of 15 <= n
    p = ClosedFormParams(n=16, a_total=2.0, delta_v=0.1, beta=0.08, v_th=0.5, gamma=2.0)
    with pytest.raises(ValueError, match=r"^branch 1 saturated at dt=0\.0: piece is not quadratic$"):
        quadratic_coeffs_fitted(p, 0.0, 0.1)
    with pytest.raises(ValueError, match=r"^cutoff negative at dt=5\.0: no active branches$"):
        quadratic_coeffs_fitted(WORKED, 5.0, 6.0)


def test_params_validation():
    with pytest.raises(ValueError):
        ClosedFormParams(n=0, a_total=1.3, delta_v=0.02, beta=0.08, v_th=1.0, gamma=2.0)
    with pytest.raises(ValueError):
        ClosedFormParams(n=16, a_total=1.3, delta_v=0.1, beta=0.08, v_th=1.0, gamma=2.0)
    with pytest.raises(ValueError):
        ClosedFormParams(n=16, a_total=1.3, delta_v=0.02, beta=-0.1, v_th=1.0, gamma=2.0)


def test_branch_count_bound_is_inclusive():
    ClosedFormParams(n=MAX_N, a_total=1.3, delta_v=1.0 / MAX_N, beta=0.08, v_th=1.0, gamma=2.0)
    with pytest.raises(ValueError, match=f"^n: must be at most {MAX_N}, got {MAX_N + 1}$"):
        ClosedFormParams(n=MAX_N + 1, a_total=1.3, delta_v=1.0 / MAX_N, beta=0.08, v_th=1.0,
                         gamma=2.0)
    # rejected before n * delta_v is formed, however small delta_v is
    with pytest.raises(ValueError, match="^n: must be at most"):
        ClosedFormParams(n=10**400, a_total=1.3, delta_v=1e-15, beta=0.08, v_th=1.0, gamma=2.0)


def test_comparison_report():
    rep = comparison_report(WORKED, 0.3, 0.4)
    assert abs(rep["a1"] - 15.0) < 1e-9 and rep["b1"] == 4.0
    assert rep["max_dev_fitted_vs_continuous"] <= 1e-9
    assert rep["max_dev_fitted_vs_direct"] <= rep["discretization_envelope"]
    assert rep["fitted_coeffs"]["c"] > 0
    # the published coefficients genuinely differ from the fitted ones
    assert abs(rep["published_coeffs"]["c"] - rep["fitted_coeffs"]["c"]) > 1.0
    assert len(rep["direct_sum"]) == 20


@pytest.mark.parametrize("init, device, sign, edge", [
    ("all_off", {"vth_neg": -10.0}, 1.0, 4.75),
    ("all_on", {"vth_pos": 10.0}, -1.0, 1.0),
], ids=["potentiation", "depression"])
def test_engine_equals_direct_sum_on_the_delay_bank_tail(init, device, sign, edge):
    """The closed form's peaks A - i*dV - beta*dt are the engine's on a delay
    bank: fig4d's hrht spikes, 16 branches at alpha = 1 with delays ramped up
    to 15*dV/beta = 3.75, so that each branch peaks dV below the one before,
    under the linear law (gamma = 2) with no LRS spread.  Starting all OFF,
    with RESET out of reach, analytic = direct(dt - tau_plus) wherever every
    branch is on the pre spike's tail, dt >= delay_max + tau_minus = 4.75;
    starting all ON, the mirror -analytic = direct(-dt - tau_plus +
    delay_max) holds for dt <= -1.  One grid step inward they part by 0.04."""
    p = load_params(CONFIGS / "closedform.json", ClosedFormParams)
    delay_max = 15 * p.delta_v / p.beta
    cfg = parse_config({
        "waveform": {"shape": "hrht", "a_plus": 0.9, "a_minus": 0.4, "tau_minus": 1.0,
                     "tau_plus": 5.0},
        "dendrites": {"n": 16, "alpha_min": 1.0, "alpha_max": 1.0, "delay_max": delay_max,
                      "delay_assignment": "ramp"},
        "device": {"sigma_lrs": 0.0, "prob_model": {"linear": {"gamma": p.gamma}}, **device},
        "simulation": {"delta_t_min": -12.0, "delta_t_max": 12.0, "delta_t_step": 0.25,
                       "init_policy": init}})
    grid, analytic, _ = analytic_window(cfg.window)
    shift = delay_max if sign < 0 else 0.0
    gap = np.array([sign * a - avg_conductance_direct(p, sign * dt - 5.0 + shift)
                    for dt, a in zip(grid.tolist(), analytic.tolist())])
    tail = sign * grid >= edge
    assert np.abs(gap[tail]).max() <= 1e-12
    assert np.count_nonzero(analytic[tail]) == 15  # not only the zeros past the window
    parting = np.flatnonzero(grid == sign * (edge - 0.25))
    assert abs(abs(gap[parting[0]]) - 0.04) <= 1e-12
