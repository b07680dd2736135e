import numpy as np
import pytest

from synstdp import fit_exponential, fit_linear, fit_quadratic


def test_exponential_self_recovery():
    t = np.arange(0.5, 5.01, 0.5)
    pts = np.column_stack([t, 1.0 * np.exp(-t / 2.0)])
    fit = fit_exponential(pts)
    assert abs(fit.params["A"] - 1.0) < 1e-6
    assert abs(fit.params["tau"] - 2.0) < 1e-6
    assert fit.rmse < 1e-9
    assert fit.converged


def test_exponential_recovery_to_six_digits():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = rng.uniform(0.5, 20.0)
        tau = rng.uniform(0.3, 8.0)
        t = np.linspace(0.2, 6.0, 25)
        fit = fit_exponential(np.column_stack([t, a * np.exp(-t / tau)]))
        assert abs(fit.params["A"] / a - 1.0) < 1e-6
        assert abs(fit.params["tau"] / tau - 1.0) < 1e-6


def test_exponential_negative_side_uses_magnitudes():
    t = -np.arange(1.0, 6.01, 0.5)
    pts = np.column_stack([t, -3.0 * np.exp(-np.abs(t) / 1.5)])
    fit = fit_exponential(pts)
    assert abs(fit.params["A"] - 3.0) < 1e-6
    assert abs(fit.params["tau"] - 1.5) < 1e-6


def test_exponential_constant_input_flagged_not_crashing():
    t = np.arange(1.0, 4.01, 0.5)
    fit = fit_exponential(np.column_stack([t, np.ones_like(t)]))
    assert fit.rmse < 1e-6
    assert (not fit.converged) or fit.params["tau"] > 1e4


def test_exponential_excludes_nonpositive_values():
    t = np.arange(1.0, 4.01, 0.5)
    y = 2.0 * np.exp(-t / 2.0)
    y[-1] = 0.0
    fit = fit_exponential(np.column_stack([t, y]))
    assert fit.n_excluded == 1
    assert abs(fit.params["tau"] - 2.0) < 1e-6


def test_exponential_preconditions():
    with pytest.raises(ValueError):
        fit_exponential([(1.0, 1.0), (2.0, 0.5)])
    with pytest.raises(ValueError):
        fit_exponential([(-1.0, 1.0), (1.0, 0.5), (2.0, 0.2)])
    with pytest.raises(ValueError):
        fit_exponential([(1.0, 1.0), (2.0, -0.5), (3.0, 0.2)])


def test_linear_examples():
    fit = fit_linear([(0.0, 1.0), (1.0, 3.0)])
    assert abs(fit.params["slope"] - 2.0) < 1e-12
    assert abs(fit.params["intercept"] - 1.0) < 1e-12
    assert fit.rmse < 1e-12
    flat = fit_linear([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    assert abs(flat.params["slope"]) < 1e-12 and abs(flat.params["intercept"]) < 1e-12
    with pytest.raises(ValueError):
        fit_linear([(1.0, 2.0), (1.0, 3.0)])
    with pytest.raises(ValueError):
        fit_linear([(1.0, 2.0)])


def test_quadratic_self_recovery():
    t = np.linspace(-2, 4, 13)
    fit = fit_quadratic(np.column_stack([t, 2.0 - 3.0 * t + t * t]))
    assert abs(fit.params["a"] - 2.0) < 1e-9
    assert abs(fit.params["b"] - 3.0) < 1e-9
    assert abs(fit.params["c"] - 1.0) < 1e-9
    assert fit.rmse < 1e-9


def test_quadratic_underdetermined():
    with pytest.raises(ValueError):
        fit_quadratic([(0.0, 1.0), (1.0, 2.0)])
    with pytest.raises(ValueError):
        fit_quadratic([(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)])


def test_fits_invariant_to_point_order():
    rng = np.random.default_rng(3)
    t = np.linspace(0.5, 5.0, 12)
    y = 4.0 * np.exp(-t / 1.7) + rng.normal(0, 0.01, t.size)
    pts = np.column_stack([t, y])
    shuffled = pts[rng.permutation(t.size)]
    for fitter in (fit_exponential, fit_linear, fit_quadratic):
        a = fitter(pts)
        b = fitter(shuffled)
        assert a.params == b.params and a.rmse == b.rmse


def test_better_model_has_higher_r_squared():
    rng = np.random.default_rng(8)
    t = np.linspace(0.5, 5.0, 20)
    y = 5.0 * np.exp(-t / 1.2) + rng.normal(0, 0.05, t.size)
    pts = np.column_stack([t, y])
    fits = sorted([fit_exponential(pts), fit_linear(pts)], key=lambda f: f.rmse)
    assert fits[0].r_squared >= fits[1].r_squared
