"""Model fits and summaries for STDP window curves.

The shape classification of a window side is done by competing an
exponential decay A*exp(-|dt|/tau) against a straight line on the same
points; fits operate on the analytic expectation by default so the
classification is deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_GN_ITERATIONS = 100
GN_STEP_TOL = 1e-9


@dataclass(frozen=True)
class FitResult:
    model: str                  # "exponential" | "linear" | "quadratic"
    params: dict
    rmse: float
    r_squared: float
    domain: tuple[float, float]
    converged: bool = True
    n_excluded: int = 0

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "params": dict(self.params),
            "rmse": self.rmse,
            "r2": self.r_squared,
            "domain": list(self.domain),
            "converged": self.converged,
            "n_excluded": self.n_excluded,
        }


def _as_xy(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be a sequence of (delta_t, value) pairs")
    order = np.argsort(pts[:, 0])
    return pts[order, 0], pts[order, 1]


def _r_squared(y, pred) -> float:
    sse = float(np.sum((y - pred) ** 2))
    sst = float(np.sum((y - np.mean(y)) ** 2))
    if sst == 0.0:
        return 1.0 if sse < 1e-24 else 0.0
    return 1.0 - sse / sst


def _fit(model: str, params: dict, x, y, pred, **flags) -> FitResult:
    """The FitResult of the prediction pred of y, fitted over the offsets x."""
    return FitResult(model=model, params=params, rmse=float(np.sqrt(np.mean((pred - y) ** 2))),
                     r_squared=_r_squared(y, pred), domain=(float(x.min()), float(x.max())),
                     **flags)


def fit_exponential(points) -> FitResult:
    """Least-squares A*exp(-|dt|/tau) on |value|, for points whose delta_t all
    share one sign.  Log-linear regression seeds (A, tau); Gauss-Newton then
    refines on the original scale until the relative step drops below 1e-9 or
    100 iterations, in which case the best iterate is returned unconverged.
    Nonpositive |value| points are excluded (counted in n_excluded)."""
    x, y = _as_xy(points)
    if x.size < 3:
        raise ValueError(f"exponential fit needs >= 3 points, got {x.size}")
    if np.any(x > 0) and np.any(x < 0):
        raise ValueError("exponential fit needs delta_t of a single sign")
    nz = y[y != 0.0]
    if nz.size and np.any(nz > 0) and np.any(nz < 0):
        raise ValueError("exponential fit needs values of a single sign")
    ax, ay = np.abs(x), np.abs(y)
    keep = ay > 0.0
    n_excluded = int((~keep).sum())
    ax, ay = ax[keep], ay[keep]
    if ax.size < 3:
        raise ValueError("fewer than 3 usable points after excluding nonpositive values")

    slope, intercept = np.polyfit(ax, np.log(ay), 1)
    a = math.exp(intercept)
    tau = -1.0 / slope if slope < 0 else 1e6  # non-decaying data: start huge

    def sse(a_, tau_):
        return float(np.sum((a_ * np.exp(-ax / tau_) - ay) ** 2))

    converged = False
    best = (a, tau, sse(a, tau))
    for _ in range(MAX_GN_ITERATIONS):
        e = np.exp(-ax / tau)
        r = a * e - ay
        jac = np.column_stack([e, a * ax / tau ** 2 * e])
        try:
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        except np.linalg.LinAlgError:
            break
        # backtrack to keep tau positive and the objective nonincreasing
        scale = 1.0
        cur = sse(a, tau)
        for _ in range(40):
            a_new, tau_new = a + scale * step[0], tau + scale * step[1]
            if tau_new > 0 and a_new > 0 and sse(a_new, tau_new) <= cur:
                break
            scale *= 0.5
        else:
            break
        a, tau = a + scale * step[0], tau + scale * step[1]
        if sse(a, tau) < best[2]:
            best = (a, tau, sse(a, tau))
        rel = np.abs(scale * step) / np.maximum(np.abs([a, tau]), 1e-300)
        if rel.max() < GN_STEP_TOL:
            converged = True
            break
    a, tau, _ = best
    return _fit("exponential", {"A": float(a), "tau": float(tau)}, x, ay,
                a * np.exp(-ax / tau), converged=converged, n_excluded=n_excluded)


def fit_linear(points) -> FitResult:
    """Ordinary least squares line, exact closed form."""
    x, y = _as_xy(points)
    if x.size < 2:
        raise ValueError(f"linear fit needs >= 2 points, got {x.size}")
    if np.all(x == x[0]):
        raise ValueError("linear fit needs at least two distinct delta_t")
    slope, intercept = np.polyfit(x, y, 1)
    return _fit("linear", {"slope": float(slope), "intercept": float(intercept)}, x, y,
                slope * x + intercept)


def fit_quadratic(points) -> FitResult:
    """Least-squares quadratic, reported as value = a - b*dt + c*dt^2."""
    x, y = _as_xy(points)
    if np.unique(x).size < 3:
        raise ValueError("quadratic fit needs >= 3 distinct delta_t")
    design = np.column_stack([np.ones_like(x), -x, x * x])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 3:
        raise ValueError("rank-deficient design for quadratic fit")
    a, b, c = (float(v) for v in coef)
    return _fit("quadratic", {"a": a, "b": b, "c": c}, x, y, design @ coef)

