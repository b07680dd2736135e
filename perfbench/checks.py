"""Output checks for the synstdp benchmark, shared by run.py and trace_child.py.

The checks are an independent reading of the files a CLI run leaves behind;
they never import synstdp, so a defect in the package cannot hide itself.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

STATES_SUM_TOL = 1e-9   # states rows sum to 1 within this
LRS_SIGMAS = 6.0        # |delta_g| <= n * (1 + 6 sigma_lrs)
MC_Z_LIMIT = 4.0        # the validate rule: MC mean within 4 s / sqrt(N) ...
MC_OUTLIERS_ALLOWED = 1  # ... at all but one offset


def _rows(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def mc_agreement(delta_g: np.ndarray, analytic: np.ndarray) -> tuple[int, float]:
    """(outliers, max_z) of the per-offset MC mean against the analytic curve,
    by the rule `synstdp validate` applies: z = |mean - analytic| / (s / sqrt(N))
    with the sample std s (ddof=1).  A zero-variance offset is an outlier when
    it misses the analytic value by more than 1e-12; it takes no part in max_z."""
    epochs = delta_g.shape[1]
    mean = delta_g.mean(axis=1)
    std = delta_g.std(axis=1, ddof=1) if epochs > 1 else np.zeros(len(mean))
    diff = np.abs(mean - analytic)
    live = std > 0
    z = diff[live] / (std[live] / np.sqrt(epochs))
    outliers = int(np.sum(z > MC_Z_LIMIT)) + int(np.sum(diff[~live] > 1e-12))
    return outliers, float(z.max()) if z.size else 0.0


def check_states(path: Path, points: int, branches: int) -> list[str]:
    rows = _rows(path)
    if rows.shape != (points * (branches + 1), 3):
        return [f"{path.name}: {rows.shape[0]} rows, expected {points * (branches + 1)}"]
    probs = rows[:, 2].reshape(points, branches + 1)
    problems = []
    worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
    if worst > STATES_SUM_TOL:
        problems.append(f"{path.name}: a row sums to 1 {worst:+.3g}")
    if probs.min() < 0.0 or probs.max() > 1.0:
        problems.append(f"{path.name}: probability outside [0, 1]")
    return problems


def check_outputs(out: Path, command: str, points: int, epochs: int, branches: int,
                  sigma_lrs: float, gate_mc: bool) -> tuple[list[str], dict]:
    """(problems, info) for one CLI output directory.  `info` carries the
    MC-vs-analytic outliers and max z of window runs; they are problems only
    when `gate_mc` is set."""
    out = Path(out)
    svg = "window.svg" if command == "window" else "states.svg"
    if not (out / svg).is_file():
        return [f"{svg} missing"], {}
    try:
        problems = check_states(out / "states.csv", points, branches)
        if command != "window":
            return problems, {}
        rows = _rows(out / "window.csv")
        mean_rows = _rows(out / "mean.csv")
    except (OSError, ValueError) as e:
        return [f"unreadable output: {e}"], {}
    if rows.shape != (points * epochs, 5):
        return problems + [f"window.csv: {rows.shape[0] + 1} lines, expected "
                           f"{points * epochs + 1} (P x E + header)"], {}
    if mean_rows.shape != (points, 4):
        return problems + [f"mean.csv: {mean_rows.shape[0]} rows, expected {points}"], {}
    delta_g = rows[:, 2].reshape(points, epochs)
    bound = branches * (1.0 + LRS_SIGMAS * sigma_lrs)
    worst = float(np.abs(delta_g).max())
    if worst > bound + 1e-12:
        problems.append(f"window.csv: |delta_g| {worst} exceeds {bound}")
    outliers, max_z = mc_agreement(delta_g, mean_rows[:, 3])
    if gate_mc and outliers > MC_OUTLIERS_ALLOWED:
        problems.append(f"MC vs analytic: {outliers} offsets beyond "
                        f"{MC_Z_LIMIT:g} s/sqrt(N), at most {MC_OUTLIERS_ALLOWED} allowed")
    return problems, {"mc_outliers": outliers, "mc_max_z": max_z}
