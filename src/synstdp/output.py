"""Result serialization: CSV files and self-contained SVG scatter plots.

Floats are written with shortest round-trip representation so re-parsing
reproduces the in-memory values exactly; row order is fixed (delta_t
ascending, then epoch / state index), making output byte-stable.
"""
from __future__ import annotations

from contextlib import nullcontext
from functools import lru_cache
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from .montecarlo import StdpWindow


def _floats(a) -> list[float]:
    """Python floats of an array: their repr is the shortest round-trip form."""
    return np.asarray(a, dtype=float).tolist()


@lru_cache(maxsize=2)  # window.csv's epochs and states.csv's states
def _indices(n: int) -> list[str]:
    """The ",i," middles of rows numbered 0..n-1 within one offset."""
    return [f",{i}," for i in range(n)]


def _offset_rows(job) -> str:
    """The window.csv rows of one offset as one string, job = (delta_t,
    delta_g, n_set, n_reset) with one entry per epoch.  A row is four slots:
    the offset, the ",epoch," middle, the repr of delta_g, and the
    ",n_set,n_reset" tail, looked up in a table of every pair of counts up to
    the largest ones, or formatted per row where that table would hold more
    entries than there are rows."""
    dt, delta_g, n_set, n_reset = job
    epochs = len(delta_g)
    sets, resets = int(n_set.max()) + 1, int(n_reset.max()) + 1
    parts = [""] * (4 * epochs)
    parts[0::4] = [repr(dt)] * epochs
    parts[1::4] = _indices(epochs)
    parts[2::4] = map(repr, _floats(delta_g))
    if sets * resets <= epochs:
        tails = np.array([f",{s},{r}\n" for s in range(sets) for r in range(resets)], dtype=object)
        parts[3::4] = tails[n_set * resets + n_reset].tolist()
    else:
        parts[3::4] = map(",{},{}\n".format, n_set.tolist(), n_reset.tolist())
    return "".join(parts)


def write_window_csv(w: StdpWindow, out_dir: str | Path, workers: int = 1) -> dict[str, Path]:
    """Write window.csv (per-epoch outcomes), mean.csv (per-point stats) and
    states.csv (switching-count probabilities) into out_dir.

    Each offset's window.csv rows are built as one string and written at
    once, so the whole file is never held in memory.  With workers > 1 a
    fork pool of at most one process per offset builds them, and they are
    written in grid order as they arrive: the bytes do not depend on the
    worker count."""
    out = Path(out_dir)
    jobs = ((dt, w.delta_g[k], w.n_set[k], w.n_reset[k])
            for k, dt in enumerate(_floats(w.delta_t)))
    workers = min(workers, w.delta_t.size)
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = {}

        p = out / "window.csv"
        with p.open("w", encoding="utf-8", newline="\n") as f, \
                (get_context("fork").Pool(workers) if workers > 1 else nullcontext()) as pool:
            f.write("delta_t,epoch,delta_g_norm,n_set,n_reset\n")
            for rows in (pool.imap(_offset_rows, jobs) if pool else map(_offset_rows, jobs)):
                f.write(rows)
        paths["window"] = p

        p = out / "mean.csv"
        with p.open("w", encoding="utf-8", newline="\n") as f:
            f.write("delta_t,mc_mean,mc_std,analytic\n")
            mean = _floats([row.mean() for row in w.delta_g])
            std = _floats([row.std() for row in w.delta_g])
            f.write("".join([f"{dt!r},{m!r},{s!r},{a!r}\n" for dt, m, s, a in
                             zip(_floats(w.delta_t), mean, std, _floats(w.analytic))]))
        paths["mean"] = p

        paths["states"] = write_states_csv(w.delta_t, w.states, out / "states.csv")
        return paths
    except OSError as e:
        raise OSError(f"cannot write results under {out}: {e}") from None


def read_mean_csv(path: str | Path):
    """(delta_t, mc_mean, mc_std, analytic) arrays from a mean.csv file; a
    file without rows, or with a row that is not four numbers, is a
    ValueError that names the file and the line."""
    rows = []
    with Path(path).open(encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        if header != ["delta_t", "mc_mean", "mc_std", "analytic"]:
            raise ValueError(f"{path}: unexpected header {header}")
        for lineno, line in enumerate(f, start=2):
            fields = line.strip().split(",")
            if len(fields) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(fields)}")
            try:
                rows.append([float(v) for v in fields])
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    arr = np.asarray(rows)
    return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]


_W, _H = 800.0, 500.0
_ML, _MR, _MT, _MB = 60.0, 20.0, 20.0, 45.0


def _frame(delta_t: np.ndarray):
    """(x_lo, x_hi, sx, parts) of a plot over the offsets delta_t: the x range,
    widened around a single offset, its scale, and the opening SVG lines."""
    if delta_t.size == 0:
        raise ValueError("empty window")
    x_lo, x_hi = float(delta_t.min()), float(delta_t.max())
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    return x_lo, x_hi, sx, [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W:g}" height="{_H:g}" '
        f'viewBox="0 0 {_W:g} {_H:g}">',
        f'<rect width="{_W:g}" height="{_H:g}" fill="white"/>',
    ]


def _close(parts: list[str], y_label: str) -> str:
    """The SVG text of parts with both axis labels and the closing tag added."""
    parts.append(f'<text x="{(_ML + _W - _MR) / 2:.2f}" y="{_H - 8:g}" font-size="12" '
                 f'text-anchor="middle">relative spike timing &#916;t (time units)</text>')
    parts.append(f'<text x="14" y="{(_MT + _H - _MB) / 2:.2f}" font-size="12" text-anchor="middle" '
                 f'transform="rotate(-90 14 {(_MT + _H - _MB) / 2:.2f})">{y_label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _xticks(lo: float, hi: float):
    span = hi - lo
    step = 1.0 if span <= 15 else 2.0 if span <= 30 else 5.0
    t = np.ceil(lo / step) * step
    out = []
    while t <= hi + 1e-9:
        out.append(round(t, 9))
        t += step
    return out


def write_svg_scatter(w: StdpWindow, level_bin: float = 1.0) -> str:
    """Standalone SVG of the window: one dot per (delta_t, binned outcome)
    with opacity proportional to outcome frequency, analytic curve overlaid."""
    x_lo, x_hi, sx, parts = _frame(w.delta_t)
    y_abs = max(w.max_abs_delta_g, float(np.abs(w.analytic).max()), 1.0)
    y_lo, y_hi = -1.05 * y_abs, 1.05 * y_abs

    def sy(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    # dots, grouped per (point, binned level)
    parts.append('<g fill="#d62728">')
    for k, dt in enumerate(w.delta_t):
        levels, counts = np.unique(np.round(w.delta_g[k] / level_bin) * level_bin,
                                   return_counts=True)
        cmax = counts.max()
        for lvl, cnt in zip(levels, counts):
            op = cnt / cmax
            parts.append(f'<circle cx="{sx(dt):.2f}" cy="{sy(lvl):.2f}" r="2.5" '
                         f'fill-opacity="{op:.4f}"/>')
    parts.append("</g>")

    pts = " ".join(f"{sx(dt):.2f},{sy(a):.2f}" for dt, a in zip(w.delta_t, w.analytic))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>')

    # axes
    ax_y = sy(0.0) if y_lo <= 0.0 <= y_hi else _H - _MB
    parts.append(f'<line x1="{_ML:g}" y1="{ax_y:.2f}" x2="{_W - _MR:g}" y2="{ax_y:.2f}" '
                 f'stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{sx(0.0):.2f}" y1="{_MT:g}" x2="{sx(0.0):.2f}" y2="{_H - _MB:g}" '
                 f'stroke="black" stroke-width="1"/>' if x_lo <= 0.0 <= x_hi else
                 f'<line x1="{_ML:g}" y1="{_MT:g}" x2="{_ML:g}" y2="{_H - _MB:g}" '
                 f'stroke="black" stroke-width="1"/>')
    for t in _xticks(x_lo, x_hi):
        parts.append(f'<line x1="{sx(t):.2f}" y1="{_H - _MB:g}" x2="{sx(t):.2f}" '
                     f'y2="{_H - _MB + 5:g}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{sx(t):.2f}" y="{_H - _MB + 17:g}" font-size="10" '
                     f'text-anchor="middle">{t:g}</text>')
    y_step = max(1.0, round(y_abs / 4))
    t = -np.floor(y_abs / y_step) * y_step
    while t <= y_abs + 1e-9:
        parts.append(f'<line x1="{_ML - 5:g}" y1="{sy(t):.2f}" x2="{_ML:g}" y2="{sy(t):.2f}" '
                     f'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_ML - 8:g}" y="{sy(t) + 3:.2f}" font-size="10" '
                     f'text-anchor="end">{t:g}</text>')
        t += y_step
    return _close(parts, "normalized conductance change &#916;G&#183;R_ON")


_STATE_COLORS = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
                 "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]


def write_states_csv(delta_t, states, path: str | Path) -> Path:
    """states.csv from bare arrays (used by both the window and statedist runs)."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w", encoding="utf-8", newline="\n") as f:
        f.write("delta_t,state_index,probability\n")
        indices = _indices(states.shape[1])
        for k, dt in enumerate(_floats(delta_t)):
            dts = repr(dt)
            f.write("".join([f"{dts}{s}{q!r}\n" for s, q in zip(indices, _floats(states[k]))]))
    return p


def write_svg_states(delta_t, states) -> str:
    """SVG of per-state occupancy probability versus offset, one polyline per
    switching-count state."""
    delta_t = np.asarray(delta_t, dtype=float)
    states = np.asarray(states, dtype=float)
    x_lo, x_hi, sx, parts = _frame(delta_t)

    def sy(p):
        return _H - _MB - p * (_H - _MT - _MB)

    for s in range(states.shape[1]):
        color = _STATE_COLORS[s % len(_STATE_COLORS)]
        pts = " ".join(f"{sx(dt):.2f},{sy(p):.2f}" for dt, p in zip(delta_t, states[:, s]))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>')
    parts.append(f'<line x1="{_ML:g}" y1="{_H - _MB:g}" x2="{_W - _MR:g}" y2="{_H - _MB:g}" '
                 f'stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{_ML:g}" y1="{_MT:g}" x2="{_ML:g}" y2="{_H - _MB:g}" '
                 f'stroke="black" stroke-width="1"/>')
    for t in _xticks(x_lo, x_hi):
        parts.append(f'<text x="{sx(t):.2f}" y="{_H - _MB + 17:g}" font-size="10" '
                     f'text-anchor="middle">{t:g}</text>')
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(f'<text x="{_ML - 8:g}" y="{sy(p) + 3:.2f}" font-size="10" '
                     f'text-anchor="end">{p:g}</text>')
    return _close(parts, "state probability")
