"""Result serialization: CSV files and self-contained SVG scatter plots.

Every result file reaches disk through `_write`, which makes its directory,
writes its bytes and names that directory in any OSError.  Floats are
written as their repr, the shortest round-trip representation, so re-parsing
reproduces the in-memory values exactly; row order is fixed (delta_t
ascending, then epoch / state index), making output byte-stable.  The rows
of all three CSV files come from one block writer, `_rows`, over the array
formatter `_dtoa`, which writes the same bytes as repr, in blocks of at most
65,536 rows, all in the main process.
"""
from __future__ import annotations

from itertools import chain
from pathlib import Path

import numpy as np

from . import _dtoa
from .montecarlo import StdpWindow


def _write(path: str | Path, blocks) -> Path:
    """The one way a result reaches disk: path's directory made, then the
    bytes blocks written to path in order as they come; an OSError is
    re-raised naming the directory."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as f:
            for block in blocks:
                f.write(block)
    except OSError as e:
        raise OSError(f"cannot write results under {path.parent}: {e}") from None
    return path


_BLOCK = 65_536  # rows formatted at once, so that no array outgrows a few MB


def _rows(columns: list):
    """The CSV rows of columns, in blocks of at most _BLOCK rows: a column is
    a bytes constant written on every row, or an array with one entry a row
    (its floats' repr, its integers' digits), laid out by `_dtoa`.  Arrays
    of different lengths are a ValueError that names them."""
    lengths = [len(c) for c in columns if not isinstance(c, bytes)]
    if len(set(lengths)) != 1:
        raise ValueError(f"CSV columns differ in length: {lengths}")
    n = lengths[0]
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        fields = []
        for c in columns:
            if not isinstance(c, bytes):
                c = (_dtoa.float_field if c.dtype.kind == "f" else _dtoa.uint_field)(c[s:e])
            fields += [c, b","]
        fields[-1] = b"\n"
        yield _dtoa.rows(fields)


def write_window_csv(w: StdpWindow, out_dir: str | Path) -> dict[str, Path]:
    """Write window.csv (per-epoch outcomes), mean.csv (per-point stats) and
    states.csv (switching-count probabilities) into out_dir.

    window.csv is streamed offset by offset, each offset's rows in `_rows`
    blocks, so the whole file is never held in memory."""
    out = Path(out_dir)
    heads = b"".join(_rows([w.delta_t])).splitlines()  # each offset's repr
    epoch = np.arange(w.epochs)
    paths = {"window": _write(out / "window.csv", chain(
        [b"delta_t,epoch,delta_g_norm,n_set,n_reset\n"],
        *(_rows([head, epoch, w.delta_g[k], w.n_set[k], w.n_reset[k]])
          for k, head in enumerate(heads))))}
    mean = np.array([row.mean() for row in w.delta_g])
    std = np.array([row.std() for row in w.delta_g])
    paths["mean"] = _write(out / "mean.csv", chain(
        [b"delta_t,mc_mean,mc_std,analytic\n"],
        _rows([w.delta_t, mean, std, w.analytic])))
    paths["states"] = write_states_csv(w.delta_t, w.states, out / "states.csv")
    return paths


def read_mean_csv(path: str | Path):
    """(delta_t, mc_mean, mc_std, analytic) arrays from a mean.csv file; a
    file without rows, or with a row that is not four finite numbers, is a
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
                row = [float(v) for v in fields]
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
            if not np.isfinite(row).all():
                raise ValueError(f"{path}:{lineno}: non-finite value in {line.strip()!r}")
            rows.append(row)
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
    """Ticks at the multiples in [lo, hi] of the first step of 1, 2, 5, 10,
    20, 50, ... 5e307 that spans hi - lo in at most 15 steps."""
    step = next(s for s in (m * 10.0**k for k in range(308) for m in (1.0, 2.0, 5.0))
                if hi - lo <= 15 * s)
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
    """states.csv from bare arrays (used by both the window and statedist runs);
    an OSError names the directory."""
    delta_t, states = np.asarray(delta_t, dtype=float), np.asarray(states, dtype=float)
    offsets, count = states.shape
    return _write(path, chain([b"delta_t,state_index,probability\n"], _rows(
        [np.repeat(delta_t, count), np.tile(np.arange(count), offsets), states.ravel()])))


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
