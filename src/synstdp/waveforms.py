"""Parametric spike waveforms.

Every waveform is a piecewise function of time built from a positive "head"
on [-tau_minus, 0) and a negative "tail" on [0, tau_plus).  One-sided limits
are available for exact peak extraction in the pairing engine.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

MAX_AMPLITUDE = 10.0  # volts; sanity cap for configuration input
EDGE_SNAP_TOL = 1e-9  # piece-edge snapping for one-sided limits


# half-rectangular/half-triangular, rectangular, double sawtooth, double
# exponential, bio-plausible
SHAPES = ("hrht", "rect", "sawtooth", "dexp", "bio")

# extras accepted per shape, with defaults
_EXTRAS = {
    "dexp": {"tau_head": 0.3, "tau_tail": 1.5},
    "bio": {"head_center": -0.2, "head_width": 0.3,
            "tail_center": 2.0, "tail_width": 1.5},
}


@dataclass(frozen=True)
class Piece:
    """One analytic segment [lo, hi) of a waveform."""
    lo: float
    hi: float
    func: Callable[[np.ndarray], np.ndarray]
    curved: bool = False  # True if extrema may fall strictly inside the piece


@dataclass(frozen=True)
class SpikeWaveform:
    """A spike shape with head amplitude a_plus and tail peak a_minus.

    The head occupies t in [-tau_minus, 0), the tail t in [0, tau_plus)
    (the bio shape extends slightly past both, see its pieces).  Values are
    volts, times are in normalized time units.  `extra` takes a mapping or
    (key, value) pairs of the shape's extra parameters; it is stored as
    sorted pairs with the shape's defaults filled in.
    """
    shape: str = "hrht"
    a_plus: float = 0.9
    a_minus: float = 0.4
    tau_minus: float = 1.0
    tau_plus: float = 5.0
    extra: tuple = ()

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"shape: unknown shape {self.shape!r}; expected one of {list(SHAPES)}")
        if not (0.0 < self.a_plus <= MAX_AMPLITUDE):
            raise ValueError(f"a_plus: must be in (0, {MAX_AMPLITUDE}] V, got {self.a_plus}")
        if not (0.0 <= self.a_minus <= MAX_AMPLITUDE):
            raise ValueError(f"a_minus: must be in [0, {MAX_AMPLITUDE}] V, got {self.a_minus}")
        if self.tau_minus <= 0.0:
            raise ValueError(f"tau_minus: must be positive, got {self.tau_minus}")
        if self.tau_plus <= 0.0:
            raise ValueError(f"tau_plus: must be positive, got {self.tau_plus}")
        extra = dict(_EXTRAS.get(self.shape, {}))
        unknown = dict(self.extra).keys() - extra.keys()
        if unknown:
            raise ValueError(f"extra: unknown keys {sorted(unknown)}")
        extra.update(self.extra)
        for key, val in extra.items():
            if (key.startswith("tau") or key.endswith("width")) and val <= 0.0:
                raise ValueError(f"extra.{key}: must be positive, got {val}")
        object.__setattr__(self, "extra", tuple(sorted(extra.items())))

    def pieces(self) -> list[Piece]:
        ap, am, tm, tp = self.a_plus, self.a_minus, self.tau_minus, self.tau_plus
        if self.shape == "hrht":
            return [
                Piece(-tm, 0.0, lambda t: np.full_like(t, ap, dtype=float)),
                Piece(0.0, tp, lambda t: -am * (1.0 - t / tp)),
            ]
        if self.shape == "rect":
            return [
                Piece(-tm, 0.0, lambda t: np.full_like(t, ap, dtype=float)),
                Piece(0.0, tp, lambda t: np.full_like(t, -am, dtype=float)),
            ]
        if self.shape == "sawtooth":
            return [
                Piece(-tm, 0.0, lambda t: ap * (1.0 + t / tm)),
                Piece(0.0, tp, lambda t: -am * (1.0 - t / tp)),
            ]
        if self.shape == "dexp":
            ex = dict(self.extra)
            th, tt = ex["tau_head"], ex["tau_tail"]
            return [
                Piece(-tm, 0.0, lambda t: ap * np.exp(t / th), curved=True),
                Piece(0.0, tp, lambda t: -am * np.exp(-t / tt), curved=True),
            ]
        if self.shape == "bio":
            ex = dict(self.extra)
            hc, hw = ex["head_center"], ex["head_width"]
            tc, tw = ex["tail_center"], ex["tail_width"]

            def bio(t):
                return ap * np.exp(-(((t - hc) / hw) ** 2)) - am * np.exp(-(((t - tc) / tw) ** 2))

            return [Piece(-tm - 0.5, tp + 1.0, bio, curved=True)]
        raise AssertionError(f"unhandled shape {self.shape}")

    def support(self) -> tuple[float, float]:
        """Interval outside which the waveform is exactly zero."""
        ps = self.pieces()
        return ps[0].lo, ps[-1].hi

    def breakpoints(self) -> np.ndarray:
        edges = set()
        for p in self.pieces():
            edges.add(p.lo)
            edges.add(p.hi)
        return np.array(sorted(edges))

    def has_curved_pieces(self) -> bool:
        return any(p.curved for p in self.pieces())

    def limits_with_support(self, t, side) -> tuple[np.ndarray, np.ndarray]:
        """One-sided limits at times t (side +1 approaches from above, -1
        from below), plus whether each (t, side) lies within the support.
        A tail decaying continuously to zero is still inside at its edge.
        Each piece's function is called once, on the times it owns."""
        t = np.asarray(t, dtype=float)
        from_above = np.broadcast_to(np.asarray(side) > 0, t.shape)
        pieces = self.pieces()
        # snap to a piece edge when within rounding distance, so that branch
        # delays or offsets carrying ~1e-16 representation error cannot open
        # phantom slivers of head/tail overlap; the snapped time only picks
        # the piece, whose function still sees the unsnapped t
        at = t.copy()
        unsnapped = np.ones(t.shape, dtype=bool)
        for edge in (e for p in pieces for e in (p.lo, p.hi)):
            near = unsnapped & (np.abs(t - edge) <= EDGE_SNAP_TOL)
            at[near] = edge
            unsnapped &= ~near
        values = np.zeros(t.shape)
        inside = np.zeros(t.shape, dtype=bool)
        for p in pieces:
            mine = ~inside & np.where(from_above, (p.lo <= at) & (at < p.hi),
                                      (p.lo < at) & (at <= p.hi))
            if mine.any():
                values[mine] = p.func(t[mine])
                inside |= mine
        return values, inside
