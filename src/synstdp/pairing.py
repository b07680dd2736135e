"""Net device potential for one pre/post spike pairing.

Convention: the pre-synaptic spike fires at t = 0, the post-synaptic spike
at t = delta_t (delta_t = t_post - t_pre).  The potential across device i is

    V_i(t) = post(t - delta_t) - alpha_i * pre(t - delay_i)

so a positive peak drives SET (potentiation for pre-before-post) and a
negative peak drives RESET.  With pair_only the potential is evaluated only
where both spikes are simultaneously nonzero, which suppresses lone-spike
disturb events.

Peaks are extracted exactly: extrema of a piecewise-linear potential sit at
piece boundaries of either (shifted) waveform, so candidates are one-sided
limits at those boundaries; grid samples are added only for shapes with
curved pieces.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dendrite import DendriteBank
from .device import DeviceModel, reset_probability, set_probability
from .waveforms import SpikeWaveform


@dataclass(frozen=True)
class PairingGeometry:
    pre: SpikeWaveform
    post: SpikeWaveform
    bank: DendriteBank
    device: DeviceModel
    dt_step: float = 0.01
    pair_only: bool = True
    amp_noise_sigma: float = 0.0  # per-pairing amplitude noise (relative)

    def __post_init__(self):
        if self.dt_step <= 0.0:
            raise ValueError(f"dt_step: must be positive, got {self.dt_step}")
        cap = min(self.pre.tau_minus, self.post.tau_minus) / 10.0
        if self.dt_step > cap + 1e-15:
            raise ValueError(
                f"dt_step {self.dt_step} too coarse; must be <= min(tau_minus)/10 = {cap}")
        if self.amp_noise_sigma < 0.0:
            raise ValueError(f"amp_noise_sigma: must be >= 0, got {self.amp_noise_sigma}")


@dataclass(frozen=True)
class BranchDrive:
    """Polarity peaks of a branch's potential and the resulting switch odds:
    floats for one branch, or arrays of shape (..., n) over the branches of
    a bank (see `branch_drives`).  The odds are evaluated on first use, so a
    per-epoch drive that only feeds `switch_draws` never evaluates the law at
    every entry."""
    v_max: float
    t_max: float
    v_min: float
    t_min: float
    device: DeviceModel

    @cached_property
    def p_set(self):
        return set_probability(self.device, self.v_max)

    @cached_property
    def p_reset(self):
        return reset_probability(self.device, self.v_min)

    @property
    def reset_later(self):
        """True where the RESET peak occurs at or after the SET peak."""
        return self.t_min >= self.t_max


@dataclass(frozen=True)
class CandidateTable:
    """Candidate extremum locations of one (branch, delta_t) pairing: only
    the candidates where the potential is evaluated (both spikes present
    with pair_only, either without), so a branch whose spikes never meet
    has an empty table.

    `post_v`/`pre_v` hold the one-sided values of the post spike and the
    attenuated+delayed pre spike; rescaling either spike only rescales these
    columns, so noisy peaks are re-derived from the same table.
    Candidates are sorted by time (ties: left limit first), hence argmax /
    argmin pick the earliest extremum.
    """
    t: np.ndarray
    post_v: np.ndarray
    pre_v: np.ndarray

    def peaks(self, s_pre=1.0, s_post=1.0):
        """(v_max, t_max, v_min, t_min) with both spikes rescaled, each shaped
        like the broadcast scales; a peak's time is 0 where the peak is 0."""
        s_pre, s_post = np.broadcast_arrays(np.asarray(s_pre, dtype=float),
                                            np.asarray(s_post, dtype=float))
        if not self.t.size:
            return tuple(np.zeros(s_pre.shape) for _ in range(4))
        v = s_post[..., None] * self.post_v - s_pre[..., None] * self.pre_v
        imax = np.argmax(v, axis=-1)[..., None]
        imin = np.argmin(v, axis=-1)[..., None]
        v_max = np.take_along_axis(v, imax, -1)[..., 0]
        v_min = np.take_along_axis(v, imin, -1)[..., 0]
        t_max = np.where(v_max > 0.0, self.t[imax[..., 0]], 0.0)
        t_min = np.where(v_min < 0.0, self.t[imin[..., 0]], 0.0)
        return np.maximum(v_max, 0.0), t_max, np.minimum(v_min, 0.0), t_min


def candidate_tables(g: PairingGeometry, delta_t: float) -> list[CandidateTable]:
    """Candidate tables of all n branches at offset delta_t, built in one
    array pass: every branch's edges (both sides) and curved-piece grid are
    concatenated, each spike is evaluated once over all of them, and the
    candidates that count are split per branch."""
    n = g.bank.n
    alphas = np.asarray(g.bank.alphas, dtype=float)
    delays = np.asarray(g.bank.delays, dtype=float)
    pre_lo, pre_hi = g.pre.support()
    post_lo, post_hi = g.post.support()
    pre_lo, pre_hi = pre_lo + delays, pre_hi + delays
    post_lo, post_hi = post_lo + delta_t, post_hi + delta_t
    if g.pair_only:
        lo, hi = np.maximum(pre_lo, post_lo), np.minimum(pre_hi, post_hi)
    else:
        lo, hi = np.minimum(pre_lo, post_lo), np.maximum(pre_hi, post_hi)
    live = lo < hi

    # per branch: pre edges, then post edges, each at side -1 then +1
    pre_bp, post_bp = g.pre.breakpoints(), g.post.breakpoints() + delta_t
    edges = np.concatenate([pre_bp + delays[:, None],
                            np.broadcast_to(post_bp, (n, post_bp.size))], axis=1)
    keep = live[:, None] & (edges >= lo[:, None] - 1e-12) & (edges <= hi[:, None] + 1e-12)
    rows = np.nonzero(keep)[0]
    branch = np.repeat(rows, 2)
    t = np.repeat(edges[keep], 2)
    side = np.tile([-1, +1], rows.size)
    if g.pre.has_curved_pieces() or g.post.has_curved_pieces():
        # the grid of a live branch: the multiples k*dt_step in [lo, hi],
        # where an end within 1e-9 steps of a multiple counts as on it
        k0 = np.ceil(lo / g.dt_step - 1e-9).astype(np.int64)
        k1 = np.floor(hi / g.dt_step + 1e-9).astype(np.int64)
        size = np.where(live, np.maximum(k1 - k0 + 1, 0), 0)
        k = np.arange(size.sum()) + np.repeat(k0 - (np.cumsum(size) - size), size)
        branch = np.concatenate([branch, np.repeat(np.arange(n), size)])
        t = np.concatenate([t, k * g.dt_step])
        side = np.concatenate([side, np.ones(k.size, dtype=side.dtype)])
    # stable: equal (branch, t, side) keys keep the order they were added in
    order = np.lexsort((side, t, branch))
    branch, t, side = branch[order], t[order], side[order]

    post_v, post_in = g.post.limits_with_support(t - delta_t, side)
    pre_v, pre_in = g.pre.limits_with_support(t - delays[branch], side)
    # membership, not value: a spike decaying continuously to zero is still
    # present at its support edge, so the limit there stands for the supremum
    evaluated = (post_in & pre_in) if g.pair_only else (post_in | pre_in)
    branch, t, post_v, pre_v = (x[evaluated] for x in (branch, t, post_v, pre_v))
    pre_v = alphas[branch] * pre_v

    ends = np.cumsum(np.bincount(branch, minlength=n)).tolist()
    return [CandidateTable(t=t[start:end], post_v=post_v[start:end], pre_v=pre_v[start:end])
            for start, end in zip([0, *ends], ends)]


def branch_drives(g: PairingGeometry, tables: list[CandidateTable],
                  s_pre=1.0, s_post=1.0) -> BranchDrive:
    """Drives of all branches of one offset from their candidate tables, as
    one BranchDrive of (..., n) arrays; the scales broadcast to the leading
    shape (one entry per epoch or quadrature node under amplitude noise)."""
    v_max, t_max, v_min, t_min = (np.stack(x, axis=-1) for x in
                                  zip(*(tbl.peaks(s_pre, s_post) for tbl in tables)))
    return BranchDrive(v_max=v_max, t_max=t_max, v_min=v_min, t_min=t_min, device=g.device)


def all_branch_drives(g: PairingGeometry, delta_t: float,
                      s_pre: float = 1.0, s_post: float = 1.0) -> list[BranchDrive]:
    """Per-branch drives at offset delta_t, one scalar BranchDrive per branch."""
    d = branch_drives(g, candidate_tables(g, delta_t), s_pre, s_post)
    return [BranchDrive(*map(float, row), device=g.device) for row in
            zip(d.v_max, d.t_max, d.v_min, d.t_min)]
