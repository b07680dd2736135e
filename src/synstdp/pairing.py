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
from .waveforms import EDGE_SNAP_TOL, SpikeWaveform


@dataclass(frozen=True)
class PairingGeometry:
    pre: SpikeWaveform
    post: SpikeWaveform
    bank: DendriteBank
    device: DeviceModel
    dt_step: float = 0.01  # grid step over curved pieces; unread without them
    pair_only: bool = True
    amp_noise_sigma: float = 0.0  # per-pairing amplitude noise (relative)

    def __post_init__(self):
        if self.dt_step <= 0.0:
            raise ValueError(f"dt_step: must be positive, got {self.dt_step}")
        cap = min(self.pre.tau_minus, self.post.tau_minus) / 10.0
        if self.dt_step > cap + 1e-15 and any(w.has_curved_pieces() for w in (self.pre, self.post)):
            raise ValueError(f"dt_step: must be <= min(tau_minus)/10 = {cap} "
                             f"for a curved spike, got {self.dt_step}")
        if self.amp_noise_sigma < 0.0:
            raise ValueError(f"amp_noise_sigma: must be >= 0, got {self.amp_noise_sigma}")


@dataclass(frozen=True)
class BranchDrive:
    """Polarity peaks of a branch's potential, whether the RESET peak comes
    at or after the SET peak (so RESET acts last, winning a tie), and the
    resulting switch odds: floats for one branch, or arrays of shape (..., n)
    over the branches of a bank (see `branch_drives`).  The odds are
    evaluated on first use, so a per-epoch drive that only feeds
    `switch_draws` never evaluates the law at every entry."""
    v_max: float
    v_min: float
    reset_later: bool
    device: DeviceModel

    @cached_property
    def p_set(self):
        return set_probability(self.device, self.v_max)

    @cached_property
    def p_reset(self):
        return reset_probability(self.device, self.v_min)


@dataclass(frozen=True)
class CandidateTable:
    """Candidate extremum locations of a bank's branches at one offset, as
    (C, n) arrays: column i holds branch i's counts[i] candidates where the
    potential is evaluated (both spikes present with pair_only, either
    without), then copies of its first candidate up to C rows, the longest
    column's length (at least 1).  A branch whose spikes never meet has an
    all-zero column, a potential of 0 throughout.

    `post_v`/`pre_v` hold the one-sided values of the post spike and the
    attenuated+delayed pre spike; rescaling either spike only rescales these
    columns, so noisy peaks are re-derived from the same table.
    A column's candidates are sorted by time (ties: left limit first), hence
    the first-index tie rule of `branch_drives` picks the earliest extremum,
    and the padding, equal to the first candidate, never replaces it.
    """
    t: np.ndarray
    post_v: np.ndarray
    pre_v: np.ndarray
    counts: np.ndarray


def candidate_tables(g: PairingGeometry, delta_t: float) -> CandidateTable:
    """Candidate table of all n branches at offset delta_t, built in one
    array pass: every branch's edges (both sides) and curved-piece grid are
    concatenated, each spike is evaluated once over all of them, and the
    candidates that count are laid out one column per branch."""
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
        # where an end within 1e-9 steps of a multiple counts as on it, but
        # none in a gap between two supports that do not meet, where nothing
        # is evaluated.  So two runs of k: to the end of the earlier support,
        # and from the start of the later one (past the first run where they
        # meet), each widened by twice the edge snap, as a time that near an
        # edge counts as on it
        pad = 2.0 * EDGE_SNAP_TOL
        k0 = np.ceil(lo / g.dt_step - 1e-9)
        k1 = np.floor(hi / g.dt_step + 1e-9)
        end = np.minimum(np.floor((np.minimum(pre_hi, post_hi) + pad) / g.dt_step + 1e-9), k1)
        start = np.ceil((np.maximum(pre_lo, post_lo) - pad) / g.dt_step - 1e-9)
        k0 = np.concatenate([k0, np.maximum(start, end + 1)]).astype(np.int64)
        k1 = np.concatenate([end, k1]).astype(np.int64)
        size = np.where(np.tile(live, 2), np.maximum(k1 - k0 + 1, 0), 0)
        k = np.arange(size.sum()) + np.repeat(k0 - (np.cumsum(size) - size), size)
        branch = np.concatenate([branch, np.repeat(np.tile(np.arange(n), 2), size)])
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

    # row r of column i is branch i's candidate r, or its first candidate past
    # the last one; an empty column reads the 0.0 appended after all of them
    counts = np.bincount(branch, minlength=n)
    first = np.cumsum(counts) - counts
    row = np.arange(max(counts.max(), 1))[:, None]
    at = np.where(counts > 0, first + np.where(row < counts, row, 0), branch.size)
    t, post_v, pre_v = (np.append(x, 0.0)[at] for x in (t, post_v, pre_v))
    return CandidateTable(t=t, post_v=post_v, pre_v=pre_v, counts=counts)


# Floats in one block of candidate potentials, (B, n, leading), in the scan
# of branch_drives: 512 kB, about what a core's L2 cache holds.  A per-epoch
# drive under amplitude noise (4,000 epochs x 16 branches = 64,000 floats a
# candidate) then steps one candidate at a time with no block reduction.  A
# scalar call takes one block up to 4,096 candidates a branch of 16 (bio
# columns hold at most 754), so no per-candidate Python loop runs; the 144
# quadrature nodes take 28 candidates a block (one block for the
# piecewise-linear shapes, at most 8 candidates a branch).
_SCAN_ELEMENTS = 2**16


def branch_drives(g: PairingGeometry, table: CandidateTable,
                  s_pre=1.0, s_post=1.0) -> BranchDrive:
    """Drives of all branches of one offset from its candidate table, as
    one BranchDrive of (..., n) arrays; the scales broadcast to the leading
    shape (one entry per epoch or quadrature node under amplitude noise).
    The arrays are transposed views of branch-major memory, so a drive's
    .T is a contiguous (n, ...) array.

    Each candidate's potential is s_post post_v - s_pre pre_v.  The table
    is scanned in blocks of candidates, branch-major so that the innermost
    axis is the long leading one.  For each extremum the scan keeps the
    time rank of its first candidate, the number of distinct earlier times
    in its column: a block's extrema replace the running ones only where
    they are strictly beyond them, so a tie keeps the earliest candidate.
    RESET acts last where its rank is at or above SET's.  The running
    extrema are kept with np.maximum / np.minimum, which may settle a tie of
    0.0 and -0.0 either way; the final clamp against 0.0 gives the same
    zero for both."""
    s_pre, s_post = np.broadcast_arrays(np.asarray(s_pre, dtype=float),
                                        np.asarray(s_post, dtype=float))
    lead = s_pre.shape
    count, n = table.t.shape
    # equal times share a rank; the padding drops back to the first time, so
    # it keeps the column's last rank (and never wins the scan)
    rank = np.zeros((count, n), dtype=np.min_scalar_type(count))
    np.cumsum(np.diff(table.t, axis=0) > 0.0, axis=0, dtype=rank.dtype, out=rank[1:])
    branch = np.arange(n)[:, None]
    s_pre, s_post = s_pre.reshape(1, 1, -1), s_post.reshape(1, 1, -1)
    step = max(1, _SCAN_ELEMENTS // max(s_pre.size * n, 1))
    v = np.empty((min(step, count), n, s_pre.size))
    scaled_pre = np.empty_like(v)
    found = []  # [running extremum, its rank], (n, leading), for the max and the min
    for c0 in range(0, count, step):
        vb, pb = v[:count - c0], scaled_pre[:count - c0]
        np.multiply(s_post, table.post_v[c0:c0 + step, :, None], out=vb)
        np.subtract(vb, np.multiply(s_pre, table.pre_v[c0:c0 + step, :, None], out=pb), out=vb)
        for k, (ufunc, beyond) in enumerate(((np.maximum, np.greater), (np.minimum, np.less))):
            if len(vb) == 1:
                ext, r = vb[0], rank[c0, :, None]
            else:
                ext = ufunc.reduce(vb, axis=0)
                r = rank[c0 + np.argmax(vb == ext, axis=0), branch]
            if c0 == 0:  # copies: the buffer is refilled by the next block
                found.append([ext.copy(), np.full(ext.shape, r, dtype=rank.dtype)])
                continue
            best, at = found[k]
            won = beyond(ext, best)
            ufunc(best, ext, out=best)
            # each rank of this block is at or above every rank recorded before it
            np.maximum(at, np.multiply(won, r, dtype=rank.dtype), out=at)
    # the (n, leading) results are handed out transposed, as (leading..., n)
    # views of branch-major memory
    (v_max, rank_max), (v_min, rank_min) = found
    v_max, v_min, reset_later = (a.T.reshape(lead + (n,)) for a in (
        np.maximum(v_max, 0.0), np.minimum(v_min, 0.0), rank_min >= rank_max))
    return BranchDrive(v_max=v_max, v_min=v_min, reset_later=reset_later, device=g.device)


def all_branch_drives(g: PairingGeometry, delta_t: float,
                      s_pre: float = 1.0, s_post: float = 1.0) -> list[BranchDrive]:
    """Per-branch drives at offset delta_t, one scalar BranchDrive per branch."""
    d = branch_drives(g, candidate_tables(g, delta_t), s_pre, s_post)
    return [BranchDrive(*f, device=g.device)
            for f in zip(d.v_max.tolist(), d.v_min.tolist(), d.reset_later.tolist())]
