"""Monte Carlo sweep of the pairing offset producing full STDP windows.

Each grid point gets its own random substream (PCG64 seeded by the point's
index), so results are byte-identical for a given (config, seed) regardless
of execution order or worker count.  Per-epoch outcomes, the analytic expectation from the branch
switch probabilities, and the exact Poisson-binomial switching-count
distribution are recorded per point.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, partial
from multiprocessing import get_context

import numpy as np

from .device import LRS_SIGMAS, DeviceModel, switch_draws
from .pairing import PairingGeometry, branch_drives, candidate_tables
from .waveforms import MAX_TIME, MIN_TIME

_GH_POINTS = 12  # Gauss-Hermite order for amplitude-noise averaging
# Run-size bounds, checked when a WindowConfig is made; fig4d is 1.21e6 rows
# and 1.94e7 trials, and writes a 39 MB window.csv (32 B a row)
MAX_ROWS = 10**8  # offsets x epochs: 1.6 GB of result arrays, a 3.2 GB window.csv
MAX_TRIALS = 10**9  # offsets x epochs x branches
MAX_OFFSET_TRIALS = 10**7  # epochs x branches; the offset being sampled holds
#                            50-100 B a trial: 0.5-1 GB per worker
MAX_WORKERS = 256  # processes of one fork pool


INIT_KINDS = ("split", "all_off", "all_on", "random")


@dataclass(frozen=True)
class InitPolicy:
    kind: str = "split"
    q: float = 0.5  # P(device starts ON), random kind only

    def __post_init__(self):
        if self.kind not in INIT_KINDS:
            raise ValueError(f"kind: unknown init kind {self.kind!r}; "
                             f"expected one of {list(INIT_KINDS)}")
        if not (0.0 <= self.q <= 1.0):
            raise ValueError(f"q: must be in [0, 1], got {self.q}")


@dataclass(frozen=True)
class WindowConfig:
    geometry: PairingGeometry
    delta_t_min: float = -6.0
    delta_t_max: float = 6.0
    delta_t_step: float = 0.1
    epochs: int = 10_000
    seed: int = 42
    init_policy: InitPolicy = InitPolicy()

    def __post_init__(self):
        # offsets are times, in the time keys' range: so grid() is finite, and
        # its rounding to 1e-10 keeps them distinct
        for name, t in (("delta_t_min", self.delta_t_min), ("delta_t_max", self.delta_t_max)):
            if not abs(t) <= MAX_TIME:
                raise ValueError(f"{name}: must be in [-{MAX_TIME:g}, {MAX_TIME:g}], got {t}")
        if not self.delta_t_step >= MIN_TIME:
            raise ValueError(f"delta_t_step: must be >= {MIN_TIME:g}, got {self.delta_t_step}")
        if self.delta_t_min >= self.delta_t_max:
            raise ValueError("need delta_t_min < delta_t_max")
        if self.epochs < 1:
            raise ValueError(f"epochs: must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed: must be a non-negative integer, got {self.seed}")
        offsets, n = self.n_offsets(), self.geometry.bank.n
        if offsets * self.epochs > MAX_ROWS:
            raise ValueError(f"{offsets} offsets x {self.epochs} epochs exceeds the bound "
                             f"of {MAX_ROWS} window rows")
        if offsets * self.epochs * n > MAX_TRIALS:
            raise ValueError(f"{offsets} offsets x {self.epochs} epochs x {n} branches "
                             f"exceeds the bound of {MAX_TRIALS} trials")
        if self.epochs * n > MAX_OFFSET_TRIALS:
            raise ValueError(f"{self.epochs} epochs x {n} branches exceeds the bound "
                             f"of {MAX_OFFSET_TRIALS} trials in one offset")

    def n_offsets(self) -> int:
        """len(grid()), counted without building the grid: at most 2e12 + 1."""
        return int(np.floor((self.delta_t_max - self.delta_t_min) / self.delta_t_step + 1e-9)) + 1

    def grid(self) -> np.ndarray:
        return np.round(self.delta_t_min + np.arange(self.n_offsets()) * self.delta_t_step, 10)


@dataclass
class StdpWindow:
    """Window results: per-epoch outcomes plus analytic per-point curves.

    delta_g is the normalized compound conductance change (dG * r_on); with
    sigma_lrs = 0 and infinite OFF resistance it is integer-valued.
    """
    delta_t: np.ndarray   # (P,)
    delta_g: np.ndarray   # (P, E)
    n_set: np.ndarray     # (P, E)
    n_reset: np.ndarray   # (P, E)
    analytic: np.ndarray  # (P,)
    states: np.ndarray    # (P, n+1) switching-count probabilities
    sigma_lrs: float

    @property
    def n_branches(self) -> int:
        return self.states.shape[1] - 1

    @property
    def epochs(self) -> int:
        return self.delta_g.shape[1]

    @property
    def delta_g_bound(self) -> float:
        """Bound on |delta_g|: n devices, each ON conductance within LRS_SIGMAS sigma_lrs of 1."""
        return self.n_branches * (1.0 + LRS_SIGMAS * self.sigma_lrs)

    @property
    def max_abs_delta_g(self) -> float:
        """max |delta_g|, without a full-size abs temporary."""
        return float(max(-self.delta_g.min(), self.delta_g.max()))

    def validate(self):
        sums = self.states.sum(axis=1)
        if not np.all(np.abs(sums - 1.0) <= 1e-9):
            raise AssertionError(f"state distributions must sum to 1, worst {sums}")
        bound, worst = self.delta_g_bound, self.max_abs_delta_g
        if worst > bound + 1e-12:
            raise AssertionError(f"|delta_g| {worst} exceeds bound {bound}")
        return self


def _point_stream(seed: int, point_index: int) -> np.random.Generator:
    """Reproducible, statistically independent stream of grid point k: PCG64
    seeded by SeedSequence(seed, spawn_key=(k,)), a pure function of its
    arguments."""
    ss = np.random.SeedSequence(seed, spawn_key=(point_index,))
    return np.random.Generator(np.random.PCG64(ss))


def state_distribution(p) -> np.ndarray:
    """Exact Poisson-binomial pmf of the number of successes among
    independent Bernoulli(p_i) trials, by the O(n^2) convolution recurrence;
    p of shape (..., n) gives (..., n+1), each row bitwise equal to a 1-D call."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 0:
        raise ValueError("need probabilities along a last axis, got a scalar")
    if not ((p >= 0.0) & (p <= 1.0)).all():  # NaN fails both comparisons
        raise ValueError("probabilities must lie in [0, 1]")
    p = np.moveaxis(p, -1, 0)  # trials first: one step per leading index
    out = np.zeros((p.shape[0] + 1,) + p.shape[1:])
    out[0] = 1.0
    for pk, qk in zip(p, 1.0 - p):  # out[j] <- out[j] (1 - p_k) + out[j-1] p_k
        step = out[:-1] * pk
        out *= qk
        out[1:] += step
    return np.moveaxis(out, 0, -1)


def _start_on(policy: InitPolicy, delta_t: float) -> list[float]:
    """Start-ON probabilities of a device, one per kind of epoch at offset
    delta_t.  Split init starts every device OFF at a positive offset and ON
    at a negative one; at delta_t = 0 the epochs alternate between the two."""
    if policy.kind == "random":
        return [policy.q]
    if policy.kind == "split":
        return [0.0, 1.0] if delta_t == 0.0 else [float(delta_t < 0.0)]
    return [float(policy.kind == "all_on")]


@lru_cache(maxsize=8)
def _gh_nodes(sigma: float):
    """(s_pre, s_post, weights) of the Gauss-Hermite nodes in both spike
    scales under amplitude noise sigma, read-only; built once per process,
    not at every offset.  Node 12 i + j scales the pre spike by scales[i]
    and the post spike by scales[j]."""
    x, w = np.polynomial.hermite_e.hermegauss(_GH_POINTS)
    scales, w = 1.0 + sigma * x, w / w.sum()
    nodes = np.repeat(scales, _GH_POINTS), np.tile(scales, _GH_POINTS), np.outer(w, w).ravel()
    for a in nodes:
        a.flags.writeable = False
    return nodes


def _node_drives(g: PairingGeometry, table):
    """Drives of all branches at the amplitude-noise quadrature nodes, shape
    (nodes, n), with the node weights: Gauss-Hermite in both spike scales,
    or the single unscaled node when noise is off."""
    if g.amp_noise_sigma == 0.0:
        return branch_drives(g, table), np.ones(1)
    s_pre, s_post, weights = _gh_nodes(g.amp_noise_sigma)
    return branch_drives(g, table, s_pre, s_post), weights


def _transitions(s, r, reset_later):
    """Pairing rule of one device, from the probabilities s and r that its SET
    and RESET attempts succeed, independently: the attempts act in the time
    order of their peaks, RESET winning a tie.  Returns (both, set_then_reset,
    up, down): both attempts succeed; both succeed with RESET last; the device
    ends ON from OFF (up); it ends OFF from ON (down).  The rule is linear in
    each attempt, so these are the exact probabilities of the events (at 0/1
    attempts, their indicators); the sampler and the analytic layer read them
    through `_odds`."""
    both = s * r
    set_then_reset = both * reset_later
    return both, set_then_reset, s - set_then_reset, r - (both - set_then_reset)


def _odds(drive):
    """(a, c) of a device by its start state, arrays of shape (2, ..., n): row
    0 for a device that starts OFF, row 1 for one that starts ON.  c is the
    chance that its first attempt counts (a SET from OFF, p_set; a RESET from
    ON, p_reset), and a <= c the chance that it then ends in the other state
    (`up`, `down` of `_transitions`): with chance b = c - a the second attempt
    comes later and undoes the first."""
    _, _, up, down = _transitions(drive.p_set, drive.p_reset, drive.reset_later)
    return np.stack([up, down]), np.stack([drive.p_set, drive.p_reset])


def _analytic_and_states(cfg: WindowConfig, delta_t: float, drive, weights):
    """Mean conductance change and switching-count pmf of one offset from
    (n,) or (nodes, n) drives: a device starting ON with probability q switches
    with probability (1 - q) a_off + q a_on of `_odds`.  Each node's starts
    are averaged, then the nodes are summed as a running sum from +0.0: the
    order the output bytes are pinned to (a pairwise np.sum or the compensated
    builtin sum of Python >= 3.12 changes them)."""
    starts = _start_on(cfg.init_policy, delta_t)
    q = np.array(starts)[:, None, None]  # (starts, 1, 1) against (nodes, n)
    a, _ = _odds(drive)
    switch_on = (1.0 - q) * np.atleast_2d(a[0])  # starts OFF, ends ON
    switch_off = q * np.atleast_2d(a[1])  # starts ON, ends OFF
    off_step = cfg.geometry.device.g_on_mean - cfg.geometry.device.g_off_norm
    change = (switch_on - switch_off).sum(axis=-1).sum(axis=0)
    pmf = state_distribution(switch_on + switch_off).sum(axis=0)
    analytic = 0.0 + np.cumsum(weights * off_step / len(starts) * change)[-1]
    states = 0.0 + np.cumsum((weights / len(starts))[:, None] * pmf, axis=0)[-1]
    return float(analytic), states


def analytic_window(cfg: WindowConfig):
    """(grid, analytic, states) over the offset grid without running any
    Monte Carlo trials; amplitude noise, when enabled, is averaged by
    Gauss-Hermite quadrature."""
    grid = cfg.grid()
    g = cfg.geometry
    rows = [_analytic_and_states(cfg, dt, *_node_drives(g, candidate_tables(g, dt)))
            for dt in grid.tolist()]
    analytic, states = (np.stack(col) for col in zip(*rows))
    return grid, analytic, states


def _initial_on(cfg: WindowConfig, delta_t: float, epochs: int, n: int, stream):
    """Start states of the offset's devices: a bool when every device starts
    in the same state, else a branch-major (n, epochs) bool array.  Random
    init draws its n x epochs uniforms at any q."""
    starts = _start_on(cfg.init_policy, delta_t)
    if cfg.init_policy.kind == "random":
        on = stream.random((n, epochs)) < starts[0]
        return on if 0.0 < starts[0] < 1.0 else bool(starts[0])
    if len(starts) == 1:
        return bool(starts[0])
    # split init at delta_t = 0: epoch e starts as starts[e % 2]
    return np.broadcast_to(np.array(starts, dtype=bool)[np.arange(epochs) % 2], (n, epochs))


def _fixed_odds_attempts(drive, on, stream, epochs: int):
    """(event, switched, on) of the live branches, (rows, epochs) each, under
    the offset's fixed odds: one uniform u per device-epoch of a live branch,
    in branch-major order, with event = u < c and switched = u < a, (a, c) of
    `_odds` for the device's start state.  A branch is live where c > 0 for a
    start state its devices can have; the others draw nothing."""
    a, c = _odds(drive)
    if isinstance(on, bool):  # one start state: a threshold per row, no select
        a, c = a[int(on)], c[int(on)]
        live = np.flatnonzero(c)
        u = stream.random((live.size, epochs))
        return u < c[live, None], u < a[live, None], on
    live = np.flatnonzero(c.any(axis=0))
    on = on[live]
    a, c = a[:, live, None], c[:, live, None]
    u = stream.random(on.shape)
    return u < np.where(on, c[1], c[0]), u < np.where(on, a[1], a[0]), on


def _noisy_attempts(m: DeviceModel, drive, on, stream):
    """(event, switched, on) of every branch, (n, epochs) each, under per-epoch
    drives: a SET and a RESET uniform per device-epoch (`switch_draws`), all
    SET uniforms first; event is the first attempt from the start state, and
    a device switches unless the other attempt comes later and succeeds."""
    # (epochs, n) views of branch-major memory: contiguous (n, epochs) rows
    v_max, v_min, later = drive.v_max.T, drive.v_min.T, drive.reset_later.T
    u_set = stream.random(v_max.shape)
    u_reset = stream.random(v_max.shape)
    s = switch_draws(m, u_set, v_max, 1)
    r = switch_draws(m, u_reset, v_min, -1)
    if isinstance(on, bool):
        event, undo = (r, s & ~later) if on else (s, r & later)
    else:
        event, undo = np.where(on, r, s), np.where(on, s & ~later, r & later)
    return event, event & ~undo, on


def _tally(m: DeviceModel, stream, event, switched, on):
    """(delta_g, n_set, n_reset) of an offset from its (rows, epochs) bool
    outcomes: event, the first attempt from the start state counted (a SET
    from OFF, a RESET from ON); switched, the device ends in the other state;
    on, the start state, one bool or one per entry.  A device whose first
    attempt counted and that did not switch was switched back by the second,
    so an epoch has n_set = events - downs and n_reset = events - ups.  Each
    switched device draws its ON conductance, in flat (branch-major) order,
    and steps by it up from OFF or down from ON; an epoch's delta_g sums its
    steps from 0.0 in branch order."""
    epochs = event.shape[1]
    n_event = event.sum(axis=0, dtype=np.int32)
    n_switched = switched.sum(axis=0, dtype=np.int32)
    if isinstance(on, bool):
        n_down = n_switched if on else 0
    else:
        n_down = (switched & on).sum(axis=0, dtype=np.int32)
    n_set, n_reset = n_event - n_down, n_event - (n_switched - n_down)
    # a row's switched devices are a run of the flat indices: the epoch of
    # each is its index less the row's start (cheaper than a modulo)
    row_runs = switched.sum(axis=1)
    flat = np.flatnonzero(switched)
    epoch = flat - np.repeat(np.arange(0, row_runs.size * epochs, epochs), row_runs)
    step = _lrs_draws(stream, m.sigma_lrs, flat.size) - m.g_off_norm
    if not isinstance(on, bool):
        step *= 1 - 2 * on.ravel()[flat].view(np.int8)
    elif on:
        np.negative(step, out=step)
    # float64 also where no device switches (bincount over no weights is int64)
    delta_g = np.bincount(epoch, weights=step, minlength=epochs).astype(float, copy=False)
    return delta_g, n_set, n_reset


def _lrs_draws(stream, sigma_lrs: float, shape) -> np.ndarray:
    """ON conductances normalized by 1/r_on, N(1, sigma_lrs^2) draws, those
    outside [max(0+, 1 - LRS_SIGMAS sigma_lrs), 1 + LRS_SIGMAS sigma_lrs]
    redrawn in flat order until none is left (the limits round as the draws
    do, so no sigma_lrs rejects all); all ones, no draws, at sigma_lrs = 0."""
    if sigma_lrs == 0.0:
        return np.ones(shape)
    lo = max(1.0 - LRS_SIGMAS * sigma_lrs, np.nextafter(0.0, 1.0))
    hi = 1.0 + LRS_SIGMAS * sigma_lrs
    lrs = stream.normal(1.0, sigma_lrs, shape)
    # the extremes settle almost every call without a mask
    while lrs.size and not lo <= lrs.min() <= lrs.max() <= hi:
        bad = (lrs < lo) | (lrs > hi)
        lrs[bad] = stream.normal(1.0, sigma_lrs, int(bad.sum()))
    return lrs


def _compute_point(cfg: WindowConfig, point: tuple[int, float]):
    """(delta_g, n_set, n_reset, analytic, states) of grid point k at offset
    delta_t, point = (k, delta_t)."""
    k, delta_t = point
    g = cfg.geometry
    n, epochs = g.bank.n, cfg.epochs
    stream = _point_stream(cfg.seed, k)

    # fixed draw order: amplitude noise (the pre scales, then the post
    # scales), random init, the attempts' uniforms, branch-major; the LRS
    # draws come last, one per switched device
    if g.amp_noise_sigma > 0.0:
        scales = stream.normal(1.0, g.amp_noise_sigma, (2, epochs))
    on = _initial_on(cfg, delta_t, epochs, n, stream)

    # the offset's table feeds both the sampler and the analytic expectation;
    # without noise the single node's (n,) drive is the sampler's drive
    table = candidate_tables(g, delta_t)
    nodes = _node_drives(g, table)
    if g.amp_noise_sigma > 0.0:
        attempts = _noisy_attempts(g.device, branch_drives(g, table, *scales), on, stream)
    else:
        attempts = _fixed_odds_attempts(nodes[0], on, stream, epochs)
    delta_g, n_set, n_reset = _tally(g.device, stream, *attempts)
    analytic, states = _analytic_and_states(cfg, delta_t, *nodes)
    return delta_g, n_set, n_reset, analytic, states


@contextmanager
def fan_out(fn, jobs: list, workers: int):
    """fn over jobs in job order, for `run_window`'s sweep: in this process at
    one worker or job, else on a fork pool of n = min(workers, len(jobs))
    processes, closed on exit, that hands out runs of ceil(len(jobs) / (8 n))
    jobs (121 offsets at 2 workers: 16 runs of at most 8).  A run costs one
    round trip between processes, and a worker holds its jobs and results at
    once: hence 8 runs a worker, not Pool.map's 4.  Workers below 1 or above
    MAX_WORKERS are a ValueError, raised before any fork."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if workers > MAX_WORKERS:
        raise ValueError(f"workers must be at most {MAX_WORKERS}, got {workers}")
    n = min(workers, len(jobs))
    if n <= 1:
        yield map(fn, jobs)
    else:
        with get_context("fork").Pool(n) as pool:
            yield pool.imap(fn, jobs, chunksize=-(-len(jobs) // (8 * n)))


def run_window(cfg: WindowConfig, workers: int = 1) -> StdpWindow:
    """Sweep the delta_t grid; grid points are independent and may be
    computed by a pool of workers (`fan_out`).  Each point's results are
    written into the window's preallocated rows as they arrive, in grid
    order."""
    grid = cfg.grid()
    points, n = grid.size, cfg.geometry.bank.n
    w = StdpWindow(
        delta_t=grid,
        delta_g=np.empty((points, cfg.epochs)),
        n_set=np.empty((points, cfg.epochs), dtype=np.int32),
        n_reset=np.empty((points, cfg.epochs), dtype=np.int32),
        analytic=np.empty(points),
        states=np.empty((points, n + 1)),
        sigma_lrs=cfg.geometry.device.sigma_lrs,
    )
    jobs = list(enumerate(grid.tolist()))
    with fan_out(partial(_compute_point, cfg), jobs, workers) as results:
        for k, row in enumerate(results):
            w.delta_g[k], w.n_set[k], w.n_reset[k], w.analytic[k], w.states[k] = row
    return w.validate()
