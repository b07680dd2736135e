"""Monte Carlo sweep of the pairing offset producing full STDP windows.

Each grid point gets its own counter-based random substream, so results are
byte-identical for a given (config, seed) regardless of execution order or
worker count.  Per-epoch outcomes, the analytic expectation from the branch
switch probabilities, and the exact Poisson-binomial switching-count
distribution are recorded per point.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from multiprocessing import get_context

import numpy as np

from .pairing import PairingGeometry, branch_drives, candidate_tables

_GH_POINTS = 12  # Gauss-Hermite order for amplitude-noise averaging


class InitKind(str, Enum):
    SPLIT = "split"
    ALL_OFF = "all_off"
    ALL_ON = "all_on"
    RANDOM = "random"


@dataclass(frozen=True)
class InitPolicy:
    kind: InitKind = InitKind.SPLIT
    q: float = 0.5  # P(device starts ON), random kind only

    def __post_init__(self):
        if not (0.0 <= self.q <= 1.0):
            raise ValueError(f"init probability q must be in [0, 1], got {self.q}")


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
        if self.delta_t_step <= 0.0:
            raise ValueError(f"delta_t_step must be positive, got {self.delta_t_step}")
        if self.delta_t_min >= self.delta_t_max:
            raise ValueError("need delta_t_min < delta_t_max")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")

    def grid(self) -> np.ndarray:
        k = int(np.floor((self.delta_t_max - self.delta_t_min) / self.delta_t_step + 1e-9))
        return np.round(self.delta_t_min + np.arange(k + 1) * self.delta_t_step, 10)


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
    n_branches: int
    epochs: int
    seed: int
    init_policy: InitPolicy
    sigma_lrs: float

    def validate(self):
        sums = self.states.sum(axis=1)
        if not np.all(np.abs(sums - 1.0) <= 1e-9):
            raise AssertionError(f"state distributions must sum to 1, worst {sums}")
        bound = self.n_branches * (1.0 + 6.0 * self.sigma_lrs)
        worst = float(np.abs(self.delta_g).max())
        if worst > bound + 1e-12:
            raise AssertionError(f"|delta_g| {worst} exceeds bound {bound}")
        return self


def _point_stream(seed: int, point_index: int) -> np.random.Generator:
    """Reproducible, statistically independent stream of grid point k; a pure
    function of its arguments (counter-based Philox keying)."""
    ss = np.random.SeedSequence(seed, spawn_key=(point_index,))
    return np.random.Generator(np.random.Philox(ss))


def state_distribution(p) -> np.ndarray:
    """Exact Poisson-binomial pmf of the number of successes among
    independent Bernoulli(p_i) trials, by the O(n^2) convolution recurrence."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError("need a 1-D probability vector")
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")
    out = np.zeros(p.size + 1)
    out[0] = 1.0
    for k, pk in enumerate(p):
        out[1:k + 2] = out[1:k + 2] * (1.0 - pk) + out[:k + 1] * pk
        out[0] *= (1.0 - pk)
    return out


def _gh_nodes(sigma: float):
    x, w = np.polynomial.hermite_e.hermegauss(_GH_POINTS)
    return 1.0 + sigma * x, w / w.sum()


def _probability_sets(g: PairingGeometry, tables):
    """Per-branch (p_set, p_reset) vectors, one pair per amplitude-noise
    quadrature node (a single pair when noise is off), with node weights."""
    if g.amp_noise_sigma == 0.0:
        d = branch_drives(g, tables)
        return [(d.p_set, d.p_reset)], np.ones(1)
    scales, w = _gh_nodes(g.amp_noise_sigma)
    s_pre, s_post = np.meshgrid(scales, scales, indexing="ij")
    d = branch_drives(g, tables, s_pre.ravel(), s_post.ravel())
    return list(zip(d.p_set, d.p_reset)), np.outer(w, w).ravel()


def _start_kind(policy: InitPolicy, delta_t: float) -> InitKind:
    """Split init starts every device OFF at a positive offset and ON at a
    negative one; at delta_t = 0 it keeps both initializations."""
    if policy.kind is InitKind.SPLIT and delta_t != 0.0:
        return InitKind.ALL_OFF if delta_t > 0.0 else InitKind.ALL_ON
    return policy.kind


def _analytic_and_states(cfg: WindowConfig, delta_t: float, prob_sets, weights):
    n = cfg.geometry.bank.n
    kind = _start_kind(cfg.init_policy, delta_t)
    off_step = 1.0 - cfg.geometry.device.g_off_norm
    analytic = 0.0
    states = np.zeros(n + 1)
    for (ps, pr), w in zip(prob_sets, weights):
        if kind is InitKind.ALL_OFF:
            analytic += w * off_step * ps.sum()
            states += w * state_distribution(ps)
        elif kind is InitKind.ALL_ON:
            analytic += w * off_step * -pr.sum()
            states += w * state_distribution(pr)
        elif kind is InitKind.SPLIT:  # delta_t = 0: half the epochs start OFF, half ON
            analytic += w * off_step * 0.5 * (ps.sum() - pr.sum())
            states += w * 0.5 * (state_distribution(ps) + state_distribution(pr))
        else:
            q = cfg.init_policy.q
            analytic += w * off_step * ((1.0 - q) * ps - q * pr).sum()
            # marginal of "device switched at least once"
            states += w * state_distribution((1.0 - q) * ps + q * pr)
    return analytic, states


def analytic_window(cfg: WindowConfig):
    """(grid, analytic, states) over the offset grid without running any
    Monte Carlo trials; amplitude noise, when enabled, is averaged by
    Gauss-Hermite quadrature."""
    grid = cfg.grid()
    n = cfg.geometry.bank.n
    analytic = np.empty(grid.size)
    states = np.empty((grid.size, n + 1))
    for k, dt in enumerate(grid.tolist()):
        tables = candidate_tables(cfg.geometry, dt)
        analytic[k], states[k] = _analytic_and_states(
            cfg, dt, *_probability_sets(cfg.geometry, tables))
    return grid, analytic, states


def _initial_on(cfg: WindowConfig, delta_t: float, epochs: int, n: int, stream):
    kind = _start_kind(cfg.init_policy, delta_t)
    if kind is InitKind.RANDOM:
        return stream.random((epochs, n)) < cfg.init_policy.q
    if kind is InitKind.SPLIT:  # delta_t = 0: both initializations, by epoch parity
        on = np.zeros((epochs, n), dtype=bool)
        on[1::2] = True
        return on
    return np.full((epochs, n), kind is InitKind.ALL_ON)


def _lrs_draws(stream, sigma_lrs: float, shape) -> np.ndarray:
    """ON conductances normalized by 1/r_on: 1 + eps, eps ~ N(0, sigma_lrs),
    with nonpositive draws redrawn; all ones (and no draws) when sigma_lrs = 0."""
    if sigma_lrs == 0.0:
        return np.ones(shape)
    lrs = 1.0 + stream.normal(0.0, sigma_lrs, shape)
    while True:
        bad = lrs <= 0.0
        if not bad.any():
            return lrs
        lrs[bad] = 1.0 + stream.normal(0.0, sigma_lrs, int(bad.sum()))


def _compute_point(cfg: WindowConfig, k: int, delta_t: float):
    g = cfg.geometry
    n, epochs = g.bank.n, cfg.epochs
    stream = _point_stream(cfg.seed, k)

    # fixed draw order: amplitude noise, random init, SET, RESET, LRS
    if g.amp_noise_sigma > 0.0:
        scales = 1.0 + stream.normal(0.0, g.amp_noise_sigma, (epochs, 2))
    on_init = _initial_on(cfg, delta_t, epochs, n, stream)
    u_set = stream.random((epochs, n))
    u_reset = stream.random((epochs, n))
    lrs = _lrs_draws(stream, g.device.sigma_lrs, (epochs, n))

    # the offset's tables (and, without noise, its drives) are built once
    # and feed both the sampler and the analytic expectation
    tables = candidate_tables(g, delta_t)
    if g.amp_noise_sigma > 0.0:
        drive = branch_drives(g, tables, scales[:, 0], scales[:, 1])  # (epochs, n)
        prob_sets, weights = _probability_sets(g, tables)
    else:
        drive = branch_drives(g, tables)  # (n,)
        prob_sets, weights = [(drive.p_set, drive.p_reset)], np.ones(1)
    reset_later = drive.reset_later

    set_ok = u_set < drive.p_set
    reset_ok = u_reset < drive.p_reset
    from_off_on = set_ok & ~(reset_ok & reset_later)
    from_on_off = reset_ok & ~(set_ok & ~reset_later)
    final_on = np.where(on_init, ~from_on_off, from_off_on)

    n_set = np.where(on_init, reset_ok & set_ok & ~reset_later, set_ok).sum(axis=1)
    n_reset = np.where(on_init, reset_ok, set_ok & reset_ok & reset_later).sum(axis=1)
    step = lrs - g.device.g_off_norm
    gained = (~on_init & final_on)
    lost = (on_init & ~final_on)
    delta_g = (step * gained).sum(axis=1) - (step * lost).sum(axis=1)

    analytic, states = _analytic_and_states(cfg, delta_t, prob_sets, weights)
    return delta_g, n_set.astype(np.int32), n_reset.astype(np.int32), analytic, states


def _point_worker(args):
    cfg, k, delta_t = args
    return k, _compute_point(cfg, k, float(delta_t))


def default_workers() -> int:
    return max(1, int(os.environ.get("SYNSTDP_WORKERS", "1")))


def run_window(cfg: WindowConfig, workers: int | None = None) -> StdpWindow:
    """Sweep the delta_t grid; grid points are independent and may be
    computed by a worker pool, with output order fixed by the grid."""
    grid = cfg.grid()
    if workers is None:
        workers = default_workers()
    jobs = [(cfg, k, dt) for k, dt in enumerate(grid)]
    if workers > 1 and len(jobs) > 1:
        with get_context("fork").Pool(processes=workers) as pool:
            results = dict(pool.map(_point_worker, jobs, chunksize=4))
    else:
        results = dict(map(_point_worker, jobs))

    n = cfg.geometry.bank.n
    P, E = len(grid), cfg.epochs
    window = StdpWindow(
        delta_t=grid,
        delta_g=np.empty((P, E)),
        n_set=np.empty((P, E), dtype=np.int32),
        n_reset=np.empty((P, E), dtype=np.int32),
        analytic=np.empty(P),
        states=np.empty((P, n + 1)),
        n_branches=n,
        epochs=E,
        seed=cfg.seed,
        init_policy=cfg.init_policy,
        sigma_lrs=cfg.geometry.device.sigma_lrs,
    )
    for k in range(P):
        dg, ns, nr, analytic, states = results[k]
        window.delta_g[k] = dg
        window.n_set[k] = ns
        window.n_reset[k] = nr
        window.analytic[k] = analytic
        window.states[k] = states
    return window
