import dataclasses
import itertools
import json
import math
import multiprocessing
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import synstdp.montecarlo as montecarlo
from synstdp import (DendriteBank, DeviceModel, InitPolicy, PairingGeometry, SpikeWaveform,
                     WindowConfig, all_branch_drives, analytic_window, parse_config,
                     reset_probability, run_window, set_probability, state_distribution)
from synstdp.cli import main
from synstdp.montecarlo import INIT_KINDS, _point_stream
from synstdp.validate import enumerate_pmf, mc_outliers
from tests.test_device import StubStream, phi


def make_geometry(alpha_min=0.6, alpha_max=1.0, delay_max=0.0, sigma_lrs=0.1,
                  amp_noise=0.0, n=16):
    w = SpikeWaveform("hrht")
    return PairingGeometry(
        pre=w, post=w,
        bank=DendriteBank(n, alpha_min, alpha_max, delay_max),
        device=DeviceModel(sigma_lrs=sigma_lrs),
        amp_noise_sigma=amp_noise,
    )


# ---------------------------------------------------------------- states

def test_state_distribution_examples():
    assert np.allclose(state_distribution([0.5, 0.5]), [0.25, 0.5, 0.25], atol=1e-15)
    assert np.allclose(state_distribution([1.0, 1.0, 1.0]), [0, 0, 0, 1], atol=1e-15)
    assert np.allclose(state_distribution([0.2, 0.7]), [0.24, 0.62, 0.14], atol=1e-15)


def test_state_distribution_matches_enumeration():
    rng = np.random.default_rng(99)
    for n in range(1, 9):
        for _ in range(20):
            ps = rng.random(n)
            assert np.abs(state_distribution(ps) - enumerate_pmf(ps)).max() <= 1e-12


def test_state_distribution_normalization_and_validation():
    rng = np.random.default_rng(1)
    for _ in range(50):
        ps = rng.random(16)
        assert abs(state_distribution(ps).sum() - 1.0) <= 1e-12
    for bad in ([0.5, 1.5], [-0.1, 0.5], [np.nan, 0.5], [[0.5], [np.nan]]):
        with pytest.raises(ValueError, match=r"probabilities must lie in \[0, 1\]"):
            state_distribution(bad)
    with pytest.raises(ValueError):
        state_distribution(0.5)


def test_state_distribution_batch_rows_match_1d_calls():
    rng = np.random.default_rng(7)
    p = rng.random((2, 144, 16))
    p[rng.random(p.shape) < 0.3] = 0.0
    p[0, :5, 3] = 1.0
    p[1, 7, :] = 1.0
    p[1, 9, :] = 0.0
    batch = state_distribution(p)
    assert batch.shape == (2, 144, 17)
    for i, j in np.ndindex(p.shape[:2]):
        assert np.array_equal(batch[i, j], state_distribution(p[i, j]))


# ---------------------------------------------------------------- expectation

def analytic_mean(g, delta_t, init):
    """Analytic mean conductance change of the single offset delta_t."""
    cfg = WindowConfig(geometry=g, delta_t_min=delta_t, delta_t_max=delta_t + 1.0,
                       delta_t_step=2.0, epochs=1, init_policy=InitPolicy(kind=init))
    grid, analytic, _ = analytic_window(cfg)
    assert grid.tolist() == [delta_t]
    return float(analytic[0])


def test_expected_delta_g_uniform_plateau():
    g = make_geometry(alpha_min=1.0, alpha_max=1.0)
    v = analytic_mean(g, 0.5, "all_off")
    assert abs(v - 16 * phi(3.0)) < 1e-12
    assert abs(v - 15.978) < 1e-3


def test_expected_delta_g_beyond_support():
    g = make_geometry()
    assert analytic_mean(g, 30.0, "all_off") == 0.0
    assert analytic_mean(g, -30.0, "all_on") == 0.0


def test_expected_delta_g_ramp_endpoints():
    g = make_geometry()
    # per-branch peaks 0.9 + 0.32*alpha at dt = 2 -> z = 3.2*alpha - 1
    alphas = np.linspace(0.6, 1.0, 16)
    expect = sum(phi(3.2 * a - 1.0) for a in alphas)
    v = analytic_mean(g, 2.0, "all_off")
    assert abs(v - expect) < 1e-9
    assert abs(phi(3.2 * 0.6 - 1.0) - 0.8212) < 1e-4
    assert abs(phi(3.2 * 1.0 - 1.0) - 0.9861) < 1e-4


def test_expected_delta_g_attenuation_reduces_potentiation():
    ramp = make_geometry()
    uniform = make_geometry(alpha_min=1.0, alpha_max=1.0)
    assert analytic_mean(ramp, 4.0, "all_off") < \
        analytic_mean(uniform, 4.0, "all_off")


def test_expected_delta_g_sign_conventions():
    g = make_geometry()
    assert analytic_mean(g, 2.0, "all_off") > 0
    assert analytic_mean(g, -2.0, "all_on") < 0
    # split init starts every device OFF for a positive offset, ON for a negative
    assert analytic_mean(g, 2.0, "split") == analytic_mean(g, 2.0, "all_off")
    assert analytic_mean(g, -2.0, "split") == analytic_mean(g, -2.0, "all_on")


# ---------------------------------------------------------------- rng streams
# each grid point k draws from its own stream _point_stream(seed, k)

def test_substream_determinism():
    a = _point_stream(42, 3).random(1000)
    b = _point_stream(42, 3).random(1000)
    assert np.array_equal(a, b)


def test_substream_independence_chi_squared():
    x = _point_stream(42, 0).random(10_000)
    y = _point_stream(42, 1).random(10_000)
    counts, _, _ = np.histogram2d(x, y, bins=10, range=[[0, 1], [0, 1]])
    stat = ((counts - 100.0) ** 2 / 100.0).sum()
    assert stat < 148.23  # chi-squared 0.999 quantile, 99 dof


def test_substream_seed_scan_no_collision():
    first = {float(_point_stream(seed, 0).random()) for seed in range(100)}
    assert len(first) == 100


# ---------------------------------------------------------------- windows

def small_config(epochs=200, seed=7, **geo_kw):
    init = geo_kw.pop("init_policy", InitPolicy())
    return WindowConfig(geometry=make_geometry(**geo_kw), delta_t_min=-3.0,
                        delta_t_max=3.0, delta_t_step=0.5, epochs=epochs,
                        seed=seed, init_policy=init)


def test_single_epoch_integer_levels():
    cfg = small_config(epochs=1, sigma_lrs=0.0)
    w = run_window(cfg).validate()
    assert np.array_equal(w.delta_g, np.round(w.delta_g))
    assert np.all(np.abs(w.delta_g) <= 16)
    w2 = run_window(cfg)
    assert np.array_equal(w.delta_g, w2.delta_g)


def test_split_sign_property():
    cfg = small_config(epochs=500, sigma_lrs=0.0)
    w = run_window(cfg)
    pos = w.delta_t > 0
    neg = w.delta_t < 0
    assert np.all(w.delta_g[pos] >= 0)
    assert np.all(w.delta_g[neg] <= 0)


def test_mc_matches_analytic_on_coarse_grid():
    cfg = small_config(epochs=4000, seed=11)
    w = run_window(cfg).validate()
    assert len(mc_outliers(w)) <= 1


def test_grid_construction():
    cfg = small_config()
    grid = cfg.grid()
    assert grid[0] == -3.0 and grid[-1] == 3.0 and grid.size == 13
    one_point = WindowConfig(geometry=make_geometry(), delta_t_min=0.5,
                             delta_t_max=0.6, delta_t_step=5.0, epochs=3, seed=1)
    w = run_window(one_point)
    assert w.delta_t.size == 1


def test_all_on_policy_only_depresses():
    cfg = small_config(epochs=300, sigma_lrs=0.0, init_policy=InitPolicy(kind="all_on"))
    w = run_window(cfg)
    assert np.all(w.delta_g <= 0)
    assert np.all(w.analytic <= 0)


def test_random_policy_extremes_match_fixed_policies():
    base = dict(epochs=150, sigma_lrs=0.0, seed=21)
    w_off = run_window(small_config(init_policy=InitPolicy(kind="random", q=0.0), **base))
    w_all_off = run_window(small_config(init_policy=InitPolicy(kind="all_off"), **base))
    assert np.array_equal(w_off.analytic, w_all_off.analytic)
    assert np.array_equal(w_off.states, w_all_off.states)
    w_on = run_window(small_config(init_policy=InitPolicy(kind="random", q=1.0), **base))
    w_all_on = run_window(small_config(init_policy=InitPolicy(kind="all_on"), **base))
    assert np.all(w_on.delta_g <= 0)
    assert np.array_equal(w_on.analytic, w_all_on.analytic)
    assert np.array_equal(w_on.states, w_all_on.states)


def test_workers_do_not_change_results():
    cfg = small_config(epochs=100)
    w1 = run_window(cfg, workers=1)
    w4 = run_window(cfg, workers=4)
    assert np.array_equal(w1.delta_g, w4.delta_g)
    assert np.array_equal(w1.n_set, w4.n_set)
    assert np.array_equal(w1.analytic, w4.analytic)


def test_more_workers_than_the_bound_fail_before_any_pool(monkeypatch):
    """No process is started: the bounds are checked before the pool is made,
    also where one job or none would need no pool."""
    def no_pool(method):
        raise AssertionError("a pool was asked for")

    monkeypatch.setattr(montecarlo, "get_context", no_pool)
    over = montecarlo.MAX_WORKERS + 1
    for workers, message in ((over, f"at most 256, got {over}"),
                             (0, "at least 1, got 0"), (-3, "at least 1, got -3")):
        for jobs in ([], [1], [1, 2, 3]):
            with pytest.raises(ValueError, match=f"workers must be {message}"):
                with montecarlo.fan_out(abs, jobs, workers):
                    pass
        with pytest.raises(ValueError, match=f"workers must be {message}"):
            run_window(small_config(epochs=5), workers=workers)


def record_pools(monkeypatch):
    """(started, chunks): each fork pool's process count and each imap's
    chunk size, from here on; the pools run their jobs in this process."""
    started, chunks = [], []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, jobs, chunksize=1):
            chunks.append(chunksize)
            return map(fn, jobs)

    monkeypatch.setattr(montecarlo, "get_context",
                        lambda method: SimpleNamespace(Pool=RecordingPool))
    return started, chunks


def test_pool_is_capped_at_one_worker_per_point(monkeypatch):
    """The sweep's pool has at most one worker per job, hands out runs of
    ceil(jobs / (8 n)) jobs, and gives the serial results."""
    started, chunks = record_pools(monkeypatch)
    three = WindowConfig(geometry=make_geometry(), delta_t_min=-1.0, delta_t_max=1.0,
                         delta_t_step=1.0, epochs=5, seed=1)
    w = run_window(three, workers=64)
    assert started == [3]
    assert np.array_equal(w.delta_g, run_window(three, workers=1).delta_g)
    run_window(small_config(epochs=5), workers=2)
    assert started == [3, 2]
    one = WindowConfig(geometry=make_geometry(), delta_t_min=0.5, delta_t_max=0.6,
                       delta_t_step=5.0, epochs=5, seed=1)
    run_window(one, workers=8)
    assert started == [3, 2]  # a single point runs without a pool
    assert chunks == [1, 1]  # 3 jobs at 64 workers, 13 at 2
    for jobs, workers, chunk in ((121, 2, 8), (121, 16, 1), (121, 3, 6), (3, 64, 1)):
        with montecarlo.fan_out(abs, list(range(jobs)), workers) as results:
            assert list(results) == list(range(jobs))
        assert (started[-1], chunks[-1]) == (min(workers, jobs), chunk)


def test_fork_pool_leaves_no_process_running():
    """A real pool's workers are gone when fan_out exits: after all results,
    after a job raises (the caller sees its exception), and after the caller
    leaves early."""
    jobs = list(range(-20, 20))
    with montecarlo.fan_out(abs, jobs, 2) as results:
        assert list(results) == [abs(j) for j in jobs]
    assert multiprocessing.active_children() == []
    with pytest.raises(ValueError, match="math domain error"):
        with montecarlo.fan_out(math.sqrt, jobs, 2) as results:
            list(results)
    assert multiprocessing.active_children() == []
    with montecarlo.fan_out(abs, jobs, 2) as results:
        assert next(results) == 20
    assert multiprocessing.active_children() == []


def test_compute_point_delta_g_is_float_without_switches():
    """fig4d at its first offset, -6.0, switches no device in a few epochs;
    the per-point delta_g is float64 there too, as window.csv writes it."""
    fig4d = json.loads((Path(__file__).resolve().parents[1] / "configs" / "fig4d.json").read_text())
    cfg = dataclasses.replace(parse_config(fig4d).window, epochs=5)
    delta_g, n_set, n_reset, _, _ = montecarlo._compute_point(cfg, (0, -6.0))
    assert not n_set.any() and not n_reset.any()
    assert delta_g.dtype == np.float64
    assert np.array_equal(delta_g, np.zeros(5))


def test_delay_window_produces_change_at_zero_offset():
    cfg = WindowConfig(geometry=make_geometry(delay_max=0.3), delta_t_min=-0.5,
                       delta_t_max=0.5, delta_t_step=0.1, epochs=300, seed=3)
    w = run_window(cfg)
    k0 = int(np.argmin(np.abs(w.delta_t)))
    assert abs(w.analytic[k0]) > 0.0
    assert w.states[k0, 0] < 1.0  # nonzero switching probability at dt = 0


def test_amplitude_noise_mc_agrees_with_quadrature():
    cfg = WindowConfig(geometry=make_geometry(amp_noise=0.05, sigma_lrs=0.0),
                       delta_t_min=2.0, delta_t_max=2.2, delta_t_step=0.2,
                       epochs=6000, seed=13)
    w = run_window(cfg).validate()
    assert mc_outliers(w) == []


def test_mc_matches_analytic_at_large_lrs_spread():
    # fig4d at sigma_lrs = 0.45: 1.3 % of the raw ON conductance draws are
    # nonpositive and redrawn, which raises the mean ON conductance by 1.5 %
    fig4d = json.loads((Path(__file__).resolve().parents[1] / "configs" / "fig4d.json").read_text())
    cfg = parse_config({**fig4d, "device": {**fig4d["device"], "sigma_lrs": 0.45}}).window
    assert mc_outliers(run_window(cfg)) == []


# One branch at sigma_lrs 0.1 that SETs with certainty at 0.5 (linear law,
# gamma 100): one ON conductance beyond 1 + 6 sigma = 1.6 would break
# |delta_g| <= delta_g_bound on its own.  Such a draw has chance ~1e-9, so the
# stream is made to yield it first.
ONE_BRANCH = {"dendrites": {"n": 1, "alpha_min": 1.0, "alpha_max": 1.0, "delay_max": 0.0},
              "device": {"sigma_lrs": 0.1, "prob_model": {"linear": {"gamma": 100.0}}},
              "simulation": {"init_policy": "all_off", "delta_t_min": 0.5, "delta_t_max": 0.6,
                             "delta_t_step": 0.1, "epochs": 20}}


def test_one_branch_run_redraws_an_on_conductance_beyond_six_sigma(monkeypatch, tmp_path):
    monkeypatch.setattr(montecarlo, "_point_stream",
                        lambda seed, k: StubStream(_point_stream(seed, k), [1.7]))
    w = run_window(parse_config(ONE_BRANCH).window)  # validates
    assert w.delta_g_bound == 1.6 and np.all(w.n_set == 1)
    assert 0.4 < w.delta_g.min() and w.max_abs_delta_g < 1.6
    config = tmp_path / "one_branch.json"
    config.write_text(json.dumps(ONE_BRANCH))
    assert main(["window", "--config", str(config), "--out", str(tmp_path / "out")]) == 0


def test_analytic_window_matches_run_window():
    cases = {"split": {},  # on a grid through 0
             "all_on": {"init_policy": InitPolicy(kind="all_on")},
             "random_q025": {"init_policy": InitPolicy(kind="random", q=0.25)},
             "noise": {"amp_noise": 0.05}}
    for name, kw in cases.items():
        cfg = small_config(epochs=2, **kw)
        w = run_window(cfg)
        grid, analytic, states = analytic_window(cfg)
        assert 0.0 in grid
        assert np.array_equal(grid, w.delta_t), name
        assert np.array_equal(analytic, w.analytic), name
        assert np.array_equal(states, w.states), name


def test_config_validation():
    with pytest.raises(ValueError):
        WindowConfig(geometry=make_geometry(), delta_t_min=2.0, delta_t_max=-2.0)
    with pytest.raises(ValueError):
        WindowConfig(geometry=make_geometry(), epochs=0)
    with pytest.raises(ValueError):
        WindowConfig(geometry=make_geometry(), delta_t_step=0.0)
    with pytest.raises(ValueError):
        InitPolicy(kind="random", q=1.5)


@pytest.mark.parametrize("kind", INIT_KINDS)
def test_init_kind_named_in_code_runs_as_in_a_config(kind):
    """InitPolicy(kind=name) gives the bytes of a config naming the same kind,
    and only all_off gives the all-OFF window."""
    sim = {"delta_t_min": -2.0, "delta_t_max": 2.0, "delta_t_step": 0.5, "init_policy": kind}
    cfg = parse_config({"simulation": sim}).window

    def window_bytes(name):
        window = analytic_window(dataclasses.replace(cfg, init_policy=InitPolicy(kind=name)))
        return [a.tobytes() for a in window]

    assert window_bytes(kind) == [a.tobytes() for a in analytic_window(cfg)]
    assert (window_bytes(kind) == window_bytes("all_off")) == (kind == "all_off")


def test_unknown_init_kind_rejected():
    with pytest.raises(ValueError, match="^kind: unknown init kind 'bogus'; expected one of "):
        InitPolicy(kind="bogus")


def test_windows_for_every_shape():
    for shape in ("hrht", "rect", "sawtooth", "dexp", "bio"):
        w = SpikeWaveform(shape)
        g = PairingGeometry(pre=w, post=w, bank=DendriteBank(4, 0.6, 1.0, 0.0),
                            device=DeviceModel(sigma_lrs=0.0))
        cfg = WindowConfig(geometry=g, delta_t_min=-4.0, delta_t_max=4.0,
                           delta_t_step=1.0, epochs=60, seed=5)
        win = run_window(cfg).validate()
        pos, neg = win.delta_t > 0, win.delta_t < 0
        assert np.all(win.delta_g[pos] >= 0) and np.all(win.delta_g[neg] <= 0)
        assert np.all(np.isfinite(win.analytic))


def test_distinct_post_waveform():
    g = PairingGeometry(pre=SpikeWaveform("rect"), post=SpikeWaveform("hrht"),
                        bank=DendriteBank(2, 1.0, 1.0, 0.0), device=DeviceModel())
    cfg = WindowConfig(geometry=g, delta_t_min=1.0, delta_t_max=3.0,
                       delta_t_step=1.0, epochs=10, seed=2)
    win = run_window(cfg)
    # rectangular pre tail pins the potentiation peak at 1.3 across the window
    assert np.allclose(win.analytic, win.analytic[0], atol=1e-12)


# ---------------------------------------------------------------- draw contract

def replay_offset(cfg, k, delta_t):
    """Sequential oracle of grid point k: its stream's draws in contract order.
    - Amplitude noise: the (2, E) scales, pre then post.
    - Random init: (n, E) uniforms, branch-major; a device starts ON where
      u < q.  Split init starts OFF at a positive offset, ON at a negative
      one, and alternates OFF, ON, ... over the epochs at 0.
    - With noise (per-epoch odds): the SET uniforms, then the RESET
      uniforms, (n, E) each, branch-major; each device's two attempts are
      applied in the drive's order by `replay_device`.
    - Without noise (fixed odds): branch by branch, E uniforms for a live
      branch and none for a dead one.  A device's first attempt from its
      start state (SET from OFF, RESET from ON) counts with chance c (p_set
      or p_reset); the other attempt undoes it, with chance b = p_set p_reset,
      when it comes later.  So u < a = c - b switches the device, a <= u < c
      counts both attempts and switches nothing, and u >= c counts none.  A
      branch is dead when c = 0 for every start state its devices can have.
    - Then one N(1, sigma_lrs) ON conductance per switched device, in
      branch-major order, with each one at or below 0 or beyond 6 sigma_lrs
      of 1 redrawn in turn until none is left.
    An epoch's delta_g is the running sum, from 0.0 in branch order, of
    +(g_on - g_off) for a device that ended ON and -(g_on - g_off) for one
    that ended OFF.  Returns a namespace of delta_g, n_set, n_reset, the
    stream after its last draw, the ON conductances drawn, the number of
    redraws, each epoch's count of switched devices (switches) and the
    number of dead branches (0 with noise)."""
    g, (n, E) = cfg.geometry, (cfg.geometry.bank.n, cfg.epochs)
    stream, sigma, sigma_lrs = _point_stream(cfg.seed, k), g.amp_noise_sigma, g.device.sigma_lrs
    if sigma > 0.0:
        scales = stream.normal(1.0, sigma, (2, E))
    policy = cfg.init_policy
    if policy.kind == "random":
        on0 = stream.random((n, E)) < policy.q
        mixed = 0.0 < policy.q < 1.0
    elif policy.kind == "split" and delta_t == 0.0:
        on0 = np.tile(np.arange(E) % 2 == 1, (n, 1))
        mixed = True
    else:
        on0 = np.full((n, E), policy.kind == "all_on" or (policy.kind == "split" and delta_t < 0))
        mixed = False
    n_set, n_reset, switched, dead = np.zeros(E, int), np.zeros(E, int), [], 0

    def odds(drives):  # the law once per polarity over the bank's peaks
        v_max, v_min = np.array([(d.v_max, d.v_min) for d in drives]).T
        return (set_probability(g.device, v_max), reset_probability(g.device, v_min),
                [d.reset_later for d in drives])

    def count(i, e, on, sets, resets):  # device i of epoch e ends ON if on
        n_set[e] += sets
        n_reset[e] += resets
        if on != on0[i, e]:
            switched.append((e, 1.0 if on else -1.0))

    if sigma > 0.0:
        u_set, u_reset = stream.random((n, E)), stream.random((n, E))
        per_epoch = [odds(all_branch_drives(g, delta_t, *scales[:, e])) for e in range(E)]
        for i in range(n):
            for e in range(E):
                p_set, p_reset, reset_later = per_epoch[e]
                count(i, e, *replay_device(bool(on0[i, e]), u_set[i, e] < p_set[i],
                                           u_reset[i, e] < p_reset[i], reset_later[i]))
    else:
        p_set, p_reset, reset_later = odds(all_branch_drives(g, delta_t))
        for i in range(n):
            first = {False: p_set[i], True: p_reset[i]}  # c by start state
            undo = {False: p_set[i] * p_reset[i] if reset_later[i] else 0.0,
                    True: 0.0 if reset_later[i] else p_set[i] * p_reset[i]}  # b
            starts = {False, True} if mixed else {bool(on0[i, 0])}
            if not any(first[on] > 0.0 for on in starts):
                dead += 1
                continue
            u = stream.random(E)
            for e in range(E):
                on = bool(on0[i, e])
                c, a = first[on], first[on] - undo[on]
                if u[e] < a:  # the first attempt counts and stands
                    count(i, e, not on, int(not on), int(on))
                elif u[e] < c:  # both count, the second undoing the first
                    count(i, e, on, 1, 1)
    g_on = [stream.normal(1.0, sigma_lrs) if sigma_lrs > 0.0 else 1.0 for _ in switched]
    redraws, lo, hi = 0, 1.0 - 6.0 * sigma_lrs, 1.0 + 6.0 * sigma_lrs
    while bad := [j for j, x in enumerate(g_on) if not (x > 0.0 and lo <= x <= hi)]:
        for j in bad:
            g_on[j] = stream.normal(1.0, sigma_lrs)
        redraws += len(bad)
    dg = [0.0] * E
    for (e, sign), x in zip(switched, g_on):
        dg[e] += sign * (x - g.device.g_off_norm)
    switches = np.bincount([e for e, _ in switched], minlength=E)
    return SimpleNamespace(delta_g=np.array(dg), n_set=n_set, n_reset=n_reset, stream=stream,
                           g_on=g_on, redraws=redraws, switches=switches, dead=dead)


def replay_device(on, set_ok, reset_ok, reset_later):
    """One device's SET and RESET attempts applied one after the other, RESET
    last where reset_later: (ends ON, SET count, RESET count)."""
    n_set = n_reset = 0
    attempts = [(False, set_ok), (True, reset_ok)]
    for is_reset, ok in attempts if reset_later else attempts[::-1]:
        if ok and on == is_reset:  # SET acts on an OFF device, RESET on an ON one
            on = not on
            n_set += not is_reset
            n_reset += is_reset
    return on, n_set, n_reset


ORACLE_GRID = {"delta_t_min": -5.0, "delta_t_max": 5.0, "delta_t_step": 0.5, "epochs": 150}
ORACLE_CASES = {  # config patch, expected (n_set, n_reset) of every epoch
    "random_lone_spikes": ({"simulation": {**ORACLE_GRID, "pair_only": False,
                                           "init_policy": {"random": {"q": 0.5}}}}, None),
    "noise_delay_ramp": ({"dendrites": {"delay_max": 0.3},
                          "simulation": {**ORACLE_GRID, "epochs": 30, "amp_noise_sigma": 0.05,
                                         "init_policy": {"random": {"q": 0.5}}}}, None),
    "sawtooth_all_off": ({"waveform": {"shape": "sawtooth"},
                          "simulation": {**ORACLE_GRID, "pair_only": False,
                                         "init_policy": "all_off"}}, None),
    # a steep linear law saturates the plateau probability at exactly 1
    "certain_switching": ({"dendrites": {"alpha_min": 1.0},
                           "device": {"prob_model": {"linear": {"gamma": 10.0}}},
                           "simulation": {**ORACLE_GRID, "delta_t_min": 0.5, "delta_t_max": 0.7,
                                          "init_policy": "all_off"}}, (16, 0)),
    # lone sawtooth spikes with a 1.5 V head and tail: SET and RESET peak on the
    # two sides of the same jump, both certain, so RESET wins every device
    "reset_wins_tie": ({"waveform": {"shape": "sawtooth", "a_plus": 1.5, "a_minus": 1.5},
                        "device": {"prob_model": {"linear": {"gamma": 10.0}}},
                        "simulation": {**ORACLE_GRID, "pair_only": False, "delta_t_min": 20.0,
                                       "delta_t_max": 20.5, "init_policy": "all_off"}}, (16, 16)),
    # the spikes never overlap: no attempt succeeds and every device stays ON
    "beyond_support": ({"simulation": {**ORACLE_GRID, "delta_t_min": 20.0,
                                       "delta_t_max": 20.5, "init_policy": "all_on"}}, (0, 0)),
    # about 2 % of the raw ON conductance draws are nonpositive and redrawn
    "lrs_redraw": ({"device": {"sigma_lrs": 0.49},
                    "simulation": {**ORACLE_GRID, "init_policy": {"random": {"q": 0.5}}}}, None),
    # the linear law's odds are exactly 0 below threshold: at 4.5 only 7 of
    # the 16 branches are live, and the other 9 draw nothing
    "dead_branches": ({"device": {"prob_model": {"linear": {"gamma": 2.0}}},
                       "simulation": {**ORACLE_GRID, "init_policy": "all_off"}}, None),
    # split init on a delay bank with lone-spike candidates: at 0 the epochs
    # alternate OFF and ON starts, and 16 branches can SET, 15 RESET
    "split_through_zero": ({"dendrites": {"delay_max": 1.0},
                            "simulation": {**ORACLE_GRID, "pair_only": False}}, None),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_sequential_oracle_matches_run_window(name, monkeypatch):
    patch, expect = ORACLE_CASES[name]
    cfg = parse_config(patch).window
    streams = {}  # grid point -> the stream it drew from

    def recording_stream(seed, k):
        streams[k] = _point_stream(seed, k)
        return streams[k]

    monkeypatch.setattr(montecarlo, "_point_stream", recording_stream)
    w = run_window(cfg, workers=1)
    redraws, dead = 0, {}
    for k, dt in enumerate(w.delta_t.tolist()):
        replay = replay_offset(cfg, k, dt)
        assert np.array_equal(replay.n_set, w.n_set[k]), dt
        assert np.array_equal(replay.n_reset, w.n_reset[k]), dt
        assert np.array_equal(replay.delta_g, w.delta_g[k]), dt
        # the sampler's stream ends where the oracle's does: no draw missing or
        # extra, so none for a dead branch
        assert replay.stream.bit_generator.state == streams[k].bit_generator.state, dt
        assert all(x > 0.0 for x in replay.g_on), dt
        redraws += replay.redraws
        dead[dt] = replay.dead
    assert w.max_abs_delta_g <= w.delta_g_bound
    assert (redraws > 0) == (name == "lrs_redraw")
    if name == "dead_branches":
        assert dead[4.5] == 9
    if name == "split_through_zero":
        k0 = w.delta_t.tolist().index(0.0)
        assert dead[0.0] == 0 and w.n_set[k0].any() and w.n_reset[k0].any()
    if expect is not None:
        assert np.all(w.n_set == expect[0]) and np.all(w.n_reset == expect[1])


# ---------------------------------------------------------------- pairing rule

# reset_later of each order of the peaks: RESET wins a tie of their times
ORDERS = {"reset_later": True, "tie": True, "reset_earlier": False}


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("start_on,s,r", list(itertools.product((0, 1), repeat=3)))
def test_transitions_corners_match_sequential_rule(start_on, s, r, order):
    reset_later = ORDERS[order]
    both, set_then_reset, up, down = montecarlo._transitions(
        np.uint8(s), np.uint8(r), np.bool_(reset_later))
    on, n_set, n_reset = replay_device(bool(start_on), bool(s), bool(r), reset_later)
    if start_on:  # at 0/1 attempts the law's events indicate the rule's outcome
        assert (1 - down, both - set_then_reset, r) == (on, n_set, n_reset)
    else:
        assert (up, s, set_then_reset) == (on, n_set, n_reset)


def test_transitions_on_probabilities_is_the_corner_expectation():
    rng = np.random.default_rng(3)
    p_set, p_reset = rng.random((2, 64, 16))
    p_set[:, :3], p_reset[:, 3:6] = 0.0, 1.0
    later = rng.random((64, 16)) < 0.5
    exact = montecarlo._transitions(p_set, p_reset, later)
    expect = [0.0] * 4
    for s, r in itertools.product((0, 1), repeat=2):
        weight = (p_set if s else 1.0 - p_set) * (p_reset if r else 1.0 - p_reset)
        corner = montecarlo._transitions(np.uint8(s), np.uint8(r), later)
        expect = [x + weight * c for x, c in zip(expect, corner)]
    for got, want in zip(exact, expect):
        assert np.abs(got - want).max() <= 1e-15


# setups where SET and RESET can both fire on one device in one pairing
BOTH_ATTEMPTS = {
    "all_off": {"simulation": {"pair_only": False, "init_policy": "all_off"}},
    "all_on": {"simulation": {"pair_only": False, "init_policy": "all_on"}},
    "sawtooth_delay_random": {"waveform": {"shape": "sawtooth"},
                              "dendrites": {"delay_max": 0.3},
                              "simulation": {"pair_only": False,
                                             "init_policy": {"random": {"q": 0.5}}}},
}


@pytest.mark.parametrize("name", sorted(BOTH_ATTEMPTS))
def test_mc_matches_analytic_when_both_attempts_fire(name):
    patch = BOTH_ATTEMPTS[name]
    sim = {**patch["simulation"], "epochs": 4000, "seed": 4}
    cfg = parse_config({**patch, "simulation": sim}).window
    w = run_window(cfg).validate()
    assert mc_outliers(w) == []


def expected_counts(cfg, delta_t) -> tuple[float, float]:
    """Exact (E[n_set], E[n_reset]) of an epoch at delta_t, summed over the
    branches: a device that starts OFF SETs with chance c = p_set, then
    RESETs with chance b = p_set p_reset if RESET comes later; one that
    starts ON RESETs with chance p_reset, then SETs with chance p_set p_reset
    if SET comes later.  The start states mix as the init policy says."""
    drives = all_branch_drives(cfg.geometry, delta_t)
    p_set, p_reset = (np.array([getattr(d, f) for d in drives]) for f in ("p_set", "p_reset"))
    later = np.array([d.reset_later for d in drives])
    policy = cfg.init_policy
    q = {"random": policy.q, "all_on": 1.0, "all_off": 0.0,
         "split": 0.5 if delta_t == 0.0 else float(delta_t < 0.0)}[policy.kind]
    both = p_set * p_reset
    return (float(((1.0 - q) * p_set + q * both * ~later).sum()),
            float(((1.0 - q) * both * later + q * p_reset).sum()))


# fig4d's pair_only peaks almost never let both attempts fire (the b odds sum
# to 1.5e-8 over its grid), so the lone-spike case is the one where an
# attempt undone by the other carries weight (b sums to 62 from OFF, 20 from ON)
COUNT_CASES = {"fig4d": {}, "all_on": {"init_policy": "all_on"},
               "random_q025": {"init_policy": {"random": {"q": 0.25}}},
               "lone_spikes_random_q025": {"pair_only": False,
                                           "init_policy": {"random": {"q": 0.25}}}}


@pytest.mark.parametrize("name", sorted(COUNT_CASES))
def test_mean_counts_match_their_expectation(name):
    """Each offset's MC means of n_set and n_reset lie within 4 standard
    errors of their exact expectation (`expected_counts`), or, where all
    epochs agree, within n ln(1e6) / N of it (the counts lie in [0, n]; see
    `validate.zero_var_tolerance`).  delta_g does not see the split of an
    attempt that counted into one that stands and one undone, so
    `mc_outliers` would not catch these counts swapped."""
    fig4d = json.loads((Path(__file__).resolve().parents[1] / "configs" / "fig4d.json").read_text())
    cfg = parse_config({**fig4d, "simulation": {**fig4d["simulation"],
                                                **COUNT_CASES[name]}}).window
    w = run_window(cfg)
    expect = np.array([expected_counts(cfg, dt) for dt in w.delta_t.tolist()])
    bad = []
    for j, counts in enumerate((w.n_set, w.n_reset)):
        mean, std = counts.mean(axis=1), counts.std(axis=1, ddof=1)
        diff = np.abs(mean - expect[:, j])
        tol = np.where(std > 0, 4.0 * std / np.sqrt(w.epochs),
                       w.n_branches * math.log(1e6) / w.epochs)
        bad += [(("n_set", "n_reset")[j], dt) for dt in w.delta_t[diff > tol].tolist()]
    assert bad == []


# setups where every device of an epoch starts in the same state: with
# sigma_lrs = 0 and an infinite OFF resistance |delta_g| is then the number
# of devices that switched, whose pmf is the `states` row
SAME_START = {
    "all_off": BOTH_ATTEMPTS["all_off"],
    "all_on": BOTH_ATTEMPTS["all_on"],
    "split_fig4d": {},
    "delay_bank_noise": {"dendrites": {"delay_max": 0.3},
                         "simulation": {"amp_noise_sigma": 0.05}},
}


def same_start_window(name: str, seed: int):
    patch = SAME_START[name]
    sim = {**patch.get("simulation", {}), "epochs": 2000, "delta_t_step": 0.25, "seed": seed}
    return run_window(parse_config({**patch, "device": {"sigma_lrs": 0.0},
                                    "simulation": sim}).window)


def count_outliers(delta_t, switches, states) -> list[tuple[float, int, float]]:
    """(delta_t, state, p) of each cell where the number of epochs that
    switched `state` devices is beyond an exact two-sided binomial test
    against `states`, at a family-wise level of 1e-6 over the P (n + 1)
    cells; switches is the (P, E) integer count of each epoch."""
    from scipy.stats import binom
    epochs, n_cells = switches.shape[1], states.size
    out = []
    for k, dt in enumerate(delta_t):
        counts = np.bincount(switches[k], minlength=states.shape[1])
        p = np.clip(states[k], 0.0, 1.0)
        tail = 2.0 * np.minimum(binom.cdf(counts, epochs, p), binom.sf(counts - 1, epochs, p))
        out += [(float(dt), j, float(tail[j])) for j in np.nonzero(tail < 1e-6 / n_cells)[0]]
    return out


def state_outliers(w, states) -> list[tuple[float, int, float]]:
    """count_outliers of a window whose |delta_g| is its count of switches."""
    switched = np.abs(w.delta_g)
    assert np.array_equal(switched, np.round(switched))
    return count_outliers(w.delta_t, switched.astype(int), states)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SAME_START))
def test_states_match_switch_counts(name, seed):
    w = same_start_window(name, seed)
    assert state_outliers(w, w.states) == []


def test_switch_count_check_flags_wrong_states():
    off, on = same_start_window("all_off", 1), same_start_window("all_on", 1)
    delay = same_start_window("delay_bank_noise", 1)
    assert len(state_outliers(off, on.states)) > 100
    assert len(state_outliers(delay, same_start_window("split_fig4d", 1).states)) > 20


# under random init ups and downs cancel in delta_g, so each epoch's count of
# switched devices is taken from the sequential oracle, which replays the
# sampler's draws
RANDOM_INIT_GRID = {"delta_t_min": -4.5, "delta_t_max": 4.5, "delta_t_step": 1.5,
                    "epochs": 2000, "seed": 5}


@pytest.mark.parametrize("q", [0.25, 0.5])
def test_random_init_states_match_switch_counts(q):
    cfg = parse_config({"simulation": {**RANDOM_INIT_GRID,
                                       "init_policy": {"random": {"q": q}}}}).window
    switches = np.array([replay_offset(cfg, k, dt).switches
                         for k, dt in enumerate(cfg.grid().tolist())])
    grid, _, states = analytic_window(cfg)
    assert count_outliers(grid, switches, states) == []
    # power: the all-OFF window's states are flagged at every offset where
    # a device can switch (none does at 0, where every peak is below 0.4 V)
    all_off = analytic_window(dataclasses.replace(cfg, init_policy=InitPolicy("all_off")))[2]
    flagged = {dt for dt, _, _ in count_outliers(grid, switches, all_off)}
    assert flagged == set(grid.tolist()) - {0.0}
