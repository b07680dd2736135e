import dataclasses
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from synstdp import (ClosedFormParams, ConfigError, DendriteBank, EnergyScenario, StdpWindow,
                     WindowConfig, default_config, load_config, parse_config, run_window)
from synstdp.cli import main
from synstdp.closedform import MAX_N
from synstdp.config import load_params
from synstdp.energy import MAX_COUNT, MAX_DEVICES
from synstdp.montecarlo import MAX_OFFSET_TRIALS, MAX_ROWS, MAX_TRIALS
from synstdp.output import (read_mean_csv, write_states_csv, write_svg_scatter,
                            write_svg_states, write_window_csv)
from tests.test_golden import CASES as GOLDEN_CASES
from tests.test_montecarlo import small_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_empty_config_is_attenuation_reference_setup():
    cfg = parse_config({})
    win, g = cfg.window, cfg.window.geometry
    assert g.bank.n == 16
    assert g.bank.alphas[0] == 0.6 and g.bank.alphas[-1] == 1.0
    assert all(d == 0.0 for d in g.bank.delays)
    assert g.pre.shape == "hrht"
    assert g.post == g.pre
    assert g.device.sigma_th == 0.1 and g.device.sigma_lrs == 0.1
    assert g.device.r_off_ratio is None
    assert (win.delta_t_min, win.delta_t_max, win.delta_t_step) == (-6.0, 6.0, 0.1)
    assert win.epochs == 10_000 and win.seed == 42
    assert win.init_policy.kind == "split"
    assert g.pair_only and g.amp_noise_sigma == 0.0
    assert default_config() == cfg


def test_invalid_branch_count_names_key():
    with pytest.raises(ConfigError, match="dendrites.n"):
        parse_config({"dendrites": {"n": 0}})


def test_shipped_reference_configs():
    fig4b = load_config(CONFIGS / "fig4b.json")
    assert fig4b.window.geometry.bank.alphas == tuple([1.0] * 16)
    fig4d = load_config(CONFIGS / "fig4d.json")
    assert fig4d == default_config()
    fig7 = load_config(CONFIGS / "fig7_delay.json")
    delays = fig7.window.geometry.bank.delays
    assert max(delays) == 0.3 and delays[0] == 0.0


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match="config"):
        parse_config({"bogus": 1})
    with pytest.raises(ConfigError, match="waveform"):
        parse_config({"waveform": {"shape": "hrht", "nope": 2}})
    with pytest.raises(ConfigError, match="device"):
        parse_config({"device": {"r_on": 1e6}})
    with pytest.raises(ConfigError, match="simulation"):
        parse_config({"simulation": {"steps": 5}})
    with pytest.raises(ConfigError, match="dendrites"):
        parse_config({"dendrites": {"alphamin": 0.5}})


def test_invariant_violations_have_paths():
    with pytest.raises(ConfigError, match="waveform"):
        parse_config({"waveform": {"tau_minus": 0.0}})
    with pytest.raises(ConfigError, match="device"):
        parse_config({"device": {"sigma_th": -1.0}})
    with pytest.raises(ConfigError, match="^simulation.dt_step: "):
        parse_config({"waveform": {"shape": "bio"}, "simulation": {"dt_step": 0.5}})
    assert parse_config({"simulation": {"dt_step": 0.5}}).window.geometry.dt_step == 0.5
    with pytest.raises(ConfigError, match="init_policy"):
        parse_config({"simulation": {"init_policy": "sometimes"}})
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config({"schema_version": 99})


def test_linear_prob_model_and_random_policy_round_trip():
    cfg = parse_config({
        "device": {"prob_model": {"linear": {"gamma": 3.0}}},
        "simulation": {"init_policy": {"random": {"q": 0.25}}},
    })
    assert cfg.window.geometry.device.prob_model.kind == "linear"
    assert cfg.window.geometry.device.prob_model.gamma == 3.0
    assert cfg.window.init_policy.q == 0.25
    again = parse_config(cfg.to_dict())
    assert again == cfg


def test_to_dict_round_trip_of_defaults():
    cfg = default_config()
    assert parse_config(cfg.to_dict()) == cfg


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)


# ---------------------------------------------------------------- csv / svg

def test_window_csv_line_counts(tmp_path):
    cfg = dataclasses.replace(small_config(epochs=2), delta_t_min=0.5,
                              delta_t_max=0.6, delta_t_step=5.0)
    w = run_window(cfg)
    paths = write_window_csv(w, tmp_path)
    lines = paths["window"].read_text().splitlines()
    assert len(lines) == 3  # header + 2 epochs at the single grid point
    assert lines[0] == "delta_t,epoch,delta_g_norm,n_set,n_reset"


def test_mean_csv_round_trips_exactly(tmp_path):
    w = run_window(small_config(epochs=50))
    write_window_csv(w, tmp_path)
    dt, mean, std, analytic = read_mean_csv(tmp_path / "mean.csv")
    assert np.array_equal(dt, w.delta_t)
    assert np.array_equal(mean, w.delta_g.mean(axis=1))
    assert np.array_equal(std, w.delta_g.std(axis=1))
    assert np.array_equal(analytic, w.analytic)


def test_states_csv_groups_sum_to_one(tmp_path):
    w = run_window(small_config(epochs=5))
    write_window_csv(w, tmp_path)
    sums = {}
    for line in (tmp_path / "states.csv").read_text().splitlines()[1:]:
        dt, _, prob = line.split(",")
        sums[dt] = sums.get(dt, 0.0) + float(prob)
    assert len(sums) == w.delta_t.size
    assert all(abs(s - 1.0) <= 1e-9 for s in sums.values())


def test_csv_row_ordering(tmp_path):
    w = run_window(small_config(epochs=3))
    write_window_csv(w, tmp_path)
    rows = [line.split(",")[:2] for line in
            (tmp_path / "window.csv").read_text().splitlines()[1:]]
    keys = [(float(dt), int(e)) for dt, e in rows]
    assert keys == sorted(keys)


def _reference_csvs(w: StdpWindow) -> dict[str, str]:
    """The writer as one formatted write per row: repr(float(x)) of each
    numpy scalar and int(n) of each count.  The array writers must match it
    byte for byte."""
    window = ["delta_t,epoch,delta_g_norm,n_set,n_reset\n"]
    mean = ["delta_t,mc_mean,mc_std,analytic\n"]
    states = ["delta_t,state_index,probability\n"]
    for k, dt in enumerate(w.delta_t):
        for e in range(w.epochs):
            window.append(f"{float(dt)!r},{e},{float(w.delta_g[k, e])!r},"
                          f"{int(w.n_set[k, e])},{int(w.n_reset[k, e])}\n")
        mean.append(f"{float(dt)!r},{float(w.delta_g[k].mean())!r},"
                    f"{float(w.delta_g[k].std())!r},{float(w.analytic[k])!r}\n")
        for s in range(w.states.shape[1]):
            states.append(f"{float(dt)!r},{s},{float(w.states[k, s])!r}\n")
    return {"window.csv": "".join(window), "mean.csv": "".join(mean),
            "states.csv": "".join(states)}


EDGE_FLOATS = [-0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, 123456789.125]


def _edge_window(delta_t, epochs: int) -> StdpWindow:
    """A hand-built window whose cells cycle through EDGE_FLOATS (and their
    negatives) and through the counts 0 and 16."""
    p = len(delta_t)
    values = np.resize(EDGE_FLOATS + [-x for x in EDGE_FLOATS], p * epochs)
    counts = np.resize(np.array([0, 16, 3], dtype=np.int32), p * epochs)
    return StdpWindow(
        delta_t=np.array(delta_t, dtype=float),
        delta_g=values.reshape(p, epochs),
        n_set=counts.reshape(p, epochs),
        n_reset=counts[::-1].reshape(p, epochs),
        analytic=np.resize(EDGE_FLOATS, p),
        states=np.resize(EDGE_FLOATS + [0.0, 1.0], (p, 17)), sigma_lrs=0.0)


EDGE_WINDOWS = {
    "one-offset": ([-0.0], 6),
    "one-offset-one-epoch": ([-0.0], 1),
    "offsets-one-epoch": ([-0.0, -6.0, 0.1 + 0.2, 1e-05, 5e-324, 123456789.125], 1),
    "offsets-epochs": ([-1.5, -0.0, 0.1 + 0.2, 6.0], 7),
    # more epochs than pairs of counts up to (16, 16): the tails come from a table
    "offsets-many-epochs": ([-1.5, 0.1 + 0.2], 300),
}


@pytest.mark.parametrize("name", sorted(EDGE_WINDOWS))
def test_csv_writers_match_per_row_reference(tmp_path, name):
    w = _edge_window(*EDGE_WINDOWS[name])
    expected = _reference_csvs(w)
    write_window_csv(w, tmp_path / "w")
    for file, text in expected.items():
        assert (tmp_path / "w" / file).read_bytes() == text.encode(), file
    path = write_states_csv(w.delta_t, w.states, tmp_path / "s" / "states.csv")
    assert path.read_bytes() == expected["states.csv"].encode()


@pytest.mark.parametrize("name", sorted(EDGE_WINDOWS))
def test_window_csv_from_a_pool_matches_per_row_reference(tmp_path, name):
    """The rows of a two-process pool, written in grid order, are the
    per-row reference's bytes (and so the one-process writer's)."""
    w = _edge_window(*EDGE_WINDOWS[name])
    write_window_csv(w, tmp_path, workers=2)
    for file, text in _reference_csvs(w).items():
        assert (tmp_path / file).read_bytes() == text.encode(), file


def test_svg_deterministic_and_valid():
    w = run_window(small_config(epochs=20))
    a = write_svg_scatter(w)
    b = write_svg_scatter(w)
    assert a == b
    assert a.startswith("<svg") and a.rstrip().endswith("</svg>")
    assert "<circle" in a and "<polyline" in a and "text" in a


@pytest.mark.parametrize("level_bin", [1.0, 0.25, 1e-9])
def test_svg_has_one_dot_per_binned_level(level_bin):
    # at 1e-9 the bins span more levels than there are epochs
    w = run_window(small_config(epochs=50))
    svg = write_svg_scatter(w, level_bin=level_bin)
    levels = [np.unique(np.round(row / level_bin)) for row in w.delta_g]
    assert svg.count("<circle") == sum(len(x) for x in levels)
    assert svg.count('fill-opacity="1.0000"') >= len(w.delta_t)


def test_svg_single_point_window():
    cfg = dataclasses.replace(small_config(epochs=2), delta_t_min=0.5,
                              delta_t_max=0.6, delta_t_step=5.0)
    svg = write_svg_scatter(run_window(cfg))
    assert svg.count("<circle") >= 1


def test_svg_states_plot():
    w = run_window(small_config(epochs=5))
    svg = write_svg_states(w.delta_t, w.states)
    assert svg.startswith("<svg") and svg.count("<polyline") == w.states.shape[1]


def test_post_waveform_section():
    cfg = parse_config({"waveform": {"shape": "rect"},
                        "post_waveform": {"shape": "hrht", "a_plus": 0.8}})
    g = cfg.window.geometry
    assert g.pre.shape == "rect"
    assert g.post.shape == "hrht" and g.post.a_plus == 0.8
    assert parse_config(cfg.to_dict()) == cfg


NON_FINITE = [
    ("device.sigma_th", {"device": {"sigma_th": float("nan")}}),
    ("simulation.amp_noise_sigma", {"simulation": {"amp_noise_sigma": float("nan")}}),
    ("waveform.tau_plus", {"waveform": {"tau_plus": float("inf")}}),
    ("dendrites.delay_max", {"dendrites": {"delay_max": float("nan")}}),
    ("waveform.extra.tau_head", {"waveform": {"shape": "dexp", "extra": {"tau_head": float("nan")}}}),
    ("simulation.delta_t_max", {"simulation": {"delta_t_max": 10 ** 400}}),
    ("simulation.seed", {"simulation": {"seed": 10 ** 400}}),
]


@pytest.mark.parametrize("key,raw", NON_FINITE, ids=[k for k, _ in NON_FINITE])
def test_non_finite_numbers_rejected_with_path(tmp_path, capsys, key, raw):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw), encoding="utf-8")  # NaN / Infinity literals
    with pytest.raises(ConfigError, match=f"{key}: must be a finite number"):
        load_config(path)
    assert main(["window", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert f"error: {key}: must be a finite number" in capsys.readouterr().err


def test_non_finite_cli_exits_1_without_traceback(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dendrites": {"delay_max": NaN}}', encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "synstdp.cli", "statedist", "--config",
                           str(path), "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env={"PYTHONPATH": str(src)})
    assert proc.returncode == 1
    assert "dendrites.delay_max" in proc.stderr and "Traceback" not in proc.stderr


BAD_INTEGERS = [  # JSON true/false are not counts, and seeds are non-negative
    ("simulation.seed", {"simulation": {"seed": True}}, "expected int, got True"),
    ("simulation.epochs", {"simulation": {"epochs": True}}, "expected int, got True"),
    ("dendrites.n", {"dendrites": {"n": False}}, "expected int, got False"),
    ("simulation.seed", {"simulation": {"seed": -1}}, "must be a non-negative integer, got -1"),
]


@pytest.mark.parametrize("key,raw,msg", BAD_INTEGERS,
                         ids=["seed-true", "epochs-true", "n-false", "seed-negative"])
def test_bool_and_negative_integers_rejected_with_path(tmp_path, capsys, key, raw, msg):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"{key}: {msg}"):
        load_config(path)
    assert main(["window", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert f"error: {key}: {msg}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_negative_seed_flag_exits_1_naming_the_seed(tmp_path, capsys):
    assert main(["window", "--out", str(tmp_path / "o"), "--seed", "-1", "--epochs", "1"]) == 1
    assert "error: --seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


NULLS = [  # null stands for "unset" only where the default is None (r_off_ratio)
    ("simulation.epochs", {"simulation": {"epochs": None}}, "expected int, got None"),
    ("output.svg", {"output": {"svg": None}}, "expected bool, got None"),
    ("waveform.a_plus", {"waveform": {"a_plus": None}}, "expected float, got None"),
    ("waveform.extra.tau_head", {"waveform": {"shape": "dexp", "extra": {"tau_head": None}}},
     "expected float, got None"),
]


@pytest.mark.parametrize("key,raw,msg", NULLS, ids=[k for k, _, _ in NULLS])
def test_null_rejected_where_the_default_is_a_value(tmp_path, capsys, key, raw, msg):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["statedist", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {key}: {msg}\n"


# values that reached numpy as an overflow (a square in a bio lobe, a
# quotient in a dexp piece, delta_g / level_bin in the scatter, a curved
# grid's int64 index, the offset grid's span) fail at parse time under their
# key, before any warning; so does an offset step below grid()'s 1e-10
# rounding, which repeated offsets silently
OVERFLOWS = [
    ("waveform.extra.head_width", {"waveform": {"shape": "bio", "extra": {"head_width": 1e-200}}}),
    ("waveform.extra.head_center", {"waveform": {"shape": "bio", "extra": {"head_center": 1e300}}}),
    ("waveform.extra.tau_head", {"waveform": {"shape": "dexp", "extra": {"tau_head": 1e-310}}}),
    ("output.level_bin", {"output": {"level_bin": 5e-324}}),
    ("simulation.delta_t_min", {"waveform": {"shape": "bio"}, "simulation": {
        "delta_t_min": 1e20, "delta_t_max": 1.5e20, "delta_t_step": 1e20}}),
    ("simulation.delta_t_min", {"simulation": {
        "delta_t_min": -1e300, "delta_t_max": 1e300, "delta_t_step": 1e300}}),
    ("simulation.delta_t_step", {"simulation": {
        "delta_t_min": 0.0, "delta_t_max": 1e-9, "delta_t_step": 1e-11}}),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key,raw", OVERFLOWS, ids=[k for k, _ in OVERFLOWS])
def test_values_that_overflow_in_numpy_fail_at_parse_time(tmp_path, capsys, key, raw):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    args = ["window", "--config", str(path), "--epochs", "20", "--out", str(tmp_path / "o")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: must be ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error")
def test_curved_statedist_at_the_ends_of_the_offset_range(tmp_path):
    """dexp without pair_only at offsets of +-MAX_TIME: the curved grid's
    index stays within int64 and nothing warns."""
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"waveform": {"shape": "dexp"}, "simulation": {
        "pair_only": False, "delta_t_min": -1e6, "delta_t_max": 1e6, "delta_t_step": 1e6}}))
    assert main(["statedist", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "states.csv").read_text().splitlines()[1:]
    assert sorted({float(r.split(",")[0]) for r in rows}) == [-1e6, 0.0, 1e6]


# one out-of-range value for each rule about one field, keyed by its path; a
# --params file's keys are under the class name
ONE_FIELD_RANGES = [
    ("waveform.shape", "sine"), ("waveform.a_plus", 0.0), ("waveform.a_minus", -0.1),
    ("waveform.tau_minus", 0.0), ("waveform.tau_plus", -1.0), ("waveform.extra.tau_tail", 0.0),
    ("waveform.tau_minus", 1e-7), ("waveform.tau_plus", 2e6), ("waveform.extra.tau_tail", 2e6),
    ("post_waveform.a_plus", 11.0),
    ("dendrites.n", 0), ("dendrites.alpha_min", 0.0), ("dendrites.alpha_max", 1.5),
    ("dendrites.delay_max", -0.1), ("dendrites.delay_assignment", "spiral"),
    ("device.vth_pos", 0.0), ("device.vth_neg", 0.5), ("device.sigma_th", 0.0),
    ("device.r_on_ohm", -1), ("device.sigma_lrs", 0.5), ("device.r_off_ratio", 1.0),
    ("device.prob_model.linear.gamma", 0.0),
    ("simulation.dt_step", 0.0), ("simulation.amp_noise_sigma", -0.1),
    ("simulation.delta_t_step", 0.0), ("simulation.epochs", 0), ("simulation.seed", -1),
    ("simulation.init_policy.random.q", 1.5),
    ("output.level_bin", 0.0),
    *[(f"ClosedFormParams.{k}", -1.0) for k in ("a_total", "delta_v", "beta", "v_th", "gamma")],
    ("ClosedFormParams.n", 0), ("ClosedFormParams.n", MAX_N + 1),
    *[(f"EnergyScenario.{k}", 0.0) for k in ("tau_minus_s", "tau_plus_s", "a_plus_v",
                                             "r_on_ohm", "e_neuron_j", "eta_act", "eta_on")],
    ("EnergyScenario.a_minus_v", -1.0), ("EnergyScenario.synapses", MAX_COUNT + 1),
    ("EnergyScenario.neurons", -1), ("EnergyScenario.devices_per_synapse", MAX_DEVICES + 1),
]
PARAMS_FILES = {"ClosedFormParams": (ClosedFormParams, CONFIGS / "closedform.json"),
                "EnergyScenario": (EnergyScenario, CONFIGS / "energy_custom.json")}


@pytest.mark.parametrize("key,value", ONE_FIELD_RANGES,
                         ids=[f"{k}={v}" for k, v in ONE_FIELD_RANGES])
def test_one_field_range_error_starts_with_its_key(tmp_path, key, value):
    head, _, field = key.partition(".")
    if head in PARAMS_FILES:
        cls, base = PARAMS_FILES[head]
        path = tmp_path / "params.json"
        path.write_text(json.dumps({**json.loads(base.read_text()), field: value}))
        with pytest.raises(ConfigError) as e:
            load_params(path, cls)
        key = f"{path}: {key}"
    else:
        raw = value
        for part in reversed(key.split(".")):
            raw = {part: raw}
        if key.startswith("waveform.extra."):
            raw["waveform"]["shape"] = "dexp"
        with pytest.raises(ConfigError) as e:
            parse_config(raw)
    assert str(e.value).startswith(f"{key}: ")


def test_unknown_waveform_extra_is_filed_under_extra():
    with pytest.raises(ConfigError) as e:
        parse_config({"post_waveform": {"shape": "dexp", "extra": {"tau_nope": 1.0}}})
    assert str(e.value) == "post_waveform.extra: unknown keys ['tau_nope']"


# a bank is echoed to resolved-config.json as the five numbers it was given,
# also where two of them give the same branches
BANK_ECHOES = [
    {"n": 1},
    {"delay_assignment": "uniform"},
    {"delay_assignment": "reversed"},
    {"n": 1, "delay_max": 0.3},
    {"n": 1, "delay_max": 0.3, "delay_assignment": "uniform"},
    {"n": 1, "delay_max": 0.3, "delay_assignment": "reversed"},
]
ROUND_TRIPS = {
    **{p.name: p for p in sorted(CONFIGS.glob("fig*.json"))},
    **{f"perfbench/{p.name}": p for p in sorted((CONFIGS.parent / "perfbench" / "configs")
                                                .glob("*.json"))},
    **{f"golden/{name}": case for name, case in GOLDEN_CASES.items()},
    **{f"bank/{i}": {"dendrites": bank} for i, bank in enumerate(BANK_ECHOES)},
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
def test_to_dict_round_trip(name):
    case = ROUND_TRIPS[name]
    cfg = load_config(case) if isinstance(case, Path) else parse_config(case)
    again = parse_config(cfg.to_dict())
    assert again == cfg and again.to_dict() == cfg.to_dict()
    raw = json.loads(case.read_text()) if isinstance(case, Path) else case
    given = {**raw.get("dendrites", {}), **raw.get("simulation", {})}
    written = {**cfg.to_dict()["dendrites"], **cfg.to_dict()["simulation"]}
    assert {k: v for k, v in written.items() if k in given} == given


BOUND = r"^simulation: .* exceeds the bound of "
# (id, config, its error): a run-size bound, or a time range met before it
RUN_SIZES = [
    ("epochs", {"simulation": {"epochs": 10**9}}, BOUND),
    ("offsets", {"dendrites": {"n": 1}, "simulation": {"epochs": 1, "delta_t_step": 1e-12}},
     r"^simulation\.delta_t_step: must be >= 1e-06, got 1e-12$"),
    # the most offsets the time ranges admit: 2e12 + 1
    ("offsets-in-range", {"dendrites": {"n": 1}, "simulation": {
        "epochs": 1, "delta_t_min": -1e6, "delta_t_max": 1e6, "delta_t_step": 1e-6}},
     r"^simulation: 2000000000001 offsets x 1 epochs exceeds the bound of "),
    ("branches", {"dendrites": {"n": 10**9}}, BOUND),
    ("one-offset", {"simulation": {"delta_t_min": 0.0, "delta_t_max": 0.5, "delta_t_step": 1.0,
                                   "epochs": 10**6}}, BOUND),
    # a curved shape's grid over both spike supports: > 10^8 candidates an offset
    ("grid-tau", {"waveform": {"shape": "bio", "tau_plus": 1e5}}, BOUND),
    ("grid-step", {"waveform": {"shape": "bio"}, "simulation": {"dt_step": 1e-6}}, BOUND),
]


@pytest.mark.parametrize("raw,error", [case[1:] for case in RUN_SIZES],
                         ids=[case[0] for case in RUN_SIZES])
def test_run_size_bound_fails_at_parse_time_without_allocating(raw, error):
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=error):
            parse_config(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_run_size_bounds_are_inclusive():
    g = default_config().window.geometry
    one_offset = dict(delta_t_min=0.0, delta_t_max=0.5, delta_t_step=1.0)
    g1 = dataclasses.replace(g, bank=DendriteBank(1))
    # 10 and 100 offsets keep each offset under MAX_OFFSET_TRIALS
    ten = dict(delta_t_min=0.0, delta_t_max=9.0, delta_t_step=1.0)
    hundred = dict(delta_t_min=0.0, delta_t_max=99.0, delta_t_step=1.0)
    assert WindowConfig(g1, **ten, epochs=MAX_ROWS // 10).n_offsets() == 10
    with pytest.raises(ValueError, match="10 offsets x 10000001 epochs exceeds"):
        WindowConfig(g1, **ten, epochs=MAX_ROWS // 10 + 1)
    epochs = MAX_TRIALS // (100 * g.bank.n)
    assert WindowConfig(g, **hundred, epochs=epochs).n_offsets() == 100
    with pytest.raises(ValueError, match=f"x {epochs + 1} epochs x 16 branches exceeds"):
        WindowConfig(g, **hundred, epochs=epochs + 1)
    epochs = MAX_OFFSET_TRIALS // g.bank.n
    WindowConfig(g, **one_offset, epochs=epochs)
    with pytest.raises(ValueError, match=f"^{epochs + 1} epochs x 16 branches exceeds the bound "
                                         f"of {MAX_OFFSET_TRIALS} trials in one offset$"):
        WindowConfig(g, **one_offset, epochs=epochs + 1)
    # offsets are times: their range is inclusive, and a span beyond it fails
    # before its offsets are counted
    assert WindowConfig(g, delta_t_min=-1e6, delta_t_max=1e6, delta_t_step=1e6,
                        epochs=1).n_offsets() == 3
    far = dict(delta_t_min=-1e308, delta_t_max=1e308, delta_t_step=1.0)
    with pytest.raises(ValueError, match=r"^delta_t_min: must be in \[-1e\+06, 1e\+06\], "
                                         r"got -1e\+308$"):
        WindowConfig(g, **far, epochs=1)


def test_epochs_flag_is_bounded_too(tmp_path, capsys):
    assert main(["window", "--out", str(tmp_path / "o"), "--epochs", str(10**9)]) == 1
    assert capsys.readouterr().err == ("error: 121 offsets x 1000000000 epochs exceeds "
                                       "the bound of 100000000 window rows\n")
    assert not (tmp_path / "o").exists()
