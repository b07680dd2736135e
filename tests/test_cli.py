import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from synstdp.cli import main
from synstdp.closedform import MAX_N
from synstdp.energy import MAX_COUNT
from tests.test_montecarlo import record_pools

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def quick_config(tmp_path):
    path = tmp_path / "quick.json"
    path.write_text(json.dumps({
        "simulation": {"delta_t_min": -2.0, "delta_t_max": 2.0, "delta_t_step": 0.5,
                       "epochs": 50, "seed": 9},
    }), encoding="utf-8")
    return path


def test_window_subcommand(tmp_path, quick_config, capsys):
    out = tmp_path / "results"
    assert main(["window", "--config", str(quick_config), "--out", str(out)]) == 0
    for name in ("window.csv", "mean.csv", "states.csv", "window.svg", "resolved-config.json"):
        assert (out / name).exists()
    resolved = json.loads((out / "resolved-config.json").read_text())
    assert resolved["simulation"]["epochs"] == 50


def test_window_seed_override_changes_output(tmp_path, quick_config):
    out1, out2, out3 = tmp_path / "r1", tmp_path / "r2", tmp_path / "r3"
    main(["window", "--config", str(quick_config), "--out", str(out1)])
    main(["window", "--config", str(quick_config), "--out", str(out2), "--seed", "123"])
    main(["window", "--config", str(quick_config), "--out", str(out3)])
    w1 = (out1 / "window.csv").read_bytes()
    assert w1 != (out2 / "window.csv").read_bytes()
    assert w1 == (out3 / "window.csv").read_bytes()


def test_fit_subcommand_on_window_results(tmp_path, quick_config):
    out = tmp_path / "results"
    main(["window", "--config", str(quick_config), "--out", str(out)])
    code = main(["fit", "--in", str(out), "--side", "pos", "--model", "lin",
                 "--domain", "0.5", "2.0"])
    assert code == 0
    fits = json.loads((out / "fits.json").read_text())
    assert fits["model"] == "linear" and "slope" in fits["params"]
    assert fits["side"] == "pos"


def test_fit_uses_resolved_config_for_default_domain(tmp_path, quick_config):
    out = tmp_path / "results"
    main(["window", "--config", str(quick_config), "--out", str(out)])
    assert main(["fit", "--in", str(out), "--side", "neg", "--model", "quad"]) == 0
    fits = json.loads((out / "fits.json").read_text())
    assert fits["domain"] == [-2.0, -1.0]  # grid only reaches -2 of [-6, -1]


def test_fit_defaults_are_exponential_on_the_run_domain(tmp_path):
    """`synstdp fit --in DIR` alone: the exp model on the analytic curve's
    positive side over [tau_minus, tau_minus + tau_plus] of the run's
    resolved-config.json, here not the defaults' [1, 6]."""
    config, out = tmp_path / "short.json", tmp_path / "results"
    config.write_text(json.dumps({
        "waveform": {"tau_minus": 0.5, "tau_plus": 2.0},
        "simulation": {"delta_t_min": -3.0, "delta_t_max": 3.0, "delta_t_step": 0.25,
                       "epochs": 20, "seed": 9},
    }), encoding="utf-8")
    assert main(["window", "--config", str(config), "--out", str(out)]) == 0
    assert main(["fit", "--in", str(out)]) == 0
    fits = json.loads((out / "fits.json").read_text())
    assert fits["model"] == "exponential"
    assert (fits["side"], fits["source"], fits["domain"]) == ("pos", "analytic", [0.5, 2.5])


def test_fit_missing_results_dir_fails(tmp_path):
    assert main(["fit", "--in", str(tmp_path / "nope")]) == 1


@pytest.mark.parametrize("body", ["", "0.5,1.0,0.1\n", "0.5,1.0,0.1,x\n", "0.5,1.0,0.1,nan\n",
                                  "0.5,1.0,0.1,0.2\n1.0,1.0,0.1,inf\n"],
                         ids=["header-only", "short-row", "not-a-number", "nan", "inf"])
def test_fit_bad_mean_csv_exits_1_naming_the_file(tmp_path, capsys, body):
    mean_csv = tmp_path / "mean.csv"
    mean_csv.write_text("delta_t,mc_mean,mc_std,analytic\n" + body, encoding="utf-8")
    assert main(["fit", "--in", str(tmp_path), "--domain", "0.5", "2.0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {mean_csv}") and "Traceback" not in err


def test_statedist_subcommand(tmp_path, quick_config):
    out = tmp_path / "states"
    assert main(["statedist", "--config", str(quick_config), "--out", str(out)]) == 0
    lines = (out / "states.csv").read_text().splitlines()
    assert lines[0] == "delta_t,state_index,probability"
    assert (out / "states.svg").exists()


def test_closedform_subcommand(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["closedform", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["fitted_coeffs"]["c"] > 0
    assert abs(rep["published_coeffs"]["b"] - 0.64) < 1e-12
    assert main(["closedform", "--params", str(CONFIGS / "closedform.json")]) == 0


# SHA-256 of the closed-form report on stdout.  The default parameters and
# configs/closedform.json are one set, so they print the same bytes.
WORKED_REPORT = "1e35c0c12418f9add3198dde6e8a6c1b7431700101f922824625b3184c2eba7a"
CLOSEDFORM_DIGESTS = {
    "default": ([], WORKED_REPORT),
    "params-file": (["--params", str(CONFIGS / "closedform.json")], WORKED_REPORT),
    "interval": (["--interval", "0.1", "0.2"],
                 "f584103ef88cef29f1201484d6b0ad70f27234143c3ad6afbf6976a60d0e30e0"),
}


@pytest.mark.parametrize("name", sorted(CLOSEDFORM_DIGESTS))
def test_closedform_report_bytes(name, capsys):
    args, digest = CLOSEDFORM_DIGESTS[name]
    assert main(["closedform", *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_1_quietly(flags):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run([sys.executable, *flags, "-m", "synstdp.cli", "closedform"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_energy_subcommand(tmp_path, capsys):
    assert main(["energy"]) == 0
    text = capsys.readouterr().out
    assert "45 fJ" in text and "x94" in text
    out = tmp_path / "energy.json"
    assert main(["energy", "--scenario", "conservative", "--mode", "full",
                 "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["mode"] == "full"
    assert main(["energy", "--scenario", "custom", "--params",
                 str(CONFIGS / "energy_custom.json")]) == 0


def test_energy_count_beyond_bound_exits_1_without_a_table(tmp_path, capsys):
    path = tmp_path / "big.json"
    params = json.loads((CONFIGS / "energy_custom.json").read_text())
    path.write_text(json.dumps({**params, "synapses": 10**300}), encoding="utf-8")
    assert main(["energy", "--scenario", "custom", "--params", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {path}: EnergyScenario.synapses: must be in [0, {MAX_COUNT}], "
                   f"got {10**300}\n")


# argv -> the one line on stderr; fit checks --domain before it reads a file,
# so its results directory need not exist.  A negative LO would fit across
# both sides of delta_t = 0.
BAD_ARGS = {
    "closedform-interval-nan": (["closedform", "--interval", "nan", "0.4"],
                                "error: interval [nan, 0.4]: ends must be finite"),
    "closedform-interval-inf": (["closedform", "--interval", "0.3", "inf"],
                                "error: interval [0.3, inf]: ends must be finite"),
    "energy-baseline-nan": (["energy", "--baseline", "nan"],
                            "error: baseline must be positive and finite, got nan"),
    "energy-baseline-inf": (["energy", "--baseline", "inf"],
                            "error: baseline must be positive and finite, got inf"),
    "fit-domain-lo-nan": (["fit", "--in", "missing", "--domain", "nan", "2"],
                          "error: --domain must be finite with 0 <= LO <= HI, got nan 2.0"),
    "fit-domain-hi-inf": (["fit", "--in", "missing", "--domain", "1", "inf"],
                          "error: --domain must be finite with 0 <= LO <= HI, got 1.0 inf"),
    "fit-domain-lo-negative": (["fit", "--in", "missing", "--domain", "-1", "2"],
                               "error: --domain must be finite with 0 <= LO <= HI, got -1.0 2.0"),
    "fit-domain-lo-above-hi": (["fit", "--in", "missing", "--domain", "3", "2"],
                               "error: --domain must be finite with 0 <= LO <= HI, got 3.0 2.0"),
    # checked before the config is read or a pool is made
    "window-workers-above-bound": (["window", "--out", "missing", "--workers", "257"],
                                   "error: --workers must be at most 256, got 257"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGS))
def test_nonfinite_argument_exits_1_with_one_error_line(case):
    """Run as a process, so that a numpy warning on stderr would show."""
    argv, line = BAD_ARGS[case]
    proc = subprocess.run([sys.executable, "-m", "synstdp.cli", *argv], capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", line + "\n")


def test_energy_custom_requires_params(capsys):
    assert main(["energy", "--scenario", "custom"]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_config_fails_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dendrites": {"n": 0}}', encoding="utf-8")
    assert main(["window", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "dendrites.n" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_window_rejects_nonpositive_workers(tmp_path, quick_config, capsys, workers):
    out = tmp_path / "o"
    assert main(["window", "--config", str(quick_config), "--out", str(out),
                 "--workers", workers]) == 1
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--epochs", "0", "--epochs must be a positive integer, got 0"),
    ("--epochs", "-4", "--epochs must be a positive integer, got -4"),
    ("--seed", "-1", "--seed must be a non-negative integer, got -1"),
], ids=["epochs-0", "epochs-negative", "seed-negative"])
def test_window_rejects_bad_override_naming_the_flag(tmp_path, quick_config, capsys, flag,
                                                      value, message):
    out = tmp_path / "o"
    assert main(["window", "--config", str(quick_config), "--out", str(out), flag, value]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not out.exists()


def test_statedist_onto_a_file_names_the_directory(tmp_path, quick_config, capsys):
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")
    assert main(["statedist", "--config", str(quick_config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write results under {out}: [Errno 17] ")


@pytest.mark.parametrize("command", ["energy", "closedform", "fit"])
def test_report_under_a_file_names_the_directory(tmp_path, quick_config, capsys, command):
    """--json / --out aimed below a file: exit 1 with nothing on stdout
    (energy writes its JSON before it prints its table)."""
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    target = str(taken / "r.json")
    argv = {"energy": ["energy", "--json", target],
            "closedform": ["closedform", "--out", target],
            "fit": ["fit", "--in", str(tmp_path / "run"), "--domain", "0.5", "2.0",
                    "--out", target]}[command]
    if command == "fit":
        assert main(["window", "--config", str(quick_config), "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write results under {taken}: [Errno 17] ")


@pytest.mark.parametrize("name", ["resolved-config.json", "window.svg"])
def test_window_text_write_error_names_the_directory(tmp_path, quick_config, capsys, name):
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)  # a directory where the file goes
    assert main(["window", "--config", str(quick_config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write results under {out}: ")
    assert captured.err.count("\n") == 1 and name in captured.err


def test_window_bytes_do_not_depend_on_workers(tmp_path):
    """A short noisy run on the delayed bank: the sweep is computed by a pool
    at --workers 2 and in one process at 1."""
    config = CONFIGS.parent / "perfbench" / "configs" / "window_noise_w2.json"
    runs = {w: tmp_path / f"w{w}" for w in ("1", "2")}
    for workers, out in runs.items():
        assert main(["window", "--config", str(config), "--out", str(out), "--epochs", "40",
                     "--seed", "3", "--workers", workers]) == 0
    for name in ("window.csv", "mean.csv", "states.csv", "window.svg", "resolved-config.json"):
        assert (runs["1"] / name).read_bytes() == (runs["2"] / name).read_bytes(), name


def test_window_starts_one_pool_for_the_sweep_only(tmp_path, quick_config, monkeypatch):
    """--workers 2 forks one pool, for the sweep; the result files are
    written by this process."""
    started, _ = record_pools(monkeypatch)
    assert main(["window", "--config", str(quick_config), "--out", str(tmp_path / "o"),
                 "--workers", "2"]) == 0
    assert started == [2]


def test_rerun_from_resolved_config_gives_same_bytes(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["window", "--config", str(CONFIGS / "fig7_delay.json"), "--out", str(first),
                 "--epochs", "50", "--seed", "5"]) == 0
    assert main(["window", "--config", str(first / "resolved-config.json"),
                 "--out", str(second)]) == 0
    files = ("window.csv", "mean.csv", "states.csv", "window.svg", "resolved-config.json")
    for name in files:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_missing_config_file_fails(tmp_path):
    assert main(["window", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("epochs", ["0", "-4"])
def test_validate_rejects_bad_epochs_naming_the_flag(capsys, epochs):
    assert main(["validate", "--epochs", epochs]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: --epochs must be a positive integer, got {epochs}\n")


def test_validate_subcommand_quick(capsys):
    assert main(["validate", "--epochs", "400"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "energy table" in out and "poisson binomial" in out


def test_fit_mc_source(tmp_path, quick_config):
    out = tmp_path / "results"
    main(["window", "--config", str(quick_config), "--out", str(out)])
    assert main(["fit", "--in", str(out), "--side", "pos", "--model", "lin",
                 "--source", "mc", "--domain", "0.5", "2.0"]) == 0
    fits = json.loads((out / "fits.json").read_text())
    assert fits["source"] == "mc"


CLOSEDFORM = json.loads((CONFIGS / "closedform.json").read_text(encoding="utf-8"))
ENERGY = json.loads((CONFIGS / "energy_custom.json").read_text(encoding="utf-8"))
PARAMS_ARGS = {"closedform": ["closedform", "--params"],
               "energy": ["energy", "--scenario", "custom", "--params"]}


def _without(params: dict, key: str) -> dict:
    return {k: v for k, v in params.items() if k != key}


BAD_PARAMS = {  # id -> (command, file contents, expected error after "error: FILE: ")
    "closedform-nan": ("closedform", {**CLOSEDFORM, "a_total": float("nan")},
                       "ClosedFormParams.a_total: must be a finite number, got nan"),
    "closedform-infinity": ("closedform", {**CLOSEDFORM, "beta": float("inf")},
                            "ClosedFormParams.beta: must be a finite number, got inf"),
    "closedform-int-true": ("closedform", {**CLOSEDFORM, "n": True},
                            "ClosedFormParams.n: expected int, got True"),
    "closedform-int-overflow": ("closedform", {**CLOSEDFORM, "n": 10**400},
                                "ClosedFormParams.n: must be a finite number, got inf"),
    "closedform-n-bound": ("closedform", {**CLOSEDFORM, "n": MAX_N + 1, "delta_v": 1e-15},
                           f"ClosedFormParams.n: must be at most {MAX_N}, got {MAX_N + 1}"),
    "closedform-unknown-key": ("closedform", {**CLOSEDFORM, "bogus": 1},
                               "ClosedFormParams: unknown keys ['bogus']"),
    "closedform-missing-key": ("closedform", _without(CLOSEDFORM, "gamma"),
                               "ClosedFormParams.gamma: required key is missing"),
    "closedform-not-object": ("closedform", [CLOSEDFORM], "expected an object, got list"),
    "energy-nan": ("energy", {**ENERGY, "tau_minus_s": float("nan")},
                   "EnergyScenario.tau_minus_s: must be a finite number, got nan"),
    "energy-infinity": ("energy", {**ENERGY, "tau_plus_s": float("inf")},
                        "EnergyScenario.tau_plus_s: must be a finite number, got inf"),
    "energy-int-true": ("energy", {**ENERGY, "synapses": True},
                        "EnergyScenario.synapses: expected int, got True"),
    "energy-int-float": ("energy", {**ENERGY, "synapses": 6.1e7},
                         "EnergyScenario.synapses: expected int, got 61000000.0"),
    "energy-int-overflow": ("energy", {**ENERGY, "synapses": 10**400},
                            "EnergyScenario.synapses: must be a finite number, got inf"),
    "energy-unknown-key": ("energy", {**ENERGY, "bogus": 1},
                           "EnergyScenario: unknown keys ['bogus']"),
    "energy-missing-key": ("energy", _without(ENERGY, "tau_minus_s"),
                           "EnergyScenario.tau_minus_s: required key is missing"),
    "energy-not-object": ("energy", [ENERGY], "expected an object, got list"),
}


@pytest.mark.parametrize("case", sorted(BAD_PARAMS))
def test_bad_params_file_exits_1_naming_file_and_key(tmp_path, capsys, case):
    command, contents, message = BAD_PARAMS[case]
    path = tmp_path / "params.json"
    path.write_text(json.dumps(contents), encoding="utf-8")  # NaN / Infinity literals
    assert main([*PARAMS_ARGS[command], str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: {message}\n"
    assert captured.out == ""
