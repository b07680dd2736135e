"""Smoke test of the benchmark at tiny sizes (under a minute on two cores):

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs with a shrunken config: every metric BENCHMARK.json names
must be printed with its unit, and a corrupted output must count as failed.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {  # same layers as the real workloads, a few offsets and epochs each
    "window_ref": ("window", 1, {"simulation": {"delta_t_step": 2.0, "epochs": 30}}),
    "statedist_bio": ("statedist", 1, {"waveform": {"shape": "bio"},
                                       "simulation": {"delta_t_step": 4.0, "epochs": 30}}),
    "window_noise_w2": ("window", 2, {
        "dendrites": {"delay_max": 0.3, "delay_assignment": "ramp"},
        "simulation": {"amp_noise_sigma": 0.05, "delta_t_step": 2.0, "epochs": 30}}),
}


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    workloads = {}
    for name, (command, workers, cfg) in TINY.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        step = cfg["simulation"]["delta_t_step"]
        workloads[name] = run.Workload(command, path, workers=workers,
                                       points=int(12 / step) + 1, epochs=30)
    monkeypatch.setattr(run, "WORKLOADS", workloads)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")


def _result(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(tiny, capsys, workload, trace):
    res = _result(capsys, workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in res["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def _drop_last_row(out: Path):
    p = out / "window.csv"
    p.write_text("".join(p.read_text().splitlines(keepends=True)[:-1]))


def _bad_probability(out: Path):
    p = out / "states.csv"
    lines = p.read_text().splitlines(keepends=True)
    lines[1] = lines[1].rsplit(",", 1)[0] + ",1.5\n"
    p.write_text("".join(lines))


@pytest.mark.parametrize("workload,corrupt", [("window_ref", _drop_last_row),
                                              ("statedist_bio", _bad_probability)])
def test_corrupted_output_fails_the_run(tiny, capsys, monkeypatch, workload, corrupt):
    real = checks.check_outputs

    def corrupted_then_checked(out, *args):
        corrupt(Path(out))
        return real(out, *args)

    monkeypatch.setattr(checks, "check_outputs", corrupted_then_checked)
    res = _result(capsys, workload, 0)
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1
    assert res["metrics"]["ok_share"]["value"] == 0.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "window_ref",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
