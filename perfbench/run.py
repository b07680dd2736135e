#!/usr/bin/env python3
"""Benchmark of the synstdp command line on three workloads.

    python3 perfbench/run.py --workload window_ref --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; it runs the package from `src/`.
Each round spawns fresh interpreters: one that only does `import synstdp`
and loads the workload config (set-up time), then one full CLI run (timed
from spawn to exit).  Rounds repeat while the next one, as long as the last,
still ends within --seconds.  After the timed rounds the outputs are
checked; every CLI run whose output bytes differ from the checked ones, or
that exits nonzero or prints a traceback, is failed.

With --trace 1 each round also runs trace_child.py, which runs the CLI
in-process with the layers' calls under spans and yields the per-layer
numbers, the spans' own cost among them.

Every metric is printed with its unit; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Outputs, logs, spans
and a result.json with every sample go to .bench_out/<workload>/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
CALL_LIMIT_S = 150.0  # a hung call is killed and failed, so the run still ends


@dataclass(frozen=True)
class Workload:
    command: str      # synstdp subcommand
    config: Path
    workers: int      # --workers of window runs (statedist has no pool)
    points: int       # offsets P in the grid
    epochs: int       # Monte Carlo epochs E per offset
    branches: int = 16
    sigma_lrs: float = 0.1
    gate_mc: bool = False  # gate on the MC-vs-analytic rule of `synstdp validate`


# Why these three, and their input sizes, are in BENCHMARK.json and README.md.
WORKLOADS = {
    "window_ref": Workload("window", ROOT / "configs" / "fig4d.json", workers=1,
                           points=121, epochs=10_000, gate_mc=True),
    "statedist_bio": Workload("statedist", BENCH / "configs" / "statedist_bio.json",
                              workers=1, points=25, epochs=10_000),
    "window_noise_w2": Workload("window", BENCH / "configs" / "window_noise_w2.json",
                                workers=2, points=121, epochs=4_000),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "points_per_s": "1/s",
                    "peak_rss_mb": "MB", "output_mb": "MB", "ok_share": "ratio"}
PER_LAYER_UNITS = {
    "synstdp.import_s": "s", "config.load_s": "s",
    "pairing.drive_tables_s": "s", "pairing.branch_offsets": "count",
    "montecarlo.analytic_window_s": "s", "montecarlo.run_window_s": "s",
    "montecarlo.run_window_w2_s": "s", "montecarlo.mc_only_s": "s",
    "montecarlo.trials": "count", "montecarlo.scaling_eff": "ratio",
    "montecarlo.max_z": "sigma", "montecarlo.z_outliers": "count",
    "output.window_csv_s": "s", "output.states_csv_s": "s", "output.svg_s": "s",
    "output.bytes.window_csv": "bytes", "output.bytes.mean_csv": "bytes",
    "output.bytes.states_csv": "bytes", "output.bytes.svg": "bytes",
    "output.mb_per_s": "MB/s",
    "trace.path_s": "s", "trace.overhead_s": "s", "trace.gap_s": "s",
    "trace.unattributed_s": "s",
}


@dataclass
class Call:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    start: float
    log: str = ""
    digests: dict = field(default_factory=dict)
    out_bytes: int = 0

    @property
    def clean(self) -> bool:
        return self.code == 0 and "Traceback" not in self.log


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SYNSTDP_WORKERS", None)
    return env


def _spawn(cmd: list[str], log: Path) -> Call:
    """Run cmd in its own process group; wall time from spawn to exit, CPU
    and peak RSS of the process and every child it waited for (wait4)."""
    with log.open("wb") as f:
        start = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=f, stderr=subprocess.STDOUT,
                             start_new_session=True)
        timer = threading.Timer(CALL_LIMIT_S, os.killpg, (p.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    p.returncode = os.waitstatus_to_exitcode(status)
    try:  # anything the process left behind in its group
        os.killpg(p.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return Call(wall=wall, cpu=ru.ru_utime + ru.ru_stime, rss_mb=ru.ru_maxrss * 1024 / 1e6,
                code=p.returncode, start=start, log=log.read_text(errors="replace"))


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def _cli(wl: Workload, seed: int, out: Path, workers: int) -> list[str]:
    """The synstdp CLI arguments of one workload run."""
    cmd = [wl.command, "--config", str(wl.config), "--out", str(out)]
    if wl.command == "window":
        cmd += ["--seed", str(seed), "--workers", str(workers)]
    return cmd


def _cli_call(wl: Workload, seed: int, out: Path, workers: int, log: Path) -> Call:
    shutil.rmtree(out, ignore_errors=True)
    call = _spawn([sys.executable, "-m", "synstdp.cli", *_cli(wl, seed, out, workers)], log)
    if out.is_dir():
        call.digests = _digests(out)
        call.out_bytes = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    return call


def _traced_call(wl: Workload, seed: int, out: Path) -> tuple[Call, dict | None]:
    """One trace_child.py run and the JSON line it ends with (None if absent)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    call = _spawn([sys.executable, str(BENCH / "trace_child.py"), "--seed", str(seed),
                   "--workers", str(wl.workers), "--out", str(out), "--",
                   *_cli(wl, seed, out / "path", wl.workers)], out / "trace.log")
    try:
        return call, json.loads(call.log.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return call, None


def _layer_metrics(traces: list[dict], t_calls: list[Call], wall: float, setup: float) -> dict:
    """Per-layer numbers of each traced run, then the median over runs."""
    rows = []
    for t, call in zip(traces, t_calls):
        s, b = t["seconds"], t["bytes"]
        path_layers = sum(s[n] for n in t["path_spans"]
                          if n not in ("synstdp.import", "config.load_config"))
        path_s = t["path_end"] - call.start
        rows.append({
            "synstdp.import_s": s["synstdp.import"],
            "config.load_s": s["config.load_config"],
            "pairing.drive_tables_s": s["pairing.drive_tables"],
            "pairing.branch_offsets": t["branch_offsets"],
            "montecarlo.analytic_window_s": s["montecarlo.analytic_window"],
            "montecarlo.run_window_s": s["montecarlo.run_window_w1"],
            "montecarlo.run_window_w2_s": s["montecarlo.run_window_w2"],
            # derived: run_window (1 worker) less the analytic curve it also computes
            "montecarlo.mc_only_s": s["montecarlo.run_window_w1"] - s["montecarlo.analytic_window"],
            "montecarlo.trials": t["trials"],
            "montecarlo.scaling_eff": s["montecarlo.run_window_w1"] / (2 * s["montecarlo.run_window_w2"]),
            "montecarlo.max_z": t["mc_max_z"],
            "montecarlo.z_outliers": t["mc_outliers"],
            "output.window_csv_s": s["output.write_window_csv"],
            "output.states_csv_s": s["output.write_states_csv"],
            "output.svg_s": s["output.svg"],
            "output.bytes.window_csv": b["window_csv"],
            "output.bytes.mean_csv": b["mean_csv"],
            "output.bytes.states_csv": b["states_csv"],
            "output.bytes.svg": b["svg"],
            "output.mb_per_s": t["path_output_bytes"] / 1e6 / t["path_output_seconds"],
            "trace.path_s": path_s,
            "trace.overhead_s": t["span_overhead"],
            # information only: wall_s also has interpreter exit, and both carry noise
            "trace.gap_s": path_s - wall,
            "trace.unattributed_s": wall - setup - path_layers,
        })
    return {k: median([r[k] for r in rows]) for k in PER_LAYER_UNITS}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    base = OUT / name
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    setup_cmd = [sys.executable, "-c", "import sys, synstdp; synstdp.load_config(sys.argv[1])",
                 str(wl.config)]
    warm = _spawn(setup_cmd, base / "setup.log")  # fills __pycache__, untimed
    if not warm.clean:
        raise RuntimeError(f"cannot import synstdp from {ROOT / 'src'}:\n{warm.log}")

    setups: list[float] = []
    calls: list[Call] = []
    traced: list[tuple[Call, dict | None]] = []
    # rounds stop before one would end past --seconds (the first always runs)
    start, round_s = time.perf_counter(), 0.0
    while not calls or time.perf_counter() - start + round_s <= seconds:
        round_start = time.perf_counter()
        setups.append(_spawn(setup_cmd, base / "setup.log").wall)
        out = base / ("cli" if not calls else "cli_last")
        calls.append(_cli_call(wl, seed, out, wl.workers, base / f"cli_{len(calls)}.log"))
        if trace:
            traced.append(_traced_call(wl, seed, base / f"trace_{len(traced)}"))
        round_s = time.perf_counter() - round_start

    # checks, outside every timed call: the first run's files in full, the
    # rest by digest against them
    problems, info = checks.check_outputs(base / "cli", wl.command, wl.points, wl.epochs,
                                          wl.branches, wl.sigma_lrs, wl.gate_mc)
    if wl.workers > 1:
        serial = _cli_call(wl, seed, base / "cli_w1", 1, base / "cli_w1.log")
        if not serial.clean or serial.digests != calls[0].digests:
            problems.append("output differs from a --workers 1 run of the same seed")
    reference = calls[0].digests if calls[0].clean and not problems else None
    failed = sum(not c.clean or not c.digests or c.digests != reference for c in calls)
    # a traced run must write the very bytes the CLI wrote
    t_ok = [call.clean and t is not None and _digests(base / f"trace_{i}" / "path") == reference
            for i, (call, t) in enumerate(traced)]
    failed += t_ok.count(False)

    wall = median(c.wall for c in calls)
    setup = median(setups)
    e2e = {"wall_s": wall, "cpu_s": median(c.cpu for c in calls), "setup_s": setup,
           "points_per_s": wl.points / wall,
           "peak_rss_mb": median(c.rss_mb for c in calls),
           "output_mb": median(c.out_bytes for c in calls) / 1e6}
    attempted = len(calls) + len(traced)
    e2e["ok_share"] = (attempted - failed) / attempted
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "attempted": attempted, "failed": failed, "problems": problems, "info": info,
              "samples": {"wall_s": [c.wall for c in calls], "cpu_s": [c.cpu for c in calls],
                          "setup_s": setups, "peak_rss_mb": [c.rss_mb for c in calls],
                          "output_bytes": [c.out_bytes for c in calls],
                          "exit_codes": [c.code for c in calls]},
              "end_to_end": e2e}
    good = [(c, t) for (c, t), ok in zip(traced, t_ok) if ok]
    if trace and good:
        result["per_layer"] = _layer_metrics([t for _, t in good], [c for c, _ in good],
                                             wall, setup)
        result["self_seconds_path"] = {layer: median(t["self_seconds_path"][layer]
                                                     for _, t in good)
                                       for layer in good[0][1]["self_seconds_path"]}
    (base / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def _report(r: dict) -> None:
    n = len(r["samples"]["wall_s"])
    print(f"workload {r['workload']}  seed {r['seed']}  {n} CLI runs, "
          f"{len(r['samples']['setup_s'])} set-up runs (medians)")
    for k, v in r["end_to_end"].items():
        print(f"  {k:28s} {v:12.6g} {END_TO_END_UNITS[k]}")
    print(f"  failed_share                 {r['failed']}/{r['attempted']}")
    for p in r["problems"]:
        print(f"  check failed: {p}")
    if "mc_max_z" in r["info"]:
        print(f"  info: MC vs analytic max z {r['info']['mc_max_z']:.3f}, "
              f"{r['info']['mc_outliers']} offsets beyond {checks.MC_Z_LIMIT:g}")
    for k, v in r.get("per_layer", {}).items():
        print(f"  {k:28s} {v:12.6g} {PER_LAYER_UNITS[k]}")
    for k, v in r.get("self_seconds_path", {}).items():
        print(f"  self time on the CLI path, {k:12s} {v:10.4f} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="synstdp benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "synstdp" / "__init__.py").is_file():
        print(f"error: no synstdp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    r = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    _report(r)
    if args.trace and "per_layer" not in r:
        print("error: no traced run succeeded", file=sys.stderr)
        return 1
    values, units = ((r["per_layer"], PER_LAYER_UNITS) if args.trace
                     else (r["end_to_end"], END_TO_END_UNITS))
    print(json.dumps({"correct": r["failed"] == 0, "attempted": r["attempted"],
                      "failed": r["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
