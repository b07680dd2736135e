"""Traced in-process run of one workload, started by `run.py --trace 1`.

It first runs the workload's CLI command through `synstdp.cli.main`, with
the layer functions the CLI module calls rebound to span-wrapped versions
(the "path" spans).  Then it calls the remaining layers' public functions on
the same config, so that every per-layer number exists on every workload
("off-path" spans).  Spans wrap only these public calls:

    config     load_config
    pairing    all_branch_drives, once per grid offset (one pass)
    montecarlo analytic_window, run_window (1 and 2 workers)
    output     write_window_csv, write_states_csv, write_svg_*

A CLI call renamed or dropped leaves its span missing, and the run fails.
Spans (id, name, start, end, parent, on_path) are kept in memory and written
to spans.json at the end.  Times are time.perf_counter() readings, which on
Linux come from CLOCK_MONOTONIC and so compare across processes.  The last
stdout line is one JSON object of span durations and work counts.

    python3 perfbench/trace_child.py --seed 1 --workers 1 --out DIR -- \
        window --config configs/fig4d.json --out DIR/path --seed 1 --workers 1
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import checks

# synstdp.cli global -> span name; run_window spans carry the worker count
PATH_CALLS = {
    "load_config": "config.load_config",
    "analytic_window": "montecarlo.analytic_window",
    "run_window": "montecarlo.run_window_w{workers}",
    "write_window_csv": "output.write_window_csv",
    "write_states_csv": "output.write_states_csv",
    "write_svg_scatter": "output.svg",
    "write_svg_states": "output.svg",
}
SPAN_COST_REPEATS = 20_000


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, on_path: bool):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "on_path": on_path, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> float:
        (rec,) = [s for s in self.spans if s["name"] == name]
        return rec["end"] - rec["start"]

    def self_seconds_path(self) -> dict[str, float]:
        """Per layer (the span name up to its first dot), the summed path
        span durations minus the time their child spans cover."""
        out: dict[str, float] = {}
        for s in self.spans:
            if not s["on_path"]:
                continue
            own = s["end"] - s["start"] - sum(c["end"] - c["start"] for c in self.spans
                                              if c["parent"] == s["id"])
            layer = s["name"].split(".")[0]
            out[layer] = out.get(layer, 0.0) + own
        return out


def traced(tr: Tracer, name: str, fn, results: dict):
    """fn under a path span; its last return value is kept in results."""
    def call(*args, **kwargs):
        span = name.format(**kwargs)
        with tr.span(span, True):
            results[span] = fn(*args, **kwargs)
        return results[span]
    return call


def span_cost() -> float:
    """Seconds one traced() call adds around an empty function."""
    call = traced(Tracer(), "x", lambda: None, {})
    start = time.perf_counter()
    for _ in range(SPAN_COST_REPEATS):
        call()
    return (time.perf_counter() - start) / SPAN_COST_REPEATS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("cli", nargs="+", help="synstdp CLI arguments, after --")
    args = ap.parse_args(argv)
    command, extra_dir = args.cli[0], args.out / "extra"
    path_dir = Path(args.cli[args.cli.index("--out") + 1])
    extra_dir.mkdir(parents=True, exist_ok=True)
    tr = Tracer()

    # --- the CLI's own code -------------------------------------------------
    with tr.span("synstdp.import", True):
        import synstdp  # noqa: F401  (what set-up imports)
    import synstdp.cli as cli
    from synstdp.montecarlo import analytic_window, run_window
    from synstdp.output import write_states_csv, write_window_csv
    from synstdp.pairing import all_branch_drives

    results: dict = {}
    for attr, name in PATH_CALLS.items():
        setattr(cli, attr, traced(tr, name, getattr(cli, attr), results))
    if cli.main(args.cli) != 0:
        raise RuntimeError(f"synstdp {' '.join(args.cli)} failed")
    path_end = time.perf_counter()
    path_names = [s["name"] for s in tr.spans]
    if command == "window":
        path_outputs = ["output.write_window_csv", "output.svg"]
        expected = [f"montecarlo.run_window_w{args.workers}", *path_outputs]
        path_files = [path_dir / f for f in ("window.csv", "mean.csv", "states.csv",
                                             "window.svg")]
    else:
        path_outputs = ["output.write_states_csv", "output.svg"]
        expected = ["montecarlo.analytic_window", *path_outputs]
        path_files = [path_dir / f for f in ("states.csv", "states.svg")]
    missing = {"config.load_config", *expected} - set(path_names)
    if missing:
        raise RuntimeError(f"the CLI made no call traced as {sorted(missing)}")

    # --- the other layers, on the same config --------------------------------
    # statedist draws nothing; the seed then feeds only the off-path Monte Carlo
    wcfg = dataclasses.replace(results["config.load_config"].window_config(), seed=args.seed)
    g, grid = wcfg.geometry, wcfg.grid()
    with tr.span("pairing.drive_tables", False):
        branch_offsets = sum(len(all_branch_drives(g, float(dt))) for dt in grid)
    if "montecarlo.analytic_window" not in path_names:
        with tr.span("montecarlo.analytic_window", False):
            analytic_window(wcfg)
    # both worker counts on every workload: every per-layer name is printed on each
    windows = {w: results.get(f"montecarlo.run_window_w{w}") for w in (1, 2)}
    for workers, window in windows.items():
        if window is None:
            with tr.span(f"montecarlo.run_window_w{workers}", False):
                windows[workers] = run_window(wcfg, workers=workers)
    window = windows[1]
    if command == "window":
        with tr.span("output.write_states_csv", False):
            write_states_csv(window.delta_t, window.states, extra_dir / "states.csv")
        csv_dir, states_csv, svg = path_dir, extra_dir / "states.csv", path_dir / "window.svg"
    else:
        with tr.span("output.write_window_csv", False):
            write_window_csv(window, extra_dir)
        csv_dir, states_csv, svg = extra_dir, path_dir / "states.csv", path_dir / "states.svg"
    outliers, max_z = checks.mc_agreement(window.delta_g, window.analytic)

    (args.out / "spans.json").write_text(json.dumps(tr.spans, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "seconds": {n: tr.seconds(n) for n in sorted({s["name"] for s in tr.spans})},
        "path_spans": path_names,
        "path_end": path_end,
        "span_overhead": span_cost() * len(tr.spans),
        "self_seconds_path": tr.self_seconds_path(),
        "branch_offsets": branch_offsets,
        "trials": int(window.delta_g.size) * window.n_branches,
        "bytes": {"window_csv": (csv_dir / "window.csv").stat().st_size,
                  "mean_csv": (csv_dir / "mean.csv").stat().st_size,
                  "states_csv": states_csv.stat().st_size,
                  "svg": svg.stat().st_size},
        "path_output_bytes": sum(p.stat().st_size for p in path_files),
        "path_output_seconds": sum(tr.seconds(n) for n in path_outputs),
        "mc_outliers": outliers,
        "mc_max_z": max_z,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
