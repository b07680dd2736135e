"""Command-line interface.

Subcommands: window, statedist, fit, closedform, energy, validate.  Every
subcommand exits nonzero on any error.  A window sweep runs in this process
unless --workers asks for a fork pool; its result files are written here.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import fit_exponential, fit_linear, fit_quadratic
from .closedform import WORKED_PARAMS, ClosedFormParams, comparison_report
from .config import ConfigError, default_config, load_config, load_params
from .energy import (DEFAULT_GPU_BASELINE, SCENARIOS, EnergyScenario,
                     render_table, table1)
from .montecarlo import MAX_WORKERS, analytic_window, run_window
from .output import (_write, read_mean_csv, write_states_csv, write_svg_scatter,
                     write_svg_states, write_window_csv)
from .validate import render_report, run_all


_FITS = {"exp": fit_exponential, "lin": fit_linear, "quad": fit_quadratic}  # by --model


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="synstdp",
                                 description="Stochastic STDP window simulator for compound "
                                             "binary resistive synapses")
    ap.add_argument("--version", action="version", version=f"synstdp {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    w = sub.add_parser("window", help="run a Monte Carlo STDP window sweep")
    w.add_argument("--config", type=Path, help="JSON config (defaults reproduce the "
                                               "dendritic-attenuation reference setup)")
    w.add_argument("--out", type=Path, required=True, help="output directory")
    w.add_argument("--seed", type=int, help="override the config seed")
    w.add_argument("--epochs", type=int, help="override the config epoch count")
    w.add_argument("--workers", type=int, default=1,
                   help=f"worker processes for the sweep (default 1, at most {MAX_WORKERS})")

    s = sub.add_parser("statedist", help="analytic switching-count state distributions")
    s.add_argument("--config", type=Path)
    s.add_argument("--out", type=Path, required=True)

    f = sub.add_parser("fit", help="fit a learning-function model to window results")
    f.add_argument("--in", dest="results", type=Path, required=True,
                   help="directory containing mean.csv from a window run")
    f.add_argument("--side", choices=("pos", "neg"), default="pos")
    f.add_argument("--model", choices=tuple(_FITS), default="exp")
    f.add_argument("--source", choices=("analytic", "mc"), default="analytic")
    f.add_argument("--domain", type=float, nargs=2, metavar=("LO", "HI"),
                   help="|delta_t| fit range; defaults to [tau_minus, tau_minus+tau_plus] "
                        "from the run's resolved config")
    f.add_argument("--out", type=Path, help="where to write fits.json (default: results dir)")

    c = sub.add_parser("closedform", help="closed-form quadratic analysis report")
    c.add_argument("--params", type=Path, help="JSON with n, a_total, delta_v, beta, v_th, gamma")
    c.add_argument("--interval", type=float, nargs=2, metavar=("LO", "HI"), default=(0.3, 0.4),
                   help="offset interval for the fitted quadratic (default 0.3 0.4)")
    c.add_argument("--out", type=Path, help="write the JSON report here instead of stdout")

    e = sub.add_parser("energy", help="energy-efficiency table")
    e.add_argument("--scenario", default="all",
                   choices=("all", "conservative", "medium", "aggressive", "custom"))
    e.add_argument("--params", type=Path, help="JSON scenario fields (required for custom)")
    e.add_argument("--mode", choices=("head", "full"), default="head")
    e.add_argument("--baseline", type=float, default=DEFAULT_GPU_BASELINE,
                   help="GPU reference throughput in img/s/W")
    e.add_argument("--json", dest="json_out", type=Path, help="also write the table as JSON")

    v = sub.add_parser("validate", help="run the property suite and report pass/fail")
    v.add_argument("--epochs", type=int, default=10_000,
                   help="epochs for the Monte Carlo consistency checks")
    return ap


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_run_config(path: Path | None):
    return load_config(path) if path is not None else default_config()


def _check_counts(*flags) -> None:
    """A ConfigError naming the flag of each (flag, value, least) whose value
    is given and below least (1 or 0)."""
    for flag, value, least in flags:
        if value is not None and value < least:
            kind = "positive" if least else "non-negative"
            raise ConfigError(f"{flag} must be a {kind} integer, got {value}")


def _cmd_window(args) -> int:
    _check_counts(("--workers", args.workers, 1), ("--epochs", args.epochs, 1),
                  ("--seed", args.seed, 0))
    if args.workers > MAX_WORKERS:
        raise ConfigError(f"--workers must be at most {MAX_WORKERS}, got {args.workers}")
    cfg = _load_run_config(args.config)
    overrides = {"seed": args.seed, "epochs": args.epochs}
    cfg = dataclasses.replace(cfg, window=dataclasses.replace(
        cfg.window, **{k: v for k, v in overrides.items() if v is not None}))
    window = run_window(cfg.window, workers=args.workers)
    paths = write_window_csv(window, args.out)
    _write(args.out / "resolved-config.json", [_json(cfg.to_dict()).encode()])
    if cfg.output.svg:
        _write(args.out / "window.svg",
               [write_svg_scatter(window, level_bin=cfg.output.level_bin).encode()])
    print(f"wrote {', '.join(str(p) for p in paths.values())} "
          f"({window.delta_t.size} points x {window.epochs} epochs)")
    return 0


def _cmd_statedist(args) -> int:
    cfg = _load_run_config(args.config)
    grid, _, states = analytic_window(cfg.window)
    path = write_states_csv(grid, states, args.out / "states.csv")
    if cfg.output.svg:
        _write(args.out / "states.svg", [write_svg_states(grid, states).encode()])
    print(f"wrote {path}")
    return 0


def _default_fit_domain(results: Path) -> tuple[float, float]:
    meta = results / "resolved-config.json"
    if not meta.exists():
        raise ConfigError("no resolved-config.json next to mean.csv; pass --domain LO HI")
    pre = load_config(meta).window.geometry.pre
    return pre.tau_minus, pre.tau_minus + pre.tau_plus


def _cmd_fit(args) -> int:
    if args.domain is not None:
        lo, hi = args.domain
        if not (np.isfinite(hi) and 0.0 <= lo <= hi):
            raise ConfigError(f"--domain must be finite with 0 <= LO <= HI, got {lo} {hi}")
    mean_csv = args.results / "mean.csv"
    if not mean_csv.exists():
        raise ConfigError(f"{mean_csv} not found; run `synstdp window` first")
    delta_t, mc_mean, _, analytic = read_mean_csv(mean_csv)
    values = analytic if args.source == "analytic" else mc_mean
    lo, hi = args.domain if args.domain else _default_fit_domain(args.results)
    sign = 1.0 if args.side == "pos" else -1.0
    mask = (sign * delta_t >= lo) & (sign * delta_t <= hi)
    points = np.column_stack([delta_t[mask], values[mask]])
    result = _FITS[args.model](points)
    text = _json({"side": args.side, "source": args.source, **result.to_dict()})
    _write(args.out if args.out else args.results / "fits.json", [text.encode()])
    print(text, end="")
    return 0


def _cmd_closedform(args) -> int:
    params = load_params(args.params, ClosedFormParams) if args.params else WORKED_PARAMS
    report = comparison_report(params, *args.interval)
    text = _json(report)
    if args.out:
        _write(args.out, [text.encode()])
    print(text, end="")
    return 0


def _cmd_energy(args) -> int:
    if args.scenario == "custom":
        if not args.params:
            raise ConfigError("--scenario custom requires --params FILE")
        scenarios = {"custom": load_params(args.params, EnergyScenario)}
    elif args.scenario == "all":
        scenarios = dict(SCENARIOS)
    else:
        scenarios = {args.scenario: SCENARIOS[args.scenario]}
    result = table1(scenarios, baseline_img_s_w=args.baseline, mode=args.mode)
    if args.json_out:
        _write(args.json_out, [_json(result).encode()])
    print(render_table(result))
    return 0


def _cmd_validate(args) -> int:
    _check_counts(("--epochs", args.epochs, 1))
    checks = run_all(epochs=args.epochs)
    print(render_report(checks))
    return 0 if all(c.passed for c in checks) else 1


_COMMANDS = {
    "window": _cmd_window,
    "statedist": _cmd_statedist,
    "fit": _cmd_fit,
    "closedform": _cmd_closedform,
    "energy": _cmd_energy,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: point stdout at devnull so that the
        # flush at interpreter exit cannot raise again, and end quietly
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as e:  # ConfigError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
