"""JSON run configuration.

Every key is validated with a path-qualified error message; unknown keys
are rejected.  An empty config resolves to the dendritic-attenuation
reference setup (16 branches, attenuation 0.6..1, HRHT spikes, Gaussian
switching with 0.1 V spread, 10k epochs over offsets -6..6).  Each default
is read from the dataclass that owns the field.
"""
from __future__ import annotations

import dataclasses
import inspect
import json
import math
import typing
from dataclasses import dataclass
from pathlib import Path

from .dendrite import DendriteBank, make_bank
from .device import DeviceModel, ProbModel
from .montecarlo import InitKind, InitPolicy, WindowConfig
from .pairing import PairingGeometry
from .waveforms import Shape, SpikeWaveform, make_waveform

SCHEMA_VERSION = 1
_BANK_DEFAULTS = inspect.signature(make_bank).parameters  # delay_max, delay_assignment


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class OutputOptions:
    svg: bool = True
    level_bin: float = 1.0  # dot-grouping bin for scatter opacity


@dataclass(frozen=True)
class RunConfig:
    window: WindowConfig
    output: OutputOptions

    def window_config(self) -> WindowConfig:
        # perfbench/trace_child.py calls this accessor; it goes when the
        # benchmark reads `.window` instead
        return self.window

    def to_dict(self) -> dict:
        def wf(w: SpikeWaveform) -> dict:
            return {"shape": w.shape.value, "a_plus": w.a_plus, "a_minus": w.a_minus,
                    "tau_minus": w.tau_minus, "tau_plus": w.tau_plus,
                    "extra": dict(w.extra)}
        win = self.window
        g, bank, device = win.geometry, win.geometry.bank, win.geometry.device
        init: dict | str
        if win.init_policy.kind is InitKind.RANDOM:
            init = {"random": {"q": win.init_policy.q}}
        else:
            init = win.init_policy.kind.value
        return {
            "schema_version": SCHEMA_VERSION,
            "waveform": wf(g.pre),
            "post_waveform": wf(g.post),
            "dendrites": {"n": bank.n,
                          "alpha_min": bank.alphas[0],
                          "alpha_max": bank.alphas[-1],
                          "delay_max": max(bank.delays),
                          "delay_assignment": _infer_assignment(bank)},
            "device": {"vth_pos": device.vth_pos, "vth_neg": device.vth_neg,
                       "sigma_th": device.sigma_th, "r_on_ohm": device.r_on,
                       "sigma_lrs": device.sigma_lrs,
                       "r_off_ratio": device.r_off_ratio,
                       "prob_model": ("gaussian" if device.prob_model.kind == "gaussian"
                                      else {"linear": {"gamma": device.prob_model.gamma}})},
            "simulation": {"dt_step": g.dt_step, "pair_only": g.pair_only,
                           "amp_noise_sigma": g.amp_noise_sigma,
                           "delta_t_min": win.delta_t_min, "delta_t_max": win.delta_t_max,
                           "delta_t_step": win.delta_t_step, "epochs": win.epochs,
                           "seed": win.seed, "init_policy": init},
            "output": {"svg": self.output.svg, "level_bin": self.output.level_bin},
        }


def _infer_assignment(bank: DendriteBank) -> str:
    d = bank.delays
    if all(x == d[0] for x in d):
        return "uniform" if d[0] > 0 else "ramp"
    return "reversed" if d[0] > d[-1] else "ramp"


def _expect_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _take(section: dict, path: str, key: str, default, kind):
    """Pop section[key] (default when absent) as a finite value of kind.
    A default of dataclasses.MISSING makes the key required; null passes
    only for a key whose default is None."""
    val = section.pop(key, default)
    if val is dataclasses.MISSING:
        raise ConfigError(f"{path}.{key}: required key is missing")
    if val is None and default is None:
        return None
    # bool is a subclass of int: JSON true/false must not pass as a count or seed
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        if kind is float and isinstance(val, int) and not isinstance(val, bool):
            try:
                val = float(val)
            except OverflowError:  # an integer literal beyond the float range
                val = math.inf
        else:
            raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {val!r}")
    # JSON admits NaN and Infinity; reject them here, before they reach a
    # NaN curve or a traceback at run time
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(f"{path}.{key}: must be a finite number, got {val!r}")
    return val


def _reject_unknown(section: dict, path: str):
    if section:
        raise ConfigError(f"{path}: unknown keys {sorted(section)}")


def _parse_waveform(raw: dict | None, path: str) -> SpikeWaveform:
    sec = dict(_expect_mapping(raw if raw is not None else {}, path))
    shape = _take(sec, path, "shape", "hrht", str)
    try:
        shape = Shape(shape)
    except ValueError:
        raise ConfigError(f"{path}.shape: unknown shape {shape!r}; "
                          f"expected one of {[s.value for s in Shape]}") from None
    kw = {key: _take(sec, path, key, getattr(SpikeWaveform, key), float)
          for key in ("a_plus", "a_minus", "tau_minus", "tau_plus")}
    extra = dict(_take(sec, path, "extra", {}, dict))
    kw["extra"] = {k: _take(extra, f"{path}.extra", k, dataclasses.MISSING, float)
                   for k in list(extra)}
    _reject_unknown(sec, path)
    try:
        return make_waveform(shape, **kw)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None


def _parse_init_policy(raw, path: str) -> InitPolicy:
    if isinstance(raw, str):
        try:
            kind = InitKind(raw)
        except ValueError:
            raise ConfigError(f"{path}: unknown init policy {raw!r}") from None
        return InitPolicy(kind=kind)
    sec = dict(_expect_mapping(raw, path))
    inner = _take(sec, path, "random", None, dict)
    _reject_unknown(sec, path)
    if inner is None:
        raise ConfigError(f"{path}: expected a policy name or {{'random': {{'q': ...}}}}")
    inner = dict(inner)
    q = _take(inner, f"{path}.random", "q", InitPolicy.q, float)
    _reject_unknown(inner, f"{path}.random")
    try:
        return InitPolicy(kind=InitKind.RANDOM, q=q)
    except ValueError as e:
        raise ConfigError(f"{path}.random: {e}") from None


def parse_config(data: dict) -> RunConfig:
    root = dict(_expect_mapping(data, "config"))
    version = _take(root, "config", "schema_version", SCHEMA_VERSION, int)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"config.schema_version: unsupported version {version}")

    pre = _parse_waveform(root.pop("waveform", None), "waveform")
    post_raw = root.pop("post_waveform", None)
    post = _parse_waveform(post_raw, "post_waveform") if post_raw is not None else pre

    den = dict(_expect_mapping(root.pop("dendrites", {}), "dendrites"))
    n = _take(den, "dendrites", "n", 16, int)
    alpha_min = _take(den, "dendrites", "alpha_min", 0.6, float)
    alpha_max = _take(den, "dendrites", "alpha_max", 1.0, float)
    delay_max = _take(den, "dendrites", "delay_max", _BANK_DEFAULTS["delay_max"].default, float)
    assignment = _take(den, "dendrites", "delay_assignment",
                       _BANK_DEFAULTS["delay_assignment"].default, str)
    _reject_unknown(den, "dendrites")
    if n < 1:
        raise ConfigError(f"dendrites.n: need at least one branch, got {n}")
    if alpha_min <= 0.0:
        raise ConfigError(f"dendrites.alpha_min: must be positive, got {alpha_min}")
    if delay_max < 0.0:
        raise ConfigError(f"dendrites.delay_max: must be >= 0, got {delay_max}")
    try:
        bank = make_bank(n, alpha_min, alpha_max, delay_max, assignment)
    except ValueError as e:
        raise ConfigError(f"dendrites: {e}") from None

    dev = dict(_expect_mapping(root.pop("device", {}), "device"))
    pm_raw = dev.pop("prob_model", ProbModel.kind)
    if isinstance(pm_raw, str):
        if pm_raw != "gaussian":
            raise ConfigError(f"device.prob_model: expected 'gaussian' or "
                              f"{{'linear': {{'gamma': ...}}}}, got {pm_raw!r}")
        prob_model = ProbModel(kind="gaussian")
    else:
        pm = dict(_expect_mapping(pm_raw, "device.prob_model"))
        lin = _take(pm, "device.prob_model", "linear", None, dict)
        _reject_unknown(pm, "device.prob_model")
        if lin is None:
            raise ConfigError("device.prob_model: expected a 'linear' object")
        lin = dict(lin)
        gamma = _take(lin, "device.prob_model.linear", "gamma", ProbModel.gamma, float)
        _reject_unknown(lin, "device.prob_model.linear")
        try:
            prob_model = ProbModel(kind="linear", gamma=gamma)
        except ValueError as e:
            raise ConfigError(f"device.prob_model.linear: {e}") from None
    device_kw = dict(
        vth_pos=_take(dev, "device", "vth_pos", DeviceModel.vth_pos, float),
        vth_neg=_take(dev, "device", "vth_neg", DeviceModel.vth_neg, float),
        sigma_th=_take(dev, "device", "sigma_th", DeviceModel.sigma_th, float),
        r_on=_take(dev, "device", "r_on_ohm", DeviceModel.r_on, float),
        sigma_lrs=_take(dev, "device", "sigma_lrs", DeviceModel.sigma_lrs, float),
        r_off_ratio=_take(dev, "device", "r_off_ratio", DeviceModel.r_off_ratio, float),
    )
    try:
        device = DeviceModel(**device_kw, prob_model=prob_model)
    except ValueError as e:
        raise ConfigError(f"device: {e}") from None
    _reject_unknown(dev, "device")

    sim = dict(_expect_mapping(root.pop("simulation", {}), "simulation"))
    geometry_kw = {key: _take(sim, "simulation", key, getattr(PairingGeometry, key), kind)
                   for key, kind in (("dt_step", float), ("pair_only", bool),
                                     ("amp_noise_sigma", float))}
    window_kw = {key: _take(sim, "simulation", key, getattr(WindowConfig, key), kind)
                 for key, kind in (("delta_t_min", float), ("delta_t_max", float),
                                   ("delta_t_step", float), ("epochs", int), ("seed", int))}
    if window_kw["seed"] < 0:
        raise ConfigError(f"simulation.seed: must be a non-negative integer, "
                          f"got {window_kw['seed']}")
    init_policy = _parse_init_policy(
        sim.pop("init_policy", WindowConfig.init_policy.kind.value), "simulation.init_policy")
    _reject_unknown(sim, "simulation")

    out = dict(_expect_mapping(root.pop("output", {}), "output"))
    output = OutputOptions(svg=_take(out, "output", "svg", OutputOptions.svg, bool),
                           level_bin=_take(out, "output", "level_bin",
                                           OutputOptions.level_bin, float))
    _reject_unknown(out, "output")
    if output.level_bin <= 0:
        raise ConfigError(f"output.level_bin: must be positive, got {output.level_bin}")
    _reject_unknown(root, "config")

    try:
        geometry = PairingGeometry(pre=pre, post=post, bank=bank, device=device, **geometry_kw)
        window = WindowConfig(geometry=geometry, init_policy=init_policy, **window_kw)
    except ValueError as e:
        raise ConfigError(f"simulation: {e}") from None
    return RunConfig(window=window, output=output)


def _read_json(path: str | Path):
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read {p}: {e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{p}: invalid JSON: {e}") from None


def load_config(path: str | Path) -> RunConfig:
    return parse_config(_read_json(path))


def load_params(path: str | Path, cls):
    """An instance of the flat dataclass cls from a JSON object of its
    fields, each checked like a run-config key; errors name the file."""
    raw = dict(_expect_mapping(_read_json(path), str(path)))
    kinds = typing.get_type_hints(cls)
    label = f"{path}: {cls.__name__}"
    kw = {f.name: _take(raw, label, f.name, f.default, kinds[f.name])
          for f in dataclasses.fields(cls)}
    _reject_unknown(raw, label)
    try:
        return cls(**kw)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None


def default_config() -> RunConfig:
    return parse_config({})
