"""JSON run configuration.

Every key is validated with a path-qualified error message; unknown keys
are rejected.  An empty config resolves to the dendritic-attenuation
reference setup (16 branches, attenuation 0.6..1, HRHT spikes, Gaussian
switching with 0.1 V spread, 10k epochs over offsets -6..6).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .dendrite import DendriteBank, make_bank
from .device import DeviceModel, ProbModel
from .montecarlo import InitKind, InitPolicy, WindowConfig
from .pairing import PairingGeometry
from .waveforms import Shape, SpikeWaveform, make_waveform

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class OutputOptions:
    svg: bool = True
    level_bin: float = 1.0  # dot-grouping bin for scatter opacity


@dataclass(frozen=True)
class RunConfig:
    pre: SpikeWaveform
    post: SpikeWaveform
    bank: DendriteBank
    device: DeviceModel
    dt_step: float
    pair_only: bool
    amp_noise_sigma: float
    delta_t_min: float
    delta_t_max: float
    delta_t_step: float
    epochs: int
    seed: int
    init_policy: InitPolicy
    output: OutputOptions
    schema_version: int = SCHEMA_VERSION

    def geometry(self) -> PairingGeometry:
        return PairingGeometry(pre=self.pre, post=self.post, bank=self.bank,
                               device=self.device, dt_step=self.dt_step,
                               pair_only=self.pair_only,
                               amp_noise_sigma=self.amp_noise_sigma)

    def window_config(self) -> WindowConfig:
        return WindowConfig(geometry=self.geometry(),
                            delta_t_min=self.delta_t_min,
                            delta_t_max=self.delta_t_max,
                            delta_t_step=self.delta_t_step,
                            epochs=self.epochs, seed=self.seed,
                            init_policy=self.init_policy)

    def to_dict(self) -> dict:
        def wf(w: SpikeWaveform) -> dict:
            return {"shape": w.shape.value, "a_plus": w.a_plus, "a_minus": w.a_minus,
                    "tau_minus": w.tau_minus, "tau_plus": w.tau_plus,
                    "extra": dict(w.extra)}
        init: dict | str
        if self.init_policy.kind is InitKind.RANDOM:
            init = {"random": {"q": self.init_policy.q}}
        else:
            init = self.init_policy.kind.value
        return {
            "schema_version": self.schema_version,
            "waveform": wf(self.pre),
            "post_waveform": wf(self.post),
            "dendrites": {"n": self.bank.n,
                          "alpha_min": self.bank.alphas[0],
                          "alpha_max": self.bank.alphas[-1],
                          "delay_max": max(self.bank.delays),
                          "delay_assignment": _infer_assignment(self.bank)},
            "device": {"vth_pos": self.device.vth_pos, "vth_neg": self.device.vth_neg,
                       "sigma_th": self.device.sigma_th, "r_on_ohm": self.device.r_on,
                       "sigma_lrs": self.device.sigma_lrs,
                       "r_off_ratio": self.device.r_off_ratio,
                       "prob_model": ("gaussian" if self.device.prob_model.kind == "gaussian"
                                      else {"linear": {"gamma": self.device.prob_model.gamma}})},
            "simulation": {"dt_step": self.dt_step, "pair_only": self.pair_only,
                           "amp_noise_sigma": self.amp_noise_sigma,
                           "delta_t_min": self.delta_t_min, "delta_t_max": self.delta_t_max,
                           "delta_t_step": self.delta_t_step, "epochs": self.epochs,
                           "seed": self.seed, "init_policy": init},
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


def _take(section: dict, path: str, key: str, default, kind=None):
    val = section.pop(key, default)
    # bool is a subclass of int: JSON true/false must not pass as a count or seed
    if kind is not None and val is not None and (
            not isinstance(val, kind) or (kind is int and isinstance(val, bool))):
        if kind is float and isinstance(val, int) and not isinstance(val, bool):
            try:
                val = float(val)
            except OverflowError:  # an integer literal beyond the float range
                val = math.inf
        else:
            names = kind.__name__ if not isinstance(kind, tuple) else "/".join(k.__name__ for k in kind)
            raise ConfigError(f"{path}.{key}: expected {names}, got {val!r}")
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
    kw = {}
    for key in ("a_plus", "a_minus", "tau_minus", "tau_plus"):
        v = _take(sec, path, key, None, float)
        if v is not None:
            kw[key] = v
    extra = _take(sec, path, "extra", None, dict)
    if extra is not None:
        extra = dict(extra)
        kw["extra"] = {k: _take(extra, f"{path}.extra", k, None, float) for k in list(extra)}
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
    q = _take(inner, f"{path}.random", "q", 0.5, float)
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
    delay_max = _take(den, "dendrites", "delay_max", 0.0, float)
    assignment = _take(den, "dendrites", "delay_assignment", "ramp", str)
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
    pm_raw = dev.pop("prob_model", "gaussian")
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
        gamma = _take(lin, "device.prob_model.linear", "gamma", 2.0, float)
        _reject_unknown(lin, "device.prob_model.linear")
        try:
            prob_model = ProbModel(kind="linear", gamma=gamma)
        except ValueError as e:
            raise ConfigError(f"device.prob_model.linear: {e}") from None
    device_kw = dict(
        vth_pos=_take(dev, "device", "vth_pos", 1.0, float),
        vth_neg=_take(dev, "device", "vth_neg", -1.0, float),
        sigma_th=_take(dev, "device", "sigma_th", 0.1, float),
        r_on=_take(dev, "device", "r_on_ohm", 1e6, float),
        sigma_lrs=_take(dev, "device", "sigma_lrs", 0.1, float),
        r_off_ratio=_take(dev, "device", "r_off_ratio", None, float),
    )
    try:
        device = DeviceModel(**device_kw, prob_model=prob_model)
    except ValueError as e:
        raise ConfigError(f"device: {e}") from None
    _reject_unknown(dev, "device")

    sim = dict(_expect_mapping(root.pop("simulation", {}), "simulation"))
    dt_step = _take(sim, "simulation", "dt_step", 0.01, float)
    pair_only = _take(sim, "simulation", "pair_only", True, bool)
    amp_noise = _take(sim, "simulation", "amp_noise_sigma", 0.0, float)
    d_min = _take(sim, "simulation", "delta_t_min", -6.0, float)
    d_max = _take(sim, "simulation", "delta_t_max", 6.0, float)
    d_step = _take(sim, "simulation", "delta_t_step", 0.1, float)
    epochs = _take(sim, "simulation", "epochs", 10_000, int)
    seed = _take(sim, "simulation", "seed", 42, int)
    if seed < 0:
        raise ConfigError(f"simulation.seed: must be a non-negative integer, got {seed}")
    init_policy = _parse_init_policy(sim.pop("init_policy", "split"), "simulation.init_policy")
    _reject_unknown(sim, "simulation")

    out = dict(_expect_mapping(root.pop("output", {}), "output"))
    output = OutputOptions(svg=_take(out, "output", "svg", True, bool),
                           level_bin=_take(out, "output", "level_bin", 1.0, float))
    _reject_unknown(out, "output")
    if output.level_bin <= 0:
        raise ConfigError(f"output.level_bin: must be positive, got {output.level_bin}")
    _reject_unknown(root, "config")

    cfg = RunConfig(pre=pre, post=post, bank=bank, device=device, dt_step=dt_step,
                    pair_only=pair_only, amp_noise_sigma=amp_noise,
                    delta_t_min=d_min, delta_t_max=d_max, delta_t_step=d_step,
                    epochs=epochs, seed=seed, init_policy=init_policy, output=output)
    try:
        cfg.geometry()
        cfg.window_config()
    except ValueError as e:
        raise ConfigError(f"simulation: {e}") from None
    return cfg


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config {p}: {e}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{p}: invalid JSON: {e}") from None
    return parse_config(data)


def default_config() -> RunConfig:
    return parse_config({})
