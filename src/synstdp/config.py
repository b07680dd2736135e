"""JSON run configuration.

Every key is validated with a path-qualified error message; unknown keys
are rejected.  An empty config resolves to the dendritic-attenuation
reference setup (16 branches, attenuation 0.6..1, HRHT spikes, Gaussian
switching with 0.1 V spread, 10k epochs over offsets -6..6).  Each section
is read, and written back by `RunConfig.to_dict`, from the dataclass that
owns it: a bool, int, float or str field is a key with the field's own
default and type (`_fields` / `_values`).
"""
from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass
from pathlib import Path

from .dendrite import DendriteBank
from .device import DeviceModel, ProbModel
from .montecarlo import INIT_KINDS, InitPolicy, WindowConfig
from .pairing import PairingGeometry
from .waveforms import SpikeWaveform

SCHEMA_VERSION = 1
_JSON_KEYS = {"r_on": "r_on_ohm"}  # field name -> JSON key, where they differ
_SCALARS = (bool, int, float, str)
# name-or-object keys: (the kinds named alone, the kind written {kind: {params}})
_KINDS = {ProbModel: (("gaussian",), "linear"),
          InitPolicy: (INIT_KINDS, "random")}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class OutputOptions:
    svg: bool = True
    level_bin: float = 1.0  # dot-grouping bin for scatter opacity

    def __post_init__(self):
        if self.level_bin <= 0:
            raise ValueError(f"level_bin: must be positive, got {self.level_bin}")


@dataclass(frozen=True)
class RunConfig:
    window: WindowConfig
    output: OutputOptions

    def window_config(self) -> WindowConfig:
        # perfbench/trace_child.py calls this accessor; it goes when the
        # benchmark reads `.window` instead
        return self.window

    def to_dict(self) -> dict:
        win, g = self.window, self.window.geometry
        return {
            "schema_version": SCHEMA_VERSION,
            "waveform": {**_values(g.pre), "extra": dict(g.pre.extra)},
            "post_waveform": {**_values(g.post), "extra": dict(g.post.extra)},
            "dendrites": _values(g.bank),
            "device": {**_values(g.device), "prob_model": _kind_value(g.device.prob_model)},
            "simulation": {**_values(g), **_values(win),
                           "init_policy": _kind_value(win.init_policy)},
            "output": _values(self.output),
        }


def _scalars(cls, skip=()) -> dict:
    """name -> (type, default) of each field of cls that one JSON key sets:
    a bool, int, float or str, where X | None reads as X."""
    hints = typing.get_type_hints(cls)
    out = {}
    for f in dataclasses.fields(cls):
        kind, args = hints[f.name], typing.get_args(hints[f.name])
        if type(None) in args:
            (kind,) = set(args) - {type(None)}
        if kind in _SCALARS and f.name not in skip:
            out[f.name] = (kind, f.default)
    return out


def _fields(section: dict, path: str, cls, skip=()) -> dict:
    """Pop each scalar field of cls from section under its JSON key, with
    the field's own default and type (see _take)."""
    return {name: _take(section, path, _JSON_KEYS.get(name, name), default, kind)
            for name, (kind, default) in _scalars(cls, skip).items()}


def _values(obj, skip=()) -> dict:
    """The inverse of _fields: obj's scalar fields under their JSON keys."""
    return {_JSON_KEYS.get(name, name): getattr(obj, name) for name in _scalars(type(obj), skip)}


def _build(cls, path: str, **kw):
    """cls(**kw), its ValueError a ConfigError under path.  A message that
    starts with a field name (or a dotted path into one) and a colon is about
    that field alone and is put under its key."""
    try:
        return cls(**kw)
    except ValueError as e:
        name, sep, rest = str(e).partition(": ")
        if sep and name.partition(".")[0] in kw:
            raise ConfigError(f"{path}.{_JSON_KEYS.get(name, name)}: {rest}") from None
        raise ConfigError(f"{path}: {e}") from None


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
        if not (kind is float and isinstance(val, int) and not isinstance(val, bool)):
            raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {val!r}")
    # JSON admits NaN, Infinity and integers beyond the float range; reject
    # them here, before they reach a NaN curve or a traceback at run time
    if kind in (int, float):
        try:
            number = float(val)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{path}.{key}: must be a finite number, got {number!r}")
        if kind is float:
            val = number
    return val


def _reject_unknown(section: dict, path: str):
    if section:
        raise ConfigError(f"{path}: unknown keys {sorted(section)}")


def _section(raw, path: str, cls, **given):
    """cls from the JSON object raw: the given fields, and each other scalar
    field from its key."""
    sec = dict(_expect_mapping(raw, path))
    kw = _fields(sec, path, cls, skip=given)
    _reject_unknown(sec, path)
    return _build(cls, path, **kw, **given)


def _kind_or_params(section: dict, path: str, owner, key: str):
    """owner's field `key`, a ProbModel or InitPolicy, from section[key]
    (owner's default when absent): the name of a kind that takes no
    parameters, or {tagged: {params}} for the kind that does."""
    default = getattr(owner, key)
    if key not in section:
        return default
    cls, raw, path = type(default), section.pop(key), f"{path}.{key}"
    names, tagged = _KINDS[cls]
    params = None
    if not isinstance(raw, str):
        sec = dict(_expect_mapping(raw, path))
        params = _take(sec, path, tagged, None, dict)
        _reject_unknown(sec, path)
    if params is not None:
        return _section(params, f"{path}.{tagged}", cls, kind=tagged)
    if raw not in names:
        raise ConfigError(f"{path}: expected one of {list(names)} or "
                          f"{{{tagged!r}: {{...}}}}, got {raw!r}")
    return cls(kind=raw)


def _kind_value(obj):
    """The inverse of _kind_or_params."""
    _, tagged = _KINDS[type(obj)]
    return {tagged: _values(obj, skip=("kind",))} if obj.kind == tagged else obj.kind


def _parse_waveform(raw: dict | None, path: str) -> SpikeWaveform:
    sec = dict(_expect_mapping(raw if raw is not None else {}, path))
    extra = dict(_take(sec, path, "extra", {}, dict))
    extra = {k: _take(extra, f"{path}.extra", k, dataclasses.MISSING, float) for k in list(extra)}
    return _section(sec, path, SpikeWaveform, extra=extra)


def parse_config(data: dict) -> RunConfig:
    root = dict(_expect_mapping(data, "config"))
    version = _take(root, "config", "schema_version", SCHEMA_VERSION, int)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"config.schema_version: unsupported version {version}")

    pre = _parse_waveform(root.pop("waveform", None), "waveform")
    post_raw = root.pop("post_waveform", None)
    post = _parse_waveform(post_raw, "post_waveform") if post_raw is not None else pre
    bank = _section(root.pop("dendrites", {}), "dendrites", DendriteBank)

    dev = dict(_expect_mapping(root.pop("device", {}), "device"))
    prob_model = _kind_or_params(dev, "device", DeviceModel, "prob_model")
    device = _section(dev, "device", DeviceModel, prob_model=prob_model)

    sim = dict(_expect_mapping(root.pop("simulation", {}), "simulation"))
    geometry_kw = _fields(sim, "simulation", PairingGeometry)
    window_kw = _fields(sim, "simulation", WindowConfig)
    init_policy = _kind_or_params(sim, "simulation", WindowConfig, "init_policy")
    _reject_unknown(sim, "simulation")

    output = _section(root.pop("output", {}), "output", OutputOptions)
    _reject_unknown(root, "config")

    geometry = _build(PairingGeometry, "simulation", pre=pre, post=post, bank=bank,
                      device=device, **geometry_kw)
    window = _build(WindowConfig, "simulation", geometry=geometry, init_policy=init_policy,
                    **window_kw)
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
    label = f"{path}: {cls.__name__}"
    kw = _fields(raw, label, cls)
    _reject_unknown(raw, label)
    return _build(cls, label, **kw)


def default_config() -> RunConfig:
    return parse_config({})
