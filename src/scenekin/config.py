"""Pipeline configuration: one nested document of the settings callers vary.

Each section is the config dataclass of one layer and lives in that layer's
module (`capture` in sensing, `hotspot` in hotspot, ...); the stage functions
of a layer take their section whole. This module holds the top-level
`PipelineConfig`, the `run` section and the load, hash and seed helpers.

A setting is a key only when some caller (a module, a test, a benchmark
workload or a README example) sets it to another value than its default;
every other one is a constant beside the code that reads it. The
`generation` section, the scene distribution, is kept whole.

The on-disk format is JSON. Loading is strict: unknown keys, removed ones
included, are rejected by name, every value must match its field's
annotation, down to the type and number of tuple items, and every number
must be finite. All lengths are meters and angles are radians unless a
field name says ``_deg``. Every key can change what a run writes, and no
command option overrides one, so the config hash identifies a run's
settings; settings that change no artifact (such as the number of worker
processes) are arguments, not keys.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from .affordance import AffordanceConfig
from .artinfer import InferenceConfig
from .errors import ConfigError
from .hotspot import HotspotConfig
from .sensing import CaptureConfig
from .simworld import GenerationConfig, InteractionConfig


@dataclass(frozen=True)
class RunConfig:
    n_scenes: int = 5
    max_hotspots: int = 12
    refine: bool = True


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    interaction: InteractionConfig = field(default_factory=InteractionConfig)
    capture: CaptureConfig = field(default_factory=CaptureConfig)
    affordance: AffordanceConfig = field(default_factory=AffordanceConfig)
    hotspot: HotspotConfig = field(default_factory=HotspotConfig)
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    run: RunConfig = field(default_factory=RunConfig)


_SCALARS = {float: ("a number", (int, float)), int: ("an integer", int),
            bool: ("true/false", bool), str: ("a string", str)}


def _coerce(ftype, value, path: str):
    """Check `value` against the annotation `ftype`; return the field value."""
    if dataclasses.is_dataclass(ftype):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object")
        return _build(ftype, value, path)
    if typing.get_origin(ftype) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        items = typing.get_args(ftype)
        if len(value) != len(items):
            raise ConfigError(
                f"{path}: expected {len(items)} items, got {len(value)}")
        return tuple(_coerce(t, v, f"{path}[{k}]")
                     for k, (t, v) in enumerate(zip(items, value)))
    what, accepted = _SCALARS[ftype]
    # bool is an int subclass, so true/false only counts where bool is asked
    if not isinstance(value, accepted) or (
            isinstance(value, bool) and ftype is not bool):
        raise ConfigError(f"{path}: expected {what}, got {value!r}")
    # JSON's NaN and Infinity pass every range check as false
    if ftype is float and not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return ftype(value)


def _build(dc_type, data: dict, path: str = ""):
    hints = typing.get_type_hints(dc_type)
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} under '{path or 'root'}'"
            f" (known: {sorted(hints)})")
    kwargs = {name: _coerce(hints[name], value,
                            f"{path}.{name}" if path else name)
              for name, value in data.items()}
    try:
        return dc_type(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid values under '{path or 'root'}': {e}") from e


def config_from_dict(data: dict) -> PipelineConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration document must be a JSON object")
    return _build(PipelineConfig, data)


def config_to_dict(config: PipelineConfig) -> dict:
    def conv(obj):
        if dataclasses.is_dataclass(obj):
            return {f.name: conv(getattr(obj, f.name)) for f in fields(obj)}
        if isinstance(obj, (tuple, list)):
            return [conv(v) for v in obj]
        if isinstance(obj, np.generic):
            return obj.item()
        return obj

    return conv(config)


def load_config(path) -> PipelineConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e.strerror}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path} is not valid JSON: {e}") from e
    return config_from_dict(data)


def config_hash(config: PipelineConfig) -> str:
    canon = json.dumps(config_to_dict(config), sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def derive_seed(root_seed: int, *tags) -> int:
    """Deterministic child seed for (root, tags): one root fans out to every
    per-scene, per-sample, and per-capture stream."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(root_seed)).encode())
    for t in tags:
        h.update(b"\x1f")
        h.update(str(t).encode())
    return int.from_bytes(h.digest(), "little") % (2**63 - 1)
