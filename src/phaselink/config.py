"""Scenario configuration: flat `section.key = value` text files.

Example:

    # measured link
    atmosphere.cn2 = 1.28e-14
    beam.w0 = 1.74e-3
    geometry.d_fs = 1400.0
    source.mix_ratio = 30:2:1
    detector.eta_b = 0.22387211385683395
    seeds.alice = 11

Units are SI throughout (meters, seconds); attenuation coefficients are
dB/km; efficiencies (eta_b, eta_d) are linear transmittances. Unknown
sections or keys and non-finite floats (nan, inf) are rejected. parse ->
serialize -> parse is a fixed point on the parsed value (floats are
serialized via repr, which round-trips exactly).

The sections are the fields of ScenarioConfig, and a section's keys are
the fields of its dataclass, with their types and in their order:

    atmosphere  optics.AtmosphereParams     seeds       session.Seeds
    beam        optics.BeamParams           protocol    session.ProtocolParams
    geometry    optics.LinkGeometry         sweep       SweepGrid
    source      rates.SourceConfig          montecarlo  McParams
    detector    rates.DetectorConfig        jitter      optics.JitterSpec

A tuple field (source.mix_ratio) is written a:b:c. A key is required when
its field has no default, with one exception: detector.eta_b must be given
although DetectorConfig defaults it to 1.0. The first six sections are
required; protocol may be left out (all defaults), and sweep, montecarlo
and jitter are None when left out.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Optional, get_args, get_type_hints

from .errors import ConfigError
from .optics import AtmosphereParams, BeamParams, JitterSpec, LinkGeometry
from .protocol.session import ProtocolParams, Seeds
from .rates import DetectorConfig, SourceConfig


@dataclass(frozen=True)
class SweepGrid:
    d_fs_start: float
    d_fs_stop: float
    d_fs_step: float

    def __post_init__(self):
        if self.d_fs_step <= 0:
            raise ValueError("d_fs_step must be positive")

    def points(self) -> list:
        """Ascending grid start + i * step; empty when stop < start."""
        out = []
        while (d := self.d_fs_start + len(out) * self.d_fs_step) <= self.d_fs_stop + 1e-9:
            out.append(d)
        return out


@dataclass(frozen=True)
class McParams:
    n_pulses: int

    def __post_init__(self):
        if self.n_pulses <= 0:
            raise ValueError("n_pulses must be positive")


@dataclass(frozen=True)
class ScenarioConfig:
    atmosphere: AtmosphereParams
    beam: BeamParams
    geometry: LinkGeometry
    source: SourceConfig
    detector: DetectorConfig
    seeds: Seeds
    protocol: ProtocolParams = ProtocolParams()
    sweep: Optional[SweepGrid] = None
    montecarlo: Optional[McParams] = None
    jitter: Optional[JitterSpec] = None

    def session_spec(self) -> ScenarioConfig:
        # The session endpoints take the scenario itself. Kept only for
        # benchmarks/workloads.py, which calls it.
        return self


# Section name -> dataclass, in ScenarioConfig field order (Optional[X] -> X).
# A section's keys are its dataclass's fields, with their order and types.
_SECTIONS = {
    name: (get_args(kind) or (kind,))[0] for name, kind in get_type_hints(ScenarioConfig).items()
}
_KEY_TYPES = {name: get_type_hints(cls) for name, cls in _SECTIONS.items()}
# A section may be left out when its ScenarioConfig field has a default.
_REQUIRED_SECTIONS = {f.name for f in fields(ScenarioConfig) if f.default is MISSING}
# Keys a config file must give although their field has a default: a link
# that omits the receiver transmittance would be modelled as lossless there.
_REQUIRED_WITH_DEFAULT = {"detector": {"eta_b"}}


def _required_keys(name: str) -> set:
    own = {f.name for f in fields(_SECTIONS[name]) if f.default is MISSING}
    return own | _REQUIRED_WITH_DEFAULT.get(name, set())


def _parse_value(kind, raw: str):
    """A tuple field takes the a:b:c ratio form; others call their type.
    A float must be finite."""
    if kind is not tuple:
        value = kind(raw)
        if kind is float and not math.isfinite(value):
            raise ValueError(f"{raw!r} is not finite")
        return value
    parts = tuple(int(p) for p in raw.split(":"))
    if len(parts) != 3:
        raise ValueError("need three colon-separated integers")
    return parts


def parse_config(text: str) -> ScenarioConfig:
    """Parse configuration text into a fully validated ScenarioConfig."""
    values: dict = {name: {} for name in _SECTIONS}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        lhs, _, rhs = stripped.partition("=")
        lhs = lhs.strip()
        rhs = rhs.split("#", 1)[0].strip()
        if "." not in lhs:
            raise ConfigError(f"line {lineno}: key '{lhs}' lacks a section prefix")
        section, _, key = lhs.partition(".")
        if section not in _SECTIONS:
            raise ConfigError(f"line {lineno}: unknown section '{section}'")
        if key not in _KEY_TYPES[section]:
            raise ConfigError(f"line {lineno}: unknown key '{section}.{key}'")
        if key in values[section]:
            raise ConfigError(f"line {lineno}: duplicate key '{section}.{key}'")
        try:
            values[section][key] = _parse_value(_KEY_TYPES[section][key], rhs)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {section}.{key}: {exc}") from exc

    for name, given in values.items():
        if not given and name in _REQUIRED_SECTIONS:
            raise ConfigError(f"missing required section '{name}'")
        missing = _required_keys(name) - set(given)
        if given and missing:
            raise ConfigError(
                f"section '{name}' missing required keys: {', '.join(sorted(missing))}"
            )
    try:
        return ScenarioConfig(
            **{name: _SECTIONS[name](**given) for name, given in values.items() if given}
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def format_value(value) -> str:
    """Text of one config value or table cell: a:b:c for a tuple, 0/1 for a
    bool, repr for a float (it round-trips exactly), str otherwise."""
    if isinstance(value, tuple):
        return ":".join(str(v) for v in value)
    if isinstance(value, bool):
        return str(int(value))
    return repr(float(value)) if isinstance(value, float) else str(value)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    lines = []
    for name, keys in _KEY_TYPES.items():
        section = getattr(cfg, name)
        if section is not None:
            lines += [f"{name}.{key} = {format_value(getattr(section, key))}" for key in keys]
    return "\n".join(lines) + "\n"


def config_hash(cfg: ScenarioConfig) -> str:
    """Stable identity of a scenario: sha256 of its canonical text."""
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()
