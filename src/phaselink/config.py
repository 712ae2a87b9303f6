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
from .optics import AtmosphereParams, BeamParams, JitterSpec, LinkBudget, LinkGeometry, transmittance
from .protocol.framing import chip_count
from .protocol.session import ProtocolParams, Seeds, frame_pulse_bound
from .protocol.wire import MAX_CLICKS
from .rates import DetectorConfig, SourceConfig


MAX_SWEEP_POINTS = 100_000  # grid points a sweep may hold: 25x the 4,001 of 0-40 km at 10 m


@dataclass(frozen=True)
class SweepGrid:
    """The free-space distances start + i * step, i = 0, 1, ..., up to stop
    (within 1e-9 m). A grid whose step does not advance start, or that holds
    more than MAX_SWEEP_POINTS points, is rejected with ValueError."""

    d_fs_start: float
    d_fs_stop: float
    d_fs_step: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.d_fs_start, self.d_fs_stop, self.d_fs_step))):
            raise ValueError("sweep grid values must be finite")
        if self.d_fs_start < 0 or self.d_fs_step <= 0:
            raise ValueError("d_fs_start must be non-negative and d_fs_step positive")
        if self.d_fs_start + self.d_fs_step == self.d_fs_start:
            raise ValueError("d_fs_step does not advance d_fs_start")
        # the division bounds the count before points() appends them
        span = (self.d_fs_stop - self.d_fs_start) / self.d_fs_step
        if span >= MAX_SWEEP_POINTS or len(self.points()) > MAX_SWEEP_POINTS:
            raise ValueError(f"sweep grid holds more than {MAX_SWEEP_POINTS} points")

    def points(self) -> list:
        """Ascending grid start + i * step; empty when stop < start. Stops
        one point past MAX_SWEEP_POINTS, which __post_init__ rejects."""
        limit = self.d_fs_stop + 1e-9
        out = []
        while len(out) <= MAX_SWEEP_POINTS and (d := self.d_fs_start + len(out) * self.d_fs_step) <= limit:
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

    def __post_init__(self):
        # the wire must carry a frame's BASIS_ANNOUNCE should every pulse click
        p = self.protocol
        n = frame_pulse_bound(chip_count(p.fec_ratio, p.spread_ratio), self.source)
        if n > MAX_CLICKS:
            raise ConfigError(
                f"frames of up to {n} pulses: BASIS_ANNOUNCE carries at most {MAX_CLICKS} clicks"
            )

    def link_budget(self) -> LinkBudget:
        """The scenario's cascaded-link budget (optics.transmittance)."""
        d = self.detector
        return transmittance(self.geometry, self.atmosphere, self.beam, d.eta_b, d.eta_d)

    def session_spec(self) -> ScenarioConfig:
        # The session endpoints take the scenario itself. Kept only for
        # benchmarks/workloads.py, which calls it.
        return self


# Section name -> dataclass, in ScenarioConfig field order (Optional[X] -> X).
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
