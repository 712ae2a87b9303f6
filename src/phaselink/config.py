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
sections or keys are rejected. parse -> serialize -> parse is a fixed
point on the parsed value (floats are serialized via repr, which
round-trips exactly).

Required sections: atmosphere, beam, geometry, source, detector, seeds.
Optional: protocol (defaults applied), sweep, montecarlo, jitter.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .optics import AtmosphereParams, BeamParams, JitterSpec, LinkGeometry
from .protocol.session import ProtocolParams, Seeds, SessionSpec
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
    protocol: ProtocolParams
    sweep: Optional[SweepGrid] = None
    montecarlo: Optional[McParams] = None
    jitter: Optional[JitterSpec] = None

    def session_spec(self) -> SessionSpec:
        return SessionSpec(
            atm=self.atmosphere,
            beam=self.beam,
            geom=self.geometry,
            src=self.source,
            det=self.detector,
            protocol=self.protocol,
            seeds=self.seeds,
            jitter=self.jitter,
        )


# (section, key) -> type tag; "ratio" is the a:b:c form. Sections are the
# ScenarioConfig fields and keys their dataclasses' fields, in canonical order.
_SCHEMA = {
    "atmosphere": {"cn2": float, "l0": float, "alpha_fs": float},
    "beam": {"w0": float, "gamma": float, "wavelength": float},
    "geometry": {
        "d_fs": float,
        "d_fiber": float,
        "a_r": float,
        "conv_loss_db": float,
        "adapter_loss_db": float,
        "alpha_fiber": float,
    },
    "source": {"mu": float, "nu": float, "mix_ratio": "ratio", "rep_rate": float, "q": float},
    "detector": {
        "p_d": float,
        "eta_d": float,
        "visibility": float,
        "e_mis": float,
        "f_ec": float,
        "eta_b": float,
    },
    "seeds": {"alice": int, "bob": int, "channel": int},
    "protocol": {
        "fec_ratio": int,
        "spread_ratio": int,
        "qber_threshold": float,
        "sample_fraction": float,
        "duty_cycle": float,
        "n_frames": int,
        "initial_pool_bits": int,
    },
    "sweep": {"d_fs_start": float, "d_fs_stop": float, "d_fs_step": float},
    "montecarlo": {"n_pulses": int},
    "jitter": {"max_db": float, "tau_s": float, "step_db": float},
}

_REQUIRED = ("atmosphere", "beam", "geometry", "source", "detector", "seeds")

# keys that may be omitted inside otherwise-required sections
_OPTIONAL_KEYS = {
    "source": {"rep_rate", "q", "mix_ratio"},
    "detector": {"e_mis", "f_ec"},
}


def _parse_value(section: str, key: str, raw: str, lineno: int):
    kind = _SCHEMA[section][key]
    try:
        if kind is float:
            return float(raw)
        if kind is int:
            return int(raw)
        if kind == "ratio":
            parts = tuple(int(p) for p in raw.split(":"))
            if len(parts) != 3:
                raise ValueError("need three colon-separated integers")
            return parts
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {section}.{key}: {exc}") from exc
    raise ConfigError(f"internal schema error for {section}.{key}")


def parse_config(text: str) -> ScenarioConfig:
    """Parse configuration text into a fully validated ScenarioConfig."""
    values: dict = {}
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
        if section not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown section '{section}'")
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key '{section}.{key}'")
        if (section, key) in values:
            raise ConfigError(f"line {lineno}: duplicate key '{section}.{key}'")
        values[(section, key)] = _parse_value(section, key, rhs, lineno)

    def section_dict(name: str) -> dict:
        return {k: v for (s, k), v in values.items() if s == name}

    present = {s for s, _ in values}
    for name in _REQUIRED:
        if name not in present:
            raise ConfigError(f"missing required section '{name}'")
        missing = set(_SCHEMA[name]) - set(section_dict(name)) - _OPTIONAL_KEYS.get(name, set())
        if missing:
            raise ConfigError(
                f"section '{name}' missing required keys: {', '.join(sorted(missing))}"
            )

    try:
        atmosphere = AtmosphereParams(**section_dict("atmosphere"))
        beam = BeamParams(**section_dict("beam"))
        geometry = LinkGeometry(**section_dict("geometry"))
        source = SourceConfig(**section_dict("source"))
        detector = DetectorConfig(**section_dict("detector"))
        seeds = Seeds(**section_dict("seeds"))
        protocol = ProtocolParams(**section_dict("protocol"))
        sweep = SweepGrid(**section_dict("sweep")) if section_dict("sweep") else None
        mc = McParams(**section_dict("montecarlo")) if section_dict("montecarlo") else None
        jitter = JitterSpec(**section_dict("jitter")) if section_dict("jitter") else None
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    return ScenarioConfig(
        atmosphere=atmosphere,
        beam=beam,
        geometry=geometry,
        source=source,
        detector=detector,
        seeds=seeds,
        protocol=protocol,
        sweep=sweep,
        montecarlo=mc,
        jitter=jitter,
    )


def load_config(path) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ":".join(str(v) for v in value)
    if isinstance(value, bool):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    lines = []
    for name, keys in _SCHEMA.items():
        section = getattr(cfg, name)
        if section is not None:
            lines += [f"{name}.{key} = {_format_value(getattr(section, key))}" for key in keys]
    return "\n".join(lines) + "\n"


def config_hash(cfg: ScenarioConfig) -> str:
    """Stable identity of a scenario: sha256 of its canonical text."""
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()
