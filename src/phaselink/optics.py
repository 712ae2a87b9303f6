"""Free-space plus fiber link budget for a Gaussian beam.

Models the cascaded channel as: turbulence-broadened beam propagation over
the free-space leg, truncation by a finite receiver aperture, then fixed
dB losses (atmospheric extinction, telescope conversion, fiber attenuation,
fiber adapter) and the receiver-internal and detector efficiencies.

All lengths are meters, attenuation coefficients dB/km, efficiencies linear
probabilities. dB conversions use 10*log10 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import BadJitterSpec, NonTurbulentChannel, RegimeViolation

__all__ = [
    "AtmosphereParams",
    "BeamParams",
    "LinkGeometry",
    "JitterSpec",
    "LinkBudget",
    "rytov_variance",
    "critical_distance",
    "rayleigh_length",
    "effective_waist",
    "transmittance",
    "fixed_factors",
    "budget_at",
    "jitter_step",
]


@dataclass(frozen=True)
class AtmosphereParams:
    """Turbulence and extinction constants of the free-space leg.

    cn2: refractive-index structure constant [m^(-2/3)]
    l0: turbulence inner scale [m]
    alpha_fs: free-space attenuation coefficient [dB/km]
    """

    cn2: float
    l0: float
    alpha_fs: float

    def __post_init__(self):
        if self.cn2 < 0:
            raise ValueError("cn2 must be non-negative")
        if self.l0 <= 0:
            raise ValueError("l0 must be positive")
        if self.alpha_fs < 0:
            raise ValueError("alpha_fs must be non-negative")


@dataclass(frozen=True)
class BeamParams:
    """Emitted Gaussian beam: waist w0 [m], telescope magnification
    gamma (dimensionless, >= 1), central wavelength [m]."""

    w0: float
    gamma: float
    wavelength: float

    def __post_init__(self):
        if self.w0 <= 0:
            raise ValueError("w0 must be positive")
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")

    @property
    def wavenumber(self) -> float:
        """k = 2*pi / wavelength [1/m]."""
        return 2.0 * math.pi / self.wavelength


@dataclass(frozen=True)
class LinkGeometry:
    """Link distances, receiver aperture, and fixed dB losses.

    d_fs: free-space distance [m]
    d_fiber: fiber distance [m]
    a_r: receiver aperture radius [m]
    conv_loss_db: telescope conversion loss, both ends combined [dB]
    adapter_loss_db: fixed fiber-interface loss [dB]
    alpha_fiber: fiber attenuation [dB/km]
    """

    d_fs: float
    d_fiber: float
    a_r: float
    conv_loss_db: float
    adapter_loss_db: float
    alpha_fiber: float

    def __post_init__(self):
        if self.d_fs < 0 or self.d_fiber < 0:
            raise ValueError("distances must be non-negative")
        if self.a_r <= 0:
            raise ValueError("a_r must be positive")
        if min(self.conv_loss_db, self.adapter_loss_db, self.alpha_fiber) < 0:
            raise ValueError("losses must be non-negative")


@dataclass(frozen=True)
class JitterSpec:
    """Bounded slow fluctuation of the channel loss, in dB.

    max_db: hard excursion bound around the static loss
    tau_s: mean-reversion timescale [s]
    step_db: random-step scale [dB per sqrt(s)]
    """

    max_db: float
    tau_s: float = 10.0
    step_db: float = 0.35

    def __post_init__(self):
        if self.max_db < 0:
            raise BadJitterSpec("max_db must be non-negative")
        if self.tau_s <= 0 or self.step_db < 0:
            raise ValueError("tau_s must be positive and step_db non-negative")


@dataclass(frozen=True)
class LinkBudget:
    """End-to-end transmittance with its itemized dB decomposition.

    breakdown holds one dB entry per multiplicative factor; their sum equals
    -10*log10(eta_total) up to float rounding (budget_at checks it).
    """

    eta_total: float
    breakdown: dict = field(repr=False)
    w_eff: float
    rytov: float

    @property
    def total_db(self) -> float:
        return _to_db(self.eta_total)

    @property
    def channel_db(self) -> float:
        """Channel-only loss: everything except the receiver-internal and
        detector terms."""
        return sum(
            v for k, v in self.breakdown.items() if k not in ("receiver", "detector")
        )


def rytov_variance(atm: AtmosphereParams, beam: BeamParams, d_fs: float) -> float:
    """Turbulence strength sigma_Ry^2 = 1.23 * cn2 * k^(7/6) * d^(11/6).

    Dimensionless; zero iff cn2 = 0 or d_fs = 0.
    """
    if d_fs < 0:
        raise ValueError("d_fs must be non-negative")
    return 1.23 * atm.cn2 * beam.wavenumber ** (7.0 / 6.0) * d_fs ** (11.0 / 6.0)


def critical_distance(atm: AtmosphereParams, beam: BeamParams) -> float:
    """Distance d_i = 1 / (cn2 * k^2 * l0^(5/3)) at which the transverse
    coherence radius shrinks to the turbulence inner scale [m].

    The beam-spread model below is only valid for d_fs < d_i.
    """
    if atm.cn2 == 0:
        raise NonTurbulentChannel("critical distance undefined for cn2 = 0")
    return 1.0 / (atm.cn2 * beam.wavenumber**2 * atm.l0 ** (5.0 / 3.0))


def rayleigh_length(beam: BeamParams) -> float:
    """Rayleigh length of the magnified beam, pi * w0^2 * gamma^2 / lambda [m]."""
    return math.pi * beam.w0**2 * beam.gamma**2 / beam.wavelength


def effective_waist(atm: AtmosphereParams, beam: BeamParams, d_fs: float) -> float:
    """Beam radius at the receiver plane after diffraction and turbulence [m].

    w = w0*gamma * sqrt(1 + (d/d_R)^2) * sqrt(1 + 1.63 * sigma^(6/5) * Theta)
    with Theta = 2 d d_R^2 / (k w0^2 gamma^2 (d_R^2 + d^2)).

    Raises RegimeViolation when d_fs >= critical_distance (model validity).
    """
    return _waist_and_rytov(atm, beam, d_fs)[0]


def _waist_and_rytov(atm: AtmosphereParams, beam: BeamParams, d_fs: float) -> tuple:
    """(effective_waist, rytov_variance) at d_fs, each computed once."""
    if d_fs < 0:
        raise ValueError("d_fs must be non-negative")
    if atm.cn2 > 0 and d_fs >= (d_i := critical_distance(atm, beam)):
        raise RegimeViolation(f"d_fs = {d_fs:g} m is not below the critical distance {d_i:g} m")
    d_r = rayleigh_length(beam)
    launch = beam.w0 * beam.gamma
    diffraction = math.sqrt(1.0 + (d_fs / d_r) ** 2)
    if d_fs == 0.0:
        return launch, 0.0
    sigma2 = rytov_variance(atm, beam, d_fs)
    theta = 2.0 * d_fs * d_r**2 / (beam.wavenumber * launch**2 * (d_r**2 + d_fs**2))
    spread = math.sqrt(1.0 + 1.63 * sigma2 ** (6.0 / 5.0) * theta)
    return launch * diffraction * spread, sigma2


def _to_db(factor: float) -> float:
    return -10.0 * math.log10(factor) if factor else math.inf  # a factor of 0 loses all


def fixed_factors(geom: LinkGeometry, eta_b: float, eta_d: float) -> tuple:
    """transmittance's factors that do not depend on d_fs, in its order
    (conversion, fiber, adapter, receiver, detector), and their dB terms."""
    if not (0.0 < eta_b <= 1.0 and 0.0 < eta_d <= 1.0):
        raise ValueError("eta_b and eta_d must be in (0, 1]")
    factors = (10.0 ** (-geom.conv_loss_db / 10.0),
               10.0 ** (-geom.alpha_fiber * geom.d_fiber / 1000.0 / 10.0),
               10.0 ** (-geom.adapter_loss_db / 10.0), eta_b, eta_d)
    return factors, tuple(map(_to_db, factors))


def budget_at(d_fs: float, a_r: float, atm: AtmosphereParams, beam: BeamParams, fixed) -> tuple:
    """(eta_total, w_eff, rytov, geometric dB, atmospheric dB) at d_fs, the other factors from
    fixed_factors; raises as transmittance does."""
    (conversion, fiber, adapter, eta_b, eta_d), fixed_db = fixed
    try:
        w, sigma2 = _waist_and_rytov(atm, beam, d_fs)
        capture = -math.expm1(-2.0 * a_r**2 / w**2)
        extinction = 10.0 ** (-atm.alpha_fs * d_fs / 1000.0 / 10.0)
        eta_total = capture * extinction * conversion * fiber * adapter * eta_b * eta_d
    except (OverflowError, ZeroDivisionError) as exc:
        raise RegimeViolation(f"link budget out of floating-point range: {exc}") from exc
    geometric_db, atmospheric_db = _to_db(capture), _to_db(extinction)
    db_sum = sum((geometric_db, atmospheric_db, *fixed_db))
    # not positive: underflowed to 0, or NaN from inf / inf; dB terms that do
    # not add up to it: a subnormal product, which has lost their precision
    if not (eta_total > 0.0 and abs(db_sum - _to_db(eta_total)) <= 1e-9):
        raise RegimeViolation(f"link budget out of floating-point range: transmittance {eta_total!r}")
    return eta_total, w, sigma2, geometric_db, atmospheric_db


def transmittance(
    geom: LinkGeometry,
    atm: AtmosphereParams,
    beam: BeamParams,
    eta_b: float,
    eta_d: float,
) -> LinkBudget:
    """Total end-to-end transmittance of the cascaded link.

    eta = (1 - exp(-2 a_r^2 / w^2))            aperture capture
          * 10^(-alpha_fs d_fs / 10 km)        atmospheric extinction
          * 10^(-conv_loss / 10)               telescope conversion
          * 10^(-alpha_fiber d_fiber / 10 km)  fiber attenuation
          * 10^(-adapter_loss / 10)            fiber adapter
          * eta_b * eta_d                      receiver internal, detector

    eta_b, eta_d must lie in (0, 1]. Raises RegimeViolation when the
    inputs take the arithmetic out of floating-point range: an overflow, a
    division by zero, a transmittance that is not a positive number (one
    that underflows to 0), or one whose dB terms no longer sum to its own
    (a subnormal product).
    """
    fixed = fixed_factors(geom, eta_b, eta_d)
    eta_total, w, sigma2, *varying_db = budget_at(geom.d_fs, geom.a_r, atm, beam, fixed)
    keys = ("geometric", "atmospheric", "conversion", "fiber", "adapter", "receiver", "detector")
    return LinkBudget(eta_total, dict(zip(keys, (*varying_db, *fixed[1]))), w, sigma2)


def jitter_step(x: float, u: float, jitter: JitterSpec, dt: float) -> float:
    """Advance the jitter excursion x [dB] by dt seconds using one uniform u.

    The excursion decays toward zero over tau_s, takes a zero-mean,
    unit-variance step scaled by step_db * sqrt(dt), and is reflected at
    +-max_db, so the long-run mean is zero and no value leaves the bound.
    A value inside the bound is returned as it is; one outside is folded
    back in one step, however far out it lands. max_db = 0 gives 0.
    """
    bound = jitter.max_db
    if bound == 0.0:
        return 0.0
    step = (2.0 * u - 1.0) * math.sqrt(3.0) * jitter.step_db * math.sqrt(dt)
    x = x * max(0.0, 1.0 - dt / jitter.tau_s) + step
    if abs(x) > bound:
        # reflection at +-bound repeats with period 4 * bound
        x = bound - abs((x + bound) % (4.0 * bound) - 2.0 * bound)
    return x
