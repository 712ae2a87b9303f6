"""Decoy-state forward model, single-photon bounds, and secrecy capacity.

The forward model maps a total transmittance eta onto the gains and QBERs
of the signal and decoy intensities:

    Q_a = Y0 + 1 - exp(-eta a)
    E_a Q_a = e0 Y0 + e_opt (1 - exp(-eta a)),   e0 = 1/2

with Y0 = 2 p_d the zero-photon yield and e_opt the optical error rate
(DetectorConfig.e_opt): the intrinsic interferometric error
e_det = (1 - V)/2 plus the misalignment e_mis. The estimator inverts two
intensities plus the vacuum yield into a lower bound Q1 on the
single-photon gain and an upper bound e1 on its error rate; the secrecy
capacity per signal pulse is

    cs = q Q_mu { -f H2(E_mu) + (Q1/Q_mu)(1 - H2(e1)) }

with q = SIFT_FACTOR. cs is clamped at zero for rate purposes (callers
also see the raw value).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DegenerateIntensities, DomainError, EstimatorCollapse, RegimeViolation
from .optics import AtmosphereParams, BeamParams, LinkGeometry, budget_at, fixed_factors
from .optics import transmittance  # noqa: F401  (benchmarks/tracing.py times rates.transmittance)

E0_BACKGROUND = 0.5  # error rate of background (dark) clicks
# Sift factor: each side picks one of two bases with probability 1/2, so a
# click survives sifting with probability 1/2.
SIFT_FACTOR = 0.5

__all__ = [
    "SourceConfig",
    "DetectorConfig",
    "DecoyObservables",
    "DecoyEstimate",
    "RateReport",
    "SweepPoint",
    "binary_entropy",
    "gain_and_qber",
    "forward_gains",
    "decoy_estimate",
    "secrecy_capacity",
    "recycling_fraction",
    "rate_sweep",
]


@dataclass(frozen=True)
class SourceConfig:
    """Weak-coherent-pulse source settings.

    mu, nu: mean photon numbers of signal and decoy pulses (mu > nu > 0)
    mix_ratio: signal:decoy:vacuum interleaving ratio
    rep_rate: pulse repetition rate [1/s]
    """

    mu: float
    nu: float
    mix_ratio: tuple = (30, 2, 1)
    rep_rate: float = 1.25e9

    def __post_init__(self):
        if not (self.mu > self.nu > 0):
            raise DegenerateIntensities("require mu > nu > 0")
        if len(self.mix_ratio) != 3 or any(int(r) <= 0 for r in self.mix_ratio):
            raise ValueError("mix_ratio must be three positive integers")
        if self.rep_rate <= 0:
            raise ValueError("rep_rate must be positive")

    @property
    def q(self) -> float:
        """Sifting factor: SIFT_FACTOR, the protocol's, not a setting."""
        return SIFT_FACTOR

    @property
    def signal_fraction(self) -> float:
        return self.mix_ratio[0] / sum(self.mix_ratio)

    @property
    def decoy_fraction(self) -> float:
        return self.mix_ratio[1] / sum(self.mix_ratio)


@dataclass(frozen=True)
class DetectorConfig:
    """Receiver and detector settings.

    p_d: dark count probability per gate
    eta_d: detector efficiency
    visibility: interference visibility V
    e_mis: extra misalignment error on top of e_det = (1-V)/2
    f_ec: error-correction efficiency (>= 1)
    eta_b: receiver internal transmittance
    """

    p_d: float
    eta_d: float
    visibility: float
    e_mis: float = 0.0
    f_ec: float = 1.22
    eta_b: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.p_d < 0.5):  # y0 = 2 p_d is a probability below 1
            raise ValueError("p_d must be in [0, 0.5), so that y0 = 2 p_d is below 1")
        if not (0.0 < self.eta_d <= 1.0):
            raise ValueError("eta_d must be in (0, 1]")
        if not (0.0 <= self.visibility <= 1.0):
            raise ValueError("visibility must be in [0, 1]")
        if self.e_mis < 0:
            raise ValueError("e_mis must be non-negative")
        if self.e_opt > 0.5:
            raise ValueError("the optical error rate (1 - visibility) / 2 + e_mis must be <= 0.5")
        if self.f_ec < 1.0:
            raise ValueError("f_ec must be >= 1")
        if not (0.0 < self.eta_b <= 1.0):
            raise ValueError("eta_b must be in (0, 1]")

    @property
    def y0(self) -> float:
        """Zero-photon yield, 2 * p_d."""
        return 2.0 * self.p_d

    @property
    def e_det(self) -> float:
        """Intrinsic detector error rate, (1 - V) / 2."""
        return (1.0 - self.visibility) / 2.0

    @property
    def e_opt(self) -> float:
        """Optical error rate, e_det plus the misalignment e_mis: the error
        of a photon click, which sets each class's QBER."""
        return self.e_det + self.e_mis


@dataclass(frozen=True)
class DecoyObservables:
    """Measured or modeled gains/QBERs of the three intensity classes."""

    q_mu: float
    e_mu: float
    q_nu: float
    e_nu: float
    y0: float

    def __post_init__(self):
        _check_observables(self.q_mu, self.e_mu, self.q_nu, self.e_nu, self.y0)


@dataclass(frozen=True)
class DecoyEstimate:
    """Single-photon gain lower bound and QBER upper bound."""

    q1: float
    e1: float


@dataclass(frozen=True)
class RateReport:
    """Per-pulse secrecy capacity and the absolute key generation rate."""

    cs_per_pulse: float
    cs_raw: float
    key_gen_rate: float = 0.0


class SweepPoint(NamedTuple):
    """One distance point of a rate sweep, a row of `phaselink rate-sweep`'s
    table. Where the estimator collapsed, collapsed is 1 and the point is
    reported at zero rate with q1 = e1 = 0."""

    d_fs: float
    key_gen_rate: float
    cs_raw: float
    q_mu: float
    e_mu: float
    q1: float
    e1: float
    collapsed: int


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2 (1-x), with H2(0) = H2(1) = 0."""
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"binary entropy undefined for {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _check_observables(q_mu, e_mu, q_nu, e_nu, y0) -> None:
    if not (0.0 < q_nu < 1.0 and 0.0 < q_mu < 1.0):
        raise ValueError("gains must be in (0, 1)")
    if not (0.0 <= e_mu <= 0.5 and 0.0 <= e_nu <= 0.5):
        raise ValueError("QBERs must be in [0, 0.5]")
    if not (0.0 <= y0 <= q_nu <= q_mu):
        raise ValueError("require y0 <= q_nu <= q_mu")


def _gain(eta, intensity, y0, e_opt) -> tuple:
    """(gain, QBER) of one class; e_opt is DetectorConfig.e_opt."""
    photon = -math.expm1(-eta * intensity)
    gain = y0 + photon
    if gain == 0.0:
        return 0.0, E0_BACKGROUND
    return gain, (E0_BACKGROUND * y0 + e_opt * photon) / gain


def _gains(eta, mu, nu, y0, e_opt) -> tuple:
    """forward_gains on floats: (q_mu, e_mu, q_nu, e_nu), with its checks
    and DecoyObservables'."""
    if not (0.0 < eta <= 1.0):
        raise ValueError("eta must be in (0, 1]")
    q_mu, e_mu = _gain(eta, mu, y0, e_opt)
    q_nu, e_nu = _gain(eta, nu, y0, e_opt)
    if max(q_mu, q_nu) >= 1.0:
        raise RegimeViolation(f"closed-form gain {max(q_mu, q_nu)!r} is not below 1")
    _check_observables(q_mu, e_mu, q_nu, e_nu, y0)
    return q_mu, e_mu, q_nu, e_nu


def _estimate(q_mu, q_nu, e_nu, y0, mu, nu) -> tuple:
    """decoy_estimate on floats: (q1, e1), for mu > nu > 0 as SourceConfig checks."""
    try:
        q1 = (
            mu**2
            * math.exp(-mu)
            / (mu * nu - nu**2)
            * (q_nu * math.exp(nu) - q_mu * math.exp(mu) * nu**2 / mu**2 - (mu**2 - nu**2) / mu**2 * y0)
        )
        if not 0.0 < q1 < math.inf:
            raise EstimatorCollapse(f"single-photon gain bound is {q1:g}")
        e1 = mu * math.exp(-mu) * (e_nu * q_nu * math.exp(nu) - E0_BACKGROUND * y0) / (nu * q1)
    except ArithmeticError as exc:  # e^mu overflows, or a product underflows to 0 and divides
        raise EstimatorCollapse(f"single-photon bound leaves floating-point range: {exc}") from exc
    if not math.isfinite(e1):
        raise EstimatorCollapse(f"single-photon error bound is {e1:g}")
    return q1, min(max(e1, 0.0), 0.5)


def _capacity(f_ec, q_mu, e_mu, q1, e1) -> float:
    """secrecy_capacity on floats: cs_raw."""
    return SIFT_FACTOR * q_mu * (-f_ec * binary_entropy(e_mu) + (q1 / q_mu) * (1.0 - binary_entropy(e1)))


def gain_and_qber(eta: float, intensity: float, det: DetectorConfig) -> tuple:
    """Gain and QBER of one intensity class at total transmittance eta.

    intensity = 0 yields the vacuum pair (Y0, 1/2).
    """
    return _gain(eta, intensity, det.y0, det.e_opt)


def forward_gains(eta: float, src: SourceConfig, det: DetectorConfig) -> DecoyObservables:
    """Closed-form observables for the signal and decoy intensities. Raises
    RegimeViolation when a gain is not below 1: the additive closed form
    Y0 + 1 - exp(-eta a) is no probability there (a high dark count
    probability, or a bright pulse on a short link)."""
    return DecoyObservables(*_gains(eta, src.mu, src.nu, det.y0, det.e_opt), det.y0)


def decoy_estimate(obs: DecoyObservables, src: SourceConfig) -> DecoyEstimate:
    """Bound the single-photon contribution from two intensities plus Y0.

    Q1 = mu^2 e^-mu / (mu nu - nu^2)
         * (Q_nu e^nu - Q_mu e^mu nu^2/mu^2 - (mu^2 - nu^2)/mu^2 * Y0)
    e1 = mu e^-mu (E_nu Q_nu e^nu - e0 Y0) / (nu Q1)

    Raises EstimatorCollapse when the bound degenerates: Q1 <= 0, Q1 or e1
    not finite (mu nu - nu^2 subnormal, for one), or its arithmetic leaves
    floating-point range (e^mu overflows above mu = 709.78; mu nu - nu^2
    or nu Q1 underflows to 0).
    e1 is clamped into [0, 1/2]; values outside only occur when the
    single-photon channel carries no usable information anyway.
    """
    return DecoyEstimate(*_estimate(obs.q_mu, obs.q_nu, obs.e_nu, obs.y0, src.mu, src.nu))


def secrecy_capacity(
    obs: DecoyObservables,
    est: DecoyEstimate,
    src: SourceConfig,
    det: DetectorConfig,
) -> RateReport:
    """Secrecy capacity per emitted signal pulse (cs fields only).

    Negative raw values are reported as-is and clamped to zero in
    cs_per_pulse; the insecure regime simply yields no key. The sift
    factor is SIFT_FACTOR whatever src holds.
    """
    cs_raw = _capacity(det.f_ec, obs.q_mu, obs.e_mu, est.q1, est.e1)
    return RateReport(cs_per_pulse=max(cs_raw, 0.0), cs_raw=cs_raw)


def recycling_fraction(q_mu: float) -> float:
    """Fraction of consumed key recoverable, 1 - Q_mu / 2.

    A consumed key bit is recycled unless its pulse was both detected
    (probability Q_mu) and basis-matched (independently, SIFT_FACTOR).
    """
    if not (0.0 <= q_mu <= 1.0):
        raise DomainError("q_mu must be in [0, 1]")
    return 1.0 - SIFT_FACTOR * q_mu


def rate_sweep(
    geom_template: LinkGeometry,
    atm: AtmosphereParams,
    beam: BeamParams,
    src: SourceConfig,
    det: DetectorConfig,
    d_fs_grid,
    duty_cycle: float = 1.0,
) -> list:
    """Evaluate the full chain over a grid of free-space distances, the
    rest of the geometry taken from geom_template.

    Returns the table's rows, one SweepPoint per grid point. The factors
    that do not depend on d_fs are computed once per sweep; each point runs
    optics.budget_at (transmittance's arithmetic and checks, with no
    LinkBudget) and the float kernels behind forward_gains, decoy_estimate
    and secrecy_capacity, with their checks, and builds no object but its
    row. The key generation rate scales by rep_rate, the signal fraction of
    the mix ratio, and duty_cycle. An estimator collapse at a point is
    recorded as a zero-rate row, not a sweep failure.
    """
    grid = list(d_fs_grid)
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("d_fs_grid must be sorted ascending")
    scale = src.rep_rate * src.signal_fraction * duty_cycle
    fixed = fixed_factors(geom_template, det.eta_b, det.eta_d)
    mu, nu, y0, e_opt, f_ec = src.mu, src.nu, det.y0, det.e_opt, det.f_ec
    points = []
    for d_fs in grid:
        eta = budget_at(d_fs, geom_template.a_r, atm, beam, fixed)[0]
        q_mu, e_mu, q_nu, e_nu = _gains(eta, mu, nu, y0, e_opt)
        try:
            q1, e1 = _estimate(q_mu, q_nu, e_nu, y0, mu, nu)
        except EstimatorCollapse:
            points.append(SweepPoint(d_fs, scale * 0.0, 0.0, q_mu, e_mu, 0.0, 0.0, 1))
            continue
        cs_raw = _capacity(f_ec, q_mu, e_mu, q1, e1)
        points.append(SweepPoint(d_fs, scale * max(cs_raw, 0.0), cs_raw, q_mu, e_mu, q1, e1, 0))
    return points
