"""Decoy-state forward model, single-photon bounds, and secrecy capacity.

The forward model maps a total transmittance eta onto the gains and QBERs
of the signal and decoy intensities:

    Q_a = Y0 + 1 - exp(-eta a)
    E_a Q_a = e0 Y0 + (e_det + e_mis) (1 - exp(-eta a)),   e0 = 1/2

with Y0 = 2 p_d the zero-photon yield and e_det = (1 - V)/2 the intrinsic
interferometric error. The estimator inverts two intensities plus the
vacuum yield into a lower bound Q1 on the single-photon gain and an upper
bound e1 on its error rate; the secrecy capacity per signal pulse is

    cs = q Q_mu { -f H2(E_mu) + (Q1/Q_mu)(1 - H2(e1)) }

clamped at zero for rate purposes (callers also see the raw value).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateIntensities, DomainError, EstimatorCollapse, RegimeViolation
from .optics import AtmosphereParams, BeamParams, LinkGeometry, budget_at, fixed_factors
from .optics import transmittance  # noqa: F401  (benchmarks/tracing.py times rates.transmittance)

E0_BACKGROUND = 0.5  # error rate of background (dark) clicks

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
    q: sifting factor (probability a detection survives basis sifting)
    """

    mu: float
    nu: float
    mix_ratio: tuple = (30, 2, 1)
    rep_rate: float = 1.25e9
    q: float = 0.5

    def __post_init__(self):
        if not (self.mu > self.nu > 0):
            raise DegenerateIntensities("require mu > nu > 0")
        if len(self.mix_ratio) != 3 or any(int(r) <= 0 for r in self.mix_ratio):
            raise ValueError("mix_ratio must be three positive integers")
        if self.rep_rate <= 0:
            raise ValueError("rep_rate must be positive")
        if not (0.0 < self.q <= 1.0):
            raise ValueError("q must be in (0, 1]")

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
        if self.e_det + self.e_mis > 0.5:  # the same sum that sets each class's QBER
            raise ValueError("e_det + e_mis, with e_det = (1 - visibility) / 2, must be <= 0.5")
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


@dataclass(frozen=True)
class DecoyObservables:
    """Measured or modeled gains/QBERs of the three intensity classes."""

    q_mu: float
    e_mu: float
    q_nu: float
    e_nu: float
    y0: float

    def __post_init__(self):
        if not (0.0 < self.q_nu < 1.0 and 0.0 < self.q_mu < 1.0):
            raise ValueError("gains must be in (0, 1)")
        if not (0.0 <= self.e_mu <= 0.5 and 0.0 <= self.e_nu <= 0.5):
            raise ValueError("QBERs must be in [0, 0.5]")
        if not (0.0 <= self.y0 <= self.q_nu <= self.q_mu):
            raise ValueError("require y0 <= q_nu <= q_mu")


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


@dataclass(frozen=True)
class SweepPoint:
    """One distance point of a rate sweep; estimate is None where the
    estimator collapsed, and the point is then reported at zero rate."""

    d_fs: float
    report: RateReport
    observables: DecoyObservables
    estimate: "DecoyEstimate | None"


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2 (1-x), with H2(0) = H2(1) = 0."""
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"binary entropy undefined for {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def gain_and_qber(eta: float, intensity: float, det: DetectorConfig) -> tuple:
    """Gain and QBER of one intensity class at total transmittance eta.

    intensity = 0 yields the vacuum pair (Y0, 1/2).
    """
    y0 = det.y0
    photon = -math.expm1(-eta * intensity)
    gain = y0 + photon
    if gain == 0.0:
        return 0.0, E0_BACKGROUND
    qber = (E0_BACKGROUND * y0 + (det.e_det + det.e_mis) * photon) / gain
    return gain, qber


def forward_gains(eta: float, src: SourceConfig, det: DetectorConfig) -> DecoyObservables:
    """Closed-form observables for the signal and decoy intensities. Raises
    RegimeViolation when a gain is not below 1: the additive closed form
    Y0 + 1 - exp(-eta a) is no probability there (a high dark count
    probability, or a bright pulse on a short link)."""
    if not (0.0 < eta <= 1.0):
        raise ValueError("eta must be in (0, 1]")
    q_mu, e_mu = gain_and_qber(eta, src.mu, det)
    q_nu, e_nu = gain_and_qber(eta, src.nu, det)
    if max(q_mu, q_nu) >= 1.0:
        raise RegimeViolation(f"closed-form gain {max(q_mu, q_nu)!r} is not below 1")
    return DecoyObservables(q_mu=q_mu, e_mu=e_mu, q_nu=q_nu, e_nu=e_nu, y0=det.y0)


def decoy_estimate(obs: DecoyObservables, src: SourceConfig) -> DecoyEstimate:
    """Bound the single-photon contribution from two intensities plus Y0.

    Q1 = mu^2 e^-mu / (mu nu - nu^2)
         * (Q_nu e^nu - Q_mu e^mu nu^2/mu^2 - (mu^2 - nu^2)/mu^2 * Y0)
    e1 = mu e^-mu (E_nu Q_nu e^nu - e0 Y0) / (nu Q1)

    Raises EstimatorCollapse when the bound degenerates: Q1 <= 0, or Q1 or
    e1 not finite (mu nu - nu^2 subnormal, for one).
    e1 is clamped into [0, 1/2]; values outside only occur when the
    single-photon channel carries no usable information anyway.
    """
    mu, nu = src.mu, src.nu  # mu > nu > 0, as SourceConfig checks
    q1 = (
        mu**2
        * math.exp(-mu)
        / (mu * nu - nu**2)
        * (
            obs.q_nu * math.exp(nu)
            - obs.q_mu * math.exp(mu) * nu**2 / mu**2
            - (mu**2 - nu**2) / mu**2 * obs.y0
        )
    )
    if not 0.0 < q1 < math.inf:
        raise EstimatorCollapse(f"single-photon gain bound is {q1:g}")
    e1 = (
        mu
        * math.exp(-mu)
        * (obs.e_nu * obs.q_nu * math.exp(nu) - E0_BACKGROUND * obs.y0)
        / (nu * q1)
    )
    if not math.isfinite(e1):
        raise EstimatorCollapse(f"single-photon error bound is {e1:g}")
    e1 = min(max(e1, 0.0), 0.5)
    return DecoyEstimate(q1=q1, e1=e1)


def secrecy_capacity(
    obs: DecoyObservables,
    est: DecoyEstimate,
    src: SourceConfig,
    det: DetectorConfig,
) -> RateReport:
    """Secrecy capacity per emitted signal pulse (cs fields only).

    Negative raw values are reported as-is and clamped to zero in
    cs_per_pulse; the insecure regime simply yields no key.
    """
    cs_raw = src.q * obs.q_mu * (
        -det.f_ec * binary_entropy(obs.e_mu)
        + (est.q1 / obs.q_mu) * (1.0 - binary_entropy(est.e1))
    )
    return RateReport(cs_per_pulse=max(cs_raw, 0.0), cs_raw=cs_raw)


def recycling_fraction(q_mu: float) -> float:
    """Fraction of consumed key recoverable, 1 - Q_mu / 2.

    A consumed key bit is recycled unless its pulse was both detected
    (probability Q_mu) and basis-matched (independent 1/2).
    """
    if not (0.0 <= q_mu <= 1.0):
        raise DomainError("q_mu must be in [0, 1]")
    return 1.0 - q_mu / 2.0


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

    The factors that do not depend on d_fs are computed once per sweep; each
    point runs optics.budget_at (transmittance's arithmetic and checks, with
    no LinkBudget) -> forward_gains -> decoy_estimate -> secrecy_capacity;
    the key generation rate scales by rep_rate, the signal fraction of the
    mix ratio, and duty_cycle. An estimator collapse at a point is recorded
    as a zero-rate SweepPoint, not a sweep failure.
    """
    grid = list(d_fs_grid)
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("d_fs_grid must be sorted ascending")
    scale = src.rep_rate * src.signal_fraction * duty_cycle
    fixed = fixed_factors(geom_template, det.eta_b, det.eta_d)
    points = []
    for d_fs in grid:
        obs = forward_gains(budget_at(d_fs, geom_template.a_r, atm, beam, fixed)[0], src, det)
        try:
            est = decoy_estimate(obs, src)
            cs = secrecy_capacity(obs, est, src, det)
        except EstimatorCollapse:
            est, cs = None, RateReport(cs_per_pulse=0.0, cs_raw=0.0)
        report = RateReport(cs.cs_per_pulse, cs.cs_raw, scale * cs.cs_per_pulse)
        points.append(SweepPoint(d_fs, report, obs, est))
    return points
