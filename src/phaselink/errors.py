"""Exception types shared across the package."""


class PhaselinkError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PhaselinkError, ValueError):
    """Argument outside the mathematical domain of a function."""


class NonTurbulentChannel(PhaselinkError):
    """Turbulence-derived quantity requested for a channel with cn2 = 0."""


class RegimeViolation(PhaselinkError):
    """Link outside the model's range: a free-space distance at or beyond
    its validity limit, a link budget out of floating-point range, a
    closed-form gain that is not below 1, or a session's simulated clock
    out of floating-point range."""


class BadJitterSpec(PhaselinkError, ValueError):
    """Jitter specification with a negative excursion bound."""


class EstimatorCollapse(PhaselinkError):
    """Decoy estimator produced a non-positive or non-finite single-photon
    gain bound, or a non-finite error bound."""


class DegenerateIntensities(PhaselinkError, ValueError):
    """Signal and decoy intensities do not satisfy mu > nu > 0."""


class InsufficientStatistics(PhaselinkError):
    """Empirical batch lacks the clicks needed to form observables."""


class KeyPoolExhausted(PhaselinkError):
    """Key pool balance cannot cover a requested debit."""


class FrameLost(PhaselinkError):
    """At least one coded-bit group has zero surviving chips."""


class FrameCorrupt(PhaselinkError):
    """Error-correction decoding failed for a received frame."""


class NegativeBalance(PhaselinkError):
    """Key ledger conservation violated; indicates an internal bug."""


class TransportClosed(PhaselinkError):
    """Read or write attempted on a closed transport."""


class ProtocolError(PhaselinkError):
    """Malformed or unexpected message on the classical channel."""


class ConfigError(PhaselinkError, ValueError):
    """Scenario configuration is malformed or incomplete."""
