"""Photon-level Monte Carlo of pulse emission, loss, and detection.

Each pulse of intensity a clicks with the exact union probability of a
dark event and a photon event, 1 - (1 - Y0) exp(-eta a); given a click,
an error occurs with the closed-form QBER of rates.gain_and_qber. The union
click model differs from the additive closed form by O(Y0 * eta * a), far
below sampling noise at the scales simulated here. Double-click events are
not modeled. detect is the one detection kernel: simulate_batch and the
session receiver both call it.

Batches are reproducible: all draws come from counter-based streams keyed
by the plan seed (see rng), so identical inputs give identical statistics
and parallel batches can use split_seed for independent streams.

The per-pulse kernels stream: the class schedule and the click compare
mix their draws one rng block at a time (rng.raw64_blocks) and consume
each block while it is in cache, so no full-length uint64 array is built.
Pulse i still reads draw i of each stream. detect returns the click
positions and one error flag per click, never a per-pulse mask, so its
output scales with the clicks, not the pulses; class tallies after
detection gather the classes at those positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientStatistics
from .rates import DecoyObservables, DetectorConfig, SourceConfig, E0_BACKGROUND, gain_and_qber
from .rng import below, raw64_blocks, split_seed, uniforms_at

CLASS_SIGNAL = 0
CLASS_DECOY = 1
CLASS_VACUUM = 2

__all__ = [
    "CLASS_SIGNAL",
    "CLASS_DECOY",
    "CLASS_VACUUM",
    "PulsePlan",
    "ClassCounts",
    "BatchStats",
    "draw_classes",
    "class_schedule",
    "class_counts",
    "detect",
    "simulate_batch",
    "stats_to_observables",
    "split_seed",
]


@dataclass(frozen=True)
class PulsePlan:
    """Pulse count, seed, and the per-pulse intensity class schedule."""

    n_pulses: int
    seed: int
    intensity_schedule: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n_pulses <= 0:
            raise ValueError("n_pulses must be positive")
        if len(self.intensity_schedule) != self.n_pulses:
            raise ValueError("schedule length must equal n_pulses")

    @classmethod
    def make(cls, n_pulses: int, mix_ratio, seed: int) -> "PulsePlan":
        """Draw the class schedule i.i.d. with probabilities mix_ratio."""
        total = float(sum(mix_ratio))
        p_sig = mix_ratio[0] / total
        p_dec = mix_ratio[1] / total
        schedule = class_schedule(split_seed(seed, 0), n_pulses, p_sig, p_dec)
        return cls(n_pulses=n_pulses, seed=seed, intensity_schedule=schedule)


@dataclass(frozen=True)
class ClassCounts:
    """Counts for one intensity class. Counts are floats so that exact
    analytic embeddings (clicked = gain * sent) round-trip bit-exactly."""

    sent: float
    clicked: float
    errored: float

    def __post_init__(self):
        if not (0 <= self.errored <= self.clicked <= self.sent):
            raise ValueError("require errored <= clicked <= sent")

    @property
    def gain(self) -> float:
        return self.clicked / self.sent if self.sent else 0.0

    @property
    def qber(self) -> float:
        return self.errored / self.clicked if self.clicked else E0_BACKGROUND

    @property
    def se_gain(self) -> float:
        """Binomial standard error of the empirical gain."""
        if not self.sent:
            return 0.0
        g = self.gain
        return math.sqrt(g * (1.0 - g) / self.sent)

    @property
    def se_qber(self) -> float:
        """Binomial standard error of the empirical QBER (per click)."""
        if not self.clicked:
            return 0.0
        e = self.qber
        return math.sqrt(e * (1.0 - e) / self.clicked)


@dataclass(frozen=True)
class BatchStats:
    """Per-class tallies of one simulated batch."""

    signal: ClassCounts
    decoy: ClassCounts
    vacuum: ClassCounts


def draw_classes(z: np.ndarray, p_sig: float, p_dec: float) -> np.ndarray:
    """Intensity class per raw draw z (rng.raw64): signal where its uniform
    is below p_sig, decoy below p_sig + p_dec, vacuum otherwise."""
    # the class is the number of the two thresholds the uniform is not below
    classes = (~below(z, p_sig)).view(np.uint8)
    classes += ~below(z, p_sig + p_dec)
    return classes


def class_schedule(seed: int, n: int, p_sig: float, p_dec: float, offset: int = 0) -> np.ndarray:
    """Classes of the n pulses that read draws offset .. offset + n - 1 of
    the seed's stream: draw_classes applied one rng block at a time."""
    classes = np.empty(n, dtype=np.uint8)
    for start, z in raw64_blocks(seed, n, offset):
        classes[start : start + len(z)] = draw_classes(z, p_sig, p_dec)
    return classes


def class_counts(classes: np.ndarray, *positions: np.ndarray) -> np.ndarray:
    """Pulses per intensity class: row 0 counts all pulses, row i + 1 those
    at the indices positions[i]. Columns are indexed by class, counts are
    int64."""
    counts = np.empty((1 + len(positions), 3), dtype=np.int64)
    # two compares and a subtraction per row: 3-4x faster than np.bincount
    # on the gathered classes of a desk frame, where half the pulses click
    for i, row in enumerate([classes] + [classes[pos] for pos in positions]):
        n_signal = np.count_nonzero(row == CLASS_SIGNAL)
        n_decoy = np.count_nonzero(row == CLASS_DECOY)
        counts[i] = n_signal, n_decoy, len(row) - n_signal - n_decoy
    return counts


def detect(
    classes: np.ndarray,
    eta: float,
    src: SourceConfig,
    det: DetectorConfig,
    click_seed: int,
    error_seed: int,
) -> tuple:
    """(hit, err): the ascending int64 positions of the pulses that clicked,
    and one error flag per click.

    Every pulse i reads its class and draw i of the click_seed stream,
    which it compares as a raw integer with its class's click threshold
    (see rng.below), one rng block at a time; each block gives up only its
    click positions. Only a pulse that clicked reads draw i of the
    error_seed stream, so errors only occur on clicks.
    """
    intensities = (src.mu, src.nu, 0.0)
    p_click = [1.0 - (1.0 - det.y0) * math.exp(-eta * a) for a in intensities]
    p_err = np.array([gain_and_qber(eta, a, det)[1] for a in intensities])
    hits = [np.empty(0, dtype=np.int64)]
    for start, z in raw64_blocks(click_seed, len(classes)):
        block = classes[start : start + len(z)]
        clicked = np.zeros(len(z), dtype=bool)
        for c, p in enumerate(p_click):  # one compare per class, not a per-pulse gather
            clicked |= below(z, p) & (block == c)
        hits.append(np.flatnonzero(clicked) + start)
    hit = np.concatenate(hits)
    return hit, uniforms_at(error_seed, hit) < p_err[classes[hit]]


def simulate_batch(
    plan: PulsePlan,
    eta: float,
    src: SourceConfig,
    det: DetectorConfig,
) -> BatchStats:
    """Sample clicks and error flips for every pulse of the plan."""
    if not (0.0 <= eta <= 1.0):
        raise ValueError("eta must be in [0, 1]")
    sched = plan.intensity_schedule
    hit, err = detect(sched, eta, src, det, split_seed(plan.seed, 1), split_seed(plan.seed, 2))
    per_class = class_counts(sched, hit, hit[err]).T  # (sent, clicked, errored) per class
    return BatchStats(*(ClassCounts(*map(float, counts)) for counts in per_class))


def stats_to_observables(stats: BatchStats) -> DecoyObservables:
    """Map empirical frequencies into decoy observables.

    The vacuum yield comes from the vacuum class; zero vacuum clicks are
    acceptable (y0 = 0). Signal or decoy classes without clicks leave the
    QBER undefined and raise InsufficientStatistics.
    """
    for name in ("signal", "decoy", "vacuum"):
        if getattr(stats, name).sent < 1:
            raise InsufficientStatistics(f"no {name} pulses sent")
    if stats.signal.clicked == 0 or stats.decoy.clicked == 0:
        raise InsufficientStatistics("signal and decoy classes need clicks")
    return DecoyObservables(
        q_mu=stats.signal.gain,
        e_mu=stats.signal.qber,
        q_nu=stats.decoy.gain,
        e_nu=stats.decoy.qber,
        y0=stats.vacuum.gain,
    )
