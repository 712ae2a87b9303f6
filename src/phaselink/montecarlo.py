"""Photon-level Monte Carlo of pulse emission, loss, and detection.

Each pulse of intensity a clicks with the exact union probability of a
dark event and a photon event, 1 - (1 - Y0) exp(-eta a); given a click,
an error occurs with the closed-form QBER of rates.gain_and_qber. The union
click model differs from the additive closed form by O(Y0 * eta * a), far
below sampling noise at the scales simulated here. Double-click events are
not modeled. detect is the one detection kernel: simulate_batch and the
session receiver both call it.

Batches are reproducible: every draw comes from a counter-based stream of
the plan seed (rng.STREAMS), so identical inputs give identical statistics.

Every per-pulse decision that about 8 bits can make reads byte lanes:
pulse i of a stream reads its byte lane i, 8 pulses to a draw, and a lane
equal to a probability's boundary byte floor(256 p), about 1 pulse in 256
per probability, also reads draw i of the stream's tie stream
(rng.lanes_not_below and the one tie rule, rng.ties_not_below). That is
exact to the 2^-61 resolution of the pulse's uniform and costs about
1/8 + 1/256 draws per pulse and probability instead of 1. Three decisions
read lanes this way: the class schedule (draw_classes, two thresholds per
pulse), the dense click compare and the error flags (one probability per
pulse, its class's).

The per-pulse kernels consume their draws one rng block at a time
(rng.byte_lane_blocks), while it is in cache, and detect's output is per
click, never a per-pulse mask. The schedule's three exact reads,
class_schedule, classes_at and schedule_counts, each equal the class
array bit for bit. A PulsePlan answers through them, so simulate_batch
builds no class array; the session passes detect its class array, and
detect reads each pulse's class at most once, where it looks.

detect samples clicks on one of two paths, chosen by sparse_clicks from
the highest class click probability p_max: sparse when a 64-pulse word
expects at most SPARSE_WORD_MEAN (1) candidates, 64 p_max <= 1, dense
otherwise. The two took equal time near 64 p_max = 3 to 4 on a 2.1 M-pulse
frame (2 vCPU VM, one pinned CPU). Both are exact in distribution, the
dense path to the 2^-61 resolution of a lane's uniform and the sparse one
to the 2^-53 resolution of a draw's.

- Dense (desk-scale links): pulse i reads byte lane i of the click_seed
  stream, and on a tie its tie stream, and clicks when that uniform is
  below its class's click probability.
- Sparse (lossy links), skip sampling (Devroye, Non-Uniform Random Variate
  Generation, 1986, ch. X). Word w holds pulses 64 w .. 64 w + 63. Three
  child streams of click_seed (rng.STREAMS) are read:
  - counts: draw w gives word w's candidate count k ~ Binomial(64, p_max),
    found by an integer search of its top 53 bits in count_thresholds;
  - slots: a word with k >= 1 reads draws 64 w .. 64 w + k - 1 to pick k
    distinct slots by Floyd's algorithm; slots at or beyond len(classes)
    are dropped;
  - thinning: the candidate at pulse i reads draw i and is kept with
    probability p_c / p_max for its class c (rng.below).
  Each pulse is then a candidate in an independent Bernoulli(p_max)
  trial, and a pulse of class c clicks with probability p_c. That costs
  about 1/64 + 2 p_max draws per pulse instead of 1.

Error flags, on both paths: only a pulse i that clicked reads byte lane i
of the error_seed stream, and on a tie its tie stream, against its class's
error probability. rng.byte_lanes_at gathers the lanes from the covering
words, drawn in one run, where the clicks are dense (at least one per 8
pulses of their span, as on a desk link); where they are sparse, as on
lossy links, each click's word is drawn alone, one draw per click.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientStatistics
from .rates import DecoyObservables, DetectorConfig, SourceConfig, E0_BACKGROUND, gain_and_qber
from .rng import (
    BLOCK_LANES,
    below,
    byte_lane_blocks,
    byte_lanes_at,
    child,
    lanes_not_below,
    raw64,
    raw64_at,
    ties_not_below,
)

CLASS_SIGNAL = 0
CLASS_DECOY = 1
CLASS_VACUUM = 2

SPARSE_WORD_MEAN = 1.0  # candidates a 64-pulse word may expect on the sparse click path
_TWO_53 = float(1 << 53)
_U11 = np.uint64(11)
_U53 = np.uint64(53)

__all__ = [
    "CLASS_SIGNAL",
    "CLASS_DECOY",
    "CLASS_VACUUM",
    "PulsePlan",
    "ClassCounts",
    "BatchStats",
    "draw_classes",
    "class_schedule",
    "classes_at",
    "schedule_counts",
    "class_counts",
    "detect",
    "sparse_clicks",
    "count_thresholds",
    "simulate_batch",
    "stats_to_observables",
]


@dataclass(frozen=True)
class PulsePlan:
    """Pulse count, seed and class probabilities of a batch, and its class
    schedule class_schedule(child(seed, "plan_schedule"), n_pulses, p_sig,
    p_dec), read from the seed only where asked: len, contiguous slices and
    int arrays of positions read as the class array does (a position outside
    [0, n_pulses) raises IndexError), and counts() tallies it
    (schedule_counts)."""

    n_pulses: int
    seed: int
    p_sig: float
    p_dec: float

    def __post_init__(self):
        if self.n_pulses <= 0:
            raise ValueError("n_pulses must be positive")

    @classmethod
    def make(cls, n_pulses: int, mix_ratio, seed: int) -> "PulsePlan":
        """A plan whose classes are i.i.d. with probabilities mix_ratio."""
        total = float(sum(mix_ratio))
        return cls(n_pulses, seed, mix_ratio[0] / total, mix_ratio[1] / total)

    def __len__(self) -> int:
        return self.n_pulses

    def __getitem__(self, key) -> np.ndarray:
        seed = child(self.seed, "plan_schedule")
        if isinstance(key, slice):
            lo, hi, step = key.indices(self.n_pulses)
            if step != 1:
                raise ValueError("only contiguous slices")
            return class_schedule(seed, max(hi - lo, 0), self.p_sig, self.p_dec, lo)
        positions = np.asarray(key)
        if positions.ndim == 0 or positions.dtype == bool:
            raise TypeError("a PulsePlan reads slices and int arrays of positions")
        if positions.size and (positions.min() < 0 or positions.max() >= self.n_pulses):
            raise IndexError(f"positions must lie in [0, {self.n_pulses})")
        return classes_at(seed, positions, self.p_sig, self.p_dec)

    def counts(self) -> np.ndarray:
        seed = child(self.seed, "plan_schedule")
        return schedule_counts(seed, self.n_pulses, self.p_sig, self.p_dec)


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


def draw_classes(lanes: np.ndarray, p_sig: float, p_dec: float, seed: int, at) -> np.ndarray:
    """Intensity class per byte lane of the seed's stream (uint8): signal
    where the pulse's 61-bit uniform is below p_sig, decoy below p_sig +
    p_dec, vacuum otherwise (rng.lanes_not_below). at gives the lanes'
    positions, an int for the pulses at, at + 1, ... or an array with one
    position per lane."""
    # the class is the number of the two thresholds the uniform is not below
    return lanes_not_below(lanes, (p_sig, p_sig + p_dec), seed, at)


def class_schedule(seed: int, n: int, p_sig: float, p_dec: float, offset: int = 0) -> np.ndarray:
    """Classes of the n pulses offset .. offset + n - 1 of the seed's
    schedule, one rng block at a time: pulse i reads byte lane i of the
    seed's stream (draw_classes). The result does not depend on how a
    caller splits the pulses into calls."""
    classes = np.empty(n, dtype=np.uint8)
    for lo, lanes in byte_lane_blocks(seed, n, offset):
        classes[lo : lo + len(lanes)] = draw_classes(lanes, p_sig, p_dec, seed, offset + lo)
    return classes


def classes_at(seed: int, positions, p_sig: float, p_dec: float) -> np.ndarray:
    """Classes (uint8) of the seed's schedule at the given non-negative
    positions, in their order, repeats included: class_schedule(seed, n,
    p_sig, p_dec)[positions] for any n beyond them, without drawing the
    pulses between them."""
    positions = np.asarray(positions, dtype=np.int64)
    lanes = byte_lanes_at(seed, positions)
    return draw_classes(lanes, p_sig, p_dec, seed, positions)


def schedule_counts(seed: int, n: int, p_sig: float, p_dec: float) -> np.ndarray:
    """Pulses per intensity class (int64, indexed by class) among the first
    n pulses of the seed's schedule: the tallies of class_schedule(seed, n,
    p_sig, p_dec), with no array of classes. Each rng block counts its lanes
    below the signal boundary byte floor(256 p_sig) as signal and those
    above the vacuum boundary byte floor(256 (p_sig + p_dec)) as vacuum, and
    flags the lanes equal to either byte, about 1 in 128, with one compare
    per byte into two flag buffers that every block reuses. Only those tied
    lanes go through the tie rule (rng.ties_not_below); the rest are decoy."""
    probs = (p_sig, p_sig + p_dec)
    b_sig, b_vac = (math.floor(256.0 * p) for p in probs)
    counts = np.zeros(3, dtype=np.int64)
    flags = np.empty((2, min(n, BLOCK_LANES)), dtype=bool)
    for lo, lanes in byte_lane_blocks(seed, n):
        f, g = flags[:, : len(lanes)]
        counts[CLASS_SIGNAL] += np.count_nonzero(np.less(lanes, b_sig, out=f))
        counts[CLASS_VACUUM] += np.count_nonzero(np.greater(lanes, b_vac, out=f))
        np.logical_or(np.equal(lanes, b_sig, out=f), np.equal(lanes, b_vac, out=g), out=f)
        ties = np.flatnonzero(f)
        tied = lanes[ties]
        # a tied lane is above b_sig only when it ties b_vac
        tied_classes = ties_not_below(tied, probs, seed, ties + lo)
        tied_classes += tied > b_sig
        counts += np.bincount(tied_classes, minlength=3)
    counts[CLASS_DECOY] = n - counts[CLASS_SIGNAL] - counts[CLASS_VACUUM]
    return counts


def class_counts(classes: np.ndarray, *positions: np.ndarray) -> np.ndarray:
    """Pulses per intensity class: row 0 counts all pulses, row i + 1 those
    that positions[i] indexes (an index array or a boolean mask). Columns
    are indexed by class, counts are int64."""
    counts = np.empty((1 + len(positions), 3), dtype=np.int64)
    # two compares and a subtraction per row: 3-4x faster than np.bincount
    # on the gathered classes of a desk frame, where half the pulses click
    for i, row in enumerate([classes] + [classes[pos] for pos in positions]):
        n_signal = np.count_nonzero(row == CLASS_SIGNAL)
        n_decoy = np.count_nonzero(row == CLASS_DECOY)
        counts[i] = n_signal, n_decoy, len(row) - n_signal - n_decoy
    return counts


def sparse_clicks(p_max: float) -> bool:
    """Whether detect samples clicks by skipping, given the highest class
    click probability: when a 64-pulse word expects at most
    SPARSE_WORD_MEAN candidates (64 * p_max <= SPARSE_WORD_MEAN)."""
    return 64.0 * p_max <= SPARSE_WORD_MEAN


def count_thresholds(p: float) -> np.ndarray:
    """The 64 thresholds of a word's candidate count k ~ Binomial(64, p):
    entry k is ceil(P(K <= k) * 2^53), at most 2^53, so a word draw's top
    53 bits are below entry k exactly when its uniform is below P(K <= k),
    and k is the number of entries at or below them. The CDF is built with
    IEEE products, quotients and sums only (no pow, exp or log), so every
    host gets the same integers. Needs 0 <= p < 1."""
    q = 1.0 - p
    pmf = q
    for _ in range(6):
        pmf *= pmf  # q^64 by six squarings
    cdf = 0.0
    table = []
    for k in range(64):
        cdf += pmf
        table.append(min(math.ceil(cdf * _TWO_53), 1 << 53))
        pmf = pmf * (64 - k) / (k + 1) * p / q
    return np.array(table, dtype=np.uint64)


def _below_per_class(z: np.ndarray, classes: np.ndarray, probs) -> np.ndarray:
    """Flags of the raw draws z below the probability of their pulse's class."""
    flags = np.zeros(len(z), dtype=bool)
    for c, p in enumerate(probs):  # one compare per class, not a per-pulse gather
        flags |= below(z, p) & (classes == c)
    return flags


def _lane_flags(lanes, classes, probs, seed: int, at) -> np.ndarray:
    """Flags of the byte lanes of the seed's stream whose uniform is below
    the probability of their pulse's class (rng.lanes_not_below)."""
    # one compare per class, not a per-pulse gather; the classes' masks are
    # disjoint and cover classes 0-2, so every count is 0 or 1
    where = [classes == c for c in range(len(probs))]
    return ~lanes_not_below(lanes, probs, seed, at, where).view(bool)


def _dense_hits(classes, p_click, click_seed: int) -> tuple:
    hits, classes_hit = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.uint8)]
    for lo, lanes in byte_lane_blocks(click_seed, len(classes)):
        block = classes[lo : lo + len(lanes)]
        clicked = np.flatnonzero(_lane_flags(lanes, block, p_click, click_seed, lo))
        hits.append(clicked + lo)
        classes_hit.append(block[clicked])
    return np.concatenate(hits), np.concatenate(classes_hit)


def _distinct_slots(seed: int, words: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Ascending pulse positions of k[j] distinct slots of each 64-pulse
    word words[j], by Floyd's algorithm: step i of a word with k slots
    reads draw 64 * word + i of the seed's stream as t uniform on
    0 .. 64 - k + i, and takes slot t, or slot 64 - k + i if t is taken."""
    by_k = np.argsort(-k, kind="stable")  # the words still drawing at step i lead
    words, k = words[by_k], k[by_k]
    slots = np.full((len(k), int(k.max(initial=0))), 64, dtype=np.int64)  # 64: no slot
    for i in range(slots.shape[1]):
        m = np.count_nonzero(k > i)
        top = 64 - k[:m] + i
        u53 = raw64_at(seed, 64 * words[:m] + i) >> _U11
        t = (u53 * (top + 1).astype(np.uint64) >> _U53).astype(np.int64)  # floor(u * (top + 1))
        taken = np.any(slots[:m, :i] == t[:, None], axis=1)
        slots[:m, i] = np.where(taken, top, t)
    return np.sort((64 * words[:, None] + slots)[slots < 64])


def _sparse_hits(classes, p_click, click_seed: int) -> tuple:
    n = len(classes)
    p_max = max(p_click)
    if p_max == 0.0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8)
    table = count_thresholds(p_max)
    u53 = raw64(child(click_seed, "counts"), -(-n // 64))
    u53 >>= _U11
    words = np.flatnonzero(u53 >= table[0])  # k >= 1; the search runs on these only
    k = np.searchsorted(table, u53[words], side="right")
    pos = _distinct_slots(child(click_seed, "slots"), words, k)
    pos = pos[pos < n]
    classes_pos = classes[pos]
    ratios = [p / p_max for p in p_click]
    keep = _below_per_class(raw64_at(child(click_seed, "thinning"), pos), classes_pos, ratios)
    return pos[keep], classes_pos[keep]


def detect(
    classes,
    eta: float,
    src: SourceConfig,
    det: DetectorConfig,
    click_seed: int,
    error_seed: int,
) -> tuple:
    """(hit, err, cls): the ascending int64 positions of the pulses that
    clicked, one error flag per click, and the class of each click
    (classes[hit]). classes is a class array or a PulsePlan, read only by
    len and by one gather of the pulses the click path looks at: a
    contiguous slice per rng block (dense), or the candidates' positions as
    an int array (sparse). The clicks' classes come from that gather, so
    none is read twice. Clicks read the click_seed stream and error flags,
    on clicks only, the error_seed stream; the module docstring gives the
    dense and sparse click paths and the draws each reads.
    """
    intensities = (src.mu, src.nu, 0.0)
    p_click = [1.0 - (1.0 - det.y0) * math.exp(-eta * a) for a in intensities]
    p_err = [gain_and_qber(eta, a, det)[1] for a in intensities]
    hits = _sparse_hits if sparse_clicks(max(p_click)) else _dense_hits
    hit, cls = hits(classes, p_click, click_seed)
    return hit, _lane_flags(byte_lanes_at(error_seed, hit), cls, p_err, error_seed, hit), cls


def simulate_batch(
    plan: PulsePlan,
    eta: float,
    src: SourceConfig,
    det: DetectorConfig,
) -> BatchStats:
    """Sample clicks and error flips for every pulse of the plan. The plan's
    classes are counted for the sent tallies (plan.counts()) and read where
    detect asks, which hands back the clicks' classes for the clicked and
    errored tallies, so no per-pulse array is built on a lossy link."""
    if not (0.0 <= eta <= 1.0):
        raise ValueError("eta must be in [0, 1]")
    clicks, errors = child(plan.seed, "plan_clicks"), child(plan.seed, "plan_errors")
    _, err, cls = detect(plan, eta, src, det, clicks, errors)
    # (sent, clicked, errored) per class
    per_class = np.vstack([plan.counts(), class_counts(cls, err)]).T
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
