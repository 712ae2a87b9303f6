"""Executable endpoints for simultaneous message delivery and key exchange.

Per frame, the sender (Alice) encodes a 125-byte payload into chips
(framing pipeline), rides them on signal-class pulses interleaved with
decoy and vacuum pulses, and the receiver (Bob) measures in random bases.
The classical exchange per frame:

    A -> B  FRAME_META, QUANTUM and CHIPS (simulated photon stream: the
            pulses' classes, then the frame's packed chips)
    B -> A  BASIS_ANNOUNCE (the clicked pulses of the range, then their
                            bases)
    A -> B  SAMPLE_REQUEST (indices, into the announced clicks, of kept
                            signal clicks to disclose)
    B -> A  SAMPLE_DISCLOSE
    A -> B  ABORT            if the QBER check below fails
            SIFT_MAP         otherwise: one kept-for-decode flag per
                             announced click (kept signal clicks minus
                             disclosed ones)
    B -> A  REPORT (decode status + payload digest)

The two sides take turns, so they step in one thread. Each side is a
generator (_exchange) that yields each (type, payload) it sends and yields
None to wait for the next message; its run() advances it one step, and
run_session_detailed passes the messages between the two through a
transport pair (wire.LoopbackTransport).

Both endpoints hold the same scenario (config.ScenarioConfig). Bob takes
the frame count and the pipeline ratios from its protocol section, and
checks that each FRAME_META carries the next frame id, that each QUANTUM
and CHIPS starts at the pulse count of the frames before it, and that
CHIPS carries one chip per signal pulse of QUANTUM.

A frame ends at its n_chips-th signal pulse. That rule is one function
over the frame's packed signal index (_frame_end on _signal_rank): the
sender cuts its drawn schedule there (_draw_schedule), and the receiver
rejects a QUANTUM that does not end there, so a stream with too few or
too many signal pulses, or with pulses after the last chip's, fails at
the receiver.

The QBER check (qber_exceeds) runs after each frame on the session's
cumulative disclosed bits, at level QBER_EPSILON / n_frames, so by the
union bound over the n_frames looks a session over a link within
qber_threshold aborts by chance with probability at most QBER_EPSILON.

Key accounting (debit per chip, recycling of never-kept positions, an
aborted frame minting no key) is protocol.ledger's.

The receiver's detection (montecarlo.detect) gives the click positions,
one error flag per click and the clicks' classes, and the receiver
announces the positions as they are, an ascending index list. Each
endpoint reads its basis stream for the frame
(rng.random_bits_at) only where a pulse clicked. From then on sifting
speaks in indices into the shared ascending click positions. A signal
click's chip index is its rank, the number of signal pulses before it,
which both endpoints take from one word-level helper (_signal_rank, built
once per frame) and read out of the packed chips (_chip_bits): the sender
at its sampled clicks, the receiver at the sampled clicks and the kept
ones, flipping the erred ones. No per-pulse chip array is built. The
sender's sent tally is the chip count, its decoy count and the rest; only
its clicks go through class_counts.

A session is fully deterministic given (seed_alice, seed_bob,
seed_channel); every random draw comes from counter-based streams derived
from those three seeds. Rates are reported on the simulated clock,
elapsed = pulses / (rep_rate * duty_cycle), and the jitter walk steps by
each frame's duration on that clock; a clock that leaves floating-point
range (a frame's duration, or elapsed) raises RegimeViolation (_clock_s).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..errors import FrameCorrupt, FrameLost, ProtocolError, RegimeViolation
from ..montecarlo import CLASS_DECOY, CLASS_SIGNAL, class_counts, class_schedule, detect
from ..optics import jitter_step
from ..rates import SourceConfig
from ..rng import random_bits_at, random_bytes, split_seed, uniforms
from . import wire
from .framing import PAYLOAD_BITS, PAYLOAD_BYTES, chip_count, decode, preprocess
from .ledger import KeyLedger, ledger_commit

if TYPE_CHECKING:
    from ..config import ScenarioConfig

# stream ids: frame f reads stream S of a base seed at _frame_seed(base, S, f);
# the key pool and mask are split_seed(seeds.alice, S), and the receiver's
# basis stream of frame f is split_seed(seeds.bob, f)
_S_PAYLOAD = 1  # under seeds.alice
_S_SCHEDULE = 2
_S_ALICE_BASIS = 4
_S_SAMPLE = 5
_S_KEYPOOL = 100
_S_MASK = 101
_S_CLICK = 1  # under seeds.channel
_S_ERROR = 2
_S_JITTER = 3

QBER_EPSILON = 1e-3  # bound on the chance that a session over a link within the threshold aborts
ENDED = "ended"  # what an endpoint's run returns once the endpoint has ended
_ROLES = ("sender", "receiver")


@dataclass(frozen=True)
class ProtocolParams:
    """Frame pipeline and check settings for a session."""

    fec_ratio: int = 1
    spread_ratio: int = 1920
    qber_threshold: float = 0.05
    sample_fraction: float = 0.1
    duty_cycle: float = 1.0
    n_frames: int = 10
    initial_pool_bits: int = 4_000_000

    def __post_init__(self):
        if not (0.0 < self.sample_fraction <= 1.0):
            raise ValueError("sample_fraction must be in (0, 1]")
        if not (0.0 <= self.qber_threshold <= 0.5):
            raise ValueError("qber_threshold must be in [0, 0.5]")
        if not (0.0 < self.duty_cycle <= 1.0):
            raise ValueError("duty_cycle must be in (0, 1]")
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        if self.initial_pool_bits < chip_count(self.fec_ratio, self.spread_ratio):
            raise ValueError("initial_pool_bits must cover one frame's chips")


@dataclass(frozen=True)
class Seeds:
    alice: int
    bob: int
    channel: int


@dataclass
class SessionReport:
    qber: float
    comm_rate: float
    key_gen_rate: float
    key_cons_rate: float
    p_rec_empirical: float
    frames_ok: int
    frames_failed: int
    aborted: bool
    abort_reason: Optional[str]
    q_mu_hat: float
    q_nu_hat: float
    total_pulses: int
    elapsed_s: float

    def as_dict(self) -> dict:
        return asdict(self)


def _frame_seed(base: int, stream: int, frame_id: int) -> int:
    """Seed of frame frame_id's draws in the numbered stream of a base seed."""
    return split_seed(split_seed(base, stream), frame_id)


def _clock_s(pulses: int, rate: float) -> float:
    """Seconds that pulses (at least one) take at rate pulses/s on the
    simulated clock; RegimeViolation when that is beyond floating-point
    range: not finite, or 0 at an infinite rate."""
    seconds = pulses / rate if rate else math.inf
    if not 0.0 < seconds < math.inf:
        raise RegimeViolation(
            f"simulated clock out of floating-point range: {pulses} pulses at {rate:g}/s"
        )
    return seconds


def _expect(message: tuple, *expected: int) -> tuple:
    """The received (type, payload) message; ProtocolError unless of an
    expected type."""
    msg, payload = message
    if msg not in expected:
        want = " or ".join(wire.MESSAGE_NAMES[t] for t in expected)
        got = wire.MESSAGE_NAMES.get(msg, f"unknown type {msg:#04x}")
        raise ProtocolError(f"expected {want}, received {got}")
    return msg, payload


def _sample_positions(kept_idx: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """The entries of kept_idx to disclose for the QBER check, in ascending
    order; the session passes the indices of the kept announced clicks.

    max(1, floor(len(kept_idx) * fraction)) entries are chosen by the
    order of one uniform per entry, ties going to the lower index (the
    stable-sort order); none when nothing was kept.
    """
    if not len(kept_idx):
        return np.empty(0, dtype=np.int64)
    n_sample = max(1, int(len(kept_idx) * fraction))
    u = uniforms(seed, len(kept_idx))
    cut = np.partition(u, n_sample - 1)[n_sample - 1]
    take = u < cut
    take[np.flatnonzero(u == cut)[: n_sample - np.count_nonzero(take)]] = True
    return np.sort(kept_idx[take])


def _upper_tail(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p), given n * p < k <= n.

    The terms fall from j = k on, since k exceeds the mean; they are summed
    relative to the first one until they stop adding to the sum."""
    if p <= 0.0:
        return 0.0
    log_first = (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )
    total, term = 0.0, 1.0
    for j in range(k, n + 1):
        total += term
        term *= (n - j) / (j + 1) * p / (1.0 - p)
        if term <= total * 1e-17:
            break
    return math.exp(log_first) * total


def qber_exceeds(errors: int, samples: int, threshold: float, n_frames: int) -> bool:
    """Whether the QBER check of a session of n_frames frames fails on its
    cumulative `errors` among `samples` disclosed bits: whether the
    one-sided Clopper-Pearson lower bound on their error rate, at level
    QBER_EPSILON / n_frames, exceeds threshold.

    The bound exceeds threshold exactly when P(Bin(samples, threshold) >=
    errors) is below that level, which is what is computed. A point
    estimate errors / samples at or below threshold bounds the lower bound
    too, so then nothing is computed. A link whose true QBER is at most
    threshold fails one such check with probability at most the level.
    """
    if not samples or errors / samples <= threshold:
        return False
    return _upper_tail(errors, samples, threshold) < QBER_EPSILON / n_frames


def frame_pulse_bound(n_chips: int, src: SourceConfig) -> int:
    """Pulses of the chunk a frame of n_chips chips is drawn from: n_chips
    signal pulses and a margin of 8 standard deviations, over their share."""
    return int((n_chips + 8 * math.sqrt(n_chips) + 64) / src.signal_fraction)


def _draw_schedule(seed: int, n_chips: int, src: SourceConfig) -> tuple:
    """(classes, words, before): the frame's class schedule, which ends at
    its n_chips-th signal pulse (_frame_end), and the _signal_rank of the
    drawn stream it was cut from, which ranks every pulse of the frame.

    Classes are drawn i.i.d. per the mix ratio from one chunk of
    frame_pulse_bound pulses; in the rare case that it holds fewer than
    n_chips signal pulses, the next chunk of the stream is added.
    The frame does not depend on the chunking.
    """
    p_sig, p_dec = src.signal_fraction, src.decoy_fraction
    size = frame_pulse_bound(n_chips, src)
    classes = class_schedule(seed, size, p_sig, p_dec)
    words, before = _signal_rank(classes)
    while before[-1] < n_chips:
        classes = np.concatenate((classes, class_schedule(seed, size, p_sig, p_dec, len(classes))))
        words, before = _signal_rank(classes)
    return classes[: _frame_end(words, before, n_chips)], words, before


def _signal_rank(classes: np.ndarray) -> tuple:
    """(words, before): the signal flags of classes packed little-endian
    into uint64 words, the last zero-padded, and the exclusive prefix sum
    of their popcounts (before[-1] counts all). A pulse's rank, a signal
    pulse's chip index, is its word's prefix plus the flags below it in
    the word (_chip_index)."""
    packed = np.zeros(-(-len(classes) // 64) * 8, dtype=np.uint8)
    flags = packed[: (len(classes) + 7) // 8]
    # packbits packs class != 0, CLASS_SIGNAL being 0
    np.invert(np.packbits(classes, bitorder="little"), out=flags)
    if len(classes) % 8:
        flags[-1] &= (1 << len(classes) % 8) - 1
    words = packed.view("<u8")
    before = np.zeros(len(words) + 1, dtype=np.int64)
    np.cumsum(np.bitwise_count(words), out=before[1:])
    return words, before


def _frame_end(words: np.ndarray, before: np.ndarray, n: int) -> Optional[int]:
    """One past the position of the n-th (n >= 1) signal flag of a
    _signal_rank, None when it has fewer: the end of a frame of n chips.
    The flag's word is the last whose prefix is below n, and the flag is
    that word's (n - prefix)-th set bit."""
    w = int(np.searchsorted(before, n)) - 1
    if w == len(words):
        return None
    bits = np.flatnonzero(np.unpackbits(words[w : w + 1].view(np.uint8), bitorder="little"))
    return 64 * w + int(bits[n - before[w] - 1]) + 1


def _chip_index(words: np.ndarray, before: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The rank (_signal_rank) of each of an int array of positions: its
    word's prefix plus the popcount of the word's flags below it."""
    w, below = positions >> 6, (np.uint64(1) << (positions & 63).astype(np.uint64)) - 1
    return before[w] + np.bitwise_count(words[w] & below)


def _chip_bits(chips: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The chips (uint8 0/1) at an int array of chip indices, from chips
    packed little-endian (framing.preprocess, wire CHIPS)."""
    return np.right_shift(chips[index >> 3], (index & 7).astype(np.uint8)) & 1


class AliceSession:
    """Sender endpoint: frames, sampling decisions, ledger, final report."""

    def __init__(self, spec: ScenarioConfig):
        self.spec = spec
        self.ledger = KeyLedger.with_initial(spec.protocol.initial_pool_bits)
        self.key_seed = split_seed(spec.seeds.alice, _S_KEYPOOL)
        self.mask_seed = split_seed(spec.seeds.alice, _S_MASK)
        self.sent_payloads: list = []
        self.report: Optional[SessionReport] = None
        self._counts = np.zeros((2, 3), dtype=np.int64)  # sent, clicked per class
        self._steps = self._exchange()

    def run(self, message: Optional[tuple] = None):
        """One step of the sender: message is the (type, payload) it waits
        for, None otherwise. Returns the next (type, payload) it sends, None
        when it waits for a message, or ENDED once its report is made."""
        try:
            return self._steps.send(message)
        except StopIteration:
            return ENDED

    def _exchange(self):
        """The sender's side of the session, as run steps it."""
        spec = self.spec
        p = spec.protocol
        n_chips = chip_count(p.fec_ratio, p.spread_ratio)
        start_pulse = 0
        frames_ok = frames_failed = 0
        disclosed_total = 0
        disclosed_errors = 0
        abort_reason = None

        for f in range(p.n_frames):
            payload = random_bytes(_frame_seed(spec.seeds.alice, _S_PAYLOAD, f), PAYLOAD_BYTES)
            self.sent_payloads.append(payload)
            self.ledger.debit(n_chips)  # one pad bit per chip
            chips = preprocess(
                payload, f, p.fec_ratio, p.spread_ratio, self.key_seed, self.mask_seed
            )

            classes, words, before = _draw_schedule(
                _frame_seed(spec.seeds.alice, _S_SCHEDULE, f), n_chips, spec.source
            )
            n_pulses = len(classes)

            yield wire.FRAME_META, wire.encode_frame_meta(f)
            yield wire.QUANTUM, wire.encode_quantum(start_pulse, classes)
            yield wire.CHIPS, wire.encode_chips(start_pulse, chips)

            _, payload_bytes = _expect((yield), wire.BASIS_ANNOUNCE)
            announced, n_announced, hit, bob_bases = wire.decode_basis_announce(payload_bytes)
            if (announced, n_announced) != (start_pulse, n_pulses):
                raise ProtocolError(f"frame {f}: BASIS_ANNOUNCE pulse range is not the frame's")
            n_decoy = int(np.count_nonzero(classes == CLASS_DECOY))
            self._counts[0] += n_chips, n_decoy, n_pulses - n_chips - n_decoy
            hit_classes = classes[hit]
            self._counts[1] += class_counts(hit_classes)[0]

            bases = random_bits_at(_frame_seed(spec.seeds.alice, _S_ALICE_BASIS, f), hit)
            keep = (bases == bob_bases) & (hit_classes == CLASS_SIGNAL)  # one flag per click
            kept = np.flatnonzero(keep)  # indices into hit

            sample_seed = _frame_seed(spec.seeds.alice, _S_SAMPLE, f)
            sample = _sample_positions(kept, p.sample_fraction, sample_seed)
            n_sample = len(sample)
            yield wire.SAMPLE_REQUEST, wire.encode_sample_request(sample)
            _, payload_bytes = _expect((yield), wire.SAMPLE_DISCLOSE)
            disclosed_bits = wire.decode_sample_disclose(payload_bytes)
            if len(disclosed_bits) != n_sample:
                raise ProtocolError(f"frame {f}: SAMPLE_DISCLOSE count is not the one requested")

            disclosed_total += n_sample
            sent_bits = _chip_bits(chips, _chip_index(words, before, hit[sample]))
            disclosed_errors += int(np.count_nonzero(disclosed_bits != sent_bits))
            if qber_exceeds(disclosed_errors, disclosed_total, p.qber_threshold, p.n_frames):
                abort_reason = (
                    f"frame {f}: QBER lower bound exceeds threshold {p.qber_threshold:.4f} "
                    f"({disclosed_errors} errors in {disclosed_total} sampled bits, "
                    f"level {QBER_EPSILON / p.n_frames:.3g})"
                )
                yield wire.ABORT, abort_reason.encode("utf-8")
            else:
                keep[sample] = False  # decode the kept clicks but the disclosed ones
                yield wire.SIFT_MAP, wire.encode_sift_map(start_pulse, keep)
            # an aborted frame mints no key: only never-kept positions recycle
            ledger_commit(self.ledger, n_chips, len(kept), len(kept) if abort_reason else n_sample)
            start_pulse += n_pulses
            if abort_reason:
                break

            _, payload_bytes = _expect((yield), wire.REPORT)
            result = wire.decode_report(payload_bytes)
            if result.get("frame_id") != f:
                raise ProtocolError(f"frame {f}: REPORT frame_id is not the frame's")
            ok = (
                result.get("status") == "ok"
                and result.get("sha256") == hashlib.sha256(payload).hexdigest()
            )
            if ok:
                frames_ok += 1
            else:
                frames_failed += 1
            # drop the frame's per-pulse arrays before the next frame builds
            # its own: freed heap that glibc keeps would otherwise hold both
            del chips, classes, words

        elapsed = _clock_s(start_pulse, spec.source.rep_rate * p.duty_cycle)
        led = self.ledger
        sent, clicked = self._counts
        gains = np.divide(clicked, sent, out=np.zeros(3), where=sent > 0)
        self.report = SessionReport(
            qber=disclosed_errors / disclosed_total if disclosed_total else 0.0,
            comm_rate=frames_ok * PAYLOAD_BITS / elapsed,
            key_gen_rate=led.generated / elapsed,
            key_cons_rate=(led.consumed - led.recycled) / elapsed,
            p_rec_empirical=led.p_rec,
            frames_ok=frames_ok,
            frames_failed=frames_failed,
            aborted=abort_reason is not None,
            abort_reason=abort_reason,
            q_mu_hat=gains[CLASS_SIGNAL],
            q_nu_hat=gains[CLASS_DECOY],
            total_pulses=start_pulse,
            elapsed_s=elapsed,
        )


class BobSession:
    """Receiver endpoint: detection simulation, announcements, decoding.

    statuses holds the receiver's decode outcome per frame: "ok", "lost",
    or "corrupt" on a repetition-vote tie. Delivery is the sender's verdict
    by the REPORT's digest, so an "ok" frame whose decode returned a wrong
    payload still counts as failed."""

    def __init__(self, spec: ScenarioConfig):
        self.spec = spec
        self.key_seed = split_seed(spec.seeds.alice, _S_KEYPOOL)  # pre-shared
        self.mask_seed = split_seed(spec.seeds.alice, _S_MASK)
        self.recovered: dict = {}
        self.statuses: dict = {}
        self.static_db = spec.link_budget().total_db
        self._jitter_x = 0.0
        self._steps = self._exchange()

    def _frame_loss_db(self, frame_id: int, frame_duration: float) -> float:
        jit = self.spec.jitter
        if jit is not None and jit.max_db > 0.0:
            u = uniforms(_frame_seed(self.spec.seeds.channel, _S_JITTER, frame_id), 1)[0]
            self._jitter_x = jitter_step(self._jitter_x, u, jit, frame_duration)
            return self.static_db + self._jitter_x
        return self.static_db

    def run(self, message: Optional[tuple] = None):
        """One step of the receiver, as AliceSession.run is of the sender."""
        try:
            return self._steps.send(message)
        except StopIteration:
            return ENDED

    def _exchange(self):
        """The receiver's side of the session, as run steps it."""
        spec = self.spec
        p = spec.protocol
        n_chips = chip_count(p.fec_ratio, p.spread_ratio)
        start_pulse = 0
        for f in range(p.n_frames):
            _, payload = _expect((yield), wire.FRAME_META)
            if wire.decode_frame_meta(payload) != f:
                raise ProtocolError(f"frame {f}: FRAME_META frame_id is not the frame's")

            _, payload = _expect((yield), wire.QUANTUM)
            start, classes = wire.decode_quantum(payload)
            if start != start_pulse:
                raise ProtocolError(f"frame {f}: QUANTUM start is not the frame's first pulse")
            n_pulses = len(classes)
            words, before = _signal_rank(classes)
            if _frame_end(words, before, n_chips) != n_pulses:
                raise ProtocolError(f"frame {f}: QUANTUM signal pulse count or end is not the frame's")
            _, payload = _expect((yield), wire.CHIPS)
            chips_start, n_sent, chips = wire.decode_chips(payload)
            if (chips_start, n_sent) != (start, n_chips):
                raise ProtocolError(f"frame {f}: CHIPS start or count is not the frame's")

            loss_db = self._frame_loss_db(f, _clock_s(n_pulses, spec.source.rep_rate * p.duty_cycle))
            hit, err, hit_classes = detect(
                classes,
                10.0 ** (-loss_db / 10.0),
                spec.source,
                spec.detector,
                _frame_seed(spec.seeds.channel, _S_CLICK, f),
                _frame_seed(spec.seeds.channel, _S_ERROR, f),
            )
            bob_bases = random_bits_at(split_seed(spec.seeds.bob, f), hit)

            yield wire.BASIS_ANNOUNCE, wire.encode_basis_announce(start, n_pulses, hit, bob_bases)

            _, payload = _expect((yield), wire.SAMPLE_REQUEST)
            sample = wire.decode_sample_request(payload)
            if np.any(sample >= len(hit)):
                raise ProtocolError(f"frame {f}: SAMPLE_REQUEST offset beyond the announced clicks")
            if np.any(hit_classes[sample] != CLASS_SIGNAL):
                raise ProtocolError(f"frame {f}: SAMPLE_REQUEST offset at a click that carries no chip")
            # the sender's chips at the clicks, flipped where detection erred
            disclosed = _chip_bits(chips, _chip_index(words, before, hit[sample])) ^ err[sample]
            yield wire.SAMPLE_DISCLOSE, wire.encode_sample_disclose(disclosed)

            msg, payload = _expect((yield), wire.SIFT_MAP, wire.ABORT)
            if msg == wire.ABORT:
                return
            mapped, keep = wire.decode_sift_map(payload)
            if (mapped, len(keep)) != (start, len(hit)):
                raise ProtocolError(f"frame {f}: SIFT_MAP start or length is not the frame's")
            kept = np.flatnonzero(keep)  # indices into hit
            if np.any(hit_classes[kept] != CLASS_SIGNAL):
                raise ProtocolError(f"frame {f}: SIFT_MAP keeps a click that carries no chip")
            if np.any(keep[sample]):
                raise ProtocolError(f"frame {f}: SIFT_MAP keeps a disclosed click")

            index = _chip_index(words, before, hit[kept])
            try:
                recovered = decode(
                    _chip_bits(chips, index) ^ err[kept],
                    index,
                    f,
                    p.fec_ratio,
                    p.spread_ratio,
                    self.key_seed,
                    self.mask_seed,
                )
                status, digest = "ok", hashlib.sha256(recovered).hexdigest()
                self.recovered[f] = recovered
            except FrameLost:
                status, digest = "lost", ""
            except FrameCorrupt:
                status, digest = "corrupt", ""
            self.statuses[f] = status
            report = {"frame_id": f, "status": status, "sha256": digest}
            yield wire.REPORT, wire.encode_report(report)
            start_pulse += n_pulses
            del classes, chips, words  # as in AliceSession._exchange


def run_session_detailed(spec: ScenarioConfig, transports=None) -> tuple:
    """Run one full session and return (report, alice, bob) without raising
    on abort.

    The endpoints step in turn in the calling thread. transports is a
    (sender, receiver) pair, LoopbackTransport.pair() when none is given:
    each message an endpoint yields goes out through its own end, and its
    peer receives it from the other end when it next waits. An endpoint's
    error ends the session, and so does ProtocolError when an endpoint
    waits with nothing to receive while its peer waits too, or has ended:
    a message went missing, or the receiver stopped on an ABORT that the
    sender never sent.
    """
    alice = AliceSession(spec)
    bob = BobSession(spec)  # before the first step: its link budget may raise
    ends = transports or wire.LoopbackTransport.pair()
    runs = (alice.run, bob.run)
    steps = [run() for run in runs]  # each side's next step, as its run returned it
    queued = [0, 0]  # messages sent to each side and not yet received
    side = 0
    while steps != [ENDED, ENDED]:
        step, peer = steps[side], 1 - side
        if step is ENDED:
            side = peer
        elif step is not None:
            ends[side].send(*step)
            queued[peer] += 1
            steps[side] = runs[side]()
        elif queued[side]:
            queued[side] -= 1
            steps[side] = runs[side](ends[side].recv())
        elif steps[peer] is ENDED:
            raise ProtocolError(f"the {_ROLES[peer]} ended the session before the {_ROLES[side]}")
        elif steps[peer] is None and not queued[peer]:
            raise ProtocolError("both endpoints wait for a message")
        else:
            side = peer
    return alice.report, alice, bob
