"""Executable endpoints for simultaneous message delivery and key exchange.

Per frame, the sender (Alice) encodes a 125-byte payload into chips
(framing pipeline), rides them on signal-class pulses interleaved with
decoy and vacuum pulses, and the receiver (Bob) measures in random bases.
The classical exchange per frame:

    A -> B  FRAME_META, QUANTUM (simulated photon stream)
    B -> A  BASIS_ANNOUNCE (bases + click flags for the pulse range)
    A -> B  SAMPLE_REQUEST (kept signal events to disclose)
    B -> A  SAMPLE_DISCLOSE
    A -> B  ABORT            if the sampled QBER exceeds the threshold
            SIFT_MAP         otherwise: kept-for-decode chip positions
                             (kept minus disclosed)
    B -> A  REPORT (decode status + payload digest)

Both endpoints hold the same scenario (config.ScenarioConfig). Bob takes
the frame count and the pipeline ratios from its protocol section, and
checks that each FRAME_META carries the next frame id and each QUANTUM
starts at the pulse count of the frames before it.

Key accounting: each chip debits one pad bit when its frame is encoded;
pad bits on positions Bob never kept are recycled; kept positions mint
fresh key, except disclosed check bits which are consumed and not
regenerated.

A session is fully deterministic given (seed_alice, seed_bob,
seed_channel); every random draw comes from counter-based streams derived
from those three seeds. Rates are reported on the simulated clock,
elapsed = pulses / (rep_rate * duty_cycle).
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..errors import FrameCorrupt, FrameLost, ProtocolError, TransportClosed
from ..montecarlo import CLASS_DECOY, CLASS_SIGNAL, class_counts, detect, draw_classes
from ..optics import jitter_step, transmittance
from ..rates import SourceConfig
from ..rng import random_bits, random_bits_at, random_bytes, split_seed, uniforms
from . import wire
from .framing import PAYLOAD_BITS, Frame, decode, preprocess
from .ledger import FrameAccounting, KeyLedger, ledger_commit

if TYPE_CHECKING:
    from ..config import ScenarioConfig

# stream ids for seed derivation
_S_PAYLOAD = 1
_S_SCHEDULE = 2
_S_ALICE_BASIS = 4
_S_SAMPLE = 5
_S_KEYPOOL = 100
_S_MASK = 101
_S_CLICK = 1
_S_ERROR = 2
_S_JITTER = 3


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
        if self.fec_ratio < 1 or self.spread_ratio < 1:
            raise ValueError("ratios must be >= 1")
        if not (0.0 < self.sample_fraction <= 1.0):
            raise ValueError("sample_fraction must be in (0, 1]")
        if not (0.0 <= self.qber_threshold <= 0.5):
            raise ValueError("qber_threshold must be in [0, 0.5]")
        if not (0.0 < self.duty_cycle <= 1.0):
            raise ValueError("duty_cycle must be in (0, 1]")
        if self.n_frames < 1 or self.initial_pool_bits < 0:
            raise ValueError("n_frames must be >= 1 and pool non-negative")


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
    abort_reason: Optional[str] = None
    q_mu_hat: float = 0.0
    q_nu_hat: float = 0.0
    total_pulses: int = 0
    elapsed_s: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


def _recv(transport, *expected: int) -> tuple:
    """Next (type, payload) message; ProtocolError unless of an expected type."""
    msg, payload = transport.recv()
    if msg not in expected:
        want = " or ".join(wire.MESSAGE_NAMES[t] for t in expected)
        got = wire.MESSAGE_NAMES.get(msg, f"unknown type {msg:#04x}")
        raise ProtocolError(f"expected {want}, received {got}")
    return msg, payload


def _sample_positions(kept_idx: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """Kept positions to disclose for the QBER check, in ascending order.

    max(1, floor(len(kept_idx) * fraction)) positions are chosen by the
    order of one uniform per kept position, ties going to the lower index
    (the stable-sort order); none when nothing was kept.
    """
    if not len(kept_idx):
        return np.empty(0, dtype=np.int64)
    n_sample = max(1, int(len(kept_idx) * fraction))
    u = uniforms(seed, len(kept_idx))
    cut = np.partition(u, n_sample - 1)[n_sample - 1]
    take = u < cut
    take[np.flatnonzero(u == cut)[: n_sample - np.count_nonzero(take)]] = True
    return np.sort(kept_idx[take])


def _draw_schedule(seed: int, n_chips: int, src: SourceConfig) -> np.ndarray:
    """Class schedule covering exactly n_chips signal slots.

    Classes are drawn i.i.d. per the mix ratio; the frame ends at the
    n_chips-th signal pulse. The stream is read in chunks sized to hold the
    signal pulses still needed plus a margin of 8 standard deviations, so a
    second chunk is rare; the result does not depend on the chunking.
    """
    p_sig = src.signal_fraction
    p_dec = src.decoy_fraction
    chunks = []
    offset = 0
    need = n_chips
    while True:
        size = int((need + 8 * math.sqrt(need) + 64) / p_sig)
        c = draw_classes(uniforms(seed, size, offset), p_sig, p_dec)
        signal = np.flatnonzero(c == CLASS_SIGNAL)
        if len(signal) >= need:
            chunks.append(c[: signal[need - 1] + 1])
            return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
        chunks.append(c)
        need -= len(signal)
        offset += size


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

    def _frame_payload(self, frame_id: int) -> bytes:
        seed = split_seed(split_seed(self.spec.seeds.alice, _S_PAYLOAD), frame_id)
        return random_bytes(seed, 125)

    def run(self, transport) -> SessionReport:
        spec = self.spec
        p = spec.protocol
        start_pulse = 0
        frames_ok = frames_failed = 0
        disclosed_total = 0
        disclosed_errors = 0
        aborted = False
        abort_reason = None

        for f in range(p.n_frames):
            payload = self._frame_payload(f)
            frame = Frame(payload, f, p.fec_ratio, p.spread_ratio)
            self.sent_payloads.append(payload)
            n_chips = frame.chip_count
            key_bits = random_bits(self.key_seed, n_chips, offset=f * n_chips)
            self.ledger.debit(n_chips)  # one pad bit per chip
            chips = preprocess(frame, key_bits, self.mask_seed)

            classes = _draw_schedule(
                split_seed(split_seed(spec.seeds.alice, _S_SCHEDULE), f), n_chips, spec.source
            )
            n_pulses = len(classes)
            signal_mask = classes == CLASS_SIGNAL
            bits = np.zeros(n_pulses, dtype=np.uint8)  # non-signal pulses carry 0
            bits[signal_mask] = chips
            bases = random_bits(
                split_seed(split_seed(spec.seeds.alice, _S_ALICE_BASIS), f), n_pulses
            )

            transport.send(wire.FRAME_META, wire.encode_frame_meta(f))
            transport.send(
                wire.QUANTUM, wire.encode_quantum(start_pulse, classes, bases, bits)
            )

            _, payload_bytes = _recv(transport, wire.BASIS_ANNOUNCE)
            announced, bob_bases, clicks = wire.decode_basis_announce(payload_bytes)
            if (announced, len(clicks)) != (start_pulse, n_pulses):
                raise ProtocolError(f"frame {f}: BASIS_ANNOUNCE pulse range is not the frame's")
            self._counts += class_counts(classes, clicks)

            matched = bases == bob_bases
            kept = clicks & matched
            kept_sig_idx = np.flatnonzero(kept & signal_mask)

            sample_idx = _sample_positions(
                kept_sig_idx,
                p.sample_fraction,
                split_seed(split_seed(spec.seeds.alice, _S_SAMPLE), f),
            )
            n_sample = len(sample_idx)
            transport.send(wire.SAMPLE_REQUEST, wire.encode_sample_request(sample_idx))
            _, payload_bytes = _recv(transport, wire.SAMPLE_DISCLOSE)
            disclosed_bits = wire.decode_sample_disclose(payload_bytes)
            if len(disclosed_bits) != n_sample:
                raise ProtocolError(f"frame {f}: SAMPLE_DISCLOSE count is not the one requested")

            frame_errors = int(np.count_nonzero(disclosed_bits != bits[sample_idx]))
            disclosed_total += n_sample
            disclosed_errors += frame_errors
            if n_sample and frame_errors / n_sample > p.qber_threshold:
                reason = (
                    f"frame {f}: sampled QBER {frame_errors / n_sample:.4f} exceeds "
                    f"threshold {p.qber_threshold:.4f}"
                )
                transport.send(wire.ABORT, reason.encode("utf-8"))
                aborted = True
                abort_reason = reason
                start_pulse += n_pulses
                break

            # decode map: kept signal chips minus disclosed check bits
            decode_pulse_mask = kept & signal_mask
            decode_pulse_mask[sample_idx] = False
            chip_map = decode_pulse_mask[signal_mask]
            transport.send(wire.SIFT_MAP, wire.encode_sift_map(start_pulse, chip_map))

            ledger_commit(
                self.ledger,
                FrameAccounting(
                    chips=n_chips, kept=int(len(kept_sig_idx)), disclosed=n_sample
                ),
            )

            _, payload_bytes = _recv(transport, wire.REPORT)
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
            start_pulse += n_pulses

        elapsed = start_pulse / (spec.source.rep_rate * p.duty_cycle)
        led = self.ledger
        sent, clicked = self._counts
        gains = np.divide(clicked, sent, out=np.zeros(3), where=sent > 0)
        self.report = SessionReport(
            qber=disclosed_errors / disclosed_total if disclosed_total else 0.0,
            comm_rate=frames_ok * 1000 / elapsed if elapsed else 0.0,
            key_gen_rate=led.generated / elapsed if elapsed else 0.0,
            key_cons_rate=(led.consumed - led.recycled) / elapsed if elapsed else 0.0,
            p_rec_empirical=led.p_rec,
            frames_ok=frames_ok,
            frames_failed=frames_failed,
            aborted=aborted,
            abort_reason=abort_reason,
            q_mu_hat=gains[CLASS_SIGNAL],
            q_nu_hat=gains[CLASS_DECOY],
            total_pulses=start_pulse,
            elapsed_s=elapsed,
        )
        return self.report


class BobSession:
    """Receiver endpoint: detection simulation, announcements, decoding."""

    def __init__(self, spec: ScenarioConfig):
        self.spec = spec
        self.key_seed = split_seed(spec.seeds.alice, _S_KEYPOOL)  # pre-shared
        self.mask_seed = split_seed(spec.seeds.alice, _S_MASK)
        self.recovered: dict = {}
        self.statuses: dict = {}
        budget = transmittance(
            spec.geometry, spec.atmosphere, spec.beam, spec.detector.eta_b, spec.detector.eta_d
        )
        self.static_db = budget.total_db
        self._jitter_x = 0.0

    def _frame_loss_db(self, frame_id: int, frame_duration: float) -> float:
        jit = self.spec.jitter
        if jit is not None and jit.max_db > 0.0:
            u = uniforms(
                split_seed(split_seed(self.spec.seeds.channel, _S_JITTER), frame_id), 1
            )[0]
            self._jitter_x = jitter_step(self._jitter_x, u, jit, frame_duration)
            return self.static_db + self._jitter_x
        return self.static_db

    def run(self, transport) -> None:
        spec = self.spec
        p = spec.protocol
        n_chips = PAYLOAD_BITS * p.fec_ratio * p.spread_ratio
        start_pulse = 0
        for f in range(p.n_frames):
            _, payload = _recv(transport, wire.FRAME_META)
            if wire.decode_frame_meta(payload) != f:
                raise ProtocolError(f"frame {f}: FRAME_META frame_id is not the frame's")

            _, payload = _recv(transport, wire.QUANTUM)
            start, classes, alice_bases, alice_bits = wire.decode_quantum(payload)
            if start != start_pulse:
                raise ProtocolError(f"frame {f}: QUANTUM start is not the frame's first pulse")
            n_pulses = len(classes)
            signal_mask = classes == CLASS_SIGNAL
            if np.count_nonzero(signal_mask) != n_chips:
                raise ProtocolError(f"frame {f}: QUANTUM signal pulse count is not n_chips")

            loss_db = self._frame_loss_db(f, n_pulses / spec.source.rep_rate)
            clicks, errors = detect(
                classes,
                10.0 ** (-loss_db / 10.0),
                spec.source,
                spec.detector,
                split_seed(split_seed(spec.seeds.channel, _S_CLICK), f),
                split_seed(split_seed(spec.seeds.channel, _S_ERROR), f),
            )
            bob_bases = random_bits(split_seed(spec.seeds.bob, f), n_pulses)
            bob_bits = alice_bits ^ errors.astype(np.uint8)

            transport.send(
                wire.BASIS_ANNOUNCE, wire.encode_basis_announce(start, bob_bases, clicks)
            )

            _, payload = _recv(transport, wire.SAMPLE_REQUEST)
            sample_idx = wire.decode_sample_request(payload)
            if np.any(sample_idx >= n_pulses):
                raise ProtocolError(f"frame {f}: SAMPLE_REQUEST offset beyond the frame")
            transport.send(
                wire.SAMPLE_DISCLOSE, wire.encode_sample_disclose(bob_bits[sample_idx])
            )

            msg, payload = _recv(transport, wire.SIFT_MAP, wire.ABORT)
            if msg == wire.ABORT:
                return
            mapped, chip_map = wire.decode_sift_map(payload)
            if (mapped, len(chip_map)) != (start, n_chips):
                raise ProtocolError(f"frame {f}: SIFT_MAP start or length is not the frame's")

            # decode reads chips and pad bits only where chip_map is set
            pad_idx = np.flatnonzero(chip_map)
            key_bits = np.zeros(n_chips, dtype=np.uint8)
            key_bits[pad_idx] = random_bits_at(self.key_seed, f * n_chips + pad_idx)
            try:
                recovered = decode(
                    bob_bits[signal_mask],
                    chip_map,
                    key_bits,
                    self.mask_seed,
                    f,
                    p.fec_ratio,
                    p.spread_ratio,
                )
                status, digest = "ok", hashlib.sha256(recovered).hexdigest()
                self.recovered[f] = recovered
            except FrameLost:
                status, digest = "lost", ""
            except FrameCorrupt:
                status, digest = "corrupt", ""
            self.statuses[f] = status
            transport.send(
                wire.REPORT,
                wire.encode_report({"frame_id": f, "status": status, "sha256": digest}),
            )
            start_pulse += n_pulses


def run_session_detailed(spec: ScenarioConfig, transports=None) -> tuple:
    """Run one full session and return (report, alice, bob) without raising
    on abort.

    transports is a (sender, receiver) pair, SocketTransport.pair() when
    none is given. The receiver runs in a thread that closes the receiver
    end when it exits; the sender end is closed here before the thread is
    joined. Neither side closes the other's end, so a message sent just
    before a close is still read.
    """
    t_alice, t_bob = transports or wire.SocketTransport.pair()
    alice = AliceSession(spec)
    bob = BobSession(spec)
    failure = []

    def _bob_run():
        try:
            bob.run(t_bob)
        except Exception as exc:  # surfaced after join
            failure.append(exc)
        finally:
            t_bob.close()  # unblocks the sender if the receiver died

    thread = threading.Thread(target=_bob_run, daemon=True)
    thread.start()
    closed = None
    try:
        report = alice.run(t_alice)
    except TransportClosed as exc:
        closed = exc  # a receiver failure is the root cause, not the EOF
    finally:
        # closing first unblocks the receiver if the sender died mid-frame
        t_alice.close()
        thread.join()
    if failure:
        raise failure[0]
    if closed is not None:
        raise closed
    return report, alice, bob
