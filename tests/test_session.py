import functools
import hashlib
import math
import socket
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phaselink.config import ScenarioConfig
from phaselink.errors import ProtocolError, TransportClosed
from phaselink.montecarlo import CLASS_DECOY, CLASS_SIGNAL, CLASS_VACUUM, class_schedule
from phaselink.optics import AtmosphereParams, BeamParams, JitterSpec, LinkGeometry
from phaselink.protocol import session, wire
from phaselink.protocol.session import (
    BobSession,
    ProtocolParams,
    Seeds,
    _chip_bits,
    _chip_index,
    _draw_schedule,
    _frame_end,
    _signal_rank,
    run_session_detailed,
)
from phaselink.rates import DetectorConfig, SourceConfig
from phaselink.rng import random_bits, split_seed

ATM = AtmosphereParams(cn2=1.28e-14, l0=0.001, alpha_fs=0.2)
BEAM = BeamParams(w0=1.74e-3, gamma=27.1, wavelength=1549.32e-9)
LOSSLESS = LinkGeometry(
    d_fs=0.0, d_fiber=0.0, a_r=1.0, conv_loss_db=0.0, adapter_loss_db=0.0, alpha_fiber=0.0
)
SRC = SourceConfig(mu=0.71, nu=0.28)
DET_CLEAN = DetectorConfig(p_d=1e-6, eta_d=1.0, visibility=0.9847, eta_b=1.0)


def small_spec(n_frames=10, spread=8, fec=1, **overrides):
    params = dict(
        fec_ratio=fec,
        spread_ratio=spread,
        qber_threshold=0.05,
        sample_fraction=0.1,
        duty_cycle=1.0,
        n_frames=n_frames,
        initial_pool_bits=n_frames * 1000 * fec * spread + 100_000,
    )
    det = overrides.pop("det", DET_CLEAN)
    geom = overrides.pop("geom", LOSSLESS)
    seeds = overrides.pop("seeds", Seeds(alice=101, bob=102, channel=103))
    jitter = overrides.pop("jitter", None)
    params.update(overrides)
    return ScenarioConfig(
        atmosphere=ATM,
        beam=BEAM,
        geometry=geom,
        source=SRC,
        detector=det,
        seeds=seeds,
        protocol=ProtocolParams(**params),
        jitter=jitter,
    )


class TestLoopbackSession:
    def test_lossless_frames_delivered(self):
        # spread 64 at keep-rate ~0.25 leaves every coded-bit group populated
        spec = small_spec(n_frames=10, spread=64)
        report, alice, bob = run_session_detailed(spec)
        assert report.frames_ok == 10
        assert report.frames_failed == 0
        assert not report.aborted
        for f, payload in bob.recovered.items():
            assert payload == alice.sent_payloads[f]

    def test_repetition_fec_frames_delivered(self):
        # Bob takes fec_ratio from the scenario: three copies of each bit
        spec = small_spec(n_frames=3, spread=64, fec=3)
        report, alice, bob = run_session_detailed(spec)
        assert report.frames_ok == 3
        assert bob.statuses == {0: "ok", 1: "ok", 2: "ok"}
        assert all(bob.recovered[f] == alice.sent_payloads[f] for f in range(3))
        assert alice.ledger.consumed == 3 * 1000 * 3 * 64

    def test_noiseless_session_zero_qber(self):
        det_perfect = DetectorConfig(p_d=0.0, eta_d=1.0, visibility=1.0, eta_b=1.0)
        spec = small_spec(n_frames=10, spread=64, det=det_perfect)
        report, _, _ = run_session_detailed(spec)
        assert report.frames_ok == 10
        assert report.qber == 0.0

    def test_qber_matches_configured_error(self):
        spec = small_spec(n_frames=20, spread=16)
        report, _, _ = run_session_detailed(spec)
        e_expected = spec.detector.e_det + spec.detector.e_mis
        n_disclosed = report.total_pulses * SRC.signal_fraction * report.q_mu_hat / 2 * 0.1
        sigma = (e_expected * (1 - e_expected) / n_disclosed) ** 0.5
        assert abs(report.qber - e_expected) < 4 * sigma

    def test_deterministic_reports(self):
        spec = small_spec(n_frames=5, spread=8)
        r1, _, _ = run_session_detailed(spec)
        r2, _, _ = run_session_detailed(spec)
        assert r1 == r2

    def test_seed_changes_results(self):
        r1, _, _ = run_session_detailed(small_spec(n_frames=5, spread=8))
        r2, _, _ = run_session_detailed(
            small_spec(n_frames=5, spread=8, seeds=Seeds(alice=201, bob=202, channel=203))
        )
        assert r1.qber != r2.qber or r1.q_mu_hat != r2.q_mu_hat

    def test_ledger_oracle(self):
        spec = small_spec(n_frames=20, spread=16)
        report, alice, _ = run_session_detailed(spec)
        led = alice.ledger
        assert led.pool_bits == led.initial_bits + led.generated + led.recycled - led.consumed
        # bookkeeping form of the recycling law
        assert abs(report.p_rec_empirical - (1 - report.q_mu_hat / 2)) < 1e-2

    def test_sift_discards_equal_mismatch_plus_noclick(self, reference_below):
        # reconstruct one frame's streams and check the discard set exactly
        spec = small_spec(n_frames=1, spread=8)
        report, alice, bob = run_session_detailed(spec)
        n_chips = 1000 * 8
        classes, _, _ = _draw_schedule(
            split_seed(split_seed(spec.seeds.alice, 2), 0), n_chips, SRC
        )
        n = len(classes)
        eta = 1.0  # lossless geometry
        p_click = np.array(
            [1.0 - (1.0 - spec.detector.y0) * math.exp(-eta * a) for a in (SRC.mu, SRC.nu, 0.0)]
        )
        click_seed = split_seed(split_seed(spec.seeds.channel, 1), 0)
        clicks = reference_below(click_seed, np.arange(n), p_click[classes])
        a_bases = random_bits(split_seed(split_seed(spec.seeds.alice, 4), 0), n)
        b_bases = random_bits(split_seed(spec.seeds.bob, 0), n)
        kept = clicks & (a_bases == b_bases)
        discarded = ~kept
        assert np.array_equal(discarded, (~clicks) | (a_bases != b_bases))
        # the session's empirical signal gain equals the reconstruction
        sig = classes == CLASS_SIGNAL
        assert report.q_mu_hat == np.count_nonzero(clicks & sig) / np.count_nonzero(sig)

    def test_abort_on_high_qber(self):
        det_bad = DetectorConfig(p_d=1e-6, eta_d=1.0, visibility=0.9847, e_mis=0.2, eta_b=1.0)
        spec = small_spec(n_frames=5, spread=8, det=det_bad)
        report, _, _ = run_session_detailed(spec)
        assert report.aborted
        assert "exceeds threshold" in report.abort_reason
        assert report.frames_ok == 0

    def test_loss_spike_fails_frames_without_abort(self, monkeypatch):
        # frames 2 and 3 get +35 dB: they are lost, the session keeps going
        loss_db = BobSession._frame_loss_db

        def spiked(bob, frame_id, frame_duration):
            return loss_db(bob, frame_id, frame_duration) + (35.0 if frame_id in (2, 3) else 0.0)

        monkeypatch.setattr(BobSession, "_frame_loss_db", spiked)
        report, _, bob = run_session_detailed(small_spec(n_frames=6, spread=64))
        assert not report.aborted
        assert report.frames_failed == 2
        assert report.frames_ok == 4
        assert bob.statuses[2] == "lost" and bob.statuses[3] == "lost"

    def test_jitter_session_runs(self):
        spec = small_spec(n_frames=4, spread=64, jitter=JitterSpec(max_db=1.0))
        report, _, _ = run_session_detailed(spec)
        assert report.frames_ok == 4

    def test_duty_cycle_scales_clock(self):
        full = small_spec(n_frames=3, spread=16)
        half = small_spec(n_frames=3, spread=16, duty_cycle=0.5)
        r_full, _, _ = run_session_detailed(full)
        r_half, _, _ = run_session_detailed(half)
        assert r_half.elapsed_s == pytest.approx(2 * r_full.elapsed_s)
        assert r_half.key_gen_rate == pytest.approx(r_full.key_gen_rate / 2)

    def test_measured_link_long_session_ledger_oracle(self):
        # 1e8 pulses at the measured link budget: the sampled QBER ends up
        # within 3 sigma of the configured error and the recycling fraction
        # within 1e-4 of 1 - Q_mu_hat / 2 (closed-form ledger oracle)
        geom = LinkGeometry(
            d_fs=1400.0, d_fiber=10000.0, a_r=0.06,
            conv_loss_db=15.4, adapter_loss_db=0.42, alpha_fiber=0.2,
        )
        det = DetectorConfig(p_d=1e-6, eta_d=0.2, visibility=0.9847, eta_b=10 ** -0.65)
        chips = 1000 * 1920
        n_frames = 47  # ~1e8 pulses including decoy/vacuum interleave
        spec = ScenarioConfig(
            atmosphere=ATM, beam=BEAM, geometry=geom, source=SRC, detector=det,
            seeds=Seeds(alice=301, bob=302, channel=303),
            protocol=ProtocolParams(
                fec_ratio=1, spread_ratio=1920, qber_threshold=0.05,
                sample_fraction=0.1, duty_cycle=1.0, n_frames=n_frames,
                initial_pool_bits=chips + 200_000,
            ),
        )
        report, alice, _ = run_session_detailed(spec)
        assert report.total_pulses > 9e7
        assert not report.aborted
        e_cfg = det.e_det + det.e_mis
        n_disclosed = report.total_pulses * SRC.signal_fraction * report.q_mu_hat / 2 * 0.1
        sigma = (e_cfg * (1 - e_cfg) / n_disclosed) ** 0.5
        assert abs(report.qber - e_cfg) < 3 * sigma
        assert abs(report.p_rec_empirical - (1 - report.q_mu_hat / 2)) < 1e-4


class _Edit:
    """Transport wrapper that passes each sent message through edit."""

    def __init__(self, inner, edit):
        self._inner, self._edit = inner, edit

    def send(self, msg_type, payload):
        self._inner.send(*self._edit(msg_type, payload))

    def recv(self):
        return self._inner.recv()

    def close(self):
        self._inner.close()


def _renumber_meta(payload):
    return wire.encode_frame_meta(wire.decode_frame_meta(payload) + 1)


def _shift_quantum_start(payload):
    start, classes = wire.decode_quantum(payload)
    return wire.encode_quantum(start + 5, classes)


def _set_quantum_bit_0(payload):
    payload = bytearray(payload)
    payload[12] |= 1  # the first pulse's byte
    return bytes(payload)


def _shift_chips_start(payload):
    start, _, chips = wire.decode_chips(payload)
    return wire.encode_chips(start + 5, chips)


def _drop_last_chips(payload):
    start, _, chips = wire.decode_chips(payload)
    return wire.encode_chips(start, chips[:-1])  # 8 chips fewer, count and length agreeing


def _append_decoy(payload):
    start, classes = wire.decode_quantum(payload)
    return wire.encode_quantum(start, np.append(classes, CLASS_DECOY))  # same signal count


def _cut_announce(payload):
    start, _, hit, bases = wire.decode_basis_announce(payload)
    first = hit < 1  # the clicks of a one-pulse range
    return wire.encode_basis_announce(start, 1, hit[first], bases[first])


def _shift_sift_start(payload):
    start, keep = wire.decode_sift_map(payload)
    return wire.encode_sift_map(start + 7, keep)


def _keep_every_click(payload):
    start, keep = wire.decode_sift_map(payload)
    return wire.encode_sift_map(start, np.ones(len(keep), bool))  # decoy and vacuum clicks too


def _sent_messages(spec) -> dict:
    """The payloads each message type carried in a session of spec, in order."""
    sent = {}

    def record(t, p):
        sent.setdefault(t, []).append(p)
        return t, p

    transports = tuple(_Edit(t, record) for t in wire.SocketTransport.pair())
    run_session_detailed(spec, transports=transports)
    return sent


@functools.lru_cache(maxsize=None)
def _unedited_session() -> dict:
    """_sent_messages of the spec test_inconsistent_frame_raises runs."""
    return _sent_messages(small_spec(n_frames=2, spread=8))


def _first_frame_sent(msg) -> bytes:
    return _unedited_session()[msg][0]


def _first_frame_clicks() -> int:
    return len(wire.decode_basis_announce(_first_frame_sent(wire.BASIS_ANNOUNCE))[2])


def _request_past_clicks(payload):
    return wire.encode_sample_request([_first_frame_clicks()])  # one past the last index


def _repeat_first_sample(payload):
    sample = wire.decode_sample_request(payload)
    return wire.encode_sample_request(np.full_like(sample, sample[0]))  # one click, every time


def _reverse_samples(payload):
    return wire.encode_sample_request(wire.decode_sample_request(payload)[::-1])


def _keep_sampled_click(payload):
    start, keep = wire.decode_sift_map(payload)
    keep = keep.copy()
    keep[wire.decode_sample_request(_first_frame_sent(wire.SAMPLE_REQUEST))] = True
    return wire.encode_sift_map(start, keep)


def _demote_first_signal(payload):
    start, classes = wire.decode_quantum(payload)
    classes[np.argmax(classes == CLASS_SIGNAL)] = CLASS_DECOY
    return wire.encode_quantum(start, classes)


def _request_chipless_click(payload):
    _, classes = wire.decode_quantum(_first_frame_sent(wire.QUANTUM))
    hit = wire.decode_basis_announce(_first_frame_sent(wire.BASIS_ANNOUNCE))[2]
    return wire.encode_sample_request([np.argmax(classes[hit] != CLASS_SIGNAL)])  # a decoy click


def _renumber_report(payload):
    report = wire.decode_report(payload)
    return wire.encode_report({**report, "frame_id": report["frame_id"] + 1})


class TestMessageOrder:
    @pytest.mark.parametrize(
        "side,old,new,message",
        [
            (0, wire.SAMPLE_REQUEST, wire.SIFT_MAP, "expected SAMPLE_REQUEST, received SIFT_MAP"),
            (1, wire.BASIS_ANNOUNCE, wire.REPORT, "expected BASIS_ANNOUNCE, received REPORT"),
            (1, wire.REPORT, 0x42, "expected REPORT, received unknown type 0x42"),
            (0, wire.CHIPS, wire.SAMPLE_REQUEST, "expected CHIPS, received SAMPLE_REQUEST"),
        ],
    )
    def test_unexpected_type_raises(self, side, old, new, message):
        before = set(threading.enumerate())
        transports = list(wire.SocketTransport.pair())
        transports[side] = _Edit(transports[side], lambda t, p: (new if t == old else t, p))
        with pytest.raises(ProtocolError, match=message):
            run_session_detailed(small_spec(n_frames=2, spread=8), transports=tuple(transports))
        assert set(threading.enumerate()) <= before  # the receiver thread is gone

    @pytest.mark.parametrize(
        "msg,rewrite,message",
        [
            (wire.FRAME_META, _renumber_meta, "FRAME_META frame_id"),
            (wire.QUANTUM, _shift_quantum_start, "QUANTUM start"),
            (wire.QUANTUM, _demote_first_signal, "signal pulse count"),
            (wire.QUANTUM, _append_decoy, "QUANTUM"),
            (wire.QUANTUM, _set_quantum_bit_0, "one of bits 0, 1 or 4-7"),
            (wire.CHIPS, _shift_chips_start, "CHIPS start or count"),
            (wire.CHIPS, _drop_last_chips, "CHIPS start or count"),
            (wire.CHIPS, lambda p: p[:-1], "does not match its declared count"),
            (wire.SAMPLE_REQUEST, lambda p: wire.encode_sample_request([10**9]), "offset beyond"),
            (wire.SAMPLE_REQUEST, _request_past_clicks, "offset beyond"),
            (wire.SAMPLE_REQUEST, _repeat_first_sample, "do not strictly ascend"),
            (wire.SAMPLE_REQUEST, _reverse_samples, "do not strictly ascend"),
            (wire.SAMPLE_REQUEST, _request_chipless_click, "SAMPLE_REQUEST offset at a click"),
            (wire.SIFT_MAP, lambda p: p[:8] + wire.encode_sift_map(0, np.ones(7))[8:], "SIFT_MAP"),
            (wire.SIFT_MAP, _shift_sift_start, "SIFT_MAP start"),
            (wire.SIFT_MAP, _keep_every_click, "carries no chip"),
            (wire.SIFT_MAP, _keep_sampled_click, "keeps a disclosed click"),
            (wire.BASIS_ANNOUNCE, _cut_announce, "BASIS_ANNOUNCE pulse range"),
            (wire.SAMPLE_DISCLOSE, lambda p: wire.encode_sample_disclose([0]), "SAMPLE_DISCLOSE"),
            (wire.REPORT, _renumber_report, "REPORT frame_id"),
        ],
    )
    def test_inconsistent_frame_raises(self, msg, rewrite, message):
        # each endpoint checks the messages it receives against the frame; the
        # rewrite is applied on both sides, since each type has one sender
        before = set(threading.enumerate())

        def edit(t, p):
            return t, rewrite(p) if t == msg else p

        transports = tuple(_Edit(t, edit) for t in wire.SocketTransport.pair())
        with pytest.raises(ProtocolError, match=message):
            run_session_detailed(small_spec(n_frames=2, spread=8), transports=transports)
        assert set(threading.enumerate()) <= before


# every message type a 2-frame session sends, and a fault on one of them
SENT_TYPES = sorted(set(wire.MESSAGE_NAMES) - {wire.ABORT})
FAULTS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 24)),  # one bit of the payload
    st.tuples(st.just("cut"), st.integers(0, 1 << 24)),  # to a shorter length
    st.tuples(st.just("append"), st.integers(0, 255)),
    st.tuples(st.just("retype"), st.integers(0, 255)),
)


def _fault(kind, arg, msg_type, payload):
    """(type, payload) with one fault: a flipped bit, a payload cut short,
    one byte appended, or another type."""
    if kind == "flip" and len(payload):
        payload = bytearray(payload)
        at = arg % (8 * len(payload))
        payload[at // 8] ^= 1 << at % 8
    elif kind == "cut":
        payload = payload[: arg % max(len(payload), 1)]
    elif kind == "append":
        payload = bytes(payload) + bytes([arg])
    elif kind == "retype" and arg != msg_type:
        msg_type = arg
    return msg_type, payload


class TestMessageFaults:
    @settings(max_examples=200, deadline=None)
    @given(msg=st.sampled_from(SENT_TYPES), frame=st.integers(0, 1), fault=FAULTS)
    @example(msg=wire.SIFT_MAP, frame=0, fault=("retype", wire.ABORT))
    def test_fault_ends_typed_or_completes(self, msg, frame, fault):
        # one message of either frame is damaged: the session raises
        # ProtocolError or completes with a report, in bounded time, and no
        # thread outlives it. A SIFT_MAP retyped ABORT once ended the
        # receiver cleanly and the sender with TransportClosed.
        before = set(threading.enumerate())
        seen = {}

        def edit(t, p):
            seen[t] = seen.get(t, -1) + 1
            return _fault(*fault, t, p) if (t, seen[t]) == (msg, frame) else (t, p)

        socks = socket.socketpair()
        transports = tuple(_Edit(wire.SocketTransport(s), edit) for s in socks)
        watchdog = threading.Timer(10.0, lambda: [s.shutdown(socket.SHUT_RDWR) for s in socks])
        watchdog.start()
        t0 = time.perf_counter()
        try:
            report, _, _ = run_session_detailed(small_spec(n_frames=2, spread=8), transports)
            assert report.frames_ok + report.frames_failed == 2 or report.aborted
        except ProtocolError:
            pass
        finally:
            watchdog.cancel()
            watchdog.join()
        assert time.perf_counter() - t0 < 5.0
        assert set(threading.enumerate()) <= before


class TestSift:
    @pytest.mark.parametrize("conv_loss_db", [0.0, 25.0])
    def test_decode_inputs(self, monkeypatch, conv_loss_db):
        # decode gets the kept signal clicks less the disclosed ones, at their
        # chip indices, with the sender's chips flipped where detection erred
        seen = {}

        def spy(name):
            fn = getattr(session, name)

            def wrapped(*args):
                seen[name] = [args]  # recorded before a lost frame raises
                seen[name].append(fn(*args))
                return seen[name][1]

            monkeypatch.setattr(session, name, wrapped)

        for name in ("_draw_schedule", "preprocess", "detect", "decode"):
            spy(name)
        spec = small_spec(n_frames=1, spread=64, geom=replace(LOSSLESS, conv_loss_db=conv_loss_db))
        run_session_detailed(spec)
        (classes, _, _), chips, (hit, err, _) = (
            seen[k][1] for k in ("_draw_schedule", "preprocess", "detect")
        )
        values, positions = seen["decode"][0][:2]

        n = len(classes)
        signal = classes == CLASS_SIGNAL
        a_bases = random_bits(split_seed(split_seed(spec.seeds.alice, 4), 0), n)
        b_bases = random_bits(split_seed(spec.seeds.bob, 0), n)
        kept = hit[(a_bases[hit] == b_bases[hit]) & signal[hit]]
        sampled = session._sample_positions(
            kept, spec.protocol.sample_fraction, split_seed(split_seed(spec.seeds.alice, 5), 0)
        )
        pos = np.setdiff1d(kept, sampled)
        measured = np.zeros(n, dtype=np.uint8)
        measured[signal] = np.unpackbits(chips, bitorder="little")
        measured[hit[err]] ^= 1
        assert 0 < len(sampled) < len(pos)
        assert np.array_equal(positions, np.cumsum(signal)[pos] - 1)
        assert np.array_equal(values, measured[pos])

    @pytest.mark.parametrize(
        "conv_loss_db,digests",
        [
            (
                0.0,
                {
                    "FRAME_META": "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
                    "QUANTUM": "f52b6d565d2c26524208c737883ed45d3365fdc2a1f0a84b3e20a6bc2bb896d9",
                    "CHIPS": "0be3ab6347aba342d56db83cb529e05430f5ac5979e9e351927fdfbcf200467b",
                    "BASIS_ANNOUNCE": "296b059559922346e11b9404828467ee8d534b897fcca2b45d228f7b06fa00bc",
                    "SAMPLE_REQUEST": "3579e04d405f2c7a721016f8b10a76bcec0791023b53b88f217f10b04b0a2b99",
                    "SAMPLE_DISCLOSE": "6ba6aed168f4ff09d63be4771f540f17b55261261a7addf3507cf07d7e6214cb",
                    "SIFT_MAP": "34bdc1c5bf77679761ab59cf9541c5d05fc5b2f23a660d7adcd0c7b4646c7cc7",
                    "REPORT": "7f57a2bf29ffc30607b2c6eea99c006e40b233eb01a7e6c23bd166d299c59c2e",
                },
            ),
            (
                25.0,
                {
                    "FRAME_META": "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
                    "QUANTUM": "f52b6d565d2c26524208c737883ed45d3365fdc2a1f0a84b3e20a6bc2bb896d9",
                    "CHIPS": "0be3ab6347aba342d56db83cb529e05430f5ac5979e9e351927fdfbcf200467b",
                    "BASIS_ANNOUNCE": "4f51432c17758636a140b8eb89755494a5dcdbc006b0b221e55a0318f8cd575b",
                    "SAMPLE_REQUEST": "69427921e36a88798e3fa58261a2c863bd54e05ada9bdcc8f9b22b99c3f339dc",
                    "SAMPLE_DISCLOSE": "6e3f6438512d1ea138a7d61a301b3cefee8393ac466ff0d87cc9654bfcf6eca3",
                    "SIFT_MAP": "d6f4794666194fb4f5818f6d18660ba7b72d510ea8b10c8d44b7878133a19676",
                    "REPORT": "5c4bbc1486e84adfd8e5f02e383107728f4d300fcb8619f45e64b37977d97983",
                },
            ),
        ],
    )
    def test_wire_bytes_pinned(self, conv_loss_db, digests):
        # the sha256 of every payload both endpoints send in the sessions of
        # test_decode_inputs, dense and sparse clicks: a change to any wire
        # layout, or to what the endpoints put in it, moves one
        spec = small_spec(n_frames=1, spread=64, geom=replace(LOSSLESS, conv_loss_db=conv_loss_db))
        sent = {
            wire.MESSAGE_NAMES[t]: hashlib.sha256(p).hexdigest()
            for t, (p,) in _sent_messages(spec).items()
        }
        assert sent == digests

    def test_sift_messages_sized_by_clicks(self):
        # SIFT_MAP has one flag per announced click, SAMPLE_REQUEST one u32
        # per disclosed click, on a 25 dB frame with a few hundred clicks
        spec = small_spec(n_frames=1, spread=64, geom=replace(LOSSLESS, conv_loss_db=25.0))
        sent = {t: p for t, (p,) in _sent_messages(spec).items()}
        k = len(wire.decode_basis_announce(sent[wire.BASIS_ANNOUNCE])[2])
        n_sample = len(wire.decode_sample_disclose(sent[wire.SAMPLE_DISCLOSE]))
        assert 0 < n_sample < k < 1000
        assert len(sent[wire.SIFT_MAP]) == 12 + (k + 7) // 8
        assert len(sent[wire.SAMPLE_REQUEST]) == 4 + 4 * n_sample


class _Faulty(wire.SocketTransport):
    """Socket transport whose send of one message type writes only the
    first `keep` bytes of its frame, then closes its end if `close` is set."""

    def __init__(self, sock, msg, keep, close):
        super().__init__(sock)
        self._msg, self._keep, self._close = msg, keep, close

    def send(self, msg_type, payload):
        if msg_type != self._msg:
            super().send(msg_type, payload)
            return
        self._sock.sendall(wire.encode_frame(msg_type, payload)[: self._keep])
        if self._close:
            self.close()


class _Stalled(_Faulty):
    """Socket transport whose send of one message type writes the header
    and half the payload, then stalls with its end left open."""

    def __init__(self, sock, msg):
        super().__init__(sock, msg, 0, False)

    def send(self, msg_type, payload):
        self._keep = wire.HEADER.size + len(payload) // 2
        super().send(msg_type, payload)


class TestSocketSession:
    def test_socketpair_matches_loopback(self):
        spec = small_spec(n_frames=4, spread=64)
        default_report, _, _ = run_session_detailed(spec)
        s1, s2 = socket.socketpair()
        transports = (wire.SocketTransport(s1), wire.SocketTransport(s2))
        socket_report, _, _ = run_session_detailed(spec, transports=transports)
        assert socket_report == default_report

    @pytest.mark.parametrize(
        "side,msg,keep,close,timeouts",
        [
            (0, wire.QUANTUM, wire.HEADER.size + 100, True, 0),  # cut mid-payload, then closed
            (0, wire.CHIPS, 0, False, 1),  # dropped: the receiver waits for it
            (0, wire.SAMPLE_REQUEST, 0, False, 1),  # dropped: both ends wait
            (1, wire.SAMPLE_DISCLOSE, 0, True, 0),  # receiver closes mid-frame
        ],
    )
    def test_transport_fault_ends_typed(self, monkeypatch, side, msg, keep, close, timeouts):
        monkeypatch.setattr(wire, "TIMEOUT_S", 1.0)
        before = set(threading.enumerate())
        socks = socket.socketpair()
        transports = tuple(
            _Faulty(s, msg, keep, close) if i == side else wire.SocketTransport(s)
            for i, s in enumerate(socks)
        )
        # should the transport timeout fail, this ends the hang and the time check fails
        watchdog = threading.Timer(5.0, lambda: [s.shutdown(socket.SHUT_RDWR) for s in socks])
        watchdog.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises((ProtocolError, TransportClosed)):
                run_session_detailed(small_spec(n_frames=2, spread=8), transports=transports)
        finally:
            watchdog.cancel()
            watchdog.join()
        assert time.perf_counter() - t0 < (timeouts + 0.5) * wire.TIMEOUT_S
        assert set(threading.enumerate()) <= before

    @pytest.mark.parametrize("side,msg", [(0, wire.QUANTUM), (1, wire.BASIS_ANNOUNCE)])
    def test_stalled_peer_ends_typed(self, monkeypatch, side, msg):
        # the peer that reads the half payload waits one timeout, then the
        # stalled peer's next read sees the other end closed
        monkeypatch.setattr(wire, "TIMEOUT_S", 1.0)
        before = set(threading.enumerate())
        socks = socket.socketpair()
        transports = tuple(
            _Stalled(s, msg) if i == side else wire.SocketTransport(s)
            for i, s in enumerate(socks)
        )
        watchdog = threading.Timer(5.0, lambda: [s.shutdown(socket.SHUT_RDWR) for s in socks])
        watchdog.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(TransportClosed):
                run_session_detailed(small_spec(n_frames=2, spread=8), transports=transports)
        finally:
            watchdog.cancel()
            watchdog.join()
        assert time.perf_counter() - t0 < 1.5 * wire.TIMEOUT_S
        assert set(threading.enumerate()) <= before


def assert_ranks(classes, words, before):
    """The index ranks every position of classes as TestSignalRank's
    reference does: the position less the non-signal pulses before it."""
    positions = np.arange(len(classes))
    reference = positions - np.searchsorted(np.flatnonzero(classes != CLASS_SIGNAL), positions)
    assert np.array_equal(_chip_index(words, before, positions), reference)


class TestScheduleDraw:
    def test_exact_signal_count(self):
        for n_chips in (100, 1000, 5000):
            classes, _, _ = _draw_schedule(42, n_chips, SRC)
            assert np.count_nonzero(classes == CLASS_SIGNAL) == n_chips
            assert classes[-1] == CLASS_SIGNAL

    def test_prefix_of_one_stream(self, monkeypatch, reference_classes):
        # the frame is the start of one class stream however it is read; a
        # negative margin makes the chunks fall short, so several are drawn
        stream = reference_classes(42, 6000, SRC.signal_fraction, SRC.decoy_fraction)
        frame = stream[: np.flatnonzero(stream == CLASS_SIGNAL)[4999] + 1]
        assert np.array_equal(_draw_schedule(42, 5000, SRC)[0], frame)
        calls = []
        monkeypatch.setattr(
            session, "class_schedule", lambda *a: calls.append(a) or class_schedule(*a)
        )
        monkeypatch.setattr(session, "math", SimpleNamespace(sqrt=lambda x: -math.sqrt(x)))
        classes, words, before = _draw_schedule(42, 5000, SRC)
        assert np.array_equal(classes, frame)
        assert len(calls) > 1
        assert_ranks(frame, words, before)

    @given(
        seed=st.integers(0, 2**64 - 1),
        n_chips=st.integers(1, 300),
        ratio=st.sampled_from([(30, 2, 1), (1, 1, 1), (1, 8, 8)]),
    )
    def test_rank_matches_non_signal_search(self, seed, n_chips, ratio):
        classes, words, before = _draw_schedule(seed, n_chips, SourceConfig(0.71, 0.28, ratio))
        assert classes[-1] == CLASS_SIGNAL and np.count_nonzero(classes == CLASS_SIGNAL) == n_chips
        assert_ranks(classes, words, before)

    def test_class_frequencies(self):
        classes, _, _ = _draw_schedule(7, 100_000, SRC)
        frac_sig = np.count_nonzero(classes == CLASS_SIGNAL) / len(classes)
        assert abs(frac_sig - 30 / 33) < 0.01


class TestSignalRank:
    @given(
        classes=st.lists(
            st.sampled_from([CLASS_SIGNAL, CLASS_DECOY, CLASS_VACUUM]), max_size=300
        ).map(lambda c: np.array(c, dtype=np.uint8)),
        data=st.data(),
    )
    def test_matches_non_signal_search(self, classes, data):
        # the chip index of each position is the position less the number
        # of non-signal pulses before it; every length and both extremes
        n = len(classes)
        words, before = _signal_rank(classes)
        assert before[-1] == np.count_nonzero(classes == CLASS_SIGNAL)
        edges = [p for p in (0, 63, 64, n - 1) if 0 <= p < n]
        drawn = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=20)) if n else []
        positions = np.array(edges + drawn, dtype=np.int64)
        reference = positions - np.searchsorted(np.flatnonzero(classes != CLASS_SIGNAL), positions)
        assert np.array_equal(_chip_index(words, before, positions), reference)

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 63, 64, 65, 300])
    @pytest.mark.parametrize("cls", [CLASS_SIGNAL, CLASS_DECOY])
    def test_uniform_frames(self, n, cls):
        # all-signal and no-signal frames, and an empty position array
        classes = np.full(n, cls, dtype=np.uint8)
        words, before = _signal_rank(classes)
        positions = np.arange(n)
        expected = positions if cls == CLASS_SIGNAL else np.zeros(n, dtype=np.int64)
        assert before[-1] == (n if cls == CLASS_SIGNAL else 0)
        assert np.array_equal(_chip_index(words, before, positions), expected)
        assert _chip_index(words, before, np.empty(0, dtype=np.int64)).tolist() == []


CLASS_LISTS = st.lists(st.sampled_from([CLASS_SIGNAL, CLASS_DECOY, CLASS_VACUUM]), max_size=300)


def scattered(classes, chips):
    """The per-pulse bits as the bool-mask scatter gives them, for chips
    packed little-endian."""
    bits = np.zeros(len(classes), dtype=np.uint8)
    signal = classes == CLASS_SIGNAL
    bits[signal] = np.unpackbits(chips, count=np.count_nonzero(signal), bitorder="little")
    return bits


def packed(chips):
    """0/1 chips packed little-endian, as framing.preprocess gives them."""
    return np.packbits(np.asarray(chips, dtype=np.uint8), bitorder="little")


def signal_at(n, *positions):
    """n decoy pulses with a signal pulse at each of the positions."""
    classes = np.full(n, CLASS_DECOY, dtype=np.uint8)
    classes[list(positions)] = CLASS_SIGNAL
    return classes


class TestFrameEnd:
    @pytest.mark.parametrize(
        "classes,n,end",
        [
            (signal_at(200, 5, 64, 100), 2, 65),  # the n-th flag at bit 0 of its word
            (signal_at(200, 5, 127, 130), 2, 128),  # at bit 63
            (signal_at(200, 5, 127, 130), 3, 131),  # n is every flag
            (signal_at(64, 63), 1, 64),  # at bit 63 of the last word
            (signal_at(200, 5, 127, 130), 4, None),  # fewer flags than n
            (signal_at(0), 1, None),
        ],
    )
    def test_edges(self, classes, n, end):
        assert _frame_end(*_signal_rank(classes), n) == end

    @given(classes=CLASS_LISTS.map(lambda c: np.array(c, dtype=np.uint8)), n=st.integers(1, 301))
    def test_matches_signal_search(self, classes, n):
        signal = np.flatnonzero(classes == CLASS_SIGNAL)
        expected = int(signal[n - 1]) + 1 if n <= len(signal) else None
        assert _frame_end(*_signal_rank(classes), n) == expected


class TestDeposit:
    """Chip k rides on the k-th signal pulse: each endpoint reads a signal
    pulse's chip as _chip_bits at its _chip_index, which must give what the
    bool-mask scatter of the packed chips puts on that pulse."""

    @staticmethod
    def read_at_signal(classes, chips):
        words, before = _signal_rank(classes)
        signal = np.flatnonzero(classes == CLASS_SIGNAL)
        return signal, _chip_bits(chips, _chip_index(words, before, signal))

    @given(classes=CLASS_LISTS.map(lambda c: np.array(c, dtype=np.uint8)), data=st.data())
    def test_matches_bool_mask_scatter(self, classes, data):
        # every length 0-300, not only whole flag bytes or words, and any chips
        n_chips = int(np.count_nonzero(classes == CLASS_SIGNAL))
        chips = packed(
            data.draw(st.lists(st.integers(0, 1), min_size=n_chips, max_size=n_chips))
        )
        signal, bits = self.read_at_signal(classes, chips)
        assert bits.dtype == np.uint8 and np.array_equal(bits, scattered(classes, chips)[signal])

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 300])
    @pytest.mark.parametrize("cls", [CLASS_SIGNAL, CLASS_VACUUM])
    def test_uniform_frames(self, n, cls):
        # all-signal frames take every chip in order, no-signal frames none
        classes = np.full(n, cls, dtype=np.uint8)
        chips = packed(random_bits(9, n if cls == CLASS_SIGNAL else 0))
        signal, bits = self.read_at_signal(classes, chips)
        assert np.array_equal(bits, scattered(classes, chips)[signal])
        assert len(bits) == (n if cls == CLASS_SIGNAL else 0)

    def test_measured_link_frame(self):
        # 1.92 M chips on about 2.11 M pulses
        classes, _, _ = _draw_schedule(5, 1_920_000, SRC)
        chips = packed(random_bits(11, 1_920_000))
        signal, bits = self.read_at_signal(classes, chips)
        assert np.array_equal(bits, scattered(classes, chips)[signal])
