import math
import socket
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from phaselink.config import ScenarioConfig
from phaselink.errors import ProtocolError, TransportClosed
from phaselink.montecarlo import CLASS_DECOY, CLASS_SIGNAL, draw_classes
from phaselink.optics import AtmosphereParams, BeamParams, JitterSpec, LinkGeometry
from phaselink.protocol import session, wire
from phaselink.protocol.session import (
    BobSession,
    ProtocolParams,
    Seeds,
    _draw_schedule,
    run_session_detailed,
)
from phaselink.rates import DetectorConfig, SourceConfig
from phaselink.rng import uniforms

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

    def test_sift_discards_equal_mismatch_plus_noclick(self):
        # reconstruct one frame's streams and check the discard set exactly
        from phaselink.rng import random_bits, split_seed, uniforms

        spec = small_spec(n_frames=1, spread=8)
        report, alice, bob = run_session_detailed(spec)
        n_chips = 1000 * 8
        classes = _draw_schedule(
            split_seed(split_seed(spec.seeds.alice, 2), 0), n_chips, SRC
        )
        n = len(classes)
        eta = 1.0  # lossless geometry
        p_click = np.array(
            [1.0 - (1.0 - spec.detector.y0) * math.exp(-eta * a) for a in (SRC.mu, SRC.nu, 0.0)]
        )
        clicks = uniforms(split_seed(split_seed(spec.seeds.channel, 1), 0), n) < p_click[classes]
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
    start, classes, bases, bits = wire.decode_quantum(payload)
    return wire.encode_quantum(start + 5, classes, bases, bits)


def _cut_announce(payload):
    start, bases, clicks = wire.decode_basis_announce(payload)
    return wire.encode_basis_announce(start, bases[:1], clicks[:1])


def _shift_sift_start(payload):
    start, chip_map = wire.decode_sift_map(payload)
    return wire.encode_sift_map(start + 7, chip_map)


def _demote_first_signal(payload):
    start, classes, bases, bits = wire.decode_quantum(payload)
    classes = classes.copy()
    classes[np.argmax(classes == CLASS_SIGNAL)] = CLASS_DECOY
    return wire.encode_quantum(start, classes, bases, bits)


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
            (wire.SAMPLE_REQUEST, lambda p: wire.encode_sample_request([10**9]), "offset beyond"),
            (wire.SIFT_MAP, lambda p: p[:8] + wire.encode_sift_map(0, np.ones(7))[8:], "SIFT_MAP"),
            (wire.SIFT_MAP, _shift_sift_start, "SIFT_MAP start"),
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


class TestScheduleDraw:
    def test_exact_signal_count(self):
        for n_chips in (100, 1000, 5000):
            classes = _draw_schedule(42, n_chips, SRC)
            assert np.count_nonzero(classes == CLASS_SIGNAL) == n_chips
            assert classes[-1] == CLASS_SIGNAL

    def test_prefix_of_one_stream(self, monkeypatch):
        # the frame is the start of one class stream however it is read; a
        # negative margin makes the chunks fall short, so several are drawn
        stream = draw_classes(uniforms(42, 6000), SRC.signal_fraction, SRC.decoy_fraction)
        frame = stream[: np.flatnonzero(stream == CLASS_SIGNAL)[4999] + 1]
        assert np.array_equal(_draw_schedule(42, 5000, SRC), frame)
        calls = []
        monkeypatch.setattr(session, "uniforms", lambda *a: calls.append(a) or uniforms(*a))
        monkeypatch.setattr(session, "math", SimpleNamespace(sqrt=lambda x: -math.sqrt(x)))
        assert np.array_equal(_draw_schedule(42, 5000, SRC), frame)
        assert len(calls) > 1

    def test_class_frequencies(self):
        classes = _draw_schedule(7, 100_000, SRC)
        frac_sig = np.count_nonzero(classes == CLASS_SIGNAL) / len(classes)
        assert abs(frac_sig - 30 / 33) < 0.01
