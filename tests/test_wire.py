import socket
import threading

import numpy as np
import pytest

from phaselink.errors import ProtocolError, TransportClosed
from phaselink.protocol import wire


class TestFrameEncoding:
    def test_header_layout(self):
        frame = wire.encode_frame(wire.ABORT, b"why")
        # 4-byte big-endian length, 1-byte type, payload
        assert frame == b"\x00\x00\x00\x03" + bytes([0x06]) + b"why"
        length, msg_type = wire.decode_header(frame[:5])
        assert length == 3 and msg_type == wire.ABORT

    def test_empty_payload(self):
        frame = wire.encode_frame(wire.SAMPLE_REQUEST, b"")
        assert frame == b"\x00\x00\x00\x00" + bytes([0x02])

    def test_message_type_values(self):
        assert wire.BASIS_ANNOUNCE == 0x01
        assert wire.SAMPLE_REQUEST == 0x02
        assert wire.SAMPLE_DISCLOSE == 0x03
        assert wire.SIFT_MAP == 0x04
        assert wire.FRAME_META == 0x05
        assert wire.ABORT == 0x06
        assert wire.REPORT == 0x07


class TestCodecs:
    def test_basis_announce_roundtrip(self):
        bases = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 0], dtype=np.uint8)
        clicks = np.array([1, 0, 0, 0, 1, 1, 0, 0, 0, 1], dtype=np.uint8)
        payload = wire.encode_basis_announce(777, bases, clicks)
        start, b2, c2 = wire.decode_basis_announce(payload)
        assert start == 777
        assert np.array_equal(b2, bases)
        assert np.array_equal(c2, clicks.astype(bool))

    def test_sample_roundtrip(self):
        idx = np.array([3, 17, 99, 100000], dtype=np.int64)
        assert np.array_equal(wire.decode_sample_request(wire.encode_sample_request(idx)), idx)
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        assert np.array_equal(wire.decode_sample_disclose(wire.encode_sample_disclose(bits)), bits)

    def test_sift_map_roundtrip(self):
        kept = (np.arange(1000) % 7 == 0)
        start, k2 = wire.decode_sift_map(wire.encode_sift_map(123456789, kept))
        assert start == 123456789
        assert np.array_equal(k2, kept)

    def test_frame_meta_roundtrip(self):
        payload = wire.encode_frame_meta(9, 1_000_000, 70_000, 64_000, 1, 64, True)
        meta = wire.decode_frame_meta(payload)
        assert meta == {
            "frame_id": 9,
            "start_pulse": 1_000_000,
            "n_pulses": 70_000,
            "n_chips": 64_000,
            "fec_ratio": 1,
            "spread_ratio": 64,
            "last": True,
        }

    def test_quantum_roundtrip(self):
        classes = np.array([0, 1, 2, 0, 0], dtype=np.uint8)
        bases = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        bits = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
        start, c2, ba2, bi2 = wire.decode_quantum(wire.encode_quantum(5, classes, bases, bits))
        assert start == 5
        assert np.array_equal(c2, classes)
        assert np.array_equal(ba2, bases)
        assert np.array_equal(bi2, bits)

    def test_report_roundtrip(self):
        obj = {"frame_id": 3, "status": "ok", "sha256": "ab" * 32}
        assert wire.decode_report(wire.encode_report(obj)) == obj


class TestTruncatedPayloads:
    @pytest.mark.parametrize(
        "decoder,payload,cut",
        [
            (
                wire.decode_basis_announce,
                wire.encode_basis_announce(0, np.ones(100, np.uint8), np.ones(100, np.uint8)),
                20,
            ),
            (wire.decode_sift_map, wire.encode_sift_map(0, np.ones(100, bool)), 14),
            (wire.decode_sample_disclose, wire.encode_sample_disclose(np.ones(50, np.uint8)), 5),
            (wire.decode_sample_request, wire.encode_sample_request(np.arange(10)), 20),
            (
                wire.decode_quantum,
                wire.encode_quantum(0, np.zeros(100), np.ones(100), np.ones(100)),
                50,
            ),
            (wire.decode_frame_meta, wire.encode_frame_meta(1, 0, 10, 8, 1, 2, False), 10),
        ],
    )
    def test_rejected(self, decoder, payload, cut):
        decoder(payload)  # the whole payload decodes
        for bad in (payload[:cut], payload[:2], payload + b"\x00"):
            with pytest.raises(ProtocolError):
                decoder(bad)


class TestLoopbackTransport:
    def test_send_recv(self):
        a, b = wire.LoopbackTransport.pair()
        a.send(wire.ABORT, b"reason")
        msg, payload = b.recv()
        assert msg == wire.ABORT and payload == b"reason"

    def test_byte_identical_to_wire_encoding(self):
        # the loopback buffer must hold exactly the socket wire bytes
        a, b = wire.LoopbackTransport.pair()
        payload = wire.encode_frame_meta(1, 0, 10, 8, 1, 2, False)
        a.send(wire.FRAME_META, payload)
        raw = b._inbox._chunks[0]
        assert raw == wire.encode_frame(wire.FRAME_META, payload)

    def test_closed_raises(self):
        a, b = wire.LoopbackTransport.pair()
        a.close()
        with pytest.raises(TransportClosed):
            b.recv()
        with pytest.raises(TransportClosed):
            a.send(wire.ABORT, b"")


class TestSocketTransport:
    def test_roundtrip_over_socketpair(self):
        s1, s2 = socket.socketpair()
        t1, t2 = wire.SocketTransport(s1), wire.SocketTransport(s2)
        received = []

        def reader():
            received.append(t2.recv())

        thread = threading.Thread(target=reader)
        thread.start()
        t1.send(wire.REPORT, wire.encode_report({"x": 1}))
        thread.join(timeout=5)
        msg, payload = received[0]
        assert msg == wire.REPORT and wire.decode_report(payload) == {"x": 1}
        t1.close()
        with pytest.raises(TransportClosed):
            t2.recv()
        t2.close()
