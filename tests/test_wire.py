import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phaselink.errors import ProtocolError
from phaselink.protocol import wire

U32 = st.integers(0, (1 << 32) - 1)
U64 = st.integers(0, (1 << 64) - 1)
BITS = st.lists(st.integers(0, 1), max_size=200).map(lambda b: np.array(b, dtype=np.uint8))
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=8))


def only_whole_payload_decodes(decoder, payload: bytes) -> None:
    """Every cut of the payload and the payload with one more byte raise
    ProtocolError."""
    for cut in range(len(payload)):
        with pytest.raises(ProtocolError):
            decoder(payload[:cut])
    with pytest.raises(ProtocolError):
        decoder(payload + b"\x00")


class TestFrameEncoding:
    def test_header_layout(self):
        # 4-byte big-endian length, 1-byte type
        assert wire.HEADER.pack(3, wire.ABORT) == b"\x00\x00\x00\x03" + bytes([0x06])
        assert wire.HEADER.size == 5

    def test_message_type_values(self):
        assert wire.BASIS_ANNOUNCE == 0x01
        assert wire.SAMPLE_REQUEST == 0x02
        assert wire.SAMPLE_DISCLOSE == 0x03
        assert wire.SIFT_MAP == 0x04
        assert wire.FRAME_META == 0x05
        assert wire.ABORT == 0x06
        assert wire.REPORT == 0x07
        assert wire.QUANTUM == 0x10
        assert wire.CHIPS == 0x11


class TestCodecs:
    def test_basis_announce_roundtrip(self):
        # the range, the clicked positions as an index list, then one basis
        # per clicked pulse only
        hit = np.array([0, 4, 5, 9])
        bases = np.array([0, 1, 1, 0], dtype=np.uint8)
        payload = wire.encode_basis_announce(777, 10, hit, bases)
        # the positions as big-endian u32, then the bases 0110 packed MSB-first
        assert payload == struct.pack("!QII4I", 777, 10, 4, 0, 4, 5, 9) + bytes([0b01100000])
        start, n, h2, b2 = wire.decode_basis_announce(payload)
        assert (start, n) == (777, 10)
        assert h2.dtype == np.int64 and np.array_equal(h2, hit)
        assert np.array_equal(b2, bases)

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
        payload = wire.encode_frame_meta(70_000)
        assert len(payload) == 4
        assert wire.decode_frame_meta(payload) == 70_000

    def test_quantum_roundtrip(self):
        classes = np.array([0, 1, 2, 0, 0], dtype=np.uint8)
        payload = wire.encode_quantum(5, classes)
        # bits 2-3 the class, every other bit zero
        assert list(payload[12:]) == [0, 4, 8, 0, 0]
        start, c2 = wire.decode_quantum(payload)
        assert start == 5
        assert np.array_equal(c2, classes)

    def test_chips_roundtrip(self):
        # the chips as framing.preprocess packs them: chip i at bit i % 8 of byte i // 8
        chips = np.packbits([1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0], bitorder="little")
        payload = wire.encode_chips(7, chips)
        assert payload == struct.pack("!QI", 7, 16) + bytes([0x81, 0x02])
        start, n, c2 = wire.decode_chips(payload)
        assert (start, n) == (7, 16) and c2.tolist() == [0x81, 0x02]

    def test_report_roundtrip(self):
        obj = {"frame_id": 3, "status": "ok", "sha256": "ab" * 32}
        assert wire.decode_report(wire.encode_report(obj)) == obj


class TestTruncatedPayloads:
    @pytest.mark.parametrize(
        "decoder,payload,cut",
        [
            (
                wire.decode_basis_announce,
                wire.encode_basis_announce(0, 100, np.arange(100), np.ones(100, np.uint8)),
                20,
            ),
            (wire.decode_sift_map, wire.encode_sift_map(0, np.ones(100, bool)), 14),
            (wire.decode_sample_disclose, wire.encode_sample_disclose(np.ones(50, np.uint8)), 5),
            (wire.decode_sample_request, wire.encode_sample_request(np.arange(10)), 20),
            (
                wire.decode_quantum,
                bytes(wire.encode_quantum(0, np.ones(100))),  # a bytearray
                50,
            ),
            (wire.decode_chips, wire.encode_chips(0, np.arange(13, dtype=np.uint8)), 20),
            (wire.decode_frame_meta, wire.encode_frame_meta(1), 3),
            (wire.decode_report, wire.encode_report({"frame_id": 1, "status": "ok"}), 12),
        ],
    )
    def test_rejected(self, decoder, payload, cut):
        decoder(payload)  # the whole payload decodes
        for bad in (payload[:cut], payload[:2], payload + b"\x00"):
            with pytest.raises(ProtocolError):
                decoder(bad)

    @pytest.mark.parametrize("payload", [b"not json", b"\xff", b"[1,2]"])
    def test_report_not_a_json_object_rejected(self, payload):
        with pytest.raises(ProtocolError):
            wire.decode_report(payload)


class TestCodecProperties:
    """Every codec round-trips arbitrary values and its decoder rejects every
    payload that is not whole."""

    @given(msg_type=st.integers(0, 255), payload=st.binary(max_size=100))
    def test_frame(self, msg_type, payload):
        # a message of any type and payload arrives as it was sent
        sender, receiver = wire.LoopbackTransport.pair()
        sender.send(msg_type, bytearray(payload))
        assert receiver.recv() == (msg_type, payload)

    @given(start=U64, clicks=BITS, data=st.data())
    def test_basis_announce(self, start, clicks, data):
        hit = np.flatnonzero(clicks)
        k = len(hit)
        bases = data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
        payload = wire.encode_basis_announce(start, len(clicks), hit, bases)
        # the click positions as an index list, then the packed bases
        assert payload == (
            struct.pack("!QII", start, len(clicks), k)
            + hit.astype(">u4").tobytes()
            + np.packbits(np.array(bases, np.uint8)).tobytes()
        )
        s2, n2, h2, b2 = wire.decode_basis_announce(payload)
        assert (s2, n2) == (start, len(clicks)) and h2.dtype == np.int64
        assert np.array_equal(h2, hit)
        assert b2.tolist() == bases
        only_whole_payload_decodes(wire.decode_basis_announce, payload)

    @given(clicks=BITS, extra=st.sampled_from([-1, 1, 2]))
    def test_basis_announce_needs_one_basis_per_click(self, clicks, extra):
        hit = np.flatnonzero(clicks)
        if len(hit) + extra >= 0:
            bases = np.zeros(len(hit) + extra, np.uint8)
            with pytest.raises(ValueError):
                wire.encode_basis_announce(0, len(clicks), hit, bases)

    @pytest.mark.parametrize("hit", [[3, 1], [2, 2], [-1, 2], [0, 5]])
    def test_basis_announce_needs_ascending_positions_in_range(self, hit):
        with pytest.raises(ValueError):
            wire.encode_basis_announce(0, 5, np.array(hit), np.zeros(2, np.uint8))

    @pytest.mark.parametrize("offsets", [[-1], [2**32], [2**32 + 5], [3, -7], [0, 2**40]])
    def test_sample_request_needs_u32_offsets(self, offsets):
        # a wrapped offset would request the wrong bit
        with pytest.raises(ValueError):
            wire.encode_sample_request(offsets)

    @given(clicks=BITS, tail=st.binary(max_size=30))
    def test_basis_announce_tail_must_fit_the_clicks(self, clicks, tail):
        # header and click positions, then a tail that fits ceil(k/8) bytes
        # with clear pad bits, or not
        hit = np.flatnonzero(clicks)
        k = len(hit)
        payload = struct.pack("!QII", 9, len(clicks), k) + hit.astype(">u4").tobytes() + tail
        if len(tail) == (k + 7) // 8 and not (k % 8 and tail[-1] & (0xFF >> k % 8)):
            assert wire.decode_basis_announce(payload)[3].tolist() == np.unpackbits(
                np.frombuffer(tail, np.uint8), count=k
            ).tolist()
        else:
            with pytest.raises(ProtocolError):
                wire.decode_basis_announce(payload)

    @given(offsets=st.sets(U32, max_size=50).map(sorted))
    def test_sample_request(self, offsets):
        payload = wire.encode_sample_request(offsets)
        assert wire.decode_sample_request(payload).tolist() == offsets
        only_whole_payload_decodes(wire.decode_sample_request, payload)

    @given(bits=BITS)
    def test_sample_disclose(self, bits):
        payload = wire.encode_sample_disclose(bits)
        assert np.array_equal(wire.decode_sample_disclose(payload), bits)
        only_whole_payload_decodes(wire.decode_sample_disclose, payload)

    @given(start=U64, kept=BITS)
    def test_sift_map(self, start, kept):
        payload = wire.encode_sift_map(start, kept)
        s2, k2 = wire.decode_sift_map(payload)
        assert s2 == start and np.array_equal(k2, kept.astype(bool))
        only_whole_payload_decodes(wire.decode_sift_map, payload)

    @given(frame_id=U32)
    def test_frame_meta(self, frame_id):
        payload = wire.encode_frame_meta(frame_id)
        assert wire.decode_frame_meta(payload) == frame_id
        only_whole_payload_decodes(wire.decode_frame_meta, payload)

    @given(start=U64, pulses=st.lists(st.integers(0, 2), max_size=200))
    def test_quantum(self, start, pulses):
        classes = np.array(pulses, dtype=np.uint8)
        payload = wire.encode_quantum(start, classes)
        s2, c2 = wire.decode_quantum(payload)
        assert s2 == start and np.array_equal(c2, classes)
        assert np.array_equal(np.frombuffer(payload, np.uint8, offset=12), classes << 2)
        only_whole_payload_decodes(wire.decode_quantum, payload)

    @given(start=U64, chips=BITS.map(lambda b: np.packbits(b, bitorder="little")))
    def test_chips(self, start, chips):
        payload = wire.encode_chips(start, chips)
        s2, n, c2 = wire.decode_chips(payload)
        assert (s2, n) == (start, 8 * len(chips)) and np.array_equal(c2, chips)
        only_whole_payload_decodes(wire.decode_chips, payload)

    @given(start=U64, chip_bytes=st.integers(0, 30), short=st.integers(1, 7))
    def test_chips_count_not_whole_bytes_rejected(self, start, chip_bytes, short):
        # a count short of the bytes' 8 chips each, with the length it implies
        payload = struct.pack("!QI", start, 8 * (chip_bytes + 1) - short) + bytes(chip_bytes + 1)
        with pytest.raises(ProtocolError, match="whole number of bytes"):
            wire.decode_chips(payload)

    @given(pulses=st.integers(1, 50), at=st.integers(0, 49), byte=st.integers(12, 255))
    def test_quantum_beyond_class_2_rejected(self, pulses, at, byte):
        payload = bytearray(wire.encode_quantum(0, np.zeros(pulses)))
        payload[12 + at % pulses] = byte
        with pytest.raises(ProtocolError):
            wire.decode_quantum(bytes(payload))

    @given(obj=st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=5))
    def test_report(self, obj):
        payload = wire.encode_report(obj)
        assert wire.decode_report(payload) == obj
        only_whole_payload_decodes(wire.decode_report, payload)


OUT_U32 = st.one_of(st.integers(max_value=-1), st.integers(min_value=1 << 32))
OUT_U64 = st.one_of(st.integers(max_value=-1), st.integers(min_value=1 << 64))
NOT_A_FLAG = st.one_of(
    st.integers().filter(lambda v: v not in (0, 1)),
    st.floats(allow_nan=False).filter(lambda v: v not in (0.0, 1.0)),
)


class TestEncoderRejections:
    """Encoders raise ValueError for a value their layout cannot carry,
    rather than raising struct.error or sending another value."""

    @given(frame_id=OUT_U32)
    def test_frame_id_outside_u32(self, frame_id):
        with pytest.raises(ValueError):
            wire.encode_frame_meta(frame_id)

    @given(msg_type=st.one_of(st.integers(max_value=-1), st.integers(min_value=256)))
    def test_message_type_outside_u8(self, msg_type):
        sender, _ = wire.LoopbackTransport.pair()
        with pytest.raises(ValueError):
            sender.send(msg_type, b"")

    @pytest.mark.parametrize(
        "encode",
        [
            lambda start: wire.encode_sift_map(start, np.ones(3, bool)),
            lambda start: wire.encode_quantum(start, np.zeros(3)),
            lambda start: wire.encode_basis_announce(start, 4, np.array([1]), np.array([1])),
            lambda start: wire.encode_chips(start, np.zeros(3, np.uint8)),
        ],
        ids=["sift_map", "quantum", "basis_announce", "chips"],
    )
    @given(start=OUT_U64)
    def test_start_outside_u64(self, encode, start):
        with pytest.raises(ValueError):
            encode(start)

    @pytest.mark.parametrize(
        "encode",
        [
            wire.encode_sample_disclose,
            lambda flags: wire.encode_sift_map(0, flags),
            lambda flags: wire.encode_basis_announce(0, len(flags), np.arange(len(flags)), flags),
        ],
        ids=["sample_disclose", "sift_map", "basis_announce"],
    )
    @given(flags=BITS, value=NOT_A_FLAG, data=st.data())
    def test_flag_other_than_0_or_1(self, encode, flags, value, data):
        # one bad flag among 0/1 ones, as a list and as an array of its type
        bad = flags.tolist()
        bad.insert(data.draw(st.integers(0, len(bad))), value)
        with pytest.raises(ValueError):
            encode(bad)
        with pytest.raises(ValueError):
            encode(np.array(bad))

    def test_disclosed_bits_are_not_folded_to_1(self):
        # 2, 3 and 1 once round-tripped as 1, 1, 1
        with pytest.raises(ValueError):
            wire.encode_sample_disclose([2, 3, 1])


class TestPadBitRejections:
    """Decoders raise ProtocolError for a set bit in the zero padding after
    a packed bit field, which they would otherwise decode as if clear."""

    @pytest.mark.parametrize(
        "encode,decode,last",
        [
            # payload of n packed bits; offset of the field's last byte
            (
                lambda b: wire.encode_basis_announce(0, len(b), np.arange(len(b)), b),
                wire.decode_basis_announce,
                lambda b: -1,
            ),
            (wire.encode_sample_disclose, wire.decode_sample_disclose, lambda b: -1),
            (lambda b: wire.encode_sift_map(0, b), wire.decode_sift_map, lambda b: -1),
        ],
        ids=["basis_announce_bases", "sample_disclose", "sift_map"],
    )
    @given(bits=BITS.filter(lambda b: len(b) % 8), data=st.data())
    def test_set_pad_bit_rejected(self, encode, decode, last, bits, data):
        payload = bytearray(encode(bits))
        payload[last(bits)] |= 1 << data.draw(st.integers(0, 7 - len(bits) % 8))
        with pytest.raises(ProtocolError, match="pad bit"):
            decode(bytes(payload))


class TestQuantumByteRejections:
    """decode_quantum raises ProtocolError for a byte with one of bits 0, 1
    or 4-7 set, which the layout keeps 0, as for a class above 2."""

    @pytest.mark.parametrize(
        "byte", [0b0001, 0b0101, 0b1001, 0b0010, 0b0110, 0b1011, 0b0011, 0b1010, 0x10, 0x80, 0xF1]
    )
    def test_reserved_bit_rejected(self, byte):
        payload = bytearray(wire.encode_quantum(0, np.zeros(9)))
        payload[12 + 4] = byte
        with pytest.raises(ProtocolError, match="one of bits 0, 1 or 4-7"):
            wire.decode_quantum(bytes(payload))

    @given(
        pulses=st.integers(1, 50),
        at=st.integers(0, 49),
        byte=st.integers(0, 255).filter(lambda b: b & 0xF3),
    )
    def test_any_reserved_bit_rejected(self, pulses, at, byte):
        payload = bytearray(wire.encode_quantum(0, np.zeros(pulses)))
        payload[12 + at % pulses] = byte
        with pytest.raises(ProtocolError):
            wire.decode_quantum(bytes(payload))

    def test_every_valid_byte_decodes(self):
        valid = [cls * 4 for cls in range(3)]
        payload = struct.pack("!QI", 0, len(valid)) + bytes(valid)
        _, classes = wire.decode_quantum(payload)
        assert classes.tolist() == [0, 1, 2]


def index_list(indices) -> bytes:
    """An index list packed by hand, for indices the encoders refuse: u32
    count, then big-endian u32 indices."""
    return np.append(len(indices), indices).astype(">u4").tobytes()


ANNOUNCED = 1000  # pulses in the range of the BASIS_ANNOUNCE cases below
ASCENDING = st.sets(st.integers(0, ANNOUNCED - 1), min_size=2, max_size=60).map(sorted)


def broken(indices: list, fault: str, limit: int, data) -> list:
    """indices with one fault: an index repeated, two neighbours swapped so
    that one falls, or one at or past limit appended."""
    at = data.draw(st.integers(0, len(indices) - 2))
    if fault == "repeat":
        return indices[: at + 1] + indices[at:]
    if fault == "fall":
        return indices[:at] + [indices[at + 1], indices[at]] + indices[at + 2 :]
    return indices + [data.draw(st.integers(limit, (1 << 32) - 1))]


class TestIndexLists:
    """BASIS_ANNOUNCE's click positions and SAMPLE_REQUEST's offsets are
    one index list, and one codec writes and reads both: its encoder raises
    ValueError, and its decoder ProtocolError, unless the indices strictly
    ascend within their range, so a position past the announced pulses
    never reaches the sender's classes[hit]."""

    @pytest.mark.parametrize("fault", ["repeat", "fall", "past"])
    @given(indices=ASCENDING, data=st.data())
    def test_basis_announce_positions_must_ascend_within_the_range(self, fault, indices, data):
        bad = broken(indices, fault, ANNOUNCED, data)
        bases = np.zeros(len(bad), np.uint8)
        with pytest.raises(ValueError):
            wire.encode_basis_announce(0, ANNOUNCED, np.array(bad), bases)
        payload = struct.pack("!QI", 0, ANNOUNCED) + index_list(bad) + np.packbits(bases).tobytes()
        with pytest.raises(ProtocolError, match="do not strictly ascend"):
            wire.decode_basis_announce(payload)

    @pytest.mark.parametrize("fault", ["repeat", "fall"])
    @given(indices=ASCENDING, data=st.data())
    def test_sample_request_offsets_must_ascend(self, fault, indices, data):
        # an offset past u32 is test_sample_request_needs_u32_offsets
        bad = broken(indices, fault, 1 << 32, data)
        with pytest.raises(ValueError):
            wire.encode_sample_request(bad)
        with pytest.raises(ProtocolError, match="do not strictly ascend"):
            wire.decode_sample_request(index_list(bad))

    @given(start=U64, clicks=BITS)
    def test_one_layout(self, start, clicks):
        # the announce's positions are written as the request's offsets
        hit = np.flatnonzero(clicks)
        payload = wire.encode_basis_announce(start, len(clicks), hit, np.zeros(len(hit)))
        assert payload[12 : 16 + 4 * len(hit)] == wire.encode_sample_request(hit)

    def test_max_clicks_is_the_most_that_fit(self):
        def size(k):
            return 16 + 4 * k + (k + 7) // 8

        assert size(wire.MAX_CLICKS) <= wire.MAX_PAYLOAD < size(wire.MAX_CLICKS + 1)

    def test_measured_link_frame(self):
        # 2.11 M pulses and about 860 clicks, as a measured-link frame
        n = 2_110_000
        hit = np.unique(np.random.default_rng(3).integers(0, n, 860))
        payload = wire.encode_basis_announce(0, n, hit, hit & 1)
        assert len(payload) == 16 + 4 * len(hit) + (len(hit) + 7) // 8
        _, _, hit2, bases2 = wire.decode_basis_announce(payload)
        assert np.array_equal(hit2, hit) and np.array_equal(bases2, hit & 1)


class TestLoopbackTransport:
    """LoopbackTransport.pair(): two ends of one in-memory channel."""

    def test_send_recv(self):
        a, b = wire.LoopbackTransport.pair()
        a.send(wire.ABORT, b"reason")
        msg, payload = b.recv()
        assert msg == wire.ABORT and payload == b"reason"

    def test_fifo_in_each_direction(self):
        a, b = wire.LoopbackTransport.pair()
        for i in range(3):
            a.send(wire.FRAME_META, wire.encode_frame_meta(i))
            b.send(wire.REPORT, wire.encode_report({"frame_id": i}))
        assert [wire.decode_frame_meta(b.recv()[1]) for _ in range(3)] == [0, 1, 2]
        assert [wire.decode_report(a.recv()[1])["frame_id"] for _ in range(3)] == [0, 1, 2]

    def test_receiver_gets_an_immutable_copy(self):
        a, b = wire.LoopbackTransport.pair()
        payload = wire.encode_quantum(0, np.array([0, 1, 2]))  # a bytearray
        a.send(wire.QUANTUM, payload)
        sent = bytes(payload)
        payload[12] = 0xFF  # a later write to the sender's buffer
        msg, received = b.recv()
        assert msg == wire.QUANTUM and type(received) is bytes and received == sent

    def test_oversized_payload_rejected(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_PAYLOAD", 64)  # not 64 MiB, to keep the test small
        a, b = wire.LoopbackTransport.pair()
        with pytest.raises(ValueError):
            a.send(wire.QUANTUM, bytes(65))
        a.send(wire.QUANTUM, bytes(64))  # the largest that fits
        assert len(b.recv()[1]) == 64

    def test_recv_with_nothing_queued_raises(self):
        a, b = wire.LoopbackTransport.pair()
        a.send(wire.ABORT, b"")
        with pytest.raises(ProtocolError):
            a.recv()  # the message is queued for the other end
        b.recv()
        with pytest.raises(ProtocolError):
            b.recv()
