"""Classical-channel wire protocol and its socket transport.

Frame layout:

    [4 bytes - payload length, big-endian]
    [1 byte  - message type]
    [N bytes - payload]

Message types (the classical channel is assumed authenticated and
reliable; no cryptography is applied here):

    0x01 BASIS_ANNOUNCE   receiver's clicks in a pulse range and its
                          bases at the clicked pulses: u64 start, u32
                          count n, n packed click bits (MSB-first), then
                          the packed bases (0=Z, 1=X) of the k clicked
                          pulses in pulse order: 12 + ceil(n/8) +
                          ceil(k/8) bytes. The codecs take and give the
                          click positions; this bitmap is the only
                          per-pulse click array in the package
    0x02 SAMPLE_REQUEST   u32 n, then n x u32 indices into the announced
                          clicks (0 is the range's first clicked pulse)
    0x03 SAMPLE_DISCLOSE  u32 n, packed measured bits in request order
    0x04 SIFT_MAP         u64 start, u32 count k, then k packed
                          kept-for-decode flags, one per announced click
                          in pulse order: 12 + ceil(k/8) bytes
    0x05 FRAME_META       u32 frame_id; opens each frame. The frame count
                          and pipeline ratios are scenario settings both
                          endpoints hold, so they are not sent
    0x06 ABORT            UTF-8 reason
    0x07 REPORT           UTF-8 JSON object
    0x10 QUANTUM          u64 start, u32 count n, then one byte per pulse,
                          its intensity class 0-2 in bits 2-3 and every
                          other bit zero (a byte with another bit set, or
                          above class 2, is rejected; the check is one OR
                          and one max over the bytes): 12 + n bytes. Bit 0
                          held the pulse's chip before CHIPS carried the
                          chips; the class stays in bits 2-3 because the
                          benchmark's sender probe (benchmarks/workloads.py)
                          reads it there, so moving it starts in benchmarks/
    0x11 CHIPS            u64 start, u32 count n, then the frame's n
                          chips packed little-endian as framing.preprocess
                          gives them (chip i at bit i % 8 of byte i // 8;
                          n is a multiple of 8): 12 + n/8 bytes. Chip k
                          rides on the k-th signal pulse of QUANTUM

QUANTUM and CHIPS are the simulation's stand-in for the photon stream; a
real deployment has no such classical messages. The sender's basis, which
sets the pulse phase with the chip (Z: 0 -> 0, 1 -> pi; X: 0 -> pi/2,
1 -> 3pi/2), is not sent: the receiver's detection does not read it.

Per frame the sender sends FRAME_META (4 bytes), QUANTUM (12 + n_pulses),
CHIPS (12 + n_chips/8), SAMPLE_REQUEST and SIFT_MAP, and the receiver
BASIS_ANNOUNCE, SAMPLE_DISCLOSE and REPORT, each behind a 5-byte header.
Only QUANTUM, CHIPS and BASIS_ANNOUNCE's click bitmap grow with the pulses;
the rest grow with the clicks. A measured-link frame (2.11 M pulses,
1.92 M chips, under 1,000 clicks) is about 2.11 MB of QUANTUM, 240 kB of
CHIPS and 264 kB of click bitmap.

Encoders raise ValueError for a header integer outside its field (u8
type, u32 count or id, u64 start) and for a per-click flag (a basis, a
disclosed bit, a kept flag) other than 0 or 1, rather than wrapping it.
Decoders of payloads with a declared count or a fixed layout raise
ProtocolError unless the payload is exactly as long as that requires (for
BASIS_ANNOUNCE, the count and the number of set click flags), and unless
the pad bits after each packed bit field (the click bitmap, the bases,
the disclosed bits, the kept flags) are zero; the REPORT decoder raises
it unless the payload is a UTF-8 JSON object. The BASIS_ANNOUNCE decoder
unpacks the whole click bitmap when at least one of 8 bytes holds a
click, as on a desk frame, and otherwise only its nonzero bytes, as on a
measured-link frame. The nonzero-byte path is about 4x faster than the
whole unpack on a measured-link bitmap and about 10x slower on a desk one,
so each kind of bitmap takes its own path, as rng._lanes_at reads dense
and sparse positions.

Messages travel over a connected stream socket (SocketTransport; pair()
joins two endpoints in one process with a socketpair). Every send and
receive waits at most TIMEOUT_S; a timeout, a socket error or a closed
peer raises TransportClosed. Each endpoint closes only its own end, so a
message already sent, such as a final ABORT, stays readable by the peer.
A payload under SEND_COPY_LIMIT is sent in one call behind its header; a
larger one, such as a measured-link QUANTUM (which encode_quantum writes
into one buffer with its head), is sent as it is after the header, not
copied behind it.
"""

from __future__ import annotations

import json
import socket
import struct

import numpy as np

from ..errors import ProtocolError, TransportClosed

HEADER = struct.Struct("!IB")
MAX_PAYLOAD = 64 * 1024 * 1024

BASIS_ANNOUNCE = 0x01
SAMPLE_REQUEST = 0x02
SAMPLE_DISCLOSE = 0x03
SIFT_MAP = 0x04
FRAME_META = 0x05
ABORT = 0x06
REPORT = 0x07
QUANTUM = 0x10
CHIPS = 0x11

MESSAGE_NAMES = {
    BASIS_ANNOUNCE: "BASIS_ANNOUNCE", SAMPLE_REQUEST: "SAMPLE_REQUEST",
    SAMPLE_DISCLOSE: "SAMPLE_DISCLOSE", SIFT_MAP: "SIFT_MAP", FRAME_META: "FRAME_META",
    ABORT: "ABORT", REPORT: "REPORT", QUANTUM: "QUANTUM", CHIPS: "CHIPS",
}


def _frame_header(msg_type: int, length: int) -> bytes:
    if length > MAX_PAYLOAD:
        raise ValueError(f"payload too large: {length}")
    return _pack(HEADER.format, length, msg_type)


def encode_frame(msg_type: int, payload: bytes) -> bytes:
    return _frame_header(msg_type, len(payload)) + payload


def decode_header(header: bytes) -> tuple:
    length, msg_type = HEADER.unpack(header)
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"declared payload too large: {length}")
    return length, msg_type


# --- payload codecs -------------------------------------------------------

def _pack(fmt: str, *fields) -> bytes:
    """struct.pack of header integers; ValueError for one out of its range."""
    try:
        return struct.pack(fmt, *fields)
    except struct.error as exc:
        raise ValueError(f"header fields {fields} do not fit {fmt!r}: {exc}") from exc


def _pack_bits(bits: np.ndarray) -> bytes:
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def _pack_flags(flags) -> bytes:
    """Packed per-click flags; ValueError for a value other than 0 or 1."""
    flags = np.asarray(flags)
    if flags.dtype.kind in "iu":  # a min and a max, 5x cheaper than two compares
        bad = flags.size and (flags.min() < 0 or flags.max() > 1)
    else:  # bool is 0/1 by type
        bad = flags.dtype != bool and np.any((flags != 0) & (flags != 1))
    if bad:
        raise ValueError("flags must be 0 or 1")
    return _pack_bits(flags)


def _check_pad(data, n: int) -> None:
    """ProtocolError if a pad bit of data, a packed n-bit field of exactly
    ceil(n/8) bytes, is set."""
    if n % 8 and data[-1] & (0xFF >> n % 8):
        raise ProtocolError(f"packed {n}-bit field has a set pad bit")


def _unpack_bits(data: bytes, n: int) -> np.ndarray:
    """The first n bits of data, which holds exactly ceil(n/8) bytes;
    ProtocolError if a pad bit past them is set."""
    _check_pad(data, n)
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=n)


def _mismatch(payload: bytes) -> ProtocolError:
    return ProtocolError(f"{len(payload)}-byte payload does not match its declared count")


def _payload_head(payload: bytes, head: str, body_bytes) -> tuple:
    """Header fields of a payload whose body is body_bytes(n) bytes long,
    n being the header's last field."""
    size = struct.calcsize(head)
    fields = struct.unpack_from(head, payload) if len(payload) >= size else None
    if fields is None or len(payload) != size + body_bytes(fields[-1]):
        raise _mismatch(payload)
    return fields


def encode_basis_announce(start: int, n: int, hit: np.ndarray, bases: np.ndarray) -> bytes:
    """hit holds the ascending positions of the clicked pulses among the n
    of the range, bases one basis per click, in pulse order."""
    if len(bases) != len(hit):
        raise ValueError("need one basis per click")
    if len(hit) and (hit[0] < 0 or hit[-1] >= n or np.any(hit[1:] <= hit[:-1])):
        raise ValueError("click positions must ascend within the range")
    bitmap = np.zeros((n + 7) // 8, dtype=np.uint8)
    # each click sets its own bit, so adding the bits of a byte ORs them
    np.add.at(bitmap, hit >> 3, np.right_shift(np.uint8(0x80), (hit & 7).astype(np.uint8)))
    return _pack("!QI", start, n) + bitmap.tobytes() + _pack_flags(bases)


def decode_basis_announce(payload: bytes) -> tuple:
    """(start, n, ascending click positions, bases of the clicked pulses)."""
    if len(payload) < 12:
        raise _mismatch(payload)
    start, n = struct.unpack_from("!QI", payload)
    end = 12 + (n + 7) // 8
    if len(payload) < end:
        raise _mismatch(payload)
    bitmap = np.frombuffer(payload, dtype=np.uint8, count=end - 12, offset=12)
    _check_pad(bitmap, n)
    if 8 * np.count_nonzero(bitmap) > len(bitmap):
        # dense: flatnonzero on the bool view, ~8x faster than on uint8 bits
        hit = np.flatnonzero(np.unpackbits(bitmap, count=n).view(bool))
    else:  # sparse: unpack only the nonzero bytes, found on a bool view too
        at = np.flatnonzero(bitmap != 0)
        ones = np.unpackbits(bitmap[at][:, None], axis=1).view(bool)
        hit = (8 * at[:, None] + np.arange(8))[ones]
    if len(payload) != end + (len(hit) + 7) // 8:
        raise _mismatch(payload)
    return start, n, hit, _unpack_bits(payload[end:], len(hit))


def encode_sample_request(offsets: np.ndarray) -> bytes:
    arr = np.asarray(offsets)
    if len(arr) and (arr.min() < 0 or arr.max() >= 1 << 32):
        raise ValueError("sample offsets must lie in [0, 2**32)")
    return _pack("!I", len(arr)) + arr.astype(">u4").tobytes()


def decode_sample_request(payload: bytes) -> np.ndarray:
    (n,) = _payload_head(payload, "!I", lambda n: 4 * n)
    return np.frombuffer(payload, dtype=">u4", count=n, offset=4).astype(np.int64)


def encode_sample_disclose(bits: np.ndarray) -> bytes:
    return _pack("!I", len(bits)) + _pack_flags(bits)


def decode_sample_disclose(payload: bytes) -> np.ndarray:
    (n,) = _payload_head(payload, "!I", lambda n: (n + 7) // 8)
    return _unpack_bits(payload[4:], n)


def encode_sift_map(start: int, kept: np.ndarray) -> bytes:
    return _pack("!QI", start, len(kept)) + _pack_flags(kept)


def decode_sift_map(payload: bytes) -> tuple:
    start, n = _payload_head(payload, "!QI", lambda n: (n + 7) // 8)
    return start, _unpack_bits(payload[12:], n).astype(bool)


def encode_frame_meta(frame_id: int) -> bytes:
    return _pack("!I", frame_id)


def decode_frame_meta(payload: bytes) -> int:
    """The frame id."""
    (frame_id,) = _payload_head(payload, "!I", lambda frame_id: 0)  # no body after it
    return frame_id


def encode_quantum(start: int, classes: np.ndarray) -> bytearray:
    """The payload in one buffer: the head, then each pulse's byte written
    in place behind it; the per-pulse bytes are not scanned."""
    payload = bytearray(12 + len(classes))
    payload[:12] = _pack("!QI", start, len(classes))
    body = np.frombuffer(payload, dtype=np.uint8, offset=12)
    np.multiply(np.asarray(classes, dtype=np.uint8), 4, out=body)  # numpy has no fast uint8 <<
    return payload


def decode_quantum(payload: bytes) -> tuple:
    """(start, classes)."""
    start, n = _payload_head(payload, "!QI", lambda n: n)
    body = np.frombuffer(payload, dtype=np.uint8, count=n, offset=12)
    if n and np.bitwise_or.reduce(body) & 0xF3:
        raise ProtocolError("QUANTUM byte with one of bits 0, 1 or 4-7 set")
    if n and body.max() >= 3 << 2:
        raise ProtocolError("QUANTUM byte beyond intensity class 2")
    return start, body >> 2


def encode_chips(start: int, chips: np.ndarray) -> bytes:
    """chips: uint8, 8 chips per byte, packed little-endian."""
    return _pack("!QI", start, 8 * len(chips)) + np.asarray(chips, dtype=np.uint8).tobytes()


def decode_chips(payload: bytes) -> tuple:
    """(start, n, chips): chips is the packed bytes as sent, a view of
    payload, so a reader takes only the chips it needs."""
    start, n = _payload_head(payload, "!QI", lambda n: (n + 7) // 8)
    if n % 8:
        raise ProtocolError(f"CHIPS count {n} is not a whole number of bytes")
    return start, n, np.frombuffer(payload, dtype=np.uint8, offset=12)


def encode_report(obj: dict) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def decode_report(payload: bytes) -> dict:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"REPORT is not UTF-8 JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("REPORT is not a JSON object")
    return obj


# --- transport -----------------------------------------------------------

TIMEOUT_S = 60.0  # longest wait for one send or receive; a silent peer is gone
SEND_COPY_LIMIT = 1 << 20  # a smaller payload is copied behind its header and sent in one call


class SocketTransport:
    """Transport over a connected stream socket.

    A send or receive that waits longer than TIMEOUT_S raises
    TransportClosed, as does any socket error or a peer that closed.
    """

    def __init__(self, sock: socket.socket):
        sock.settimeout(TIMEOUT_S)
        self._sock = sock

    @classmethod
    def pair(cls) -> tuple:
        """Two endpoints joined by a socketpair, for one process."""
        a, b = socket.socketpair()
        return cls(a), cls(b)

    def send(self, msg_type: int, payload: bytes) -> None:
        try:
            if len(payload) < SEND_COPY_LIMIT:
                self._sock.sendall(encode_frame(msg_type, payload))
            else:  # sent as it is behind its header, not copied behind it
                self._sock.sendall(_frame_header(msg_type, len(payload)))
                self._sock.sendall(payload)
        except OSError as exc:  # includes the timeout
            raise TransportClosed(str(exc)) from exc

    def _read_exact(self, n: int) -> bytearray:
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        while got < n:
            try:
                chunk = self._sock.recv_into(view[got:])
            except OSError as exc:  # includes the timeout
                raise TransportClosed(str(exc)) from exc
            if not chunk:
                raise TransportClosed("connection closed")
            got += chunk
        return buf

    def recv(self) -> tuple:
        length, msg_type = decode_header(self._read_exact(HEADER.size))
        payload = self._read_exact(length) if length else b""
        return msg_type, payload

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


# Kept only for benchmarks/, which imports this name and whose tracer
# patches send and recv through it.
LoopbackTransport = SocketTransport
