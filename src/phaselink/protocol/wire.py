"""Classical-channel wire protocol and transports.

Frame layout:

    [4 bytes - payload length, big-endian]
    [1 byte  - message type]
    [N bytes - payload]

Message types (the classical channel is assumed authenticated and
reliable; no cryptography is applied here):

    0x01 BASIS_ANNOUNCE   receiver's per-gate bases and click flags for a
                          pulse range: u64 start, u32 count, packed basis
                          bits (MSB-first), packed click bits
    0x02 SAMPLE_REQUEST   u32 n, then n x u32 pulse offsets (relative to
                          the announced range start)
    0x03 SAMPLE_DISCLOSE  u32 n, packed measured bits in request order
    0x04 SIFT_MAP         u64 start, u32 count, packed kept-for-decode
                          bits over the range
    0x05 FRAME_META       u32 frame_id, u64 start_pulse, u32 n_pulses,
                          u32 n_chips, u16 fec_ratio, u16 spread_ratio,
                          u8 flags (bit 0: last frame)
    0x06 ABORT            UTF-8 reason
    0x07 REPORT           UTF-8 JSON object
    0x10 QUANTUM          u64 start, u32 count, one byte per pulse:
                          bit0 encoded bit, bit1 basis (0=Z, 1=X),
                          bits 2-3 intensity class. The pair maps onto
                          the pulse phase as Z: 0 -> 0, 1 -> pi and
                          X: 0 -> pi/2, 1 -> 3pi/2. Simulation stand-in
                          for the photon stream; a real deployment has no
                          such classical message.

Decoders of payloads with a declared count or a fixed layout raise
ProtocolError unless the payload is exactly as long as that requires.

The in-process loopback transport carries exactly the same bytes as the
socket transport.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from collections import deque

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

MESSAGE_NAMES = {
    BASIS_ANNOUNCE: "BASIS_ANNOUNCE", SAMPLE_REQUEST: "SAMPLE_REQUEST",
    SAMPLE_DISCLOSE: "SAMPLE_DISCLOSE", SIFT_MAP: "SIFT_MAP", FRAME_META: "FRAME_META",
    ABORT: "ABORT", REPORT: "REPORT", QUANTUM: "QUANTUM",
}

FLAG_LAST_FRAME = 0x01


def encode_frame(msg_type: int, payload: bytes) -> bytes:
    if len(payload) > MAX_PAYLOAD:
        raise ValueError(f"payload too large: {len(payload)}")
    return HEADER.pack(len(payload), msg_type) + payload


def decode_header(header: bytes) -> tuple:
    length, msg_type = HEADER.unpack(header)
    if length > MAX_PAYLOAD:
        raise ValueError(f"payload too large: {length}")
    return length, msg_type


# --- payload codecs -------------------------------------------------------

def _pack_bits(bits: np.ndarray) -> bytes:
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def _unpack_bits(data: bytes, n: int) -> np.ndarray:
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=n)


def _payload_head(payload: bytes, head: str, body_bytes) -> tuple:
    """Header fields of a payload whose body is body_bytes(n) bytes long,
    n being the header's last field."""
    size = struct.calcsize(head)
    fields = struct.unpack_from(head, payload) if len(payload) >= size else None
    if fields is None or len(payload) != size + body_bytes(fields[-1]):
        raise ProtocolError(f"{len(payload)}-byte payload does not match its declared count")
    return fields


def encode_basis_announce(start: int, bases: np.ndarray, clicks: np.ndarray) -> bytes:
    n = len(bases)
    if len(clicks) != n:
        raise ValueError("bases and clicks must have equal length")
    head = struct.pack("!QI", start, n)
    return head + _pack_bits(bases) + _pack_bits(clicks)


def decode_basis_announce(payload: bytes) -> tuple:
    start, n = _payload_head(payload, "!QI", lambda n: 2 * ((n + 7) // 8))
    nbytes = (n + 7) // 8
    bases = _unpack_bits(payload[12 : 12 + nbytes], n)
    clicks = _unpack_bits(payload[12 + nbytes :], n)
    return start, bases, clicks.astype(bool)


def encode_sample_request(offsets: np.ndarray) -> bytes:
    arr = np.asarray(offsets, dtype=">u4")
    return struct.pack("!I", len(arr)) + arr.tobytes()


def decode_sample_request(payload: bytes) -> np.ndarray:
    (n,) = _payload_head(payload, "!I", lambda n: 4 * n)
    return np.frombuffer(payload, dtype=">u4", count=n, offset=4).astype(np.int64)


def encode_sample_disclose(bits: np.ndarray) -> bytes:
    return struct.pack("!I", len(bits)) + _pack_bits(bits)


def decode_sample_disclose(payload: bytes) -> np.ndarray:
    (n,) = _payload_head(payload, "!I", lambda n: (n + 7) // 8)
    return _unpack_bits(payload[4:], n)


def encode_sift_map(start: int, kept: np.ndarray) -> bytes:
    return struct.pack("!QI", start, len(kept)) + _pack_bits(kept)


def decode_sift_map(payload: bytes) -> tuple:
    start, n = _payload_head(payload, "!QI", lambda n: (n + 7) // 8)
    return start, _unpack_bits(payload[12:], n).astype(bool)


_META = struct.Struct("!IQIIHHB")


def encode_frame_meta(
    frame_id: int,
    start_pulse: int,
    n_pulses: int,
    n_chips: int,
    fec_ratio: int,
    spread_ratio: int,
    last: bool,
) -> bytes:
    return _META.pack(
        frame_id,
        start_pulse,
        n_pulses,
        n_chips,
        fec_ratio,
        spread_ratio,
        FLAG_LAST_FRAME if last else 0,
    )


def decode_frame_meta(payload: bytes) -> dict:
    fields = _payload_head(payload, _META.format, lambda flags: 0)  # no body after the flags
    frame_id, start, n_pulses, n_chips, fec, spread, flags = fields
    return {
        "frame_id": frame_id,
        "start_pulse": start,
        "n_pulses": n_pulses,
        "n_chips": n_chips,
        "fec_ratio": fec,
        "spread_ratio": spread,
        "last": bool(flags & FLAG_LAST_FRAME),
    }


def encode_quantum(start: int, classes: np.ndarray, bases: np.ndarray, bits: np.ndarray) -> bytes:
    n = len(classes)
    packed = (
        np.asarray(bits, dtype=np.uint8)
        | (np.asarray(bases, dtype=np.uint8) << 1)
        | (np.asarray(classes, dtype=np.uint8) << 2)
    )
    return struct.pack("!QI", start, n) + packed.tobytes()


def decode_quantum(payload: bytes) -> tuple:
    start, n = _payload_head(payload, "!QI", lambda n: n)
    packed = np.frombuffer(payload, dtype=np.uint8, count=n, offset=12)
    bits = packed & 1
    bases = (packed >> 1) & 1
    classes = (packed >> 2) & 3
    return start, classes, bases, bits


def encode_report(obj: dict) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def decode_report(payload: bytes) -> dict:
    return json.loads(payload.decode("utf-8"))


# --- transports -----------------------------------------------------------

class _LoopbackBuffer:
    """Thread-safe byte FIFO shared by one direction of a loopback pair."""

    def __init__(self):
        self._chunks = deque()
        self._cond = threading.Condition()
        self._closed = False

    def write(self, data: bytes) -> None:
        with self._cond:
            if self._closed:
                raise TransportClosed("peer closed")
            self._chunks.append(data)
            self._cond.notify_all()

    def read_exact(self, n: int) -> bytes:
        out = bytearray()
        with self._cond:
            while len(out) < n:
                while not self._chunks:
                    if self._closed:
                        raise TransportClosed("transport closed")
                    self._cond.wait()
                chunk = self._chunks.popleft()
                need = n - len(out)
                out += chunk[:need]
                if len(chunk) > need:
                    self._chunks.appendleft(chunk[need:])
        return bytes(out)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class LoopbackTransport:
    """In-process transport; bytes on the buffers are identical to the
    socket wire encoding."""

    def __init__(self, inbox: _LoopbackBuffer, outbox: _LoopbackBuffer):
        self._inbox = inbox
        self._outbox = outbox

    @classmethod
    def pair(cls) -> tuple:
        a_to_b = _LoopbackBuffer()
        b_to_a = _LoopbackBuffer()
        return cls(b_to_a, a_to_b), cls(a_to_b, b_to_a)

    def send(self, msg_type: int, payload: bytes) -> None:
        self._outbox.write(encode_frame(msg_type, payload))

    def recv(self) -> tuple:
        header = self._inbox.read_exact(HEADER.size)
        length, msg_type = decode_header(header)
        payload = self._inbox.read_exact(length) if length else b""
        return msg_type, payload

    def close(self) -> None:
        self._outbox.close()
        self._inbox.close()


class SocketTransport:
    """Transport over a connected stream socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def send(self, msg_type: int, payload: bytes) -> None:
        try:
            self._sock.sendall(encode_frame(msg_type, payload))
        except OSError as exc:
            raise TransportClosed(str(exc)) from exc

    def _read_exact(self, n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            try:
                chunk = self._sock.recv(n - len(buf))
            except OSError as exc:
                raise TransportClosed(str(exc)) from exc
            if not chunk:
                raise TransportClosed("connection closed")
            buf.extend(chunk)
        return bytes(buf)

    def recv(self) -> tuple:
        length, msg_type = decode_header(self._read_exact(HEADER.size))
        payload = self._read_exact(length) if length else b""
        return msg_type, payload

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
