"""Classical-channel wire protocol and its socket transport.

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
    0x05 FRAME_META       u32 frame_id; opens each frame. The frame count
                          and pipeline ratios are scenario settings both
                          endpoints hold, so they are not sent
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
ProtocolError unless the payload is exactly as long as that requires;
the REPORT decoder raises it unless the payload is a UTF-8 JSON object.

Messages travel over a connected stream socket (SocketTransport; pair()
joins two endpoints in one process with a socketpair). Every send and
receive waits at most TIMEOUT_S; a timeout, a socket error or a closed
peer raises TransportClosed. Each endpoint closes only its own end, so a
message already sent, such as a final ABORT, stays readable by the peer.
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

MESSAGE_NAMES = {
    BASIS_ANNOUNCE: "BASIS_ANNOUNCE", SAMPLE_REQUEST: "SAMPLE_REQUEST",
    SAMPLE_DISCLOSE: "SAMPLE_DISCLOSE", SIFT_MAP: "SIFT_MAP", FRAME_META: "FRAME_META",
    ABORT: "ABORT", REPORT: "REPORT", QUANTUM: "QUANTUM",
}


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


def encode_frame_meta(frame_id: int) -> bytes:
    return struct.pack("!I", frame_id)


def decode_frame_meta(payload: bytes) -> int:
    """The frame id."""
    (frame_id,) = _payload_head(payload, "!I", lambda frame_id: 0)  # no body after it
    return frame_id


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
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"REPORT is not UTF-8 JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("REPORT is not a JSON object")
    return obj


# --- transport -----------------------------------------------------------

TIMEOUT_S = 60.0  # longest wait for one send or receive; a silent peer is gone


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
            self._sock.sendall(encode_frame(msg_type, payload))
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
