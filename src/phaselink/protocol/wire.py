"""Classical-channel wire protocol and its in-memory transport.

A message is a type and a payload. HEADER (a u32 payload length and a u8
type, 5 bytes) only sizes each message for benchmarks/tracing.py's byte count.

Message types (the classical channel is assumed authenticated and
reliable; no cryptography is applied here):

    0x01 BASIS_ANNOUNCE   receiver's clicks in a pulse range and its
                          bases at them: u64 start, u32 pulse count n,
                          the index list of the k clicked pulses'
                          positions in the range, then their packed bases
                          (0=Z, 1=X) in pulse order: 16 + 4k + ceil(k/8)
                          bytes
    0x02 SAMPLE_REQUEST   the index list of the announced clicks to
                          disclose (0 is the range's first clicked
                          pulse): 4 + 4k bytes
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
                          and one max over the bytes): 12 + n bytes. The
                          class sits in bits 2-3 because the benchmark's
                          sender probe (benchmarks/workloads.py) reads it
                          there, so moving it starts in benchmarks/
    0x11 CHIPS            u64 start, u32 count n, then the frame's n
                          chips packed little-endian as framing.preprocess
                          gives them (chip i at bit i % 8 of byte i // 8;
                          n is a multiple of 8): 12 + n/8 bytes. Chip k
                          rides on the k-th signal pulse of QUANTUM

An index list is u32 k, then k big-endian u32 indices that strictly
ascend; BASIS_ANNOUNCE's lie below its pulse count n.

QUANTUM and CHIPS are the simulation's stand-in for the photon stream; a
real deployment has no such classical messages. The sender's basis, which
sets the pulse phase with the chip (Z: 0 -> 0, 1 -> pi; X: 0 -> pi/2,
1 -> 3pi/2), is not sent: the receiver's detection does not read it.

Per frame the sender sends FRAME_META (4 bytes), QUANTUM (12 + n_pulses),
CHIPS (12 + n_chips/8), SAMPLE_REQUEST and SIFT_MAP, and the receiver
BASIS_ANNOUNCE, SAMPLE_DISCLOSE and REPORT. Only QUANTUM and CHIPS grow
with the pulses, BASIS_ANNOUNCE with the clicks (4.125 bytes each), the
rest with the clicks or fewer. A measured-link frame (2.11 M pulses,
1.92 M chips, under 1,000 clicks) is about 2.11 MB of QUANTUM, 240 kB of
CHIPS and 3.5 kB of BASIS_ANNOUNCE, a desk frame (70.4 k pulses, 33.8 k
clicks) 140 kB of BASIS_ANNOUNCE. Under
MAX_PAYLOAD a BASIS_ANNOUNCE holds at most MAX_CLICKS (16,268,811) clicks;
config rejects a scenario whose frames could hold more pulses.

Encoders raise ValueError for a header integer outside its field (u32
count or id, u64 start), for an index list that does not strictly ascend
within its range, and for a per-click flag (a basis, a disclosed bit, a
kept flag) other than 0 or 1, rather than wrapping it.
Decoders of payloads with a declared count or a fixed layout raise
ProtocolError unless the payload is exactly as long as that requires, its
index list strictly ascends within its range, and the pad bits after each
packed bit field (the bases, the disclosed bits, the kept flags) are zero;
the REPORT decoder raises it unless the payload is a UTF-8 JSON object.

The two endpoints run in one process and pass their messages in memory
(LoopbackTransport): each end queues what it sends for the other, as
bytes, and receives in the order sent. A message its header could not
carry, of a type outside u8 or a payload over MAX_PAYLOAD, is refused.
"""

from __future__ import annotations

import json
import struct
from collections import deque

import numpy as np

from ..errors import ProtocolError

HEADER = struct.Struct("!IB")
MAX_PAYLOAD = 64 * 1024 * 1024
MAX_CLICKS = (MAX_PAYLOAD - 16) * 8 // 33  # the largest k whose BASIS_ANNOUNCE fits

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


# --- payload codecs -------------------------------------------------------

def _pack(fmt: str, *fields) -> bytes:
    """struct.pack of header integers; ValueError for one out of its range."""
    try:
        return struct.pack(fmt, *fields)
    except struct.error as exc:
        raise ValueError(f"header fields {fields} do not fit {fmt!r}: {exc}") from exc


def _pack_flags(flags) -> bytes:
    """Packed per-click flags; ValueError for a value other than 0 or 1."""
    flags = np.asarray(flags)
    if flags.dtype.kind in "iu":  # a min and a max, 5x cheaper than two compares
        bad = flags.size and (flags.min() < 0 or flags.max() > 1)
    else:  # bool is 0/1 by type
        bad = flags.dtype != bool and np.any((flags != 0) & (flags != 1))
    if bad:
        raise ValueError("flags must be 0 or 1")
    return np.packbits(flags.astype(np.uint8)).tobytes()


def _unpack_bits(data: bytes, n: int) -> np.ndarray:
    """The first n bits of data, which holds exactly ceil(n/8) bytes;
    ProtocolError if a pad bit past them is set."""
    if n % 8 and data[-1] & (0xFF >> n % 8):
        raise ProtocolError(f"packed {n}-bit field has a set pad bit")
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=n)


def _index_list(indices, limit: int) -> bytes:
    """u32 count k, then the k indices as big-endian u32; ValueError unless
    they strictly ascend within [0, limit)."""
    arr = np.asarray(indices)
    if len(arr) and (arr[0] < 0 or arr[-1] >= limit or np.any(arr[1:] <= arr[:-1])):
        raise ValueError(f"indices must strictly ascend within [0, {limit})")
    return _pack("!I", len(arr)) + arr.astype(">u4").tobytes()


def _read_indices(payload: bytes, offset: int, k: int, limit: int) -> np.ndarray:
    """The k indices of an index list whose first one is at offset, as
    int64; ProtocolError unless they strictly ascend within [0, limit)."""
    arr = np.frombuffer(payload, dtype=">u4", count=k, offset=offset).astype(np.int64)
    if k and (arr[-1] >= limit or np.any(arr[1:] <= arr[:-1])):
        raise ProtocolError(f"indices do not strictly ascend within [0, {limit})")
    return arr


def _payload_head(payload: bytes, head: str, body_bytes) -> tuple:
    """Header fields of a payload whose body is body_bytes(n) bytes long,
    n being the header's last field."""
    size = struct.calcsize(head)
    fields = struct.unpack_from(head, payload) if len(payload) >= size else None
    if fields is None or len(payload) != size + body_bytes(fields[-1]):
        raise ProtocolError(f"{len(payload)}-byte payload does not match its declared count")
    return fields


def encode_basis_announce(start: int, n: int, hit: np.ndarray, bases: np.ndarray) -> bytes:
    """hit holds the ascending positions of the clicked pulses among the n
    of the range, bases one basis per click, in pulse order."""
    if len(bases) != len(hit):
        raise ValueError("need one basis per click")
    return _pack("!QI", start, n) + _index_list(hit, n) + _pack_flags(bases)


def decode_basis_announce(payload: bytes) -> tuple:
    """(start, n, ascending click positions, bases of the clicked pulses)."""
    start, n, k = _payload_head(payload, "!QII", lambda k: 4 * k + (k + 7) // 8)
    hit = _read_indices(payload, 16, k, n)
    return start, n, hit, _unpack_bits(payload[16 + 4 * k :], k)


def encode_sample_request(offsets: np.ndarray) -> bytes:
    return _index_list(offsets, 1 << 32)


def decode_sample_request(payload: bytes) -> np.ndarray:
    (k,) = _payload_head(payload, "!I", lambda k: 4 * k)
    return _read_indices(payload, 4, k, 1 << 32)


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


class LoopbackTransport:
    """One end of an in-memory channel between two endpoints of one process."""

    def __init__(self, inbox: deque, outbox: deque):
        self._inbox, self._outbox = inbox, outbox

    @classmethod
    def pair(cls) -> tuple:
        """Two ends, each receiving what the other sends."""
        a, b = deque(), deque()
        return cls(a, b), cls(b, a)

    def send(self, msg_type: int, payload: bytes) -> None:
        """Queue the message for the peer, the payload copied into bytes;
        ValueError for a type outside u8 or a payload over MAX_PAYLOAD."""
        if not 0 <= msg_type <= 0xFF or len(payload) > MAX_PAYLOAD:
            raise ValueError(f"no header for type {msg_type} and {len(payload)} payload bytes")
        self._outbox.append((msg_type, bytes(payload)))

    def recv(self) -> tuple:
        """The oldest (type, payload) queued for this end; ProtocolError if none is."""
        if not self._inbox:
            raise ProtocolError("no message to receive")
        return self._inbox.popleft()
