"""Codeword pipeline: FEC, spreading, one-time-pad, masking.

Forward direction (preprocess):

    payload bits -> repetition FEC (r copies per bit)
                 -> spreading (spread_ratio chips per coded bit)
                 -> XOR with one pool key bit per chip (one-time pad)
                 -> XOR with a keyed mask stream derived from mask_seed

The mask stream is a deterministic keyed bit stream (SplitMix64-derived,
keyed by mask_seed and frame_id). Because undetected chip positions never
leave the masked domain, their pad bits reveal nothing and can be recycled.

Decoding inverts the pipeline on the surviving chip positions only, with
a majority vote over the survivors of each coded-bit group (ties resolve
to 0). A group with zero survivors loses the frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FrameCorrupt, FrameLost, KeyPoolExhausted
from ..rng import random_bits, random_bits_at, split_seed

PAYLOAD_BYTES = 125
PAYLOAD_BITS = PAYLOAD_BYTES * 8


@dataclass(frozen=True)
class Frame:
    """One transmission frame: exactly 125 payload bytes plus pipeline
    ratios (both >= 1)."""

    payload: bytes
    frame_id: int
    fec_ratio: int = 1
    spread_ratio: int = 1

    def __post_init__(self):
        if len(self.payload) != PAYLOAD_BYTES:
            raise ValueError(f"payload must be exactly {PAYLOAD_BYTES} bytes")
        if self.fec_ratio < 1 or self.spread_ratio < 1:
            raise ValueError("fec_ratio and spread_ratio must be >= 1")

    @property
    def coded_bits(self) -> int:
        return PAYLOAD_BITS * self.fec_ratio

    @property
    def chip_count(self) -> int:
        return self.coded_bits * self.spread_ratio


def mask_stream(mask_seed: int, frame_id: int, n_chips: int) -> np.ndarray:
    """Keyed mask bits for one frame (uint8 0/1)."""
    return random_bits(split_seed(mask_seed, frame_id), n_chips)


def payload_to_bits(payload: bytes) -> np.ndarray:
    return np.unpackbits(np.frombuffer(payload, dtype=np.uint8))


def bits_to_payload(bits: np.ndarray) -> bytes:
    return np.packbits(bits.astype(np.uint8)).tobytes()


def preprocess(frame: Frame, key_bits: np.ndarray, mask_seed: int) -> np.ndarray:
    """Encode a frame into its on-air chip sequence (uint8 0/1 array).

    key_bits must supply at least chip_count pad bits; KeyPoolExhausted
    is raised otherwise.
    """
    n = frame.chip_count
    if len(key_bits) < n:
        raise KeyPoolExhausted(
            f"key stream supplies {len(key_bits)} bits, frame needs {n}"
        )
    bits = payload_to_bits(frame.payload)
    coded = np.repeat(bits, frame.fec_ratio)
    chips = np.repeat(coded, frame.spread_ratio)
    chips ^= key_bits[:n].astype(np.uint8)
    chips ^= mask_stream(mask_seed, frame.frame_id, n)
    return chips


def decode(
    chips: np.ndarray,
    sift_map: np.ndarray,
    key_bits: np.ndarray,
    mask_seed: int,
    frame_id: int,
    fec_ratio: int = 1,
    spread_ratio: int = 1,
) -> bytes:
    """Recover the payload from the surviving chips of one frame.

    sift_map is a boolean array over all chip positions. Only the positions
    it flags are read, in both chips and key_bits, and only their mask bits
    are drawn; the other positions may hold anything.
    Raises FrameLost when a coded-bit group has no survivor and
    FrameCorrupt when repetition decoding is ambiguous.
    """
    n = PAYLOAD_BITS * fec_ratio * spread_ratio
    if len(chips) != n or len(sift_map) != n:
        raise ValueError("chips and sift_map must cover every chip position")
    kept = np.flatnonzero(sift_map)
    values = chips[kept].astype(np.uint8) ^ key_bits[kept].astype(np.uint8)
    values ^= random_bits_at(split_seed(mask_seed, frame_id), kept)

    group = kept // spread_ratio
    n_groups = PAYLOAD_BITS * fec_ratio
    survivors = np.bincount(group, minlength=n_groups)
    if np.any(survivors == 0):
        raise FrameLost(
            f"{int(np.count_nonzero(survivors == 0))} coded-bit groups have no survivors"
        )
    ones = np.bincount(group, weights=values, minlength=n_groups)
    coded = (2 * ones > survivors).astype(np.uint8)

    if fec_ratio == 1:
        return bits_to_payload(coded)
    votes = coded.reshape(PAYLOAD_BITS, fec_ratio).sum(axis=1)
    if np.any(2 * votes == fec_ratio):
        raise FrameCorrupt("repetition decoding tie")
    bits = (2 * votes > fec_ratio).astype(np.uint8)
    return bits_to_payload(bits)
