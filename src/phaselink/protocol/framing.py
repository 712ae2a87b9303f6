"""Codeword pipeline: FEC, spreading, one-time-pad, masking.

This module is the one place that knows a frame's codeword; both endpoints
pass it the frame id, the ratios and the two pre-shared seeds.

Forward direction (preprocess):

    payload bits -> repetition FEC and spreading (fec_ratio * spread_ratio
                    chips per payload bit)
                 -> XOR with a pad bit per chip

The pad bit of chip i of frame f is key[f * n_chips + i] XOR mask_f[i]:
key is the bit stream of key_seed, read at a fixed position per chip
whatever the key pool holds (the ledger only counts bits), and mask_f is
the keyed mask stream of mask_seed and f. Because undetected chip
positions never leave the masked domain, their pad bits reveal nothing
and can be recycled.

preprocess returns the chips packed little-endian (chip i at bit i % 8 of
byte i // 8); n_chips is a multiple of 8, so frame f's key starts at a
whole byte and the pad is the two streams' bytes XORed (random_bytes).

Decoding inverts the pipeline on the surviving chip positions only, with
a majority vote over the survivors of each coded-bit group (ties resolve
to 0). A group with zero survivors loses the frame.
"""

from __future__ import annotations

import numpy as np

from ..errors import FrameCorrupt, FrameLost
from ..rng import random_bits_at, random_bytes, split_seed

PAYLOAD_BYTES = 125
PAYLOAD_BITS = PAYLOAD_BYTES * 8


def chip_count(fec_ratio: int, spread_ratio: int) -> int:
    """On-air chips of one frame (both ratios >= 1)."""
    if fec_ratio < 1 or spread_ratio < 1:
        raise ValueError("fec_ratio and spread_ratio must be >= 1")
    return PAYLOAD_BITS * fec_ratio * spread_ratio


def _pad(frame_id: int, n_chips: int, key_seed: int, mask_seed: int, positions=None):
    """Pad bits (uint8 0/1) of the frame's chips at the given positions,
    or of every chip, packed little-endian, when positions is None."""
    mask = split_seed(mask_seed, frame_id)
    if positions is None:
        size = n_chips // 8
        pad = np.frombuffer(random_bytes(key_seed, size, offset=frame_id * size), dtype=np.uint8)
        return pad ^ np.frombuffer(random_bytes(mask, size), dtype=np.uint8)
    return random_bits_at(key_seed, frame_id * n_chips + positions) ^ random_bits_at(mask, positions)


def preprocess(
    payload: bytes, frame_id: int, fec_ratio: int, spread_ratio: int, key_seed: int, mask_seed: int
) -> np.ndarray:
    """Encode a 125-byte payload into its on-air chips, packed little-endian
    (uint8, n_chips / 8 bytes)."""
    if len(payload) != PAYLOAD_BYTES:
        raise ValueError(f"payload must be exactly {PAYLOAD_BYTES} bytes")
    n_chips = chip_count(fec_ratio, spread_ratio)
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    chips = _pad(frame_id, n_chips, key_seed, mask_seed)
    chips ^= np.packbits(np.repeat(bits, fec_ratio * spread_ratio), bitorder="little")
    return chips


def decode(
    values: np.ndarray,
    positions: np.ndarray,
    frame_id: int,
    fec_ratio: int,
    spread_ratio: int,
    key_seed: int,
    mask_seed: int,
) -> bytes:
    """Recover the payload from the surviving chips of one frame.

    values are the received chip values at the ascending chip positions;
    pad bits are drawn at those positions only.
    Raises FrameLost when a coded-bit group has no survivor and
    FrameCorrupt when repetition decoding is ambiguous.
    """
    n_chips = chip_count(fec_ratio, spread_ratio)
    if len(values) != len(positions):
        raise ValueError("values and positions must have equal length")
    if len(positions) and not (0 <= positions[0] and positions[-1] < n_chips):
        raise ValueError("chip positions must lie in the frame")
    values = values ^ _pad(frame_id, n_chips, key_seed, mask_seed, positions)

    group = positions // spread_ratio
    n_groups = PAYLOAD_BITS * fec_ratio
    survivors = np.bincount(group, minlength=n_groups)
    if np.any(survivors == 0):
        raise FrameLost(
            f"{int(np.count_nonzero(survivors == 0))} coded-bit groups have no survivors"
        )
    ones = np.bincount(group, weights=values, minlength=n_groups)
    coded = (2 * ones > survivors).astype(np.uint8)

    if fec_ratio > 1:
        votes = coded.reshape(PAYLOAD_BITS, fec_ratio).sum(axis=1)
        if np.any(2 * votes == fec_ratio):
            raise FrameCorrupt("repetition decoding tie")
        coded = (2 * votes > fec_ratio).astype(np.uint8)
    return np.packbits(coded).tobytes()
