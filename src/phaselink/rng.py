"""Deterministic random streams built on the SplitMix64 finalizer.

All randomness in the package flows through these functions so that runs
are reproducible from integer seeds alone, independent of numpy's global
state. The generator is counter-based: draw i of stream s is the SplitMix64
mix of ``s + (i+1) * GOLDEN`` (mod 2^64). Constants:

    GOLDEN = 0x9E3779B97F4A7C15
    MIX1   = 0xBF58476D1CE4E5B9   (xor-shift 30, multiply)
    MIX2   = 0x94D049BB133111EB   (xor-shift 27, multiply)
    final xor-shift 31

Because ``i -> s + (i+1)*GOLDEN`` is a bijection on 64-bit integers (GOLDEN
is odd) and the mix is invertible, distinct indices of one stream can never
collide.

Bit streams pack 64 bits per draw: bit i of stream s is bit ``i % 64``
(least significant first) of draw ``i // 64``, so n bits cost about n / 64
draws. Byte streams are pinned the same way: ``random_bytes(s, n, offset)``
is bytes offset .. offset + n - 1 of draws 0, 1, ... each laid out
little-endian. Byte j holds bits 8j .. 8j + 7 of the bit stream, least
significant first, so a byte-aligned run of bits is drawn packed. Neither
depends on host byte order.

Byte lanes: a per-pulse decision that needs about 8 bits reads byte lane
i of stream s, byte ``i % 8`` of draw ``i // 8`` in that little-endian
order (byte i of the byte stream), so 8 pulses share one draw. The lane
is the top 8 bits of a 61-bit uniform. Where it cannot decide alone
(it equals the threshold's own top byte), the low 53 bits come from draw
i of the tie stream ``split_seed(s, 0)``, compared by ``below``.
``ties_not_below`` is that one rule, and ``lanes_not_below`` applies it to
the tied lanes of a run of lanes; the class schedule, the dense click
compare and the error flags of montecarlo all decide on byte lanes
through them. ``byte_lane_blocks`` streams consecutive lanes and
``byte_lanes_at`` reads them at given positions.

Every draw passes through one function, ``_draw``, which mixes started
values ``s + (i+1)*GOLDEN`` in place one cache-sized block (_BLOCK draws)
at a time; counting its calls counts every draw. A contiguous block of
draws from position i starts with one add: the read-only table ``_STEPS``
holds ``(j+1)*GOLDEN`` for the block's draws j, and the block adds the
scalar ``s + i*GOLDEN`` (mod 2^64) to it.
Draws can also be addressed by non-negative position: ``raw64_at``,
``random_bits_at`` and ``byte_lanes_at`` start each draw from its counter,
``s + (i+1)*GOLDEN``, and give exactly the contiguous stream's values
there, without drawing the rest.

A uniform is exactly ``(z >> 11) * 2^-53`` of its raw draw z, so
``below(z, p)`` decides ``uniform < p`` on the raw draws, with no float
conversion: it holds exactly when ``z < ceil(p * 2^53) << 11``.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U_GOLDEN = np.uint64(GOLDEN)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_U11, _U27, _U30, _U31 = (np.uint64(k) for k in (11, 27, 30, 31))
_INV_2_53 = 1.0 / (1 << 53)
_BLOCK = 1 << 16  # draws mixed per pass: a block and its scratch (1 MiB) stay in L2 cache
BLOCK_LANES = 8 * _BLOCK  # byte lanes per block of byte_lane_blocks
# (j + 1) * GOLDEN mod 2^64: draw j of a block, less the block's start
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64)
_STEPS *= _U_GOLDEN
_STEPS.flags.writeable = False


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer (scalar, pure Python)."""
    z = x & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def split_seed(seed: int, stream_index: int) -> int:
    """Derive an independent child seed for a numbered stream.

    Deterministic and collision-free across stream indices for a fixed
    parent seed (bijective update, see module docstring).
    """
    return mix64((seed + ((stream_index + 1) * GOLDEN)) & MASK64)


def _draw(z: np.ndarray, scratch=None) -> np.ndarray:
    """Mixes started draws z (uint64, s + (i+1) * GOLDEN mod 2^64 each) in
    place, one cache-sized block at a time, and returns z. scratch holds at
    least min(len(z), _BLOCK) uint64 values; a fresh one is made when None."""
    if scratch is None:
        scratch = np.empty(min(len(z), _BLOCK), dtype=np.uint64)
    for i in range(0, len(z), _BLOCK):
        block = z[i : i + _BLOCK]
        t = scratch[: len(block)]
        for shift, mult in ((_U30, _U_MIX1), (_U27, _U_MIX2), (_U31, None)):
            np.right_shift(block, shift, out=t)
            block ^= t
            if mult is not None:
                block *= mult
    return z


def _start(seed: int, position: int, z: np.ndarray) -> np.ndarray:
    """Starts the draws at position, position + 1, ... into z: one add of
    seed + position * GOLDEN (mod 2^64) to _STEPS; len(z) <= _BLOCK."""
    return np.add(_STEPS[: len(z)], np.uint64((seed + position * GOLDEN) & MASK64), out=z)


def _start_at(seed: int, positions: np.ndarray) -> np.ndarray:
    """Starts the draws at positions (uint64) in place: the draw at i
    starts from i * GOLDEN + (seed + GOLDEN)."""
    positions *= _U_GOLDEN
    positions += np.uint64((seed + GOLDEN) & MASK64)
    return positions


def _positions(positions) -> np.ndarray:
    """A fresh uint64 copy of non-negative stream positions."""
    p = np.asarray(positions)
    if np.any(p < 0):
        raise ValueError("positions must be non-negative")
    return p.astype(np.uint64)


def raw64(seed: int, n: int, offset: int = 0) -> np.ndarray:
    """n raw 64-bit draws from the stream, starting at position offset."""
    if n < 0:
        raise ValueError("n must be non-negative")
    z = np.empty(n, dtype=np.uint64)
    for start in range(0, n, _BLOCK):
        _start(seed, offset + start, z[start : start + _BLOCK])
    return _draw(z)


def uniforms(seed: int, n: int) -> np.ndarray:
    """n uniform floats in [0, 1) with 53-bit resolution."""
    z = raw64(seed, n)
    z >>= _U11
    u = z.view(np.float64)
    np.copyto(u, z)  # element-wise in place: each value is read before it is written
    u *= _INV_2_53
    return u


def raw64_at(seed: int, positions) -> np.ndarray:
    """Raw draws of the stream at the given non-negative positions."""
    return _draw(_start_at(seed, _positions(positions)))


def random_bits(seed: int, n: int, offset: int = 0) -> np.ndarray:
    """n unbiased bits (uint8 0/1) of the bit stream, starting at bit offset."""
    if n < 0:
        raise ValueError("n must be non-negative")
    start = offset & 63
    words = raw64(seed, (start + n + 63) >> 6 if n else 0, offset >> 6)
    bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), bitorder="little")
    return bits[start : start + n]


def random_bits_at(seed: int, positions) -> np.ndarray:
    """Bits (uint8 0/1) of the bit stream at the given non-negative positions."""
    return _lanes_at(seed, positions, 1)


def byte_lanes_at(seed: int, positions) -> np.ndarray:
    """Byte lanes (uint8) of the stream at the given non-negative positions."""
    return _lanes_at(seed, positions, 8)


def _lanes_at(seed: int, positions, width: int) -> np.ndarray:
    """Lanes of width bits (1 or 8) at positions: lane i is bits
    width * (i % k) and up, least significant first, of draw i // k, with
    k = 64 // width lanes per draw.

    Dense positions, at least one per 8 lanes of their span, are gathered
    from the covering draws made contiguously (and unpacked, for bits): at
    most the 8 bytes per position that a uint64 copy of the positions takes,
    and no more draws than positions. Sparser ones draw each position's word
    alone."""
    per_draw = 64 // width
    p = np.asarray(positions)
    if p.size:
        lo, hi = int(p.min()), int(p.max())
        if lo >= 0 and 8 * p.size > hi - lo:
            first = lo // per_draw
            words = raw64(seed, hi // per_draw + 1 - first, first)
            lanes = words.astype("<u8", copy=False).view(np.uint8)
            if width == 1:
                lanes = np.unpackbits(lanes, bitorder="little")
            return lanes[p - first * per_draw]
    z = _positions(p)
    shift = z.astype(np.uint8)  # the low byte; one small array, not a second uint64 one
    shift &= per_draw - 1
    shift *= width
    z >>= np.uint64(per_draw.bit_length() - 1)
    _draw(_start_at(seed, z))
    z >>= shift
    z &= np.uint64((1 << width) - 1)
    return z.astype(np.uint8)


def byte_lane_blocks(seed: int, n: int, offset: int = 0):
    """Iterator over the n byte lanes offset .. offset + n - 1 of the
    stream, one rng block of draws at a time.

    Yields (start, lanes): lanes (uint8) are the lanes offset + start
    onward. Every block is mixed into one buffer, with one mixing scratch,
    and its lanes are a view of that buffer, which the next block
    overwrites: a caller consumes or copies them before asking for more."""
    if n < 0:
        raise ValueError("n must be non-negative")
    skip = offset & 7  # lanes of the first draw before lane offset
    draws = (skip + n + 7) >> 3 if n else 0
    buf = np.empty(min(draws, _BLOCK), dtype=np.uint64)
    scratch = np.empty_like(buf)
    for start in range(0, draws, _BLOCK):
        z = _draw(_start(seed, (offset >> 3) + start, buf[: draws - start]), scratch)
        first = 8 * start - skip  # index of the block's first lane among the n
        lo = max(first, 0)
        yield lo, z.astype("<u8", copy=False).view(np.uint8)[lo - first : n - first]


def below(z: np.ndarray, p: float) -> np.ndarray:
    """Flags of the raw draws z whose uniforms are below p, bit-exact with
    comparing the uniforms; all set for p >= 1 and none for p <= 0."""
    t = math.ceil(p * 2.0**53)  # scaling by a power of two is exact
    if t >= 1 << 53:
        return np.ones(len(z), dtype=bool)
    if t <= 0:
        return np.zeros(len(z), dtype=bool)
    return z < np.uint64(t << 11)


def lanes_not_below(lanes: np.ndarray, probs, seed: int, at, where=None) -> np.ndarray:
    """Per byte lane of the seed's stream, the number (uint8) of the
    probabilities p in probs that its 61-bit uniform is not below, counting
    probs[k] only at the lanes where where[k] is set (at every lane when
    where is None).

    at gives the lanes' stream positions: an int for consecutive lanes
    at, at + 1, ..., or an array with one position per lane. For p, let
    b = floor(256 p): a lane above b is not below p and a lane below b is,
    and a lane equal to b ties and is decided by ties_not_below. So the
    uniform's compare with ceil(p * 2^61) decides each p: p >= 1 never
    counts (b >= 256) and p <= 0 always does."""
    bounds = [math.floor(256.0 * p) for p in probs]
    masks = [None] * len(bounds) if where is None else where
    # the first probability's flags become the totals, and each later
    # temporary is freed at once: one more block-sized array alive at a
    # time made draw_classes 1.3x slower, from fresh pages alone
    counts = tie = None
    for b, mask in zip(bounds, masks):
        if counts is None:
            counts = _masked(lanes > b, mask).view(np.uint8)
            tie = _masked(lanes == b, mask)
        else:
            counts += _masked(lanes > b, mask).view(np.uint8)
            tie |= _masked(lanes == b, mask)
    ties = np.flatnonzero(tie)  # about 1 lane in 256 per probability
    at_ties = ties + at if np.ndim(at) == 0 else at[ties]
    where_ties = None if where is None else [mask[ties] for mask in where]
    counts[ties] += ties_not_below(lanes[ties], probs, seed, at_ties, where_ties)
    return counts


def ties_not_below(tied: np.ndarray, probs, seed: int, at, where=None) -> np.ndarray:
    """The tie rule. Per byte lane tied[i] of the seed's stream, at stream
    position at[i], the number (uint8) of the probabilities p in probs whose
    boundary byte b = floor(256 p) it equals and that its 61-bit uniform is
    not below, counting probs[k] only where where[k][i] is set (everywhere
    when where is None). The low 53 bits of its uniform are the top 53 of
    z, draw at[i] of the tie stream split_seed(seed, 0), and it is not below
    p exactly when not below(z, 256 p - b). A lane above or below b is not
    counted for p here."""
    z = raw64_at(split_seed(seed, 0), at)
    counts = np.zeros(len(tied), dtype=np.uint8)
    for k, p in enumerate(probs):
        b = math.floor(256.0 * p)
        flags = tied == b
        if where is not None:
            flags &= where[k]
        # 256 p and its fraction 256 p - b are exact in IEEE arithmetic
        flags &= ~below(z, 256.0 * p - b)
        counts += flags
    return counts


def _masked(flags: np.ndarray, mask) -> np.ndarray:
    if mask is not None:
        flags &= mask
    return flags


def random_bytes(seed: int, n: int, offset: int = 0) -> bytes:
    """n bytes of the byte stream, starting at byte offset."""
    skip = offset & 7
    words = raw64(seed, (skip + n + 7) >> 3 if n else 0, offset >> 3)
    return words.astype("<u8", copy=False).tobytes()[skip : skip + n]
