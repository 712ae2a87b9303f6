"""Helpers shared by the test modules, handed out as fixtures so that every
module reaches them under any pytest import mode."""

import math

import numpy as np
import pytest

from phaselink import rng
from phaselink.montecarlo import split_seed
from phaselink.rng import raw64


def _lanes_of(seed, n, offset=0):
    """Byte lanes offset .. offset + n - 1 of the seed's stream: byte i % 8,
    least significant first, of draw i // 8."""
    first = offset // 8
    words = raw64(seed, (offset + n + 7) // 8 - first, first)
    lanes = bytearray(b"".join(int(w).to_bytes(8, "little") for w in words))
    return np.frombuffer(lanes, np.uint8)[offset - 8 * first : offset - 8 * first + n]


def _reference_classes(seed, n, p_sig, p_dec, offset=0):
    """The schedule from raw draws alone: pulse i's 61-bit uniform U has byte
    lane i of the seed's stream over the top 53 bits of draw i of the
    split_seed(seed, 0) stream, and its class counts the thresholds t with
    U >= ceil(t * 2^61)."""
    u61 = _lanes_of(seed, n, offset).astype(np.uint64) << np.uint64(53)
    u61 |= raw64(split_seed(seed, 0), n, offset) >> np.uint64(11)
    classes = np.zeros(n, dtype=np.uint8)
    for t in (p_sig, p_sig + p_dec):
        classes += u61 >= np.uint64(math.ceil(t * 2.0**61))
    return classes


def _reference_below(seed, positions, p):
    """Flags of the pulses at positions whose 61-bit uniform is below p (one
    probability per position), from raw draws alone: pulse i's U has byte
    lane i of the seed's stream over the top 53 bits of draw i of the
    split_seed(seed, 0) stream, and it is below p when U < ceil(p * 2^61)."""
    positions = np.asarray(positions, dtype=np.int64)
    n = int(positions.max(initial=-1)) + 1
    u61 = _lanes_of(seed, n)[positions].astype(np.uint64) << np.uint64(53)
    u61 |= (raw64(split_seed(seed, 0), n) >> np.uint64(11))[positions]
    # scaling by 2^61 is exact, and so is the ceiling of at most 2^61
    return u61 < np.ceil(np.asarray(p, dtype=np.float64) * 2.0**61).astype(np.uint64)


@pytest.fixture(scope="session")  # session-wide, so hypothesis tests may take it too
def lanes_of():
    return _lanes_of


@pytest.fixture
def reference_classes():
    return _reference_classes


@pytest.fixture
def reference_below():
    return _reference_below


@pytest.fixture
def count_draws(monkeypatch):
    """Call it to start recording the number of draws that every rng._draw
    call mixes; it returns the list that the calls fill."""

    def start():
        drawn, draw = [], rng._draw

        def counting(z, *rest):
            drawn.append(len(z))
            return draw(z, *rest)

        monkeypatch.setattr(rng, "_draw", counting)
        return drawn

    return start
