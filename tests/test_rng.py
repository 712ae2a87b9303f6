import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phaselink import rng
from phaselink.montecarlo import class_schedule
from phaselink.rng import (
    BLOCK_LANES,
    GOLDEN,
    below,
    byte_lane_blocks,
    byte_lanes_at,
    child,
    lanes_not_below,
    mix64,
    random_bits_at,
    random_bytes,
    raw64,
    raw64_at,
    split_seed,
    ties_not_below,
    uniforms,
)


def test_split_seed_deterministic():
    assert split_seed(123, 5) == split_seed(123, 5)
    assert split_seed(123, 5) != split_seed(123, 6)
    assert split_seed(123, 5) != split_seed(124, 5)


def test_split_seed_no_collisions_over_1e6_indices():
    # bijective update: exhaustive scan must find zero collisions
    seeds = np.array([split_seed(0xDEADBEEF, i) for i in range(0, 10_000)])
    assert len(np.unique(seeds)) == len(seeds)
    # vectorized equivalent over 1e6 indices via raw64 (same update)
    z = raw64(0xDEADBEEF, 1_000_000)
    assert len(np.unique(z)) == 1_000_000


def test_scalar_and_vector_paths_agree():
    seed = 987654321
    vec = raw64(seed, 64)
    scalar = [mix64((seed + (i + 1) * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)) for i in range(64)]
    assert vec.tolist() == scalar


def test_blocks_agree_with_scalar():
    # long streams are mixed block by block; check both sides of each block edge
    seed, offset, block = 424242, 3, rng._BLOCK
    vec = raw64(seed, 2 * block + 5, offset)
    for i in (0, block - 1, block, 2 * block - 1, 2 * block, 2 * block + 4):
        assert int(vec[i]) == mix64((seed + (offset + i + 1) * GOLDEN) & ((1 << 64) - 1))


BLOCK_SIZES = [0, 1, rng._BLOCK - 1, rng._BLOCK, rng._BLOCK + 1, 2 * rng._BLOCK + 5]


def lane_blocks(seed, n, offset):
    """The (start, lanes) blocks of byte_lane_blocks, each lanes copied,
    since the next block reuses the buffer."""
    return [(start, lanes.copy()) for start, lanes in byte_lane_blocks(seed, n, offset)]


@pytest.mark.parametrize("offset", [0, 3, rng._BLOCK - 2, 5 * rng._BLOCK + 7])
@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_block_iterator_concatenates_to_stream(n, offset):
    # the lanes of a short run, inside a draw or from its start, are the
    # byte stream's slice, in blocks that start where the previous ended
    seed, parts = 8088, []
    for start, lanes in lane_blocks(seed, n, offset):
        assert lanes.dtype == np.uint8 and len(lanes) <= BLOCK_LANES
        assert start == sum(map(len, parts))
        parts.append(lanes)
    assert np.concatenate(parts or [np.empty(0, np.uint8)]).tobytes() == random_bytes(seed, n, offset)


@pytest.mark.parametrize("offset", [0, 2**61 + 3, 2**64 - 2**17])
@pytest.mark.parametrize("n", [0, 1, rng._BLOCK, rng._BLOCK + 1])
def test_block_starts_match_positional_draws(n, offset):
    # a block starts as _STEPS plus seed + (offset // 8) * GOLDEN mod 2^64, a
    # lane at a position from its draw's own counter: the two agree where
    # (offset // 8) * GOLDEN wraps 2^64
    seed = 0xFEEDFACECAFEBEEF
    parts = [lanes for _, lanes in lane_blocks(seed, n, offset)]
    lanes = np.concatenate(parts or [np.empty(0, np.uint8)])
    positions = np.arange(n, dtype=np.uint64) + np.uint64(offset)
    assert np.array_equal(lanes, byte_lanes_at(seed, positions))
    for i in [0, n - 1] if n else []:
        draw = mix64((seed + ((offset + i) // 8 + 1) * GOLDEN) & ((1 << 64) - 1))
        assert int(lanes[i]) == (draw >> 8 * ((offset + i) % 8)) & 255


@pytest.mark.parametrize("offset", [0, 3, 65534, 327687])
def test_zero_length_reads_draw_nothing(count_draws, offset):
    # no lane, byte or bit asked for, at an aligned or an unaligned offset:
    # no draw is mixed and no block is yielded
    drawn = count_draws()
    assert list(byte_lane_blocks(8088, 0, offset)) == []
    assert random_bytes(8088, 0, offset) == b""
    assert len(random_bits_at(8088, np.arange(offset, offset))) == 0
    assert sum(drawn) == 0


@pytest.mark.parametrize("offset", [0, 5, 8 * rng._BLOCK - 3, 2**64 - 2**17 + 5])
def test_byte_lane_blocks_span_three_blocks(offset):
    # lanes across three rng blocks of draws are the byte stream, block by
    # block, and every block is a view of the one buffer the first fills
    n = 2 * BLOCK_LANES + 12_345
    seed, parts, views = 4242, [], []
    for start, lanes in byte_lane_blocks(seed, n, offset):
        assert start == sum(map(len, parts))
        views.append(lanes)
        parts.append(lanes.copy())
    assert len(parts) == 3
    assert np.concatenate(parts).tobytes() == random_bytes(seed, n, offset)
    assert all(np.shares_memory(views[0], view) for view in views[1:])


def test_uniform_stream_statistics():
    # mean/variance sanity on 1e6 draws, 4-sigma bands
    u = uniforms(2024, 1_000_000)
    n = len(u)
    assert abs(u.mean() - 0.5) < 4.0 * (1.0 / np.sqrt(12.0)) / np.sqrt(n)
    assert abs(u.var() - 1.0 / 12.0) < 4.0 * (1.0 / 12.0) * np.sqrt(2.0 / n) * 3
    assert u.min() >= 0.0 and u.max() < 1.0


def test_uniform_stream_chi_square():
    # 1000 equiprobable bins; chi2 has mean df=999, sd ~ sqrt(2*999)
    u = uniforms(7, 1_000_000)
    counts = np.bincount((u * 1000).astype(int), minlength=1000)
    expected = len(u) / 1000
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    df = 999
    assert abs(chi2 - df) < 4.0 * np.sqrt(2.0 * df)


def test_offset_continuation():
    seed = 55
    a = raw64(seed, 100)
    b = np.concatenate([raw64(seed, 40), raw64(seed, 60, offset=40)])
    assert np.array_equal(a, b)


def test_bits_and_bytes():
    bits = random_bits_at(9, np.arange(10_000))
    assert set(np.unique(bits)) <= {0, 1}
    assert abs(bits.mean() - 0.5) < 4.0 * 0.5 / np.sqrt(10_000)
    assert random_bytes(9, 17) == random_bytes(9, 17)
    assert len(random_bytes(9, 17)) == 17
    assert random_bytes(9, 33)[:17] == random_bytes(9, 17)[:17]


def test_bytes_are_little_endian_draws():
    # byte 8 j + b is byte b, least significant first, of draw j on any host
    words = b"".join(int(w).to_bytes(8, "little") for w in raw64(9, 3))
    assert random_bytes(9, 17) == words[:17]
    assert random_bytes(9, 24) == words


@given(
    seed=st.integers(0, (1 << 64) - 1),
    offset=st.integers(0, 100),
    n=st.integers(0, 100),
    far=st.integers(0, 1 << 40),
)
def test_bytes_at_offset_slice_the_stream(seed, offset, n, far):
    # any byte offset, inside a draw or at its start, and any length
    assert random_bytes(seed, n, offset=offset) == random_bytes(seed, offset + n)[offset:]
    far_words = raw64(seed, 2 + n // 8, far // 8)
    stream = b"".join(int(w).to_bytes(8, "little") for w in far_words)
    assert random_bytes(seed, n, offset=far) == stream[far % 8 : far % 8 + n]


@given(seed=st.integers(0, (1 << 64) - 1), byte=st.integers(0, 1000), n=st.integers(0, 64))
def test_bytes_are_packed_bits(random_bits, seed, byte, n):
    # byte j of the byte stream packs bits 8 j .. 8 j + 7 of the bit stream
    packed = np.packbits(random_bits(seed, 8 * n, offset=8 * byte), bitorder="little")
    assert random_bytes(seed, n, offset=byte) == packed.tobytes()



@given(
    seed=st.integers(0, (1 << 64) - 1),
    offset=st.integers(0, 1 << 40),
    rel=st.lists(st.integers(0, 299), max_size=50),
)
def test_position_addressed_draws_match_stream(lanes_of, random_bits, seed, offset, rel):
    # any positions, repeated or unordered, read the contiguous stream
    pos = offset + np.array(rel, dtype=np.int64)
    assert np.array_equal(raw64_at(seed, pos), raw64(seed, 300, offset)[rel])
    assert np.array_equal(random_bits_at(seed, pos), random_bits(seed, 300, offset)[rel])
    assert np.array_equal(byte_lanes_at(seed, pos), lanes_of(seed, 300, offset)[rel])
    assert random_bits_at(seed, pos).dtype == np.uint8
    assert byte_lanes_at(seed, pos).dtype == np.uint8


SPAN = 70_403


@pytest.mark.parametrize("n_pos", [SPAN // 2, -(-SPAN // 8), SPAN // 8 - 1, SPAN // 200])
def test_bits_at_dense_and_sparse_positions(count_draws, random_bits, n_pos):
    # on both sides of the density rule (a position per 8 bits of the span,
    # 8801 and 8799 positions here), unordered and repeated positions far
    # into the stream read the contiguous bits; dense sets draw the
    # covering words once
    first = (1 << 40) + 29
    rel = np.random.default_rng(3).choice(SPAN, n_pos - 50, replace=False)
    rel[:2] = 0, SPAN - 1
    rel = np.concatenate([rel, rel[:50]])
    drawn = count_draws()
    bits = random_bits_at(8, first + rel)
    assert bits.dtype == np.uint8
    assert np.array_equal(bits, random_bits(8, SPAN, first)[rel])
    words = -(-(first + SPAN) // 64) - first // 64
    assert drawn[0] == (words if 8 * n_pos >= SPAN else n_pos)


@pytest.mark.parametrize("n_pos", [SPAN // 2, -(-SPAN // 8), SPAN // 8 - 1, SPAN // 200])
def test_lanes_at_dense_and_sparse_positions(lanes_of, count_draws, n_pos):
    # the same density rule, a position per 8 lanes of the span: dense sets
    # draw the covering words once, sparse ones one word per position
    first = (1 << 40) + 5
    rel = np.random.default_rng(4).choice(SPAN, n_pos - 50, replace=False)
    rel[:2] = 0, SPAN - 1
    rel = np.concatenate([rel, rel[:50]])
    reference = lanes_of(8, SPAN, first)[rel]
    drawn = count_draws()
    lanes = byte_lanes_at(8, first + rel)
    assert lanes.dtype == np.uint8
    assert np.array_equal(lanes, reference)
    words = -(-(first + SPAN) // 8) - first // 8
    assert drawn[0] == (words if 8 * n_pos >= SPAN else n_pos)


@pytest.mark.parametrize(
    "offset,n", [(0, 0), (5, 0), (0, 64), (3, 61), (3, 62), (63, 2), (70, 200), (1 << 40, 130)]
)
def test_bits_are_packed_64_per_draw(offset, n):
    # bit i of the stream is bit i % 64, least significant first, of draw i // 64
    first = offset >> 6
    words = raw64(77, n // 64 + 2, first).tolist()
    bits = random_bits_at(77, np.arange(offset, offset + n))
    assert bits.dtype == np.uint8 and len(bits) == n
    for i in range(offset, offset + n):
        assert bits[i - offset] == (words[(i >> 6) - first] >> (i & 63)) & 1


def first_block(seed, n, offset):
    return next(byte_lane_blocks(seed, n, offset))


def schedule(seed, n, offset):
    return class_schedule(seed, n, 0.9, 0.05, offset)


@pytest.mark.parametrize(
    "read",
    [raw64, random_bytes, first_block, schedule],
    ids=["raw64", "random_bytes", "byte_lane_blocks", "class_schedule"],
)
def test_negative_length_raises(read):
    # every reader of n consecutive draws, bytes or lanes, also where n and
    # the offset inside a draw round up to one whole draw or to none; and a
    # negative offset, which would read wrapped positions
    for n, offset in [(n, 3) for n in (-1, -7, -8, -9, -20)] + [(2, -1), (4, -3), (0, -8)]:
        with pytest.raises(ValueError):
            read(5, n, offset)


def test_bit_lanes_and_neighbours_are_fair():
    # each of the 64 bit positions of a draw, and agreement of adjacent bits,
    # sit at 1/2 within 4 standard errors; a lost shift would repeat a bit
    bits = random_bits_at(2027, np.arange(5 * 64, 5 * 64 + (1 << 20)))
    lanes = bits.reshape(-1, 64).mean(axis=0)
    assert np.all(np.abs(lanes - 0.5) < 4 * 0.5 / np.sqrt(len(bits) // 64))
    same = np.mean(bits[1:] == bits[:-1])
    assert abs(same - 0.5) < 4 * 0.5 / np.sqrt(len(bits) - 1)


@pytest.mark.parametrize("draw", [raw64_at, byte_lanes_at, random_bits_at])
def test_negative_positions_raise(draw):
    for bad in (np.array([-1]), [3, -2], np.array([0, -(1 << 62)], dtype=np.int64)):
        with pytest.raises(ValueError):
            draw(5, bad)
    top = np.array([(1 << 64) - 1], dtype=np.uint64)
    assert len(draw(5, top)) == 1


def as_uniforms(z: np.ndarray) -> np.ndarray:
    """The float-domain reference: the uniform of raw draw z is (z >> 11) 2^-53."""
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def test_uniforms_are_the_reference_of_raw_draws():
    assert np.array_equal(uniforms(31, 10_000), as_uniforms(raw64(31, 10_000)))


ULP = 2.0**-53
TOP = (1 << 64) - 1
EDGE_P = [0.0, 5e-324, ULP / 2, ULP, 3 * ULP, 12345 * ULP, 1 / 3, 0.5, (2**52 + 1) * ULP]
EDGE_P += [1.0 - ULP, 1.0]
EDGE_P += [math.nextafter(p, d) for p in EDGE_P[2:-1] for d in (0.0, 1.0)]


@pytest.mark.parametrize("p", EDGE_P + [-0.0, 1.5])
def test_below_matches_uniforms_at_edges(p):
    # raw draws on both sides of the threshold ceil(p 2^53) << 11, and at the ends
    t = math.ceil(p * 2**53)
    edges = [0, 1, (1 << 11) - 1, 1 << 11, TOP - (1 << 11), TOP]
    if 0 < t < 1 << 53:
        edges += [(t << 11) - 1, t << 11, (t << 11) + 1]
    z = np.array(edges, dtype=np.uint64)
    flags = below(z, p)
    assert flags.dtype == bool
    assert np.array_equal(flags, as_uniforms(z) < p)


@given(
    z=st.lists(st.integers(0, TOP), max_size=20),
    p=st.floats(0.0, 1.0, allow_subnormal=True),
)
def test_below_matches_uniforms(z, p):
    z = np.array(z, dtype=np.uint64)
    assert np.array_equal(below(z, p), as_uniforms(z) < p)


TIE_P = [0.0, 1.0, 0.5, 3 / 256, 255 / 256, 1 / 3, 5e-324, 2.0**-62, 2.0**-61, 3 * 2.0**-61]
TIE_P += [1e-6, 1.0 - ULP, math.nextafter(1.0, 0.0), 1.0 - 1e-6]


@pytest.mark.parametrize("p", TIE_P)
def test_lanes_not_below_exact_at_ties(p):
    # lanes b - 1, b and b + 1 around the boundary byte b = floor(256 p),
    # at consecutive positions and at unordered ones, against exact rational
    # compares of U / 2^61 with p; a second probability under a mask
    b = math.floor(256 * p)
    near = [v for v in (b - 1, b, b, b + 1) if 0 <= v < 256]
    lanes = np.resize(np.array(near, dtype=np.uint8), 4000)
    first = 1 << 40
    z = raw64(child(13, "tie"), len(lanes), first).tolist()
    u = [Fraction((int(lane) << 53) + (w >> 11), 1 << 61) for lane, w in zip(lanes, z)]
    expect = [x >= Fraction(p) for x in u]
    assert lanes_not_below(lanes, [p], 13, first).tolist() == expect
    order = np.random.default_rng(5).permutation(len(lanes))
    counts = lanes_not_below(lanes[order], [p], 13, first + order)
    assert counts.tolist() == [expect[i] for i in order]
    odd = np.arange(len(lanes)) % 2 == 1
    counts = lanes_not_below(lanes, [p, 0.3], 13, first, [odd, ~odd])
    assert counts.dtype == np.uint8
    assert counts.tolist() == [x >= Fraction(p if k % 2 else 0.3) for k, x in enumerate(u)]


@pytest.mark.parametrize("probs", [(0.5, 0.5), (3 / 256 + 1e-3, 0.5), (1 / 3, 1 / 3 + 1e-3), (0.0, 1.0)])
def test_ties_not_below_counts_only_tied_bounds(probs):
    # each lane counts the probabilities whose boundary byte it equals and
    # that its 61-bit uniform is not below, exactly, under per-probability
    # masks; a lane off every boundary byte counts 0
    bounds = [math.floor(256 * p) for p in probs]
    near = [v for b in bounds for v in (b - 1, b, b + 1) if 0 <= v < 256]
    tied = np.resize(np.array(near, dtype=np.uint8), 3000)
    at = np.random.default_rng(9).permutation(1 << 20)[: len(tied)]
    masks = [np.arange(len(tied)) % 3 != k for k in range(len(probs))]
    z = raw64_at(child(21, "tie"), at).tolist()
    u = [Fraction((int(lane) << 53) + (w >> 11), 1 << 61) for lane, w in zip(tied, z)]
    for where in (None, masks):
        counts = ties_not_below(tied, probs, 21, at, where)
        assert counts.dtype == np.uint8
        expect = [
            sum(
                lane == b and (where is None or where[k][i]) and x >= Fraction(p)
                for k, (p, b) in enumerate(zip(probs, bounds))
            )
            for i, (lane, x) in enumerate(zip(tied.tolist(), u))
        ]
        assert counts.tolist() == expect
