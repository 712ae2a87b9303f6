import numpy as np
import pytest
from scipy.stats import binom

from phaselink.errors import FrameCorrupt, FrameLost, KeyPoolExhausted
from phaselink.protocol.framing import (
    Frame,
    decode,
    mask_stream,
    payload_to_bits,
    preprocess,
)
from phaselink.protocol.ledger import KeyLedger
from phaselink.rng import random_bits, random_bytes, split_seed


def make_payload(seed):
    return random_bytes(split_seed(0xF00D, seed), 125)


class TestFrame:
    def test_payload_length_enforced(self):
        with pytest.raises(ValueError):
            Frame(payload=b"x" * 124, frame_id=0)
        with pytest.raises(ValueError):
            Frame(payload=b"x" * 126, frame_id=0)

    def test_chip_count_spread_1920(self):
        frame = Frame(payload=bytes(125), frame_id=0, fec_ratio=1, spread_ratio=1920)
        assert frame.chip_count == 1_920_000


class TestPreprocess:
    def test_identity_pipeline(self):
        # unit ratios, zero key, no mask: chips are exactly the payload bits
        payload = make_payload(1)
        frame = Frame(payload, frame_id=0, fec_ratio=1, spread_ratio=1)
        zero_key = np.zeros(frame.chip_count, dtype=np.uint8)
        chips = preprocess(frame, zero_key, mask_seed=None)
        assert np.array_equal(chips, payload_to_bits(payload))

    def test_invertible(self):
        payload = make_payload(2)
        frame = Frame(payload, frame_id=3, fec_ratio=2, spread_ratio=5)
        key = random_bits(42, frame.chip_count)
        chips = preprocess(frame, key, mask_seed=9)
        kept = np.ones(frame.chip_count, dtype=bool)
        assert decode(chips, kept, key, 9, 3, 2, 5) == payload

    def test_key_stream_too_short(self):
        frame = Frame(make_payload(3), frame_id=0, spread_ratio=4)
        with pytest.raises(KeyPoolExhausted):
            preprocess(frame, np.zeros(10, dtype=np.uint8), mask_seed=0)

    def test_ledger_debit(self):
        frame = Frame(make_payload(4), frame_id=0, spread_ratio=2)
        ledger = KeyLedger.with_initial(frame.chip_count + 5)
        key = random_bits(1, frame.chip_count)
        preprocess(frame, key, mask_seed=0, ledger=ledger)
        assert ledger.consumed == frame.chip_count
        assert ledger.pool_bits == 5
        with pytest.raises(KeyPoolExhausted):
            preprocess(frame, key, mask_seed=0, ledger=ledger)


class TestDecode:
    def test_roundtrip_many_payloads(self):
        # lossless channel: decode(preprocess(x)) == x
        for i in range(1000):
            payload = make_payload(100 + i)
            frame = Frame(payload, frame_id=i, fec_ratio=1, spread_ratio=4)
            key = random_bits(split_seed(5, i), frame.chip_count)
            chips = preprocess(frame, key, mask_seed=77)
            kept = np.ones(frame.chip_count, dtype=bool)
            assert decode(chips, kept, key, 77, i, 1, 4) == payload

    def test_reads_only_kept_positions(self):
        # garbage in chips and key_bits outside sift_map does not change the payload
        payload = make_payload(9)
        frame = Frame(payload, frame_id=3, fec_ratio=3, spread_ratio=8)
        key = random_bits(split_seed(7, 3), frame.chip_count)
        chips = preprocess(frame, key, mask_seed=11)
        kept = np.random.default_rng(1).random(frame.chip_count) < 0.5
        kept[::8] = True  # every coded-bit group keeps a chip
        assert decode(chips, kept, key, 11, 3, 3, 8) == payload
        noise = np.random.default_rng(2).integers(0, 256, frame.chip_count, dtype=np.uint8)
        bad_chips = np.where(kept, chips, noise)
        bad_key = np.where(kept, key, noise[::-1])
        assert decode(bad_chips, kept, bad_key, 11, 3, 3, 8) == payload

    def test_no_redundancy_any_loss_fails(self):
        payload = make_payload(5)
        frame = Frame(payload, frame_id=0, fec_ratio=1, spread_ratio=1)
        key = random_bits(8, frame.chip_count)
        chips = preprocess(frame, key, mask_seed=0)
        kept = np.ones(frame.chip_count, dtype=bool)
        kept[17] = False
        with pytest.raises(FrameLost):
            decode(chips, kept, key, 0, 0, 1, 1)

    def test_erasure_tolerance_matches_binomial_oracle(self):
        # survival p per chip; a frame survives iff every 64-chip group keeps
        # at least one chip. Oracle: P(frame) = (1 - (1-p)^64)^1000.
        p = 0.25
        spread = 64
        p_frame = (1.0 - (1.0 - p) ** spread) ** 1000
        assert p_frame > 0.9999  # the regime this test exercises
        n_trials = 50
        successes = 0
        for i in range(n_trials):
            payload = make_payload(2000 + i)
            frame = Frame(payload, frame_id=i, fec_ratio=1, spread_ratio=spread)
            key = random_bits(split_seed(6, i), frame.chip_count)
            chips = preprocess(frame, key, mask_seed=3)
            u = np.random.default_rng(i).random(frame.chip_count)
            kept = u < p
            try:
                assert decode(chips, kept, key, 3, i, 1, spread) == payload
                successes += 1
            except FrameLost:
                pass
        # binomial oracle: with per-frame success ~1, all trials succeed
        assert successes >= binom.ppf(1e-9, n_trials, p_frame)

    def test_sparse_survival_loses_frames(self):
        # survival 5e-4 with spread 64: zero-survivor groups are near-certain
        p = 5e-4
        p_zero_group = (1.0 - p) ** 64
        assert p_zero_group > 0.96
        payload = make_payload(4000)
        frame = Frame(payload, frame_id=0, fec_ratio=1, spread_ratio=64)
        key = random_bits(14, frame.chip_count)
        chips = preprocess(frame, key, mask_seed=0)
        kept = np.random.default_rng(0).random(frame.chip_count) < p
        with pytest.raises(FrameLost):
            decode(chips, kept, key, 0, 0, 1, 64)

    def test_majority_vote_corrects_flips(self):
        payload = make_payload(6)
        frame = Frame(payload, frame_id=0, fec_ratio=1, spread_ratio=9)
        key = random_bits(21, frame.chip_count)
        chips = preprocess(frame, key, mask_seed=5)
        # flip 2 of every 9 chips: strict minority, vote still correct
        flip = np.zeros(frame.chip_count, dtype=np.uint8)
        flip[::9] = 1
        flip[1::9] = 1
        kept = np.ones(frame.chip_count, dtype=bool)
        assert decode(chips ^ flip, kept, key, 5, 0, 1, 9) == payload

    def test_fec_tie_raises_corrupt(self):
        payload = make_payload(7)
        frame = Frame(payload, frame_id=0, fec_ratio=2, spread_ratio=1)
        key = np.zeros(frame.chip_count, dtype=np.uint8)
        chips = preprocess(frame, key, mask_seed=0)
        # flip one copy of the first coded bit: 1-1 tie at the FEC stage
        flip = np.zeros(frame.chip_count, dtype=np.uint8)
        flip[0] = 1
        kept = np.ones(frame.chip_count, dtype=bool)
        with pytest.raises(FrameCorrupt):
            decode(chips ^ flip, kept, key, 0, 0, 2, 1)


class TestMaskStream:
    def test_keyed_and_per_frame(self):
        a = mask_stream(1, 0, 1000)
        b = mask_stream(1, 1, 1000)
        c = mask_stream(2, 0, 1000)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.array_equal(a, mask_stream(1, 0, 1000))
