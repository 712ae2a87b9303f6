import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from phaselink.errors import FrameCorrupt, FrameLost, KeyPoolExhausted
from phaselink.protocol.framing import chip_count, decode, preprocess
from phaselink.protocol.ledger import KeyLedger
from phaselink.rng import random_bits, random_bytes, split_seed


def make_payload(seed):
    return random_bytes(split_seed(0xF00D, seed), 125)


def all_chips(fec, spread):
    return np.arange(chip_count(fec, spread))


def on_air(*args, **kwargs):
    """preprocess's chips unpacked, one uint8 0/1 per chip."""
    return np.unpackbits(preprocess(*args, **kwargs), bitorder="little")


class TestFrame:
    def test_payload_length_enforced(self):
        with pytest.raises(ValueError):
            preprocess(b"x" * 124, 0, 1, 1, key_seed=1, mask_seed=2)
        with pytest.raises(ValueError):
            preprocess(b"x" * 126, 0, 1, 1, key_seed=1, mask_seed=2)

    def test_chip_count_spread_1920(self):
        assert chip_count(1, 1920) == 1_920_000
        assert len(preprocess(bytes(125), 0, 1, 1920, key_seed=1, mask_seed=2)) == 1_920_000 // 8
        with pytest.raises(ValueError):
            chip_count(0, 1920)


class TestPreprocess:
    def test_identity_pipeline(self):
        # unit ratios: removing key[f*n + i] and mask_f[i] leaves the payload bits
        payload = make_payload(1)
        n = chip_count(1, 1)
        chips = on_air(payload, 3, 1, 1, key_seed=4, mask_seed=9)
        chips ^= random_bits(4, n, offset=3 * n)
        chips ^= random_bits(split_seed(9, 3), n)
        assert np.array_equal(chips, np.unpackbits(np.frombuffer(payload, dtype=np.uint8)))

    def test_invertible(self):
        payload = make_payload(2)
        chips = on_air(payload, 3, 2, 5, key_seed=42, mask_seed=9)
        assert decode(chips, all_chips(2, 5), 3, 2, 5, 42, 9) == payload

    @pytest.mark.parametrize("frame_id,spread", [(3, 1920), (5, 3)])
    def test_pad_draws_packed_bits(self, count_draws, frame_id, spread):
        # the key and mask streams cost one draw per 64 chips, plus one
        # for a key offset that is not a multiple of 64
        payload, drawn = make_payload(6), count_draws()
        n = chip_count(1, spread)
        preprocess(payload, frame_id, 1, spread, key_seed=4, mask_seed=9)
        assert 0 < sum(drawn) <= 2 * (-(-n // 64) + 1)

    @given(seed=st.integers(0, 2**32), frame_id=st.integers(0, 40))
    def test_matches_repeat_form(self, seed, frame_id):
        # fec 3, spread 7: 21,000 chips per frame, so the key offset
        # frame_id * 21,000 falls inside a 64-bit draw for most frames, and
        # a payload bit's 21 chips start inside a chip byte
        self.check_packed_repeat_form(3, 7, seed, frame_id)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32), frame_id=st.integers(0, 40))
    def test_matches_repeat_form_spread_1920(self, seed, frame_id):
        # the measured link's ratios: 240 whole chip bytes per payload bit
        self.check_packed_repeat_form(1, 1920, seed, frame_id)

    @staticmethod
    def check_packed_repeat_form(fec, spread, seed, frame_id):
        n = chip_count(fec, spread)
        payload = make_payload(seed)
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
        reference = (
            np.repeat(bits, fec * spread)
            ^ random_bits(4, n, offset=frame_id * n)
            ^ random_bits(split_seed(9, frame_id), n)
        )
        chips = preprocess(payload, frame_id, fec, spread, key_seed=4, mask_seed=9)
        assert chips.dtype == np.uint8 and len(chips) == n // 8
        assert np.array_equal(chips, np.packbits(reference, bitorder="little"))

    def test_ledger_debit(self):
        # the sender debits one pad bit per chip of each frame it encodes
        n = chip_count(1, 2)
        ledger = KeyLedger.with_initial(n + 5)
        ledger.debit(n)
        assert ledger.consumed == n
        assert ledger.pool_bits == 5
        with pytest.raises(KeyPoolExhausted):
            ledger.debit(n)


class TestDecode:
    def test_roundtrip_many_payloads(self):
        # lossless channel: decode(preprocess(x)) == x
        for i in range(1000):
            payload = make_payload(100 + i)
            chips = on_air(payload, i, 1, 4, split_seed(5, i), 77)
            assert decode(chips, all_chips(1, 4), i, 1, 4, split_seed(5, i), 77) == payload

    @settings(max_examples=40, deadline=None)
    @given(
        frame_id=st.integers(0, 2**20),
        fec=st.integers(1, 3),
        spread=st.integers(1, 9),
        p_keep=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_survivor_subsets_decode(self, frame_id, fec, spread, p_keep, seed):
        # decode draws the pad at the survivors only; for any ascending
        # survivor set that keeps a chip of every coded-bit group, it agrees
        # with the whole-frame pad that preprocess drew
        payload = make_payload(seed % 1000)
        chips = on_air(payload, frame_id, fec, spread, seed, seed + 1)
        rng = np.random.default_rng(seed)
        kept = rng.random(len(chips)) < p_keep
        n_groups = len(chips) // spread
        kept[np.arange(n_groups) * spread + rng.integers(0, spread, n_groups)] = True
        P = np.flatnonzero(kept)
        assert decode(chips[P], P, frame_id, fec, spread, seed, seed + 1) == payload
        P = all_chips(fec, spread)
        assert decode(chips[P], P, frame_id, fec, spread, seed, seed + 1) == payload

    def test_positions_checked(self):
        chips = on_air(make_payload(9), 0, 1, 2, 7, 11)
        P = all_chips(1, 2)
        with pytest.raises(ValueError):
            decode(chips[:-1], P, 0, 1, 2, 7, 11)
        with pytest.raises(ValueError):
            decode(np.append(chips, 0), np.append(P, len(P)), 0, 1, 2, 7, 11)

    def test_no_redundancy_any_loss_fails(self):
        payload = make_payload(5)
        chips = on_air(payload, 0, 1, 1, 8, 0)
        P = np.delete(all_chips(1, 1), 17)
        with pytest.raises(FrameLost):
            decode(chips[P], P, 0, 1, 1, 8, 0)

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
            chips = on_air(payload, i, 1, spread, split_seed(6, i), 3)
            P = np.flatnonzero(np.random.default_rng(i).random(len(chips)) < p)
            try:
                assert decode(chips[P], P, i, 1, spread, split_seed(6, i), 3) == payload
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
        chips = on_air(payload, 0, 1, 64, 14, 0)
        P = np.flatnonzero(np.random.default_rng(0).random(len(chips)) < p)
        with pytest.raises(FrameLost):
            decode(chips[P], P, 0, 1, 64, 14, 0)

    def test_majority_vote_corrects_flips(self):
        payload = make_payload(6)
        chips = on_air(payload, 0, 1, 9, 21, 5)
        # flip 2 of every 9 chips: strict minority, vote still correct
        flip = np.zeros(len(chips), dtype=np.uint8)
        flip[::9] = 1
        flip[1::9] = 1
        assert decode(chips ^ flip, all_chips(1, 9), 0, 1, 9, 21, 5) == payload

    def test_fec_tie_raises_corrupt(self):
        payload = make_payload(7)
        chips = on_air(payload, 0, 2, 1, 13, 0)
        # flip one copy of the first coded bit: 1-1 tie at the FEC stage
        flip = np.zeros(len(chips), dtype=np.uint8)
        flip[0] = 1
        with pytest.raises(FrameCorrupt):
            decode(chips ^ flip, all_chips(2, 1), 0, 2, 1, 13, 0)


class TestMaskStream:
    def test_keyed_and_per_frame(self):
        # with the payload bits and key[f*n + i] removed, the chips leave
        # the frame's mask; it depends on mask_seed and frame id only
        payload = make_payload(8)
        n = chip_count(1, 1)
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))

        def mask(mask_seed, frame_id):
            chips = on_air(payload, frame_id, 1, 1, key_seed=3, mask_seed=mask_seed)
            return chips ^ bits ^ random_bits(3, n, offset=frame_id * n)

        a = mask(1, 0)
        assert not np.array_equal(a, mask(1, 1))
        assert not np.array_equal(a, mask(2, 0))
        assert np.array_equal(a, mask(1, 0))
        assert np.array_equal(a, random_bits(split_seed(1, 0), n))
