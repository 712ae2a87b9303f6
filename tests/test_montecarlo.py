import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from phaselink.errors import InsufficientStatistics
from phaselink import montecarlo
from phaselink.montecarlo import (
    CLASS_DECOY,
    CLASS_SIGNAL,
    CLASS_VACUUM,
    BatchStats,
    ClassCounts,
    SPARSE_WORD_MEAN,
    PulsePlan,
    class_counts,
    class_schedule,
    classes_at,
    count_thresholds,
    detect,
    draw_classes,
    schedule_counts,
    simulate_batch,
    sparse_clicks,
    split_seed,
    stats_to_observables,
)
from phaselink.rates import (
    E0_BACKGROUND,
    DecoyObservables,
    DetectorConfig,
    SourceConfig,
    forward_gains,
    gain_and_qber,
)
from phaselink.rng import _BLOCK, raw64, raw64_at, uniforms

SRC = SourceConfig(mu=0.71, nu=0.28)
DET = DetectorConfig(p_d=1e-6, eta_d=0.2, visibility=0.9847, eta_b=10 ** -0.65)
ETA_MEASURED = 10 ** (-17.83 / 10) * 10 ** (-6.5 / 10) * 0.2
# pulse counts on both sides of the edges of the rng blocks the kernels stream
BLOCK_SIZES = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5]


def link_probabilities(eta, det):
    """Click and error probabilities of the signal, decoy and vacuum classes."""
    intensities = (SRC.mu, SRC.nu, 0.0)
    p_click = [1.0 - (1.0 - det.y0) * math.exp(-eta * a) for a in intensities]
    return np.array(p_click), np.array([gain_and_qber(eta, a, det)[1] for a in intensities])


def closed_form_se(p, n):
    """Standard error of a frequency against a known probability."""
    return math.sqrt(p * (1.0 - p) / n)


class TestPulsePlan:
    def test_schedule_frequencies(self):
        plan = PulsePlan.make(1_000_000, (30, 2, 1), seed=1)
        counts = np.bincount(plan[:], minlength=3)
        for c, expect in zip(counts, (30 / 33, 2 / 33, 1 / 33)):
            p_hat = c / plan.n_pulses
            assert abs(p_hat - expect) < 4 * closed_form_se(expect, plan.n_pulses)

    def test_deterministic(self):
        p1 = PulsePlan.make(10_000, (30, 2, 1), seed=7)
        p2 = PulsePlan.make(10_000, (30, 2, 1), seed=7)
        assert np.array_equal(p1[:], p2[:])

    def test_reads_as_the_class_array(self):
        # len, contiguous slices, positions and counts() read the schedule
        # split_seed(seed, 0) from the seed, with no class array held
        n = 8 * _BLOCK + 13
        plan = PulsePlan(n, 5, 0.6, 0.3)
        classes = class_schedule(split_seed(5, 0), n, 0.6, 0.3)
        pos = np.array([n - 1, 0, 7, 7, 8 * _BLOCK])
        assert len(plan) == n
        assert np.array_equal(plan[:], classes)
        assert np.array_equal(plan[3 : n - 5], classes[3 : n - 5])
        assert np.array_equal(plan[pos], classes[pos])
        assert plan.counts().tolist() == class_counts(classes)[0].tolist()
        with pytest.raises(ValueError):
            plan[::2]


# (p_sig, p_dec): fractional boundaries, 256 t an integer (a tied lane is
# never below t), the mixes (1, 1, 0) and (0, 1, 1), t = 1 (b = 256 meets a
# uint8 lane) and t = 0, and fractions 256 t - b near 0 and near 1
MIXES = [
    (0.6, 0.3),
    (30 / 33, 2 / 33),
    (0.5, 0.25),
    (0.5, 0.5),
    (0.0, 0.5),
    (1.0, 0.0),
    (0.0, 1.0),
    ((100 + 2.0**-30) / 256, 99 / 256),
]


class TestDrawClasses:
    def test_thresholds(self):
        # every lane value at p_sig = 0.6 (b = 153) and p_sig + p_dec = 0.9
        # (b = 230); a tied lane is decided by its tie draw's uniform
        lanes = np.arange(256, dtype=np.uint8)
        classes = draw_classes(lanes, 0.6, 0.3, 7, 1000)
        assert classes.dtype == np.uint8
        expect = [CLASS_SIGNAL] * 153 + [-1] + [CLASS_DECOY] * 76 + [-1] + [CLASS_VACUUM] * 25
        u_tie = (raw64_at(split_seed(7, 0), [1153, 1230]) >> np.uint64(11)) * 2.0**-53
        expect[153] = CLASS_SIGNAL if u_tie[0] < 256 * 0.6 - 153 else CLASS_DECOY
        expect[230] = CLASS_DECOY if u_tie[1] < 256 * 0.9 - 230 else CLASS_VACUUM
        assert classes.tolist() == expect

    @pytest.mark.parametrize(
        "p_sig,p_dec", [(30 / 33, 2 / 33), (0.75, 0.25), (0.5, 0.5), (1.0, 0.0), (0.0, 1.0)]
    )
    def test_matches_float_reference(self, lanes_of, p_sig, p_dec):
        # the byte compare and the tie refinement give the classes that
        # comparing the 61-bit uniforms gives, also with no vacuum share,
        # where p_sig + p_dec is exactly 1.0, and at the extreme lanes
        n = 100_000
        lanes = lanes_of(3, n)
        lanes[:4] = [0, 255, math.floor(256 * p_sig) % 256, math.floor(256 * (p_sig + p_dec)) % 256]
        u61 = lanes.astype(np.uint64) << np.uint64(53)
        u61 |= raw64(split_seed(11, 0), n) >> np.uint64(11)
        reference = np.full(n, CLASS_VACUUM, dtype=np.uint8)
        reference[u61 < np.uint64(math.ceil((p_sig + p_dec) * 2.0**61))] = CLASS_DECOY
        reference[u61 < np.uint64(math.ceil(p_sig * 2.0**61))] = CLASS_SIGNAL
        assert np.array_equal(draw_classes(lanes, p_sig, p_dec, 11, 0), reference)
        if p_sig + p_dec == 1.0:
            assert not np.any(reference == CLASS_VACUUM)

    @pytest.mark.parametrize("p_sig,p_dec", MIXES)
    def test_ties_exact(self, p_sig, p_dec):
        # lanes at and next to both boundary bytes, so most pulses tie,
        # against exact rational compares of U / 2^61 with each threshold
        bounds = [math.floor(256 * t) for t in (p_sig, p_sig + p_dec)]
        near = [v for b in bounds for v in (b - 1, b, b, b, b + 1) if 0 <= v < 256] + [0, 255]
        lanes = np.resize(np.array(near, dtype=np.uint8), 4000)
        first = 1 << 40
        z = raw64_at(split_seed(13, 0), first + np.arange(len(lanes))).tolist()
        thresholds = [Fraction(t) for t in (p_sig, p_sig + p_dec)]
        expect = [
            sum(Fraction((int(lane) << 53) + (w >> 11), 1 << 61) >= t for t in thresholds)
            for lane, w in zip(lanes, z)
        ]
        assert draw_classes(lanes, p_sig, p_dec, 13, first).tolist() == expect

    def test_plan_without_vacuum_share(self):
        schedule = PulsePlan.make(10_000, (1, 1, 0), seed=2)[:]
        assert np.count_nonzero(schedule == CLASS_VACUUM) == 0
        assert 0 < np.count_nonzero(schedule == CLASS_DECOY) < 10_000


class TestClassSchedule:
    @pytest.mark.parametrize("offset", [0, 5, _BLOCK - 3, 3 * _BLOCK + 11])
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_matches_full_length_draw(self, reference_classes, n, offset):
        # drawn block by block, the schedule is the reference rule applied to
        # the whole slice of raw draws
        schedule = class_schedule(17, n, 0.6, 0.3, offset)
        assert schedule.dtype == np.uint8
        assert np.array_equal(schedule, reference_classes(17, n, 0.6, 0.3, offset))

    @pytest.mark.parametrize("skip", range(1, 8))
    def test_lane_offsets_and_block_edges(self, reference_classes, skip):
        # an offset inside a draw, and slices cut inside draws and at draw
        # edges, read the lanes that one whole slice reads; the whole slice,
        # and a part that starts inside a draw, each span two rng blocks
        offset = 8 * 1000 + skip
        n = 8 * _BLOCK + 40
        whole = class_schedule(5, n, 0.6, 0.3, offset)
        assert np.array_equal(whole, reference_classes(5, n, 0.6, 0.3, offset))
        cuts = [0, 1, 8 - skip, 11 - skip, n - 9, n]
        parts = [class_schedule(5, b - a, 0.6, 0.3, offset + a) for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("p_sig,p_dec", MIXES)
    def test_draw_budget(self, lanes_of, count_draws, p_sig, p_dec):
        # one draw per 8 pulses, and one more per pulse whose lane ties
        n, offset = 100_003, 13
        lanes = lanes_of(6, n, offset)
        bounds = [math.floor(256 * t) for t in (p_sig, p_sig + p_dec)]
        ties = np.count_nonzero(np.isin(lanes, bounds))
        drawn = count_draws()
        class_schedule(6, n, p_sig, p_dec, offset)
        assert sum(drawn) <= -(-(n + 7) // 8) + ties + 8

    @pytest.mark.parametrize("p_sig,p_dec", [(30 / 33, 2 / 33), (0.6, 0.3), (1 / 3, 1 / 3)])
    def test_class_frequencies(self, p_sig, p_dec):
        # each class count within its exact two-sided 1e-4 binomial tails
        n = 1_000_003
        counts = np.bincount(class_schedule(21, n, p_sig, p_dec, 3), minlength=3)
        for observed, prob in zip(counts, (p_sig, p_dec, 1.0 - p_sig - p_dec)):
            assert binom.cdf(observed, n, prob) > 5e-5
            assert binom.sf(observed - 1, n, prob) > 5e-5


# (p_sig, p_dec) with p_sig + p_dec <= 1: anywhere; on boundary bytes k / 256
# (tie fraction 0, so a tied lane is never below); both thresholds inside one
# byte; no decoy share; all signal
ANY_MIX = st.floats(0.0, 1.0).flatmap(lambda p: st.tuples(st.just(p), st.floats(0.0, 1.0 - p)))
BYTE_MIX = st.tuples(st.integers(0, 256), st.integers(0, 256)).filter(
    lambda k: sum(k) <= 256
).map(lambda k: (k[0] / 256, k[1] / 256))
ONE_BYTE_MIX = (
    st.tuples(st.integers(0, 255), st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0))
    .map(lambda t: ((t[0] + t[1]) / 256, (1.0 - t[1]) * t[2] / 256))
    .filter(lambda m: math.floor(256 * m[0]) == math.floor(256 * (m[0] + m[1])))
)
MIX = st.one_of(
    ANY_MIX,
    BYTE_MIX,
    ONE_BYTE_MIX,
    st.floats(0.0, 1.0).map(lambda p: (p, 0.0)),
    st.just((1.0, 0.0)),
)
SEED = st.integers(0, (1 << 64) - 1)
# pulse counts not multiples of 8, and past one rng block of 8 * _BLOCK lanes
SPAN = st.one_of(st.integers(0, 300), st.integers(8 * _BLOCK - 9, 8 * _BLOCK + 9))


def tied_mix(data, lane: int) -> tuple:
    """A mix whose one boundary byte is lane, so that lane's pulse ties."""
    p = (lane + data.draw(st.floats(0.0, 1.0, exclude_max=True))) / 256
    return data.draw(st.sampled_from([(p, 0.5 * (1.0 - p)), (0.0, p)]))


class TestScheduleReads:
    """schedule_counts and classes_at give what the class array gives."""

    @settings(max_examples=60, deadline=None)
    @given(seed=SEED, n=SPAN, mix=MIX)
    # both boundary bytes are 128: floor(256 p_sig) == floor(256 (p_sig + p_dec))
    @example(seed=77, n=8 * _BLOCK + 5, mix=(0.5 + 2.0**-10, 2.0**-10))
    # p_sig + p_dec = 1: the vacuum boundary byte is 256, which no lane equals
    @example(seed=78, n=8 * _BLOCK + 5, mix=(0.75 + 2.0**-10, 0.25 - 2.0**-10))
    # the signal boundary byte is 0, and lane 0 ties it
    @example(seed=79, n=8 * _BLOCK + 5, mix=(2.0**-10, 0.5))
    # all signal: both boundary bytes are 256
    @example(seed=80, n=8 * _BLOCK + 5, mix=(1.0, 0.0))
    def test_counts_match_class_array(self, seed, n, mix):
        counts = schedule_counts(seed, n, *mix)
        assert counts.dtype == np.int64
        assert counts.tolist() == class_counts(class_schedule(seed, n, *mix))[0].tolist()

    @settings(max_examples=60, deadline=None)
    @given(seed=SEED, n=st.integers(1, 300), data=st.data())
    def test_counts_match_with_a_tied_lane(self, lanes_of, seed, n, data):
        # short ranges hold a tied lane only when a boundary byte is one of theirs
        lane = lanes_of(seed, n)[data.draw(st.integers(0, n - 1))]
        mix = tied_mix(data, int(lane))
        counts = schedule_counts(seed, n, *mix)
        assert counts.tolist() == class_counts(class_schedule(seed, n, *mix))[0].tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=SEED,
        positions=st.one_of(
            # sparse, and dense with repeats: byte_lanes_at's two gathers
            st.lists(st.integers(0, 1 << 22), max_size=20),
            st.integers(0, 1 << 22).flatmap(lambda b: st.lists(st.integers(b, b + 70), max_size=90)),
        ),
        data=st.data(),
    )
    def test_classes_at_match_class_array(self, lanes_of, seed, positions, data):
        pos = np.array(positions, dtype=np.int64)
        if len(pos) and data.draw(st.booleans()):
            mix = tied_mix(data, int(lanes_of(seed, 1, int(pos[0]))[0]))
        else:
            mix = data.draw(MIX)
        got = classes_at(seed, pos, *mix)
        assert got.dtype == np.uint8 and len(got) == len(pos)
        if len(pos):
            lo, hi = int(pos.min()), int(pos.max()) + 1
            assert np.array_equal(got, class_schedule(seed, hi - lo, *mix, lo)[pos - lo])

class TestClassCounts:
    @staticmethod
    def reference(classes, *positions):
        rows = [classes] + [classes[pos] for pos in positions]
        return np.array([np.bincount(row, minlength=3) for row in rows])

    def test_matches_bincount(self):
        classes = class_schedule(9, 10_000, 0.5, 0.3)
        hit = np.flatnonzero(uniforms(10, 10_000) < 0.2)
        empty = np.empty(0, dtype=np.int64)
        for positions in ((), (hit,), (empty,), (hit, hit[::3], empty)):
            counts = class_counts(classes, *positions)
            assert counts.dtype == np.int64
            assert np.array_equal(counts, self.reference(classes, *positions))

    def test_absent_class(self):
        for classes in (class_schedule(9, 1000, 0.5, 0.5), np.full(100, CLASS_DECOY, np.uint8)):
            hit = np.arange(0, len(classes), 7)
            counts = class_counts(classes, hit)
            assert not counts[:, CLASS_VACUUM].any()
            assert np.array_equal(counts, self.reference(classes, hit))
        assert class_counts(np.empty(0, np.uint8)).tolist() == [[0, 0, 0]]


class TestDetect:
    def test_errors_only_on_clicks(self):
        det = DetectorConfig(p_d=1e-2, eta_d=0.2, visibility=0.5)
        classes = PulsePlan.make(100_000, (1, 1, 1), seed=4)[:]
        hit, err, _ = detect(classes, 0.5, SRC, det, 1, 2)
        assert hit.dtype == np.int64 and err.dtype == bool
        assert np.all(np.diff(hit) > 0)  # ascending, no repeats
        assert 0 <= hit[0] and hit[-1] < len(classes)
        assert len(err) == len(hit)  # one error flag per click
        assert 0 < np.count_nonzero(err) < len(hit)

    def test_union_click_probability(self):
        # with Y0 = 0.4 the union 1 - (1 - Y0) e^(-eta a) and the additive
        # Y0 + 1 - e^(-eta a) are 0.14 apart; the kernel follows the union
        det = DetectorConfig(p_d=0.2, eta_d=0.2, visibility=0.9847)
        n = 200_000
        classes = np.full(n, CLASS_SIGNAL, dtype=np.uint8)
        hit, _, _ = detect(classes, 0.5, SRC, det, 11, 12)
        union = 1.0 - (1.0 - det.y0) * math.exp(-0.5 * SRC.mu)
        additive = det.y0 - math.expm1(-0.5 * SRC.mu)
        gain = len(hit) / n
        assert abs(gain - union) < 4 * closed_form_se(union, n)
        assert abs(gain - additive) > 50 * closed_form_se(union, n)

    def test_errors_match_dense_draws(self, reference_below):
        # error lanes are read only at clicked pulses, with the values the
        # full error stream holds there
        det = DetectorConfig(p_d=1e-2, eta_d=0.2, visibility=0.5)
        classes = PulsePlan.make(50_000, (1, 1, 1), seed=5)[:]
        hit, err, _ = detect(classes, 0.3, SRC, det, 31, 32)
        p_click, p_err = link_probabilities(0.3, det)
        # the reference compares every pulse's 61-bit uniform with its class's probability
        pulses = np.arange(len(classes))
        clicks = reference_below(31, pulses, p_click[classes])
        assert np.array_equal(hit, np.flatnonzero(clicks))
        dense = clicks & reference_below(32, pulses, p_err[classes])
        assert err.dtype == bool
        assert np.array_equal(err, dense[hit])
        assert np.array_equal(hit[err], np.flatnonzero(dense))

    @pytest.mark.parametrize("n", BLOCK_SIZES + [8 * _BLOCK - 1, 8 * _BLOCK + 9])
    def test_matches_full_length_compare(self, reference_below, n):
        # clicks compared lane block by lane block are the per-class compare
        # on the whole click stream; errors read the error stream at the clicks
        det = DetectorConfig(p_d=1e-2, eta_d=0.2, visibility=0.5)
        classes = class_schedule(6, n, 0.4, 0.3)
        hit, err, _ = detect(classes, 0.3, SRC, det, 41, 42)
        p_click, p_err = link_probabilities(0.3, det)
        reference = reference_below(41, np.arange(n), p_click[classes])
        assert hit.dtype == np.int64
        assert np.array_equal(hit, np.flatnonzero(reference))
        assert np.array_equal(err, reference_below(42, hit, p_err[classes[hit]]))

    def test_draw_budget(self, lanes_of, count_draws):
        # one click word per 8 pulses, the words that cover the clicks' error
        # lanes, and one tie draw per lane equal to its probability's
        # boundary byte floor(256 p): not one draw per pulse or per click
        n = 100_003
        classes = class_schedule(6, n, 0.4, 0.3)
        click_lanes, error_lanes = lanes_of(43, n), lanes_of(44, n)
        p_click, p_err = link_probabilities(1.0, DET)
        assert not sparse_clicks(p_click.max())
        drawn = count_draws()
        hit, _, _ = detect(classes, 1.0, SRC, DET, 43, 44)
        assert 8 * len(hit) > hit[-1] - hit[0]  # dense enough to gather the error lanes
        click_ties = np.count_nonzero(click_lanes == np.floor(256 * p_click[classes]))
        error_ties = np.count_nonzero(error_lanes[hit] == np.floor(256 * p_err[classes[hit]]))
        error_words = hit[-1] // 8 - hit[0] // 8 + 1
        assert sum(drawn) <= -(-n // 8) + error_words + click_ties + error_ties + 8

    @pytest.mark.parametrize(
        "eta,det", [(0.3, DetectorConfig(p_d=1e-2, eta_d=0.2, visibility=0.5)), (1.0, DET)]
    )
    def test_class_frequencies(self, eta, det):
        # clicks per class among the sent pulses, and errors per class among
        # the clicks, each within its exact two-sided 1e-4 binomial tails
        n = 1_000_003
        classes = class_schedule(23, n, 0.4, 0.3)
        hit, err, _ = detect(classes, eta, SRC, det, 81, 82)
        sent, clicked, errored = class_counts(classes, hit, hit[err])
        for observed, trials, probs in zip(
            (clicked, errored), (sent, clicked), link_probabilities(eta, det)
        ):
            for k, m, prob in zip(observed, trials, probs):
                assert binom.cdf(k, m, prob) > 5e-5
                assert binom.sf(k - 1, m, prob) > 5e-5

    def test_flip_rate_statistics(self):
        # clicked vacuum pulses are background clicks, wrong half the time;
        # clicked signal pulses flip at the closed-form conditional QBER
        det = DetectorConfig(p_d=1e-3, eta_d=0.2, visibility=1.0, e_mis=0.0287)
        for cls_, a in ((CLASS_VACUUM, 0.0), (CLASS_SIGNAL, SRC.mu)):
            e = gain_and_qber(1.0, a, det)[1]
            classes = np.full(1_000_000, cls_, dtype=np.uint8)
            hit, err, _ = detect(classes, 1.0, SRC, det, 21, 22)
            assert abs(np.count_nonzero(err) / len(hit) - e) < 4 * closed_form_se(e, len(hit))
        assert e > 0.0287  # dark clicks add to the misalignment error


class TestSparseClicks:
    """The skip-sampling click path that detect takes on lossy links."""

    def test_switch(self):
        # sparse while a 64-pulse word expects at most SPARSE_WORD_MEAN candidates
        edge = SPARSE_WORD_MEAN / 64
        assert sparse_clicks(0.0) and sparse_clicks(edge)
        assert not sparse_clicks(math.nextafter(edge, 1.0))
        assert sparse_clicks(ETA_MEASURED * SRC.mu)  # the measured link
        assert not sparse_clicks(0.5)  # a desk-scale link

    @pytest.mark.parametrize(
        "p,head,n_below",
        [
            (1 / 64, [3287506349160228, 6627195338783316, 8297039833594860], 64),
            (4.5e-4, [8751435051622703, 9003589850769053, 9007165754203498], 6),
        ],
    )
    def test_count_thresholds_pinned(self, p, head, n_below):
        # IEEE products and sums only: the same integers on every host
        table = count_thresholds(p)
        assert table.dtype == np.uint64 and len(table) == 64
        assert table[:3].tolist() == head
        assert np.count_nonzero(table < 1 << 53) == n_below
        assert np.all(np.diff(table.astype(np.int64)) >= 0)
        reference = binom.cdf(np.arange(64), 64, p)
        assert np.allclose(table / 2.0**53, reference, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("p", [1 / 64, 4.5e-4])
    def test_word_counts_follow_table(self, p):
        # with no thinning, a word's clicks are its candidates: their count
        # per word k = 0, 1, 2 and >= 3 against the table's probabilities,
        # each by exact binomial tails at two-sided significance 1e-4
        n_words = 1 << 16
        classes = np.zeros(64 * n_words, dtype=np.uint8)
        hit, _ = montecarlo._sparse_hits(classes, [p, p, p], 51)
        per_word = np.bincount(hit // 64, minlength=n_words)
        cdf = count_thresholds(p) / 2.0**53
        probs = [cdf[0], cdf[1] - cdf[0], cdf[2] - cdf[1], 1.0 - cdf[2]]
        seen = [np.count_nonzero(per_word == k) for k in range(3)]
        seen.append(n_words - sum(seen))
        for observed, prob in zip(seen, probs):
            assert binom.cdf(observed, n_words, prob) > 5e-5
            assert binom.sf(observed - 1, n_words, prob) > 5e-5

    def test_thinned_class_gains(self):
        # each class keeps candidates at p_c / p_max: its gain is p_c within 4 SE
        n = 3 << 20
        classes = class_schedule(8, n, 1 / 3, 1 / 3)
        p_click = [1 / 64, 0.5 / 64, 0.1 / 64]
        hit, _ = montecarlo._sparse_hits(classes, p_click, 61)
        counts = class_counts(classes, hit)
        for c, p in enumerate(p_click):
            gain = counts[1, c] / counts[0, c]
            assert abs(gain - p) < 4 * closed_form_se(p, counts[0, c])

    def test_slots_uniform_within_words(self):
        # distinct slots drawn by Floyd's algorithm favour no slot of a word,
        # also when most words hold many candidates
        n_words, p = 20_000, 0.5
        hit, _ = montecarlo._sparse_hits(np.zeros(64 * n_words, np.uint8), [p, p, p], 71)
        lanes = np.bincount(hit % 64, minlength=64) / n_words
        assert np.all(np.abs(lanes - p) < 4 * closed_form_se(p, n_words))

    @pytest.mark.parametrize("p", [4.5e-4, 1 / 64, 0.3])
    @pytest.mark.parametrize("n", BLOCK_SIZES + [63, 65, 1000])
    def test_positions_ascending_and_distinct(self, n, p):
        # strictly ascending positions are distinct slots within each word,
        # and slots at or beyond len(classes) of the last word are dropped
        classes = class_schedule(9, n, 0.5, 0.3)
        hit, cls = montecarlo._sparse_hits(classes, [p, p / 2, p / 4], 91)
        assert hit.dtype == np.int64
        assert np.array_equal(cls, classes[hit])  # the candidates' classes, kept with them
        assert np.all(np.diff(hit) > 0)
        assert np.all((0 <= hit) & (hit < n))

    def test_no_clicks_without_light_or_dark(self, count_draws):
        classes = class_schedule(3, 10_000, 0.5, 0.3)
        drawn = count_draws()
        hit, cls = montecarlo._sparse_hits(classes, [0.0, 0.0, 0.0], 5)
        assert len(hit) == len(cls) == 0
        assert sum(drawn) == 0

    @pytest.mark.parametrize("p", [4.5e-4, 1 / 64])
    def test_draw_budget(self, count_draws, p):
        # one count draw per word, then one slot and one thinning draw per
        # candidate: at most n/64 + 3 p_max n + O(1) draws, not one per pulse
        n = 1 << 20
        classes = class_schedule(4, n, 30 / 33, 2 / 33)
        drawn = count_draws()
        montecarlo._sparse_hits(classes, [p, p / 2, p / 100], 101)
        assert sum(drawn) <= n / 64 + 3 * p * n + 8

    def test_detect_takes_the_sparse_path(self, reference_below):
        # at the measured eta detect's clicks are the sparse kernel's, and
        # its errors still read the error stream's lanes at the clicks
        classes = class_schedule(10, 500_000, 30 / 33, 2 / 33)
        hit, err, _ = detect(classes, ETA_MEASURED, SRC, DET, 111, 112)
        p_click, p_err = link_probabilities(ETA_MEASURED, DET)
        assert np.array_equal(hit, montecarlo._sparse_hits(classes, p_click, 111)[0])
        assert np.array_equal(err, reference_below(112, hit, p_err[classes[hit]]))


class TestSimulateBatch:
    def test_no_light_no_dark_no_clicks(self):
        det = DetectorConfig(p_d=0.0, eta_d=0.2, visibility=0.9847)
        plan = PulsePlan.make(100_000, (30, 2, 1), seed=3)
        stats = simulate_batch(plan, 0.0, SRC, det)
        assert stats.signal.clicked == 0
        assert stats.decoy.clicked == 0
        assert stats.vacuum.clicked == 0

    def test_vacuum_class_background_only(self):
        # vacuum pulses click at the dark floor with QBER 1/2
        det = DetectorConfig(p_d=1e-3, eta_d=0.2, visibility=0.9847)
        plan = PulsePlan.make(2_000_000, (1, 1, 4), seed=11)
        stats = simulate_batch(plan, 1e-3, SRC, det)
        y0 = det.y0
        assert abs(stats.vacuum.gain - y0) < 4 * closed_form_se(y0, stats.vacuum.sent)
        assert abs(stats.vacuum.qber - 0.5) < 4 * closed_form_se(0.5, stats.vacuum.clicked)

    def test_reproducible(self):
        plan = PulsePlan.make(200_000, (30, 2, 1), seed=5)
        s1 = simulate_batch(plan, ETA_MEASURED, SRC, DET)
        s2 = simulate_batch(plan, ETA_MEASURED, SRC, DET)
        assert s1 == s2

    def test_memory_stays_within_blocks(self):
        # no per-pulse array: the schedule is counted and read at positions,
        # and detection builds only per-block and per-click arrays, so a
        # 1e7-pulse measured-link batch peaks far below the 9.5 MiB that its
        # class array alone would take
        tracemalloc.start()
        try:
            plan = PulsePlan.make(10_000_000, SRC.mix_ratio, seed=3)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            simulate_batch(plan, ETA_MEASURED, SRC, DET)
            batch_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert batch_peak < 4 << 20

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, (1 << 64) - 1),
        n=st.one_of(st.integers(1, 5000), st.integers(8 * _BLOCK - 9, 3 << 19)),
        mix_ratio=st.sampled_from([SRC.mix_ratio, (1, 1, 1), (1, 0, 1)]),
    )
    @pytest.mark.parametrize("eta", [0.3, ETA_MEASURED])
    def test_matches_class_array(self, eta, seed, n, mix_ratio):
        # the dense link reads slices of the schedule, the lossy one positions;
        # either way the tallies are the class array's
        plan = PulsePlan.make(n, mix_ratio, seed)
        classes = plan[:]
        hit, err, cls = detect(classes, eta, SRC, DET, split_seed(seed, 1), split_seed(seed, 2))
        # detect reads the plan as it reads the array, and hands back the
        # clicks' classes from that one read
        from_plan = detect(plan, eta, SRC, DET, split_seed(seed, 1), split_seed(seed, 2))
        for got, expect in zip(from_plan, (hit, err, cls)):
            assert got.dtype == expect.dtype and np.array_equal(got, expect)
        assert np.array_equal(cls, classes[hit])
        stats = simulate_batch(plan, eta, SRC, DET)
        got = [[c.sent, c.clicked, c.errored] for c in (stats.signal, stats.decoy, stats.vacuum)]
        assert got == class_counts(classes, hit, hit[err]).T.tolist()

    def test_matches_closed_form_at_measured_eta(self):
        # 1e7 pulses against the closed-form gains within 4 standard errors
        obs = forward_gains(ETA_MEASURED, SRC, DET)
        plan = PulsePlan.make(10_000_000, SRC.mix_ratio, seed=20250526)
        stats = simulate_batch(plan, ETA_MEASURED, SRC, DET)
        assert abs(stats.signal.gain - obs.q_mu) < 4 * closed_form_se(obs.q_mu, stats.signal.sent)
        assert abs(stats.decoy.gain - obs.q_nu) < 4 * closed_form_se(obs.q_nu, stats.decoy.sent)

    @pytest.mark.parametrize(
        "eta,p_d,vis",
        [
            (3e-3, 1e-6, 0.9847),
            (3e-2, 1e-6, 0.95),
            (0.3, 1e-5, 0.99),
            (1.0, 1e-4, 0.9847),
            (1e-3, 1e-5, 0.92),
        ],
    )
    def test_oracle_equivalence_grid(self, eta, p_d, vis):
        det = DetectorConfig(p_d=p_d, eta_d=0.2, visibility=vis, eta_b=1.0)
        obs = forward_gains(eta, SRC, det)
        plan = PulsePlan.make(1_000_000, SRC.mix_ratio, seed=split_seed(99, int(eta * 1e6)))
        stats = simulate_batch(plan, eta, SRC, det)
        for counts, gain, qber in (
            (stats.signal, obs.q_mu, obs.e_mu),
            (stats.decoy, obs.q_nu, obs.e_nu),
        ):
            assert abs(counts.gain - gain) < 4 * closed_form_se(gain, counts.sent)
            expected_clicks = gain * counts.sent
            assert abs(counts.qber - qber) < 4 * closed_form_se(qber, expected_clicks)

    def test_gain_monotone_in_eta(self):
        gains, ses = [], []
        for i, eta in enumerate((1e-4, 1e-3, 1e-2)):
            plan = PulsePlan.make(10_000_000, SRC.mix_ratio, seed=split_seed(7, i))
            stats = simulate_batch(plan, eta, SRC, DET)
            gains.append(stats.signal.gain)
            ses.append(stats.signal.se_gain)
        assert gains[1] - gains[0] > 3 * math.hypot(ses[0], ses[1])
        assert gains[2] - gains[1] > 3 * math.hypot(ses[1], ses[2])


class TestStatsToObservables:
    def test_pipeline_at_measured_eta(self):
        # q1 is linear in the three class gains (rates.decoy_estimate), so the
        # decoy q1 of a 1e7-pulse batch strays from the asymptotic q1 by at
        # most the sum of |dq1/dgain| times each gain's stray. Each class's
        # click count is held to its exact two-sided 1e-4 binomial quantiles
        # at the model's gain (the vacuum class expects under one click), so
        # the test fails with probability at most 3e-4.
        from phaselink.rates import decoy_estimate

        plan = PulsePlan.make(10_000_000, SRC.mix_ratio, seed=314159)
        stats = simulate_batch(plan, ETA_MEASURED, SRC, DET)
        est = decoy_estimate(stats_to_observables(stats), SRC)
        model = forward_gains(ETA_MEASURED, SRC, DET)
        asymptotic = decoy_estimate(model, SRC)
        mu, nu = SRC.mu, SRC.nu
        scale = mu**2 * math.exp(-mu) / (mu * nu - nu**2)
        slopes = (
            scale * math.exp(mu) * nu**2 / mu**2,
            scale * math.exp(nu),
            scale * (mu**2 - nu**2) / mu**2,
        )
        bound = 0.0
        for counts, gain, slope in zip(
            (stats.signal, stats.decoy, stats.vacuum), (model.q_mu, model.q_nu, model.y0), slopes
        ):
            low = binom.ppf(5e-5, counts.sent, gain) / counts.sent
            high = binom.isf(5e-5, counts.sent, gain) / counts.sent
            bound += slope * max(gain - low, high - gain)
        assert est.q1 > 0.0
        assert abs(est.q1 - asymptotic.q1) < bound

    def test_all_zero_clicks(self):
        stats = BatchStats(
            signal=ClassCounts(1000, 0, 0),
            decoy=ClassCounts(100, 0, 0),
            vacuum=ClassCounts(50, 0, 0),
        )
        with pytest.raises(InsufficientStatistics):
            stats_to_observables(stats)

    def test_analytic_embedding_roundtrip(self):
        # sent = 2^30 makes clicked / sent reproduce each gain bit-exactly
        obs = DecoyObservables(q_mu=5.31e-4, e_mu=0.0287, q_nu=2.09e-4, e_nu=0.0401, y0=2e-6)
        sent = 2.0**30
        stats = BatchStats(
            signal=ClassCounts(sent, obs.q_mu * sent, obs.e_mu * obs.q_mu * sent),
            decoy=ClassCounts(sent, obs.q_nu * sent, obs.e_nu * obs.q_nu * sent),
            vacuum=ClassCounts(sent, obs.y0 * sent, E0_BACKGROUND * obs.y0 * sent),
        )
        back = stats_to_observables(stats)
        assert back.q_mu == obs.q_mu
        assert back.e_mu == obs.e_mu
        assert back.q_nu == obs.q_nu
        assert back.e_nu == obs.e_nu
        assert back.y0 == obs.y0

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            ClassCounts(sent=10, clicked=11, errored=0)
        with pytest.raises(ValueError):
            ClassCounts(sent=10, clicked=5, errored=6)
