import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import beta, binom

from phaselink.config import ScenarioConfig
from phaselink.errors import NegativeBalance, RegimeViolation
from phaselink.optics import AtmosphereParams, BeamParams, LinkGeometry
from phaselink.protocol import session
from phaselink.protocol.ledger import KeyLedger, ledger_commit
from phaselink.protocol.session import (
    ProtocolParams,
    Seeds,
    _sample_positions,
    run_session_detailed,
)
from phaselink.rates import DetectorConfig, SourceConfig
from phaselink.rng import child, uniforms


def one_frame_spec(det=None, conv_loss_db=0.0, **protocol):
    """A one-frame session of 8000 chips, about 2000 of them kept when lossless."""
    params = dict(spread_ratio=8, n_frames=1, initial_pool_bits=100_000)
    params.update(protocol)
    return ScenarioConfig(
        atmosphere=AtmosphereParams(cn2=1.28e-14, l0=0.001, alpha_fs=0.2),
        beam=BeamParams(w0=1.74e-3, gamma=27.1, wavelength=1549.32e-9),
        geometry=LinkGeometry(
            d_fs=0.0, d_fiber=0.0, a_r=1.0, conv_loss_db=conv_loss_db, adapter_loss_db=0.0,
            alpha_fiber=0.0,
        ),
        source=SourceConfig(mu=0.71, nu=0.28),
        detector=det or DetectorConfig(p_d=1e-6, eta_d=1.0, visibility=0.9847, eta_b=1.0),
        seeds=Seeds(alice=1, bob=2, channel=3),
        protocol=ProtocolParams(**params),
    )


def test_clock_at_an_infinite_rate_is_regime_violation():
    # an infinite rep_rate reaches a session only through the API (config
    # files reject inf); its 0 s clock would divide every rate by zero
    spec = one_frame_spec()
    spec = replace(spec, source=replace(spec.source, rep_rate=math.inf))
    with pytest.raises(RegimeViolation, match="simulated clock out of floating-point range"):
        run_session_detailed(spec)


def first_abort(samples, threshold, n_frames):
    """The fewest errors in `samples` disclosed bits that fail the QBER check
    of a session of n_frames frames."""
    return next(
        x for x in range(samples + 2)
        if x > samples or session.qber_exceeds(x, samples, threshold, n_frames)
    )


def session_abort_probability(n_frames, per_frame, qber, threshold=0.05):
    """Exact probability that a session of n_frames frames, each disclosing
    per_frame bits that err independently with probability qber, aborts:
    the distribution of the cumulative error count is carried from frame to
    frame, and at each frame the mass at or above the first failing count
    aborts."""
    frame = binom.pmf(np.arange(per_frame + 1), per_frame, qber)
    alive, aborted = np.array([1.0]), []
    for t in range(1, n_frames + 1):
        alive = np.convolve(alive, frame)
        first = first_abort(t * per_frame, threshold, n_frames)
        aborted.append(alive[first:].sum())
        alive[first:] = 0.0
    return np.cumsum(aborted)


class TestQberCheck:
    """qber_exceeds: the Clopper-Pearson test of the cumulative sampled QBER."""

    @pytest.mark.parametrize("samples", [1, 2, 43, 430, 2021, 100_000])
    @pytest.mark.parametrize("threshold", [0.0, 0.05, 0.11, 0.5])
    def test_matches_clopper_pearson(self, samples, threshold):
        # the lower bound is the level-quantile of Beta(x, samples - x + 1)
        level = session.QBER_EPSILON / 47
        for x in sorted({0, 1, min(2, samples), samples // 20, samples // 5, samples}):
            lower = beta.ppf(level, x, samples - x + 1) if x else 0.0
            assert session.qber_exceeds(x, samples, threshold, 47) == (lower > threshold)

    def test_no_samples_pass(self):
        assert not session.qber_exceeds(0, 0, 0.05, 1)
        assert not session.qber_exceeds(0, 10, 0.0, 1)

    def test_honest_link_false_abort_bound(self):
        # 47 frames of 43 disclosed bits, the 1e8-pulse measured-link session,
        # at the paper's 2.38% average QBER: computed exactly, not sampled
        assert session_abort_probability(47, 43, 0.0238)[-1] <= session.QBER_EPSILON
        # at the threshold itself the union bound over the looks still holds
        assert session_abort_probability(47, 43, 0.05)[-1] <= session.QBER_EPSILON

    def test_attack_aborts(self):
        # an intercept-resend share pushing the QBER to 10% trips the check
        # within the same 47 frames with probability at least 0.99
        assert session_abort_probability(47, 43, 0.10)[-1] >= 0.99


class TestSecurityCheck:
    """The sampled QBER check of AliceSession.run and its disclosed sample."""

    def test_all_correct_proceeds(self):
        perfect = DetectorConfig(p_d=0.0, eta_d=1.0, visibility=1.0, eta_b=1.0)
        report, _, _ = run_session_detailed(one_frame_spec(det=perfect, sample_fraction=0.5))
        assert not report.aborted
        assert report.qber == 0.0

    def test_injected_flips_abort(self):
        # ~10% flips, 5% threshold, ~1000 samples: abort probability > 0.998
        first = first_abort(1000, 0.05, n_frames=1)
        assert binom.cdf(first - 1, 1000, 0.10) < 2e-3
        noisy = DetectorConfig(p_d=1e-6, eta_d=1.0, visibility=1.0, e_mis=0.1, eta_b=1.0)
        report, _, _ = run_session_detailed(one_frame_spec(det=noisy, sample_fraction=0.5))
        assert report.aborted
        assert report.abort_reason.startswith("frame 0:")

    def test_zero_threshold(self):
        # e_det = 0.77% over ~2000 disclosed bits: no error at all has p ~ 2e-7
        report, _, _ = run_session_detailed(
            one_frame_spec(sample_fraction=1.0, qber_threshold=0.0)
        )
        assert report.aborted
        assert "threshold 0.0000" in report.abort_reason

    def test_aborted_frame_recycles_only_never_kept(self, monkeypatch):
        # the aborted frame mints no key: never-kept positions are recycled,
        # kept ones (disclosed or not) stay consumed
        kept = []
        sample = session._sample_positions

        def spy(kept_idx, *args):
            kept.append(len(kept_idx))
            return sample(kept_idx, *args)

        monkeypatch.setattr(session, "_sample_positions", spy)
        spec = one_frame_spec(sample_fraction=1.0, qber_threshold=0.0)
        report, alice, _ = run_session_detailed(spec)
        assert report.aborted and kept[0] > 0
        chips = 8000
        led = alice.ledger
        assert led.consumed == chips
        assert led.recycled == chips - kept[0]
        assert led.generated == 0
        assert led.pool_bits == spec.protocol.initial_pool_bits - kept[0]
        assert report.key_cons_rate == pytest.approx(kept[0] / report.elapsed_s)
        # the aborted frame's pulses count towards the session's clock
        frame_seed = child(spec.seeds.alice, "schedule", 0)
        classes, _, _ = session._draw_schedule(frame_seed, chips, spec.source)
        assert report.total_pulses == len(classes) > chips

    def test_monotone_in_threshold(self):
        det = DetectorConfig(p_d=1e-6, eta_d=1.0, visibility=1.0, e_mis=0.04, eta_b=1.0)
        decisions = [
            run_session_detailed(
                one_frame_spec(det=det, sample_fraction=0.5, qber_threshold=thr)
            )[0].aborted
            for thr in (0.0, 0.01, 0.03, 0.05, 0.2)
        ]
        # once it proceeds at some threshold it proceeds at every higher one
        assert decisions[0] and not decisions[-1]
        first_proceed = decisions.index(False)
        assert not any(decisions[first_proceed:])

    def test_empty_sift(self):
        # nothing kept: nothing disclosed, no abort, every frame lost
        assert len(_sample_positions(np.empty(0, dtype=np.int64), 0.5, 7)) == 0
        dark = DetectorConfig(p_d=0.0, eta_d=1.0, visibility=0.9847, eta_b=1.0)
        report, _, bob = run_session_detailed(one_frame_spec(det=dark, conv_loss_db=400.0))
        assert not report.aborted
        assert report.qber == 0.0
        assert bob.statuses == {0: "lost"}

    def test_disclosed_excluded_are_kept_indices(self):
        kept = np.flatnonzero(np.arange(5000) % 3 == 1)
        sample = _sample_positions(kept, 0.1, seed=5)
        assert np.all(np.isin(sample, kept))
        assert np.all(np.diff(sample) > 0)  # ascending, no repeats

    @pytest.mark.parametrize(
        "n,fraction,size", [(1, 0.1, 1), (9, 0.1, 1), (2000, 0.1, 200), (7, 1.0, 7)]
    )
    def test_sample_size(self, n, fraction, size):
        assert len(_sample_positions(np.arange(n) * 2, fraction, seed=1)) == size

    def test_sample_deterministic(self):
        kept = np.arange(0, 30_000, 3)
        assert np.array_equal(_sample_positions(kept, 0.1, 9), _sample_positions(kept, 0.1, 9))
        assert not np.array_equal(_sample_positions(kept, 0.1, 9), _sample_positions(kept, 0.1, 10))

    @pytest.mark.parametrize(
        "n,fraction,seed", [(1, 0.5, 3), (9, 0.1, 4), (5000, 0.1, 5), (7, 1.0, 6)]
    )
    def test_sample_matches_stable_argsort(self, n, fraction, seed):
        kept = np.arange(n) * 3 + 1
        u = uniforms(seed, n)
        n_sample = max(1, int(n * fraction))
        dense = np.sort(kept[np.argsort(u, kind="stable")[:n_sample]])
        assert np.array_equal(_sample_positions(kept, fraction, seed), dense)

    def test_sample_ties_go_to_lower_index(self, monkeypatch):
        # 3 values below the cut, then ties at it: the lowest-index ties fill the sample
        u = np.array([0.5, 0.1, 0.5, 0.9, 0.5, 0.2, 0.5, 0.05, 0.5, 0.5])
        monkeypatch.setattr(session, "uniforms", lambda seed, n: u.copy())
        kept = np.arange(10) * 2
        for fraction in (0.3, 0.4, 0.5, 0.7, 0.9, 1.0):
            n_sample = int(10 * fraction)
            dense = np.sort(kept[np.argsort(u, kind="stable")[:n_sample]])
            assert np.array_equal(_sample_positions(kept, fraction, 0), dense)


class TestKeyLedger:
    def test_conservation_identity(self):
        ledger = KeyLedger.with_initial(10_000)
        ledger.debit(4000)
        ledger_commit(ledger, chips=4000, kept=900, disclosed=90)
        assert ledger.pool_bits == ledger.initial_bits + ledger.generated + ledger.recycled - ledger.consumed
        assert ledger.consumed == 4000
        assert ledger.recycled == 3100
        assert ledger.generated == 810
        assert ledger.pool_bits == 10_000 - 90

    def test_zero_detections_full_recycling(self):
        ledger = KeyLedger.with_initial(5000)
        ledger.debit(1000)
        ledger_commit(ledger, chips=1000, kept=0, disclosed=0)
        assert ledger.recycled == ledger.consumed
        assert ledger.p_rec == 1.0

    def test_all_kept_no_recycling(self):
        # every pulse detected and basis-matched: nothing comes back
        ledger = KeyLedger.with_initial(5000)
        ledger.debit(1000)
        ledger_commit(ledger, chips=1000, kept=1000, disclosed=0)
        assert ledger.recycled == 0
        assert ledger.p_rec == 0.0

    def test_negative_balance_detected(self):
        ledger = KeyLedger.with_initial(100)
        ledger.debit(50)
        ledger.generated = 1_000_000  # corrupt the ledger by hand
        with pytest.raises(NegativeBalance):
            ledger.check()

    def test_invalid_accounting(self):
        ledger = KeyLedger.with_initial(100)
        ledger.debit(10)
        for chips, kept, disclosed in ((10, 11, 0), (10, 5, 6), (10, 5, -1)):
            with pytest.raises(ValueError):
                ledger_commit(ledger, chips, kept, disclosed)
        assert (ledger.recycled, ledger.generated, ledger.pool_bits) == (0, 0, 90)
