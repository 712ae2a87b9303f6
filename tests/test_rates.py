import hashlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselink import cli
from phaselink.config import SweepGrid, load_config
from phaselink.errors import DegenerateIntensities, DomainError, EstimatorCollapse, RegimeViolation
from phaselink.optics import AtmosphereParams, BeamParams, LinkGeometry, critical_distance, transmittance
from phaselink.rates import (
    DecoyObservables,
    DetectorConfig,
    RateReport,
    SourceConfig,
    SweepPoint,
    binary_entropy,
    decoy_estimate,
    forward_gains,
    gain_and_qber,
    rate_sweep,
    recycling_fraction,
    secrecy_capacity,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "phaselink" / "configs"
SRC = SourceConfig(mu=0.71, nu=0.28)
DET = DetectorConfig(p_d=1e-6, eta_d=0.2, visibility=0.9847, eta_b=10 ** -0.65)

# eta reconstructed from the measured losses: 17.83 dB channel,
# 6.5 dB receiver-internal, 20% detector efficiency
ETA_MEASURED = 10 ** (-17.83 / 10) * 10 ** (-6.5 / 10) * 0.2

# measured observables (two-day averages)
OBS_MEASURED = DecoyObservables(q_mu=5.31e-4, e_mu=0.0287, q_nu=2.09e-4, e_nu=0.0401, y0=2e-6)


class TestBinaryEntropy:
    def test_values(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        # oracle: direct high-precision evaluation
        assert binary_entropy(0.0287) == pytest.approx(0.1878299302364953, rel=1e-12)

    def test_symmetry(self):
        for x in np.linspace(0.0, 1.0, 101):
            assert binary_entropy(float(x)) == pytest.approx(binary_entropy(float(1 - x)), abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.01)
        with pytest.raises(DomainError):
            binary_entropy(1.01)


class TestForwardGains:
    def test_measured_eta_reproduces_table_gains(self):
        obs = forward_gains(ETA_MEASURED, SRC, DET)
        # frozen from the closed form; within 2% of the measured values
        assert obs.q_mu == pytest.approx(5.258109530861126e-4, rel=1e-12)
        assert obs.q_nu == pytest.approx(2.086061092169104e-4, rel=1e-12)
        assert abs(obs.q_mu - 5.31e-4) / 5.31e-4 < 0.02
        assert abs(obs.q_nu - 2.09e-4) / 2.09e-4 < 0.02
        assert obs.y0 == 2e-6

    def test_vacuum_intensity(self):
        gain, qber = gain_and_qber(ETA_MEASURED, 0.0, DET)
        assert gain == DET.y0
        assert qber == 0.5

    def test_qber_below_half_and_asymptote(self):
        # QBER tends to e_det + e_mis once eta*a dominates Y0
        det = DetectorConfig(p_d=1e-6, eta_d=0.2, visibility=0.98, e_mis=0.01)
        for eta in np.logspace(-6, 0, 20):
            _, qber = gain_and_qber(float(eta), 0.71, det)
            assert qber <= 0.5
        _, qber_high = gain_and_qber(1.0, 0.71, det)
        assert qber_high == pytest.approx(det.e_det + det.e_mis, rel=1e-3)

    @pytest.mark.parametrize("visibility,e_mis", [(1.0, 0.5), (0.0, 0.0), (0.9847, 0.0)])
    def test_error_rate_up_to_half_accepted(self, visibility, e_mis):
        # e_det + e_mis <= 0.5 keeps every class's QBER in [0, 0.5], so
        # the observables the forward model builds are valid at any eta
        det = DetectorConfig(p_d=1e-6, eta_d=0.2, visibility=visibility, e_mis=e_mis)
        for eta in np.logspace(-9, 0, 10):
            obs = forward_gains(float(eta), SRC, det)
            assert obs.e_mu <= 0.5 and obs.e_nu <= 0.5

    @pytest.mark.parametrize(
        "visibility,e_mis",
        [(1.0, math.nextafter(0.5, 1.0)), (0.9847, 0.5), (0.0, 1e-9), (0.9847, 1e308)],
    )
    def test_error_rate_above_half_rejected(self, visibility, e_mis):
        with pytest.raises(ValueError, match="e_mis"):
            DetectorConfig(p_d=1e-6, eta_d=0.2, visibility=visibility, e_mis=e_mis)

    def test_dark_count_yield_below_one_accepted(self):
        # the largest p_d below 0.5 keeps y0 = 2 p_d, the vacuum gain, below 1
        det = DetectorConfig(p_d=math.nextafter(0.5, 0.0), eta_d=0.2, visibility=0.9847)
        assert det.y0 < 1.0

    @pytest.mark.parametrize("p_d", [0.5, 0.75, math.nextafter(1.0, 0.0)])
    def test_dark_count_yield_of_one_rejected(self, p_d):
        with pytest.raises(ValueError, match="p_d"):
            DetectorConfig(p_d=p_d, eta_d=0.2, visibility=0.9847)

    def test_eta_domain(self):
        with pytest.raises(ValueError):
            forward_gains(0.0, SRC, DET)
        with pytest.raises(ValueError):
            forward_gains(1.5, SRC, DET)

    @pytest.mark.parametrize(
        "p_d,mu", [(0.3, SRC.mu), (DET.p_d, 1e9)], ids=["dark_counts", "bright_pulse"]
    )
    def test_gain_not_below_one_is_regime_violation(self, p_d, mu):
        # Y0 + 1 - exp(-eta a) reaches 1 at eta = 1; it once failed later as
        # an untyped ValueError from DecoyObservables
        det = DetectorConfig(p_d=p_d, eta_d=DET.eta_d, visibility=DET.visibility)
        with pytest.raises(RegimeViolation, match="not below 1"):
            forward_gains(1.0, SourceConfig(mu=mu, nu=SRC.nu), det)


class TestDecoyEstimate:
    def test_measured_observables(self):
        est = decoy_estimate(OBS_MEASURED, SRC)
        # frozen from the high-precision oracle over the estimator formulas
        assert est.q1 == pytest.approx(2.1998866920379338e-4, rel=1e-12)
        assert est.e1 == pytest.approx(0.05717416719112524, rel=1e-12)

    def test_bound_direction_against_true_single_photon(self):
        # over a (eta, V) grid, Q1 lower-bounds and e1 upper-bounds truth
        for eta in np.logspace(-6, 0, 20):
            for vis in np.linspace(0.90, 1.0, 5):
                det = DetectorConfig(p_d=1e-6, eta_d=1.0, visibility=float(vis))
                obs = forward_gains(float(eta), SRC, det)
                est = decoy_estimate(obs, SRC)
                y1_true = det.y0 + eta - det.y0 * eta
                q1_true = SRC.mu * math.exp(-SRC.mu) * y1_true
                e1_true = (0.5 * det.y0 + det.e_det * eta) / y1_true
                assert 0.0 < est.q1 <= q1_true * (1 + 1e-12)
                assert est.e1 >= min(e1_true, 0.5) * (1 - 1e-12)

    def test_collapse_on_dark_only_decoy(self):
        # decoy gain at the dark floor carries no single-photon evidence
        obs = DecoyObservables(q_mu=5.31e-4, e_mu=0.0287, q_nu=2e-6, e_nu=0.5, y0=2e-6)
        with pytest.raises(EstimatorCollapse):
            decoy_estimate(obs, SRC)

    @pytest.mark.parametrize(
        "mu,nu", [(800.0, 0.1), (0.4, 5e-324)], ids=["exp-mu-overflow", "zero-divisor"]
    )
    def test_collapse_out_of_float_range(self, mu, nu):
        # e^mu overflows above mu = 709.78, and mu nu - nu^2 rounds to 0 for
        # mu < 1/2 at the smallest nu; both once escaped as an untyped
        # OverflowError or ZeroDivisionError
        src = SourceConfig(mu=mu, nu=nu)
        with pytest.raises(EstimatorCollapse, match="floating-point range"):
            decoy_estimate(forward_gains(ETA_MEASURED, src, DET), src)

    def test_collapse_on_subnormal_decoy_intensity(self):
        # mu nu - nu^2 is subnormal, so the bound was NaN and reached
        # binary_entropy as a DomainError
        src = SourceConfig(mu=0.71, nu=5e-324)
        with pytest.raises(EstimatorCollapse):
            decoy_estimate(forward_gains(ETA_MEASURED, src, DET), src)

    def test_degenerate_intensities(self):
        with pytest.raises(DegenerateIntensities):
            SourceConfig(mu=0.5, nu=0.5)
        with pytest.raises(DegenerateIntensities):
            SourceConfig(mu=0.2, nu=0.5)


class TestSecrecyCapacity:
    def test_measured_inputs(self):
        est = decoy_estimate(OBS_MEASURED, SRC)
        report = secrecy_capacity(OBS_MEASURED, est, SRC, DET)
        assert report.cs_raw == pytest.approx(1.4382520362518974e-5, rel=1e-9)
        # scaled by the clock and signal fraction: inside the measured range
        kbps = report.cs_raw * SRC.rep_rate * SRC.signal_fraction / 1e3
        assert 13.51 <= kbps <= 30.42

    def test_fully_dephased(self):
        obs = DecoyObservables(q_mu=5.31e-4, e_mu=0.5, q_nu=2.09e-4, e_nu=0.5, y0=2e-6)
        est = decoy_estimate(OBS_MEASURED, SRC)
        report = secrecy_capacity(obs, est, SRC, DET)
        assert report.cs_raw < 0.0
        assert report.cs_per_pulse == 0.0

    def test_ideal_single_photon_limit(self):
        from phaselink.rates import DecoyEstimate

        det = DetectorConfig(p_d=1e-6, eta_d=0.2, visibility=0.9847, f_ec=1.0, eta_b=1.0)
        obs = DecoyObservables(q_mu=0.1, e_mu=0.0, q_nu=0.05, e_nu=0.0, y0=0.0)
        est = DecoyEstimate(q1=0.1, e1=0.0)
        report = secrecy_capacity(obs, est, SRC, det)
        assert report.cs_raw == pytest.approx(SRC.q * 0.1, rel=1e-12)

    def test_monotonicity(self):
        from phaselink.rates import DecoyEstimate

        base_est = decoy_estimate(OBS_MEASURED, SRC)
        base = secrecy_capacity(OBS_MEASURED, base_est, SRC, DET).cs_raw
        # higher signal QBER lowers cs
        worse_obs = DecoyObservables(q_mu=5.31e-4, e_mu=0.04, q_nu=2.09e-4, e_nu=0.0401, y0=2e-6)
        assert secrecy_capacity(worse_obs, base_est, SRC, DET).cs_raw < base
        # higher e1 lowers cs; higher q1 raises it
        assert (
            secrecy_capacity(OBS_MEASURED, DecoyEstimate(base_est.q1, base_est.e1 + 0.01), SRC, DET).cs_raw
            < base
        )
        assert (
            secrecy_capacity(OBS_MEASURED, DecoyEstimate(base_est.q1 * 1.1, base_est.e1), SRC, DET).cs_raw
            > base
        )


class TestRecyclingFraction:
    def test_measured_gain(self):
        assert recycling_fraction(5.31e-4) == pytest.approx(0.9997345, abs=1e-12)

    def test_extremes(self):
        assert recycling_fraction(0.0) == 1.0
        assert recycling_fraction(1.0) == 0.5

    def test_affine_slope(self):
        xs = np.linspace(0.0, 1.0, 11)
        ys = [recycling_fraction(float(x)) for x in xs]
        slopes = np.diff(ys) / np.diff(xs)
        assert np.allclose(slopes, -0.5, atol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            recycling_fraction(1.5)


ATM = AtmosphereParams(cn2=1.28e-14, l0=0.001, alpha_fs=0.2)
BEAM = BeamParams(w0=1.74e-3, gamma=27.1, wavelength=1549.32e-9)
GEOM = LinkGeometry(
    d_fs=1400.0, d_fiber=10000.0, a_r=0.06, conv_loss_db=15.4, adapter_loss_db=0.42, alpha_fiber=0.2
)


def chain_point(geom, atm, src, det, d_fs):
    """One sweep row from the standalone chain: transmittance ->
    forward_gains -> decoy_estimate -> secrecy_capacity, zero rate where the
    estimator collapses."""
    eta = transmittance(replace(geom, d_fs=d_fs), atm, BEAM, det.eta_b, det.eta_d).eta_total
    obs = forward_gains(eta, src, det)
    try:
        est = decoy_estimate(obs, src)
        cs = secrecy_capacity(obs, est, src, det)
    except EstimatorCollapse:
        est, cs = None, RateReport(cs_per_pulse=0.0, cs_raw=0.0)
    rate = src.rep_rate * src.signal_fraction * cs.cs_per_pulse
    q1, e1 = (est.q1, est.e1) if est else (0.0, 0.0)
    return SweepPoint(d_fs, rate, cs.cs_raw, obs.q_mu, obs.e_mu, q1, e1, int(est is None))


def sweep_against_chain(geom, atm, src, det, grid):
    """Checks that rate_sweep gives chain_point's points bit for bit (their
    reprs agree), and that where the chain first raises, at grid[i],
    rate_sweep over grid[: i + 1] raises the same type with the same text.
    Returns (i, error), or None when no point raises."""
    want, failure = [], None
    for i, d_fs in enumerate(grid):
        try:
            want.append(chain_point(geom, atm, src, det, d_fs))
        except Exception as exc:  # noqa: BLE001 - whatever the chain raises
            with pytest.raises(Exception) as got:
                rate_sweep(geom, atm, BEAM, src, det, grid[: i + 1])
            assert (type(got.value), str(got.value)) == (type(exc), str(exc))
            failure = (i, exc)
            break
    assert repr(rate_sweep(geom, atm, BEAM, src, det, grid[: len(want)])) == repr(want)
    return failure


HOT_DET = DetectorConfig(p_d=0.4999, eta_d=0.8, visibility=0.9847, eta_b=1.0)
COLLAPSE_SRC = SourceConfig(mu=0.71, nu=5e-324)
D_CRIT = critical_distance(ATM, BEAM)


class TestSweepEqualsChain:
    @settings(max_examples=120, deadline=None)
    @given(
        grid=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.3 * D_CRIT)), min_size=1, max_size=6)
        .map(sorted),
        a_r=st.one_of(st.floats(1e-3, 2.0), st.just(1e200)),
        d_fiber=st.floats(0.0, 1e5),
        alpha_fs=st.floats(0.0, 30.0),
        src=st.sampled_from([SRC, COLLAPSE_SRC]),
        det=st.sampled_from([DET, HOT_DET]),
    )
    def test_sweep_equals_chain(self, grid, a_r, d_fiber, alpha_fs, src, det):
        geom = LinkGeometry(0.0, d_fiber, a_r, conv_loss_db=15.4, adapter_loss_db=0.42, alpha_fiber=0.2)
        atm = AtmosphereParams(cn2=ATM.cn2, l0=ATM.l0, alpha_fs=alpha_fs)
        sweep_against_chain(geom, atm, src, det, grid)

    @pytest.mark.parametrize(
        "a_r,cn2,alpha_fs,det,grid,at,text",
        [
            (0.06, ATM.cn2, 0.2, DET, [0.0, 1e4, D_CRIT, 2 * D_CRIT], 2, "critical distance"),
            (0.5, ATM.cn2, 0.2, HOT_DET, [0.0, 2e4, 4e4], 0, "is not below 1"),
            (1e200, ATM.cn2, 0.2, DET, [0.0, 1e3], 0, "Numerical result out of range"),
            (0.06, 0.0, 0.2, DET, [0.0, 1e3, 1e160], 2, "Numerical result out of range"),
            (0.06, ATM.cn2, 30.0, DET, [0.0, 1e4, 4e5], 2, "transmittance 0.0"),
        ],
        ids=["critical-distance", "gain-not-below-1", "aperture-overflow", "distance-overflow",
             "transmittance-underflow"],
    )
    def test_same_error_at_same_point(self, a_r, cn2, alpha_fs, det, grid, at, text):
        atm = AtmosphereParams(cn2=cn2, l0=ATM.l0, alpha_fs=alpha_fs)
        i, exc = sweep_against_chain(replace(GEOM, a_r=a_r), atm, SRC, det, grid)
        assert (i, type(exc)) == (at, RegimeViolation)
        assert text in str(exc)

    def test_zero_distance_and_collapse(self):
        # d_fs = 0 is the launch plane; the subnormal decoy collapses the
        # estimator at every point, which the sweep reports at zero rate
        assert sweep_against_chain(GEOM, ATM, COLLAPSE_SRC, DET, [0.0, 1400.0]) is None
        points = rate_sweep(GEOM, ATM, BEAM, COLLAPSE_SRC, DET, [0.0, 1400.0])
        assert [(p.collapsed, p.q1, p.e1) for p in points] == [(1, 0.0, 0.0), (1, 0.0, 0.0)]


class TestRateSweep:
    def test_monotone_decreasing_rate(self):
        grid = [float(d) for d in range(0, 5001, 250)]
        points = rate_sweep(GEOM, ATM, BEAM, SRC, DET, grid)
        rates = [p.key_gen_rate for p in points]
        assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))
        assert rates[0] > 0.0

    def test_upgraded_parameters_positive_at_30km(self):
        det_up = DetectorConfig(p_d=1e-6, eta_d=0.8, visibility=0.9847, eta_b=10 ** -0.65)
        geom_up = replace(GEOM, a_r=0.5)
        points = rate_sweep(
            geom_up, ATM, BEAM, SRC, det_up, [float(d) for d in range(0, 40_001, 2000)]
        )
        positive = [p.d_fs for p in points if p.key_gen_rate > 0.0]
        assert max(positive) >= 30_000.0
        at_30 = next(p for p in points if p.d_fs == 30_000.0)
        assert at_30.key_gen_rate == pytest.approx(557.0777153809506, rel=1e-9)

    def test_composition_consistency(self):
        # the swept point must equal a standalone evaluation bit-for-bit; at a
        # point where the estimator collapses (mu nu - nu^2 subnormal) it is
        # flagged collapsed, with zero estimate and zero rate
        eta = transmittance(GEOM, ATM, BEAM, DET.eta_b, DET.eta_d).eta_total
        for src, collapses in ((SRC, False), (SourceConfig(mu=0.71, nu=5e-324), True)):
            (point,) = rate_sweep(GEOM, ATM, BEAM, src, DET, [1400.0])
            obs = forward_gains(eta, src, DET)
            assert (point.d_fs, point.q_mu, point.e_mu) == (1400.0, obs.q_mu, obs.e_mu)
            if collapses:
                with pytest.raises(EstimatorCollapse):
                    decoy_estimate(obs, src)
                assert (point.collapsed, point.q1, point.e1) == (1, 0.0, 0.0)
                assert (point.key_gen_rate, point.cs_raw) == (0.0, 0.0)
            else:
                est = decoy_estimate(obs, src)
                standalone = secrecy_capacity(obs, est, src, DET)
                assert (point.collapsed, point.q1, point.e1) == (0, est.q1, est.e1)
                assert point.cs_raw == standalone.cs_raw
                scale = src.rep_rate * src.signal_fraction
                assert point.key_gen_rate == scale * standalone.cs_per_pulse

    def test_dense_grid_output_digests(self):
        # the benchmark's rate_sweep workload: upgraded_link.cfg over 0-40 km
        # in 10 m steps, 4001 rows; the digests were taken before the sweep
        # ran on float kernels and must not move
        cfg = replace(load_config(CONFIG_DIR / "upgraded_link.cfg"), sweep=SweepGrid(0.0, 40000.0, 10.0))
        csv = cli.cmd_rate_sweep(cfg, "csv")
        assert csv.count("\n") == 4002
        assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == (
            "1309580b6ed0e30451677eaf177aef21df202fb69f99ff169f778b951a5be12d"
        )
        assert hashlib.sha256(cli.cmd_rate_sweep(cfg, "json").encode("utf-8")).hexdigest() == (
            "723f25f3b1235ffdf51cf29e0c73eb679817c7fd4427ab413b8cfab43217d227"
        )

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            rate_sweep(GEOM, ATM, BEAM, SRC, DET, [2000.0, 1000.0])
