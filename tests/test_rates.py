import math

import numpy as np
import pytest

from phaselink.errors import DegenerateIntensities, DomainError, EstimatorCollapse, RegimeViolation
from phaselink.optics import AtmosphereParams, BeamParams, LinkGeometry
from phaselink.rates import (
    DecoyObservables,
    DetectorConfig,
    SourceConfig,
    binary_entropy,
    decoy_estimate,
    forward_gains,
    gain_and_qber,
    rate_sweep,
    recycling_fraction,
    secrecy_capacity,
)

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


class TestRateSweep:
    def test_monotone_decreasing_rate(self):
        grid = [float(d) for d in range(0, 5001, 250)]
        points = rate_sweep(GEOM, ATM, BEAM, SRC, DET, grid)
        rates = [p.report.key_gen_rate for p in points]
        assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))
        assert rates[0] > 0.0

    def test_upgraded_parameters_positive_at_30km(self):
        from dataclasses import replace

        det_up = DetectorConfig(p_d=1e-6, eta_d=0.8, visibility=0.9847, eta_b=10 ** -0.65)
        geom_up = replace(GEOM, a_r=0.5)
        points = rate_sweep(
            geom_up, ATM, BEAM, SRC, det_up, [float(d) for d in range(0, 40_001, 2000)]
        )
        positive = [p.d_fs for p in points if p.report.key_gen_rate > 0.0]
        assert max(positive) >= 30_000.0
        at_30 = next(p for p in points if p.d_fs == 30_000.0)
        assert at_30.report.key_gen_rate == pytest.approx(557.0777153809506, rel=1e-9)

    def test_composition_consistency(self):
        # the swept point must equal a standalone evaluation bit-for-bit
        from phaselink.optics import transmittance

        points = rate_sweep(GEOM, ATM, BEAM, SRC, DET, [1400.0])
        eta = transmittance(GEOM, ATM, BEAM, DET.eta_b, DET.eta_d).eta_total
        obs = forward_gains(eta, SRC, DET)
        est = decoy_estimate(obs, SRC)
        standalone = secrecy_capacity(obs, est, SRC, DET)
        assert points[0].report.cs_raw == standalone.cs_raw
        assert points[0].report.cs_per_pulse == standalone.cs_per_pulse

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            rate_sweep(GEOM, ATM, BEAM, SRC, DET, [2000.0, 1000.0])
