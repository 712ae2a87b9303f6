import math
import threading

import numpy as np
import pytest

from phaselink.errors import BadJitterSpec, NonTurbulentChannel, RegimeViolation
from phaselink.optics import (
    AtmosphereParams,
    BeamParams,
    JitterSpec,
    LinkGeometry,
    critical_distance,
    effective_waist,
    jitter_step,
    rayleigh_length,
    rytov_variance,
    transmittance,
)
from phaselink.rng import uniforms

# measured-system constants used throughout
ATM = AtmosphereParams(cn2=1.28e-14, l0=0.001, alpha_fs=0.2)
BEAM = BeamParams(w0=1.74e-3, gamma=27.1, wavelength=1549.32e-9)
GEOM = LinkGeometry(
    d_fs=1400.0,
    d_fiber=10000.0,
    a_r=0.06,
    conv_loss_db=15.4,
    adapter_loss_db=0.42,
    alpha_fiber=0.2,
)
ETA_B = 10 ** -0.65
ETA_D = 0.2


def mp_oracle(d_fs):
    """Independent high-precision evaluation of the waist chain."""
    from mpmath import mp, mpf, exp, pi, sqrt

    mp.dps = 40
    cn2, l0 = mpf("1.28e-14"), mpf("0.001")
    w0, gamma, lam = mpf("1.74e-3"), mpf("27.1"), mpf("1549.32e-9")
    k = 2 * pi / lam
    d = mpf(d_fs)
    sigma2 = mpf("1.23") * cn2 * k ** (mpf(7) / 6) * d ** (mpf(11) / 6)
    d_r = pi * w0**2 * gamma**2 / lam
    theta = 2 * d * d_r**2 / (k * w0**2 * gamma**2 * (d_r**2 + d**2))
    w = w0 * gamma * sqrt(1 + (d / d_r) ** 2) * sqrt(1 + mpf("1.63") * sigma2 ** (mpf(6) / 5) * theta)
    return float(sigma2), float(d_r), float(w)


class TestRytovVariance:
    def test_measured_distance(self):
        # oracle: high-precision scalar evaluation
        assert rytov_variance(ATM, BEAM, 1400.0) == pytest.approx(0.4724926000771641, rel=1e-12)

    def test_zero_turbulence(self):
        atm0 = AtmosphereParams(cn2=0.0, l0=0.001, alpha_fs=0.2)
        assert rytov_variance(atm0, BEAM, 1400.0) == 0.0
        assert rytov_variance(ATM, BEAM, 0.0) == 0.0

    def test_distance_power_law(self):
        r1 = rytov_variance(ATM, BEAM, 1000.0)
        r2 = rytov_variance(ATM, BEAM, 2000.0)
        assert r2 / r1 == pytest.approx(2.0 ** (11.0 / 6.0), rel=1e-12)

    def test_wavelength_power_law(self):
        beam2 = BeamParams(w0=BEAM.w0, gamma=BEAM.gamma, wavelength=BEAM.wavelength * 2)
        r1 = rytov_variance(ATM, BEAM, 1000.0)
        r2 = rytov_variance(ATM, beam2, 1000.0)
        assert r2 / r1 == pytest.approx(0.5 ** (7.0 / 6.0), rel=1e-12)


class TestCriticalDistance:
    def test_measured_value(self):
        # roughly 475 km for the measured constants
        assert critical_distance(ATM, BEAM) == pytest.approx(4.75e5, rel=0.01)
        assert critical_distance(ATM, BEAM) == pytest.approx(475020.71386037845, rel=1e-12)

    def test_inner_scale_power_law(self):
        atm_half = AtmosphereParams(cn2=ATM.cn2, l0=ATM.l0 / 2, alpha_fs=ATM.alpha_fs)
        assert critical_distance(atm_half, BEAM) / critical_distance(ATM, BEAM) == pytest.approx(
            2.0 ** (5.0 / 3.0), rel=1e-12
        )

    def test_wavelength_power_law(self):
        # d_i scales as k^-2, i.e. wavelength^2
        beam2 = BeamParams(w0=BEAM.w0, gamma=BEAM.gamma, wavelength=BEAM.wavelength * 3)
        assert critical_distance(ATM, beam2) / critical_distance(ATM, BEAM) == pytest.approx(
            9.0, rel=1e-12
        )

    def test_no_turbulence_error(self):
        atm0 = AtmosphereParams(cn2=0.0, l0=0.001, alpha_fs=0.2)
        with pytest.raises(NonTurbulentChannel):
            critical_distance(atm0, BEAM)


class TestRayleighLength:
    def test_measured_value(self):
        assert rayleigh_length(BEAM) == pytest.approx(4508.642742005907, rel=1e-12)
        assert rayleigh_length(BEAM) == pytest.approx(4.51e3, rel=1e-3)

    def test_unit_magnification(self):
        beam = BeamParams(w0=BEAM.w0, gamma=1.0, wavelength=BEAM.wavelength)
        assert rayleigh_length(beam) == pytest.approx(
            math.pi * BEAM.w0**2 / BEAM.wavelength, rel=1e-15
        )

    def test_magnification_scaling(self):
        beam3 = BeamParams(w0=BEAM.w0, gamma=BEAM.gamma * 3, wavelength=BEAM.wavelength)
        assert rayleigh_length(beam3) / rayleigh_length(BEAM) == pytest.approx(9.0, rel=1e-12)


class TestEffectiveWaist:
    def test_launch_plane(self):
        assert effective_waist(ATM, BEAM, 0.0) == BEAM.w0 * BEAM.gamma

    def test_measured_distance_oracle(self):
        _, _, w_expected = mp_oracle(1400.0)
        assert effective_waist(ATM, BEAM, 1400.0) == pytest.approx(w_expected, rel=1e-12)
        assert effective_waist(ATM, BEAM, 1400.0) == pytest.approx(53.8e-3, rel=1e-3)

    def test_pure_diffraction_at_rayleigh(self):
        atm0 = AtmosphereParams(cn2=0.0, l0=0.001, alpha_fs=0.2)
        d_r = rayleigh_length(BEAM)
        assert effective_waist(atm0, BEAM, d_r) == pytest.approx(
            BEAM.w0 * BEAM.gamma * math.sqrt(2.0), rel=1e-12
        )

    def test_regime_guard(self):
        d_i = critical_distance(ATM, BEAM)
        with pytest.raises(RegimeViolation):
            effective_waist(ATM, BEAM, d_i)
        with pytest.raises(RegimeViolation):
            effective_waist(ATM, BEAM, d_i * 2)
        # just below the limit is allowed
        effective_waist(ATM, BEAM, d_i * 0.999)

    def test_never_below_launch_waist(self):
        launch = BEAM.w0 * BEAM.gamma
        for d in (1.0, 10.0, 100.0, 1e3, 1e4, 1e5):
            assert effective_waist(ATM, BEAM, d) > launch


class TestTransmittance:
    def test_lossless_limit(self):
        atm0 = AtmosphereParams(cn2=0.0, l0=0.001, alpha_fs=0.0)
        geom = LinkGeometry(
            d_fs=0.0, d_fiber=0.0, a_r=10.0, conv_loss_db=0.0, adapter_loss_db=0.0, alpha_fiber=0.0
        )
        budget = transmittance(geom, atm0, BEAM, eta_b=1.0, eta_d=1.0)
        assert budget.eta_total == pytest.approx(1.0, abs=1e-12)

    def test_measured_channel_loss(self):
        # modeled channel-only loss lands within 1.5 dB of the measured 17.83 dB mean
        budget = transmittance(GEOM, ATM, BEAM, eta_b=ETA_B, eta_d=ETA_D)
        assert budget.channel_db == pytest.approx(18.47724076107378, rel=1e-12)
        assert abs(budget.channel_db - 17.83) < 1.5

    def test_upgraded_30km(self):
        geom = LinkGeometry(
            d_fs=30_000.0, d_fiber=10_000.0, a_r=0.5,
            conv_loss_db=15.4, adapter_loss_db=0.42, alpha_fiber=0.2,
        )
        budget = transmittance(geom, ATM, BEAM, eta_b=ETA_B, eta_d=0.8)
        assert budget.eta_total > 0.0
        capture = 10 ** (-budget.breakdown["geometric"] / 10.0)
        assert capture == pytest.approx(0.05769561062562583, rel=1e-9)
        assert capture < 0.06

    def test_breakdown_consistency(self):
        budget = transmittance(GEOM, ATM, BEAM, eta_b=ETA_B, eta_d=ETA_D)
        assert sum(budget.breakdown.values()) == pytest.approx(budget.total_db, abs=1e-9)
        product = 1.0
        for db in budget.breakdown.values():
            product *= 10 ** (-db / 10.0)
        assert product == pytest.approx(budget.eta_total, rel=1e-9)

    @pytest.mark.parametrize(
        "field,delta",
        [("d_fs", 100.0), ("d_fiber", 1000.0), ("conv_loss_db", 1.0), ("alpha_fiber", 0.1)],
    )
    def test_monotone_decreasing(self, field, delta):
        from dataclasses import replace

        budget0 = transmittance(GEOM, ATM, BEAM, eta_b=ETA_B, eta_d=ETA_D)
        budget1 = transmittance(
            replace(GEOM, **{field: getattr(GEOM, field) + delta}), ATM, BEAM, ETA_B, ETA_D
        )
        assert budget1.eta_total < budget0.eta_total

    @pytest.mark.parametrize("conv_loss_db", [3150.0, 3300.0])
    def test_transmittance_out_of_float_range(self, conv_loss_db):
        # a subnormal transmittance keeps too few digits for its dB terms to
        # add up (once ValueError: breakdown does not decompose eta_total),
        # and a larger loss underflows it to 0
        from dataclasses import replace

        with pytest.raises(RegimeViolation, match="^link budget out of floating-point range"):
            transmittance(replace(GEOM, conv_loss_db=conv_loss_db), ATM, BEAM, ETA_B, ETA_D)

    def test_capture_increases_with_aperture(self):
        from dataclasses import replace

        prev = 0.0
        # below float64 saturation of 1 - exp(-2 a^2 / w^2)
        for a_r in (0.005, 0.01, 0.02, 0.04, 0.08):
            b = transmittance(replace(GEOM, a_r=a_r), ATM, BEAM, ETA_B, ETA_D)
            capture = 10 ** (-b.breakdown["geometric"] / 10.0)
            assert 0.0 < capture < 1.0
            assert capture > prev
            prev = capture


def jitter_walk(spec, n, dt, seed):
    """Excursions [dB] of n jitter_step samples dt apart, from 0."""
    out = np.empty(n)
    x = 0.0
    for i, u in enumerate(uniforms(seed, n).tolist()):
        x = jitter_step(x, u, spec, dt)
        out[i] = x
    return out


def returns_within(seconds, fn, *args):
    """fn(*args), run in a daemon thread; fails unless it returns in time."""
    result = []
    worker = threading.Thread(target=lambda: result.append(fn(*args)), daemon=True)
    worker.start()
    worker.join(seconds)
    assert result, f"no return within {seconds} s"
    return result[0]


class TestLossTrace:
    """The jitter walk that perturbs the static loss, one jitter_step per
    sample."""

    def test_bounded_excursions(self):
        # 3.2 dB bound mirrors the largest measured fluctuation envelope
        walk = jitter_walk(JitterSpec(max_db=3.2), 1200, 0.5, seed=3)
        assert np.max(np.abs(walk)) <= 3.2 + 1e-12

    def test_long_run_mean(self):
        walk = jitter_walk(JitterSpec(max_db=3.2), 12000, 0.5, seed=5)
        assert abs(float(np.mean(walk))) < 0.1

    def test_jitter_step_reflects(self):
        # u = 1 gives the largest step, sqrt(3) * step_db * sqrt(dt) = 2.5 dB;
        # from 0 it crosses +1 dB and is reflected back to 2 - 2.5 = -0.5 dB
        spec = JitterSpec(max_db=1.0, tau_s=1e9, step_db=2.5 / 3**0.5)
        assert jitter_step(0.0, 1.0, spec, 1.0) == pytest.approx(-0.5)
        assert jitter_step(0.0, 0.0, spec, 1.0) == pytest.approx(0.5)
        # tau_s <= dt forgets the previous excursion entirely
        fast = JitterSpec(max_db=1.0, tau_s=1.0, step_db=0.0)
        assert jitter_step(0.9, 0.3, fast, 1.0) == 0.0

    # no step, and a decay factor 1 - dt / tau_s that rounds to exactly 1
    STILL = JitterSpec(max_db=1.0, tau_s=1e300, step_db=0.0)

    def test_jitter_step_keeps_values_inside_the_bound(self):
        for x in (-1.0, -0.3, 0.1, 1.0):
            assert jitter_step(x, 0.5, self.STILL, 1.0) == x

    @pytest.mark.parametrize("overshoot", [2.5, 4.5, 7.25, 1e3 + 0.5])
    def test_jitter_step_folds_far_overshoots(self, overshoot):
        # reflection at +-1 dB repeats every 4 dB: 2.5 and 6.5 land on -0.5
        spec = self.STILL
        expected = {2.5: -0.5, 4.5: 0.5, 7.25: -0.75, 1e3 + 0.5: 0.5}[overshoot]
        for sign in (1.0, -1.0):
            assert jitter_step(sign * overshoot, 0.5, spec, 1.0) == pytest.approx(sign * expected)

    @pytest.mark.parametrize("max_db", [0.0, 1e-12])
    def test_jitter_step_returns_at_tiny_bounds(self, max_db):
        # a step of ~0.44 dB overshoots a bound of 1e-12 dB 1e11 times over
        x = returns_within(1.0, jitter_step, 0.0, 0.9, JitterSpec(max_db=max_db), 1.0)
        assert abs(x) <= max_db

    def test_bad_jitter(self):
        with pytest.raises(BadJitterSpec):
            JitterSpec(max_db=-1.0)


class TestValidation:
    def test_atmosphere(self):
        with pytest.raises(ValueError):
            AtmosphereParams(cn2=-1e-14, l0=0.001, alpha_fs=0.2)
        with pytest.raises(ValueError):
            AtmosphereParams(cn2=1e-14, l0=0.0, alpha_fs=0.2)

    def test_beam(self):
        with pytest.raises(ValueError):
            BeamParams(w0=0.0, gamma=27.1, wavelength=1.5e-6)
        with pytest.raises(ValueError):
            BeamParams(w0=1e-3, gamma=0.5, wavelength=1.5e-6)

    def test_geometry(self):
        with pytest.raises(ValueError):
            LinkGeometry(d_fs=-1, d_fiber=0, a_r=0.06, conv_loss_db=0, adapter_loss_db=0, alpha_fiber=0)
        with pytest.raises(ValueError):
            LinkGeometry(d_fs=0, d_fiber=0, a_r=0.0, conv_loss_db=0, adapter_loss_db=0, alpha_fiber=0)
