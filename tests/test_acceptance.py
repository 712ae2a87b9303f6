"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them;
any failure also fails the pytest run)."""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from phaselink import cli
from phaselink.config import load_config
from phaselink.montecarlo import PulsePlan, simulate_batch
from phaselink.optics import AtmosphereParams, BeamParams, LinkGeometry, critical_distance, transmittance
from phaselink.protocol.session import run_session_detailed
from phaselink.rates import (
    DecoyObservables,
    DetectorConfig,
    SourceConfig,
    decoy_estimate,
    forward_gains,
    rate_sweep,
    recycling_fraction,
    secrecy_capacity,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "phaselink" / "configs"

ATM = AtmosphereParams(cn2=1.28e-14, l0=0.001, alpha_fs=0.2)
BEAM = BeamParams(w0=1.74e-3, gamma=27.1, wavelength=1549.32e-9)
GEOM = LinkGeometry(
    d_fs=1400.0, d_fiber=10000.0, a_r=0.06,
    conv_loss_db=15.4, adapter_loss_db=0.42, alpha_fiber=0.2,
)
SRC = SourceConfig(mu=0.71, nu=0.28)
DET = DetectorConfig(p_d=1e-6, eta_d=0.2, visibility=0.9847, eta_b=10 ** -0.65)


def report(n, ok, text):
    print(f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {n} failed: {text}"


def test_criterion_01_critical_distance():
    t0 = time.time()
    d_i = critical_distance(ATM, BEAM)
    ok = abs(d_i - 4.75e5) / 4.75e5 < 0.01 and (time.time() - t0) < 1.0
    report(1, ok, f"critical distance {d_i:.4g} m within 1% of 4.75e5 m")


def test_criterion_02_link_budget():
    t0 = time.time()
    budget = transmittance(GEOM, ATM, BEAM, DET.eta_b, DET.eta_d)
    diff = abs(budget.channel_db - 17.83)
    ok = diff < 1.5 and (time.time() - t0) < 1.0
    report(2, ok, f"channel-only loss {budget.channel_db:.3f} dB within 1.5 dB of 17.83 dB")


def test_criterion_03_gain_reconstruction():
    t0 = time.time()
    eta = 10 ** (-17.83 / 10) * 10 ** (-6.5 / 10) * 0.2
    obs = forward_gains(eta, SRC, DET)
    ok_mu = abs(obs.q_mu - 5.31e-4) / 5.31e-4 < 0.02
    ok_nu = abs(obs.q_nu - 2.09e-4) / 2.09e-4 < 0.02
    ok = ok_mu and ok_nu and (time.time() - t0) < 1.0
    report(3, ok, f"Q_mu={obs.q_mu:.4g} (2% of 5.31e-4), Q_nu={obs.q_nu:.4g} (2% of 2.09e-4)")


def test_criterion_04_recycling_law():
    t0 = time.time()
    p = recycling_fraction(5.31e-4)
    ok = abs(p - 0.99973) < 1e-5 and (time.time() - t0) < 1.0
    report(4, ok, f"recycling fraction {p:.6f} within 1e-5 of 0.99973")


def test_criterion_05_secrecy_capacity():
    t0 = time.time()
    obs = DecoyObservables(q_mu=5.31e-4, e_mu=0.0287, q_nu=2.09e-4, e_nu=0.0401, y0=2e-6)
    est = decoy_estimate(obs, SRC)
    rep = secrecy_capacity(obs, est, SRC, DET)
    ok_cs = abs(rep.cs_raw - 1.44e-5) / 1.44e-5 < 0.03
    kbps = rep.cs_raw * 1.25e9 * (30 / 33) / 1e3
    ok_range = 13.51 <= kbps <= 30.42
    ok = ok_cs and ok_range and (time.time() - t0) < 1.0
    report(5, ok, f"cs_raw={rep.cs_raw:.4g} (3% of 1.44e-5), scaled {kbps:.2f} kbps in [13.51, 30.42]")


def test_criterion_06_thirty_km_feasibility():
    t0 = time.time()
    det_up = DetectorConfig(p_d=1e-6, eta_d=0.8, visibility=0.9847, eta_b=10 ** -0.65)
    geom_up = LinkGeometry(
        d_fs=30_000.0, d_fiber=10_000.0, a_r=0.5,
        conv_loss_db=15.4, adapter_loss_db=0.42, alpha_fiber=0.2,
    )
    points = rate_sweep(geom_up, ATM, BEAM, SRC, det_up, [30_000.0])
    rate = points[0].key_gen_rate
    ok = rate > 0.0 and (time.time() - t0) < 1.0
    report(6, ok, f"upgraded parameters give key_gen_rate={rate:.1f} bps > 0 at 30 km")


def test_criterion_07_monte_carlo_matches_closed_form():
    t0 = time.time()
    eta = 10 ** (-17.83 / 10) * 10 ** (-6.5 / 10) * 0.2
    obs = forward_gains(eta, SRC, DET)
    plan = PulsePlan.make(10_000_000, SRC.mix_ratio, seed=20250526)
    stats = simulate_batch(plan, eta, SRC, DET)
    checks = []
    for counts, p_gain, p_qber in (
        (stats.signal, obs.q_mu, obs.e_mu),
        (stats.decoy, obs.q_nu, obs.e_nu),
    ):
        se_gain = math.sqrt(p_gain * (1 - p_gain) / counts.sent)
        checks.append(abs(counts.gain - p_gain) < 4 * se_gain)
        expected_clicks = p_gain * counts.sent
        se_qber = math.sqrt(p_qber * (1 - p_qber) / expected_clicks)
        checks.append(abs(counts.qber - p_qber) < 4 * se_qber)
    elapsed = time.time() - t0
    ok = all(checks) and elapsed < 60.0
    report(
        7,
        ok,
        f"1e7-pulse batch matches closed form within 4 SE "
        f"(Q_mu {stats.signal.gain:.4g} vs {obs.q_mu:.4g}; "
        f"E_mu {stats.signal.qber:.4g} vs {obs.e_mu:.4g}; {elapsed:.1f} s)",
    )


def test_criterion_08_estimator_bound_property():
    t0 = time.time()
    ok = True
    for eta in np.logspace(-6, 0, 20):
        for vis in np.linspace(0.90, 1.0, 5):
            det = DetectorConfig(p_d=1e-6, eta_d=1.0, visibility=float(vis))
            obs = forward_gains(float(eta), SRC, det)
            est = decoy_estimate(obs, SRC)
            y1 = det.y0 + eta - det.y0 * eta
            q1_true = SRC.mu * math.exp(-SRC.mu) * y1
            e1_true = min(0.5, (0.5 * det.y0 + det.e_det * eta) / y1)
            if not (0.0 < est.q1 <= q1_true * (1 + 1e-12)):
                ok = False
            if not (est.e1 >= e1_true * (1 - 1e-12)):
                ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    report(8, ok, f"100-point (eta, V) grid keeps bound directions ({elapsed:.2f} s)")


def test_criterion_09_end_to_end_session():
    t0 = time.time()
    cfg = load_config(CONFIG_DIR / "desk_session.cfg")
    rep, alice, bob = run_session_detailed(cfg)
    elapsed = time.time() - t0

    delivered_exact = all(
        bob.recovered[f] == alice.sent_payloads[f] for f in bob.recovered
    )
    some_delivered = rep.frames_ok > 0 and len(bob.recovered) == rep.frames_ok

    e_expected = cfg.detector.e_det + cfg.detector.e_mis
    n_disclosed = rep.total_pulses * cfg.source.signal_fraction * rep.q_mu_hat / 2 * 0.1
    sigma = math.sqrt(e_expected * (1 - e_expected) / n_disclosed)
    ok_qber = abs(rep.qber - e_expected) < 3 * sigma

    ok_prec = abs(rep.p_rec_empirical - (1 - rep.q_mu_hat / 2)) < 1e-3

    ok = delivered_exact and some_delivered and ok_qber and ok_prec and elapsed < 120.0
    report(
        9,
        ok,
        f"{rep.frames_ok}/{cfg.protocol.n_frames} frames bit-exact; "
        f"QBER {rep.qber:.5f} vs {e_expected:.5f} (3σ={3*sigma:.5f}); "
        f"|p_rec-(1-Q/2)|={abs(rep.p_rec_empirical-(1-rep.q_mu_hat/2)):.2e} < 1e-3; "
        f"{elapsed:.1f} s",
    )


def test_criterion_10_determinism(tmp_path):
    cfg_path = tmp_path / "det.cfg"
    text = (CONFIG_DIR / "desk_session.cfg").read_text()
    text = text.replace("protocol.n_frames = 142", "protocol.n_frames = 5")
    text = text.replace("protocol.spread_ratio = 64", "protocol.spread_ratio = 16")
    cfg_path.write_text(text)
    outs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        assert cli.main(["session", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    session_identical = outs[0] == outs[1]

    sweeps = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        assert cli.main(["rate-sweep", "--config", str(CONFIG_DIR / "measured_link.cfg"),
                         "--out", str(out)]) == 0
        sweeps.append(out.read_bytes())
    sweep_identical = sweeps[0] == sweeps[1]

    ok = session_identical and sweep_identical
    report(10, ok, "re-runs with identical seeds give byte-identical CSV outputs")
