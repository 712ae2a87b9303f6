"""The four benchmark workloads: inputs made from a seed, one operation, and
the checks on its output.

An operation is one unit of work a user would ask for: one session, one Monte
Carlo batch or one rate sweep. Each check compares the output with a formula
computed here, apart from the program, or with a property the method must
have; none compares with a stored copy of an earlier output.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from phaselink import cli
from phaselink.config import SweepGrid, load_config
from phaselink.optics import transmittance
from phaselink.protocol import wire
from phaselink.protocol.session import Seeds, run_session_detailed
from phaselink.rng import split_seed

CONFIG_DIR = Path(cli.__file__).resolve().parent / "configs"
PAYLOAD_BITS = 1000
E0 = 0.5  # error rate of a dark click
# The statistical checks allow what a four-standard-error bound allows, the
# one-sided normal tail mass beyond 4 SE, but on the exact binomial, since
# some counts (errors on the measured link) are a handful of events.
TAIL = 3.17e-5

# Dense 0-40 km grid with an integer step, so that the accumulated grid
# points are exact and the paper's 30 km point is on it.
SWEEP_GRID = SweepGrid(d_fs_start=0.0, d_fs_stop=40_000.0, d_fs_step=10.0)
PAPER_DISTANCE_M = 30_000.0
PAPER_CHANNEL_DB = 17.83


def reseed(cfg, seed: int):
    """The config with its three seeds derived from one, as `phaselink --seed` does."""
    seeds = Seeds(alice=split_seed(seed, 1), bob=split_seed(seed, 2), channel=split_seed(seed, 3))
    return replace(cfg, seeds=seeds)


def budget_of(cfg):
    return transmittance(
        cfg.geometry, cfg.atmosphere, cfg.beam, cfg.detector.eta_b, cfg.detector.eta_d
    )


def closed_form(eta: float, intensity: float, det) -> tuple:
    """Gain Y0 + 1 - e^(-eta a) and QBER of one intensity class."""
    photon = 1.0 - math.exp(-eta * intensity)
    gain = det.y0 + photon
    qber = (E0 * det.y0 + (det.e_det + det.e_mis) * photon) / gain
    return gain, qber


def binomial_pmf(n: int, p: float, k: int) -> float:
    if p <= 0.0 or p >= 1.0:
        return 1.0 if k == round(n * p) else 0.0
    return math.exp(
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )


def binomial_tail(n: int, p: float, k: int) -> float:
    """P(X <= k) if k is below the mean of X ~ Bin(n, p), else P(X >= k),
    summed from k outwards until it passes TAIL or the terms vanish."""
    step = -1 if k < n * p else 1
    total = 0.0
    while 0 <= k <= n:
        term = binomial_pmf(n, p, k)
        total += term
        if total > TAIL or term < TAIL * 1e-9:
            break
        k += step
    return total


def frame_model(spread: int, p_keep: float, e_chip: float) -> tuple:
    """(P(frame decodes), P(payload wrong | decodes)) for fec_ratio 1.

    Each of the frame's coded-bit groups keeps each of its spread chips with
    probability p_keep and each kept chip is in error with probability
    e_chip. A group with no kept chip loses the frame; a group whose majority
    vote errs, or ties (which resolves to 0, wrong for half the bits), makes
    the payload wrong.
    """
    p_empty = binomial_pmf(spread, p_keep, 0)
    p_wrong = 0.0
    for kept in range(1, spread + 1):
        weight = binomial_pmf(spread, p_keep, kept)
        if weight < 1e-30:
            continue
        for errs in range((kept + 1) // 2, kept + 1):
            share = 0.5 if 2 * errs == kept else 1.0
            p_wrong += weight * share * binomial_pmf(kept, e_chip, errs)
    p_decodes = (1.0 - p_empty) ** PAYLOAD_BITS
    return p_decodes, 1.0 - (1.0 - p_wrong / (1.0 - p_empty)) ** PAYLOAD_BITS


def check_count(name: str, n: int, p: float, k: int, failures: list) -> None:
    """Fail unless k successes of n trials at probability p lie inside both
    binomial tails of mass TAIL."""
    if not binomial_tail(n, p, k) > TAIL:
        failures.append(f"{name}: {k} of {n} is implausible at p = {p:.6g} (mean {n * p:.6g})")


class _SenderProbe:
    """Sender-side transport wrapper.

    It times each frame round, from sending FRAME_META to receiving REPORT,
    and, when asked, counts the pulses of each intensity class that each
    QUANTUM message carries.
    """

    def __init__(self, inner, rounds: list, class_counts=None):
        self._inner = inner
        self._rounds = rounds
        self._class_counts = class_counts
        self._t0 = 0.0

    def send(self, msg_type: int, payload: bytes) -> None:
        if msg_type == wire.FRAME_META:
            self._t0 = time.perf_counter()
        elif msg_type == wire.QUANTUM and self._class_counts is not None:
            classes = np.frombuffer(payload, dtype=np.uint8, offset=12) >> 2
            self._class_counts.append(np.bincount(classes, minlength=3)[:3])
        self._inner.send(msg_type, payload)

    def recv(self) -> tuple:
        msg = self._inner.recv()
        if msg[0] == wire.REPORT:
            self._rounds.append(time.perf_counter() - self._t0)
        return msg

    def close(self) -> None:
        self._inner.close()


class Workload:
    """One workload: load() reads the inputs and the constructor builds what
    every operation shares (together, the set-up); run() is one operation and
    check() lists what is wrong with its output."""

    config_file = ""
    gauge = "both"  # the gauge reading most like the operation's work (gauge.py)

    @classmethod
    def load(cls, seed: int):
        """The workload's config, with its seeds derived from `seed`."""
        return reseed(load_config(CONFIG_DIR / cls.config_file), seed)

    def __init__(self, cfg):
        self.cfg = cfg
        self.budget = budget_of(cfg)

    def run(self, inspect: bool = False):
        raise NotImplementedError

    def check(self, out) -> list:
        raise NotImplementedError

    def digest(self, out) -> str:
        return hashlib.sha256(self.text(out).encode("utf-8")).hexdigest()

    def text(self, out) -> str:
        return out

    def items(self, out) -> int:
        """Work items in one operation: simulated pulses or grid points."""
        raise NotImplementedError

    def pulses(self, out) -> int:
        return self.items(out)

    def latencies(self, out, wall_s: float) -> list:
        """Latency samples of one operation; by default the operation."""
        return [wall_s]


@dataclass
class SessionOutput:
    report: object
    alice: object
    bob: object
    rounds: list  # frame-round latencies, s
    class_counts: list  # per frame, pulses of each class; None unless inspected


class SessionWorkload(Workload):
    """Two endpoints over the loopback transport, through run_session_detailed."""

    # the p_rec tolerance; the measured link is held to the tighter one
    p_rec_tol = 1e-3

    def __init__(self, cfg):
        super().__init__(cfg)
        self.spec = cfg.session_spec()

    def run(self, inspect: bool = False) -> SessionOutput:
        rounds: list = []
        class_counts = [] if inspect else None
        sender, receiver = wire.LoopbackTransport.pair()
        report, alice, bob = run_session_detailed(
            self.spec, (_SenderProbe(sender, rounds, class_counts), receiver)
        )
        return SessionOutput(report, alice, bob, rounds, class_counts)

    def text(self, out: SessionOutput) -> str:
        """Canonical form of everything the session returns to its caller."""
        recovered = {
            str(f): hashlib.sha256(p).hexdigest() for f, p in sorted(out.bob.recovered.items())
        }
        statuses = {str(f): s for f, s in sorted(out.bob.statuses.items())}
        return json.dumps(
            {"report": out.report.as_dict(), "recovered": recovered, "statuses": statuses},
            sort_keys=True,
        )

    def items(self, out: SessionOutput) -> int:
        return out.report.total_pulses

    def latencies(self, out: SessionOutput, wall_s: float) -> list:
        return out.rounds

    def check(self, out: SessionOutput) -> list:
        cfg, rep, failures = self.cfg, out.report, []
        p, det, src = cfg.protocol, cfg.detector, cfg.source
        eta = self.budget.eta_total
        chips = PAYLOAD_BITS * p.fec_ratio * p.spread_ratio
        if rep.aborted:
            return [f"session aborted: {rep.abort_reason}"]
        if rep.frames_ok + rep.frames_failed != p.n_frames:
            failures.append(f"{rep.frames_ok} ok + {rep.frames_failed} failed != {p.n_frames}")

        # every frame carries exactly one signal pulse per chip
        counts = np.array(out.class_counts)
        if len(counts) != p.n_frames or np.any(counts[:, 0] != chips):
            failures.append(f"signal pulses per frame {counts[:, 0].tolist()} != {chips}")
        if counts.sum() != rep.total_pulses:
            failures.append(f"{counts.sum()} pulses sent, report says {rep.total_pulses}")

        # gains of the signal and decoy classes against the closed form
        q_mu, e_mu = closed_form(eta, src.mu, det)
        q_nu, _ = closed_form(eta, src.nu, det)
        n_sig, n_dec = int(counts[:, 0].sum()), int(counts[:, 1].sum())
        check_count("signal clicks", n_sig, q_mu, round(rep.q_mu_hat * n_sig), failures)
        check_count("decoy clicks", n_dec, q_nu, round(rep.q_nu_hat * n_dec), failures)

        # ledger identity and totals
        led = out.alice.ledger
        if led.pool_bits != led.initial_bits + led.generated + led.recycled - led.consumed:
            failures.append("ledger identity violated")
        if led.consumed != p.n_frames * chips:
            failures.append(f"consumed {led.consumed} bits != {p.n_frames} x {chips}")
        if abs(rep.p_rec_empirical - (1.0 - rep.q_mu_hat / 2.0)) >= self.p_rec_tol:
            failures.append(f"p_rec {rep.p_rec_empirical!r} vs 1 - Q_mu/2 beyond {self.p_rec_tol}")

        # sampled QBER: (1-V)/2 + e_mis, with the dark-click share
        disclosed = led.consumed - led.recycled - led.generated
        if disclosed <= 0:
            failures.append("no check bits disclosed")
        else:
            check_count("sampled errors", disclosed, e_mu, round(rep.qber * disclosed), failures)

        # frame outcomes; a chip is kept for decoding if it clicks, its bases
        # match and it is not disclosed
        if p.fec_ratio != 1:
            return failures + ["the frame model covers fec_ratio 1 only"]
        p_keep = q_mu * 0.5 * (1.0 - p.sample_fraction)
        p_decodes, p_wrong = frame_model(p.spread_ratio, p_keep, e_mu)
        decoded = [f for f, status in out.bob.statuses.items() if status == "ok"]
        wrong = sum(out.bob.recovered[f] != out.alice.sent_payloads[f] for f in decoded)
        check_count("decoded frames", p.n_frames, p_decodes, len(decoded), failures)
        check_count("wrong payloads", len(decoded), p_wrong, wrong, failures)
        if rep.frames_ok != len(decoded) - wrong:
            failures.append(f"sender counts {rep.frames_ok} delivered frames, "
                            f"{len(decoded) - wrong} payloads match")
        if len(decoded) + list(out.bob.statuses.values()).count("lost") != p.n_frames:
            failures.append("a frame status is neither ok nor lost")
        return failures


class DeskSession(SessionWorkload):
    config_file = "desk_session.cfg"


class MeasuredSession(SessionWorkload):
    config_file = "measured_link.cfg"
    p_rec_tol = 1e-4

    @classmethod
    def load(cls, seed: int):
        # The per-frame security check samples only about 43 kept bits on
        # this link, so the 5% threshold aborts about 0.9% of frames at the
        # link's 1% QBER, on some seeds and not others. The threshold is
        # raised to its maximum so that every seed runs every frame; the
        # sampling and disclosure work is unchanged.
        cfg = super().load(seed)
        return replace(cfg, protocol=replace(cfg.protocol, qber_threshold=0.5))

    def check(self, out: SessionOutput) -> list:
        failures = super().check(out)
        channel_db = self.budget.channel_db
        if abs(channel_db - PAPER_CHANNEL_DB) >= 1.5:
            failures.append(f"channel loss {channel_db:.3f} dB is not within 1.5 dB of 17.83")
        return failures


class McBatch(Workload):
    """`phaselink simulate`: PulsePlan.make + simulate_batch, formatted by
    cli.cmd_simulate."""

    config_file = "measured_link.cfg"

    def run(self, inspect: bool = False) -> str:
        return cli.cmd_simulate(self.cfg, "csv")

    def items(self, out: str) -> int:
        return self.cfg.montecarlo.n_pulses

    def check(self, out: str) -> list:
        cfg, failures = self.cfg, []
        n = cfg.montecarlo.n_pulses
        eta = self.budget.eta_total
        rows = {r[0]: r for r in (line.split(",") for line in out.splitlines()[1:])}
        if sorted(rows) != ["decoy", "signal", "vacuum"]:
            return [f"classes {sorted(rows)} in the output"]
        sent = {c: int(r[1]) for c, r in rows.items()}
        clicked = {c: int(r[2]) for c, r in rows.items()}
        errored = {c: int(r[3]) for c, r in rows.items()}
        if sum(sent.values()) != n:
            failures.append(f"class counts sum to {sum(sent.values())}, not {n}")
        ratio = cfg.source.mix_ratio
        for c, share in zip(("signal", "decoy", "vacuum"), ratio):
            pc = share / sum(ratio)
            check_count(f"{c} pulses", n, pc, sent[c], failures)
        for c, intensity in (("signal", cfg.source.mu), ("decoy", cfg.source.nu)):
            gain, qber = closed_form(eta, intensity, cfg.detector)
            check_count(f"{c} clicks", sent[c], gain, clicked[c], failures)
            check_count(f"{c} errors", clicked[c], qber, errored[c], failures)
        return failures


class RateSweep(Workload):
    """`phaselink rate-sweep` over a dense grid: rate_sweep formatted by
    cli.cmd_rate_sweep."""

    config_file = "upgraded_link.cfg"
    gauge = "loop"  # scalar Python per point, no arrays

    @classmethod
    def load(cls, seed: int):
        return replace(super().load(seed), sweep=SWEEP_GRID)

    def __init__(self, cfg):
        super().__init__(cfg)
        self.n_points = len(cfg.sweep.points())

    def run(self, inspect: bool = False) -> str:
        return cli.cmd_rate_sweep(self.cfg, "csv")

    def items(self, out: str) -> int:
        return self.n_points

    def pulses(self, out: str) -> int:
        return 0

    def check(self, out: str) -> list:
        cfg, failures = self.cfg, []
        src, det = cfg.source, cfg.detector
        rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
        if len(rows) != self.n_points:
            return [f"{len(rows)} rows for {self.n_points} grid points"]
        rates = [r[1] for r in rows]
        if any(b > a for a, b in zip(rates, rates[1:])):
            failures.append("key rate increases with distance somewhere")
        at_paper = [r[1] for r in rows if r[0] == PAPER_DISTANCE_M]
        if len(at_paper) != 1 or not at_paper[0] > 0.0:
            failures.append(f"key rate at 30 km is {at_paper}, not one positive value")
        for d_fs, _, _, q_mu, _, q1, e1, collapsed in rows:
            geom = replace(cfg.geometry, d_fs=d_fs)
            eta = transmittance(geom, cfg.atmosphere, cfg.beam, det.eta_b, det.eta_d).eta_total
            want_q_mu = det.y0 + 1.0 - math.exp(-eta * src.mu)
            if not math.isclose(q_mu, want_q_mu, rel_tol=1e-9):
                failures.append(f"{d_fs} m: q_mu {q_mu!r} != Y0 + 1 - e^(-eta mu) = {want_q_mu!r}")
            if collapsed:
                continue
            y1 = det.y0 + eta - det.y0 * eta
            q1_true = src.mu * math.exp(-src.mu) * y1
            e1_true = min(0.5, (E0 * det.y0 + (det.e_det + det.e_mis) * eta) / y1)
            if not 0.0 < q1 <= q1_true * (1 + 1e-12):
                failures.append(f"{d_fs} m: Q1 {q1!r} above the true {q1_true!r}")
            if not e1 >= e1_true * (1 - 1e-12):
                failures.append(f"{d_fs} m: e1 {e1!r} below the true {e1_true!r}")
        return failures[:10]


WORKLOADS = {
    "desk_session": DeskSession,
    "measured_session": MeasuredSession,
    "mc_batch": McBatch,
    "rate_sweep": RateSweep,
}
