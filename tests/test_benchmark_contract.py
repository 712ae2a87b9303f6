"""What the benchmark under benchmarks/ needs from the program.

benchmarks/tracing.py times the program by patching its module-level names,
and benchmarks/workloads.py reads the intensity classes out of QUANTUM
payloads. These tests fail when the program stops providing either, without
running the benchmark itself.
"""

import importlib
from dataclasses import replace
from pathlib import Path

import pytest

from phaselink import cli
from phaselink.config import load_config
from phaselink.montecarlo import PulsePlan, class_counts
from phaselink.protocol import session, wire
from phaselink.protocol.session import run_session_detailed

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "src" / "phaselink" / "configs" / "desk_session.cfg"
MEASURED = ROOT / "src" / "phaselink" / "configs" / "measured_link.cfg"


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's tracing and workloads modules."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    return importlib.import_module("tracing"), importlib.import_module("workloads")


class _Sink:
    def send(self, msg_type, payload):
        pass


def test_tracer_patches_existing_names(bench):
    tracing, _ = bench
    original = session._draw_schedule
    tracer = tracing.Tracer()
    tracer.install()  # raises KeyError for a patched name that is gone
    try:
        assert session._draw_schedule is not original
    finally:
        tracer.uninstall()
    assert session._draw_schedule is original


def test_sender_probe_counts_quantum_classes(bench):
    _, workloads = bench
    classes = PulsePlan.make(5000, (30, 2, 1), seed=3)[:]
    counts = []
    probe = workloads._SenderProbe(_Sink(), [], counts)
    probe.send(wire.QUANTUM, wire.encode_quantum(17, classes))
    assert counts[0].tolist() == class_counts(classes)[0].tolist()


def _traced_session(tracing) -> tuple:
    """Report and tracer rows of a traced 2-frame desk session."""
    cfg = load_config(CONFIG)
    spec = replace(cfg, protocol=replace(cfg.protocol, n_frames=2, spread_ratio=8))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report, _, _ = run_session_detailed(spec)
    finally:
        tracer.uninstall()
    return report, tracer.rows()


def test_tracer_counts_session_pulses_from_quantum(bench):
    # the tracer counts pulses as the length of encode_quantum's second
    # positional argument, the class array
    tracing, _ = bench
    report, rows = _traced_session(tracing)
    pulses = sum(row[7] for row in rows if row[2] == "wire.encode_quantum")
    assert pulses == report.total_pulses > 0


def test_tracer_sees_each_frame_preprocess_and_decode(bench):
    # framing.preprocess_s and framing.decode_s read the spans of the
    # session's module-level preprocess and decode; a call that went around
    # them would leave those metrics at 0
    tracing, _ = bench
    _, rows = _traced_session(tracing)
    calls = {}
    for role, _, name, _, _, n, _, _ in rows:
        calls[role, name] = calls.get((role, name), 0) + n
    assert calls.get(("alice", "session.preprocess")) == 2
    assert calls.get(("bob", "session.decode")) == 2
    assert ("bob", "session.preprocess") not in calls
    assert ("alice", "session.decode") not in calls


def test_tracer_sees_one_plan_and_one_batch_per_simulate(bench):
    # montecarlo.plan_s and montecarlo.batch_s read the spans of
    # PulsePlan.make and of simulate_batch as cli imports it; a simulate
    # that went around either would leave its metric at 0
    tracing, _ = bench
    cfg = load_config(MEASURED)
    cfg = replace(cfg, montecarlo=replace(cfg.montecarlo, n_pulses=100_000))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cli.cmd_simulate(cfg, "csv")
    finally:
        tracer.uninstall()
    calls = {}
    for _, _, name, _, _, n, _, _ in tracer.rows():
        calls[name] = calls.get(name, 0) + n
    assert calls.get("montecarlo.PulsePlan.make") == 1
    assert calls.get("montecarlo.simulate_batch") == 1
