"""Per-layer tracing from outside the program.

The tracer replaces, for the length of a traced phase, the names through
which the program's modules call each other with wrappers that time each
call. Each call is a span; a span's self time is its duration minus the
durations of the spans it directly encloses. Spans are aggregated in memory
per thread, keyed by the thread's role (the endpoint whose run() is the
thread's outermost span), the enclosing span and the span's own name, and
read out when the phase ends.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

from phaselink import cli, montecarlo, rates
from phaselink.montecarlo import PulsePlan
from phaselink.protocol import framing, session, wire
from phaselink.protocol.session import AliceSession, BobSession
from phaselink.protocol.wire import LoopbackTransport

ROLES = {"AliceSession.run": "alice", "BobSession.run": "bob"}


def _draws(name: str, args: tuple, kwargs: dict) -> int:
    """64-bit draws made by one call of an rng function."""
    n = kwargs["n"] if "n" in kwargs else args[1]
    return (n + 7) // 8 if name == "rng.random_bytes" else n


def _sent_bytes(name: str, args: tuple, kwargs: dict) -> int:
    return wire.HEADER.size + len(args[2])


def _quantum_pulses(name: str, args: tuple, kwargs: dict) -> int:
    return len(args[1])


class Tracer:
    """Installs timing wrappers; holds the aggregated spans."""

    def __init__(self):
        self._local = threading.local()
        self._tables: list = []
        self._lock = threading.Lock()
        self._patched: list = []

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            # (role, parent, name) -> [total_s, self_s, calls, errors, units]
            st.table = defaultdict(lambda: [0.0, 0.0, 0, 0, 0])
            with self._lock:
                self._tables.append(st.table)
        return st

    def _wrap(self, name: str, fn, units=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._state()
            stack = st.stack
            parent = stack[-1][0] if stack else None
            role = ROLES.get(stack[0][0] if stack else name, "main")
            entry = [name, 0.0]  # name, time covered by child spans
            stack.append(entry)
            failed = True
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                row = st.table[(role, parent, name)]
                row[0] += dt
                row[1] += dt - entry[1]
                row[2] += 1
                row[3] += failed
                if units is not None:
                    row[4] += units(name, args, kwargs)

        return traced

    def _patch(self, owner, attr: str, name: str, units=None, classmethod_=False) -> None:
        original = owner.__dict__[attr]
        fn = original.__func__ if classmethod_ else original
        wrapped = self._wrap(name, fn, units)
        setattr(owner, attr, classmethod(wrapped) if classmethod_ else wrapped)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        for mod in (session, framing, montecarlo):
            for fn in ("uniforms", "random_bits", "random_bytes"):
                if fn in mod.__dict__:
                    self._patch(mod, fn, f"rng.{fn}", _draws)
        for fn in ("_draw_schedule", "preprocess", "decode", "ledger_commit"):
            self._patch(session, fn, f"session.{fn}")
        for fn in sorted(wire.__dict__):
            if fn.startswith(("encode_", "decode_")) and callable(wire.__dict__[fn]):
                units = _quantum_pulses if fn == "encode_quantum" else None
                self._patch(wire, fn, f"wire.{fn}", units)
        self._patch(LoopbackTransport, "send", "transport.send", _sent_bytes)
        self._patch(LoopbackTransport, "recv", "transport.recv")
        self._patch(AliceSession, "run", "AliceSession.run")
        self._patch(BobSession, "run", "BobSession.run")
        self._patch(PulsePlan, "make", "montecarlo.PulsePlan.make", classmethod_=True)
        self._patch(cli, "simulate_batch", "montecarlo.simulate_batch")
        for fn in ("transmittance", "forward_gains", "decoy_estimate", "secrecy_capacity"):
            self._patch(rates, fn, f"rates.{fn}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def rows(self) -> list:
        """Every aggregate as (role, parent, name, total_s, self_s, calls, errors, units)."""
        with self._lock:
            tables = list(self._tables)
        return [key + tuple(val) for table in tables for key, val in table.items()]


def layer_metrics(rows: list, n_ops: int, pulses: int) -> dict:
    """Per-layer metrics from the spans of n_ops traced operations that
    simulated `pulses` pulses in all; times and counts are per operation."""

    def total(pred, col):
        return sum(r[col] for r in rows if pred(r))

    def named(*names):
        return lambda r: r[2] in names

    def prefix(p):
        return lambda r: r[2].startswith(p)

    def ratio(a, b):
        return a / b if b else 0.0

    TOT, SELF, CALLS, ERRS, UNITS = 3, 4, 5, 6, 7
    rng = prefix("rng.")
    send = named("transport.send")
    recv = named("transport.recv")
    decode = named("session.decode")
    rng_self = total(rng, SELF)
    draws = total(rng, UNITS)
    sent = total(send, UNITS)
    send_s = total(send, TOT)
    decodes = total(decode, CALLS)
    session_pulses = total(named("wire.encode_quantum"), UNITS)
    per_op = lambda x: x / n_ops  # noqa: E731
    return {
        "rng.self_s": per_op(rng_self),
        "rng.draws_per_pulse": ratio(draws, pulses),
        "rng.draws_per_s": ratio(draws, rng_self),
        "montecarlo.plan_s": per_op(total(named("montecarlo.PulsePlan.make"), TOT)),
        "montecarlo.batch_s": per_op(total(named("montecarlo.simulate_batch"), TOT)),
        "session.schedule_s": per_op(total(named("session._draw_schedule"), TOT)),
        "session.schedule_draws_per_pulse": ratio(
            total(lambda r: rng(r) and r[1] == "session._draw_schedule", UNITS), session_pulses
        ),
        "session.alice_self_s": per_op(total(named("AliceSession.run"), SELF)),
        "session.bob_self_s": per_op(total(named("BobSession.run"), SELF)),
        "session.alice_wait_s": per_op(total(lambda r: recv(r) and r[0] == "alice", TOT)),
        "session.bob_wait_s": per_op(total(lambda r: recv(r) and r[0] == "bob", TOT)),
        "session.frames": per_op(total(named("wire.encode_frame_meta"), CALLS)),
        "session.pulses": per_op(session_pulses),
        "framing.preprocess_s": per_op(total(named("session.preprocess"), TOT)),
        "framing.decode_s": per_op(total(decode, TOT)),
        "framing.frames_ok_ratio": ratio(decodes - total(decode, ERRS), decodes),
        "wire.encode_s": per_op(total(prefix("wire.encode_"), TOT)),
        "wire.decode_s": per_op(total(prefix("wire.decode_"), TOT)),
        "wire.messages": per_op(total(send, CALLS)),
        "wire.bytes_per_pulse": ratio(sent, pulses),
        "transport.send_s": per_op(send_s),
        "transport.bytes_per_s": ratio(sent, send_s),
        "ledger.commit_s": per_op(total(named("session.ledger_commit"), TOT)),
        "ledger.commits": per_op(total(named("session.ledger_commit"), CALLS)),
        "optics.transmittance_s": per_op(total(named("rates.transmittance"), TOT)),
        "optics.calls": per_op(total(named("rates.transmittance"), CALLS)),
        "rates.forward_s": per_op(total(named("rates.forward_gains"), TOT)),
        "rates.estimate_s": per_op(total(named("rates.decoy_estimate"), TOT)),
        "rates.capacity_s": per_op(total(named("rates.secrecy_capacity"), TOT)),
    }
