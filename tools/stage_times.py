"""Wall time and minor page faults of each stage of a session, per endpoint.

Runs one session of each bundled config, or with --repeat N, one to warm
up and then N, whose means are printed. Every function in the session
module's namespace, the wire codecs (encode_*, decode_*), the endpoints'
run() and LoopbackTransport.send/recv are wrapped for the run, as
draw_counts.py wraps rng._draw; nothing under src/ is changed. Each call
is timed with time.perf_counter and its minor page faults are read with
getrusage(RUSAGE_THREAD); the session runs in the calling thread.

    python3 tools/stage_times.py                 # this checkout
    python3 tools/stage_times.py --repo OTHER    # another checkout
    python3 tools/stage_times.py --repeat 10     # warm: means of 10 sessions

A single session pays the first touch of every page its arrays use, while a
long-running process such as the benchmark's reuses freed heap, so the
warm means are the ones to compare with the benchmark.

A stage's faults are charged to whichever stage first touches freed and
trimmed heap, so they move between stages when an unrelated stage stops
allocating, while a role's totals stay put. Per-stage fault columns, and
the times that those faults add to, compare only within one run, never
across checkouts or code changes.

Per config it prints one line for the session, then one per role: each
endpoint with the totals of its run() steps, and the driver with those of
run_session_detailed, the whole session. Under each role comes one line
per stage with the stage's self time and self faults (those of its calls
less those of the wrapped calls they made), largest first; with --repeat,
each figure is the mean per session. The driver's stages are what it
calls outside the endpoints' steps: the transport's send and recv, and the
endpoints' set-up. So the stage lines of a role sum to no more than its
totals; the rest is the role's own code, and for the driver the endpoints'
steps too.
"""

from __future__ import annotations

import argparse
import functools
import resource
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

CONFIGS = ("desk_session", "measured_link", "upgraded_link")
ROLES = {
    "AliceSession.run": "alice",
    "BobSession.run": "bob",
    "session.run_session_detailed": "driver",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_repo = Path(__file__).resolve().parents[1]
    parser.add_argument("--repo", type=Path, default=default_repo, help="checkout to run")
    parser.add_argument(
        "--repeat", type=int, default=0, metavar="N",
        help="run each config once to warm up, then N times, and print the means",
    )
    args = parser.parse_args(argv)
    if args.repeat < 0:
        parser.error("--repeat must be non-negative")
    runs = max(args.repeat, 1)
    sys.path.insert(0, str(args.repo.resolve() / "src"))
    from phaselink.config import load_config
    from phaselink.protocol import session, wire

    stack = []
    rows = defaultdict(lambda: [0.0, 0, 0])  # (role, name) -> [self s, self faults, calls]

    def wrap(name: str, fn):
        @functools.wraps(fn)
        def timed(*a, **kw):
            role = ROLES.get(name) or (stack[-1][0] if stack else None)
            entry = [role, 0.0, 0]  # role, then the wrapped calls' time and faults
            stack.append(entry)
            t0 = time.perf_counter()
            f0 = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
            try:
                return fn(*a, **kw)
            finally:
                faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - f0
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                    stack[-1][2] += faults
                if role is not None:
                    row = rows[(role, name)]
                    whole = name in ROLES  # a role's totals, not its self share
                    row[0] += dt if whole else dt - entry[1]
                    row[1] += faults if whole else faults - entry[2]
                    row[2] += 1

        return timed

    for attr, obj in list(vars(session).items()):
        if isinstance(obj, types.FunctionType):
            setattr(session, attr, wrap(f"session.{attr}", obj))
    for attr, obj in list(vars(wire).items()):
        if attr.startswith(("encode_", "decode_")) and isinstance(obj, types.FunctionType):
            setattr(wire, attr, wrap(f"wire.{attr}", obj))
    for owner, attr in (
        (session.AliceSession, "run"),
        (session.BobSession, "run"),
        (wire.LoopbackTransport, "send"),
        (wire.LoopbackTransport, "recv"),
    ):
        setattr(owner, attr, wrap(f"{owner.__name__}.{attr}", vars(owner)[attr]))

    config_dir = args.repo / "src" / "phaselink" / "configs"
    for config in CONFIGS:
        spec = load_config(config_dir / f"{config}.cfg")
        if args.repeat:
            session.run_session_detailed(spec)  # the warm-up, not counted
        rows.clear()
        for _ in range(runs):
            report, _, _ = session.run_session_detailed(spec)
        frames = report.frames_ok + report.frames_failed
        mean = f" (mean of {runs} sessions)" if args.repeat else ""
        print(f"session {config}: {frames} frames, {report.total_pulses} pulses{mean}")
        for run, role in ROLES.items():
            total_s, total_faults, _ = (v / runs for v in rows[(role, run)])
            print(f"  {role}: {total_s * 1e3:.2f} ms, {total_faults:.0f} minor faults")
            stages = [(k[1], v) for k, v in rows.items() if k[0] == role and k[1] != run]
            for name, row in sorted(stages, key=lambda r: -r[1][0]):
                self_s, faults, calls = (v / runs for v in row)
                print(
                    f"    {name}: {self_s * 1e3:.2f} ms, {faults:.0f} minor faults, "
                    f"{calls:.0f} calls"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
