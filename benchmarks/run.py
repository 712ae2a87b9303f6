"""Benchmark of phaselink: one workload per run, end-to-end or traced.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload desk_session --seed 1 --seconds 20 --trace 0

Workloads: desk_session, measured_session, mc_batch, rate_sweep (see
workloads.py and README.md). The program is imported from the checkout's
`src/`; without it the run exits with code 2.

A run first times the set-up in fresh interpreters, then runs one check
operation whose output goes through every check, then repeats the operation
for --seconds. Every later output must be byte-identical to the checked one.
With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 the first half of the time is untraced, the second
half traced, and the JSON holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import gauge

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 7  # fresh interpreters timed per run, after one to warm the caches
PROBE_TIMEOUT_S = 60.0
GAUGE_SHARE = 0.1  # share of the measured time spent timing the host-speed gauge


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def probe_setup(workload: str, seed: int) -> dict:
    """Set-up as a user's process pays it: import, load config, build; in
    host seconds (gauge.clock), unscaled."""
    t0 = gauge.clock()
    import workloads  # noqa: F401  (imports phaselink and numpy)

    t1 = gauge.clock()
    cls = workloads.WORKLOADS[workload]
    cfg = cls.load(seed)
    t2 = gauge.clock()
    cls(cfg)
    t3 = gauge.clock()
    return {"setup.import_s": t1 - t0, "config.load_s": t2 - t1, "setup.spec_s": t3 - t2}


class SetupTimer:
    """Times the set-up in fresh interpreters, spread over the measured time
    so that its median sees the same host speed as the operations do."""

    def __init__(self, args):
        self.cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup",
                    "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
        self.samples: list = []
        self._probe()  # compiles bytecode and warms the file cache; not kept

    def _probe(self) -> dict:
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        return json.loads(done.stdout.splitlines()[-1])

    def due(self, elapsed: float, seconds: float) -> bool:
        return len(self.samples) < SETUP_PROBES and elapsed >= len(self.samples) * seconds / SETUP_PROBES

    def probe(self) -> None:
        self.samples.append(self._probe())

    def result(self, scale: float) -> dict:
        """Medians of the set-up split and of its total, scaled by `scale`."""
        while len(self.samples) < SETUP_PROBES:
            self.probe()
        out = {k: statistics.median(s[k] for s in self.samples) * scale for k in self.samples[0]}
        host = statistics.median(sum(s.values()) for s in self.samples)
        print(f"set-up host seconds {host:.6g} (information only)")
        out["setup_s"] = host * scale
        return out


class Sample(NamedTuple):
    """What a run keeps of one successful operation (not its output). Times
    are host seconds: wall time less the time stolen from the vCPUs."""

    host_s: float
    stolen_s: float
    items: int
    pulses: int
    latencies: list  # each less its share of the operation's stolen time


class Phase(NamedTuple):
    """The operations of one stretch of a run and the gauge passes timed
    between them."""

    samples: list
    gauges: list
    kind: str  # the gauge reading that scales this workload

    @property
    def scale(self) -> float:
        """Factor from this stretch's host seconds to reference seconds."""
        return gauge.REFERENCE[self.kind] / statistics.median(g[self.kind] for g in self.gauges)

    def seconds(self) -> float:
        """Median reference seconds per operation."""
        return statistics.median(s.host_s for s in self.samples) * self.scale


class Runner:
    """Runs operations of one workload, checks them and keeps their timings."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.reference = None  # digest of the first output
        self.reference_ok = False

    def op(self):
        """One operation; (wall_s, host_s, output), or None if it failed."""
        self.attempted += 1
        first = self.reference is None
        try:
            t0, h0 = time.perf_counter(), gauge.clock()
            out = self.wl.run(inspect=first)
            wall, host = time.perf_counter() - t0, gauge.clock() - h0
            digest = self.wl.digest(out)
            if first:
                self.reference = digest
                failures = self.wl.check(out)
                self.reference_ok = not failures
                for f in failures:
                    print(f"check failed: {f}", file=sys.stderr)
                print(f"output sha256 {digest} (information only)")
            elif digest != self.reference:
                print(f"operation {self.attempted}: output differs from the first",
                      file=sys.stderr)
                self.failed += 1
                return None
        except Exception:  # an operation that raises is a failed operation
            traceback.print_exc()
            self.failed += 1
            return None
        if not self.reference_ok:
            self.failed += 1
            return None
        return wall, host, out

    def timed(self, seconds: float, setup: SetupTimer = None) -> Phase:
        """Whole operations for `seconds`, with the set-up probes that fall
        due in between (their time not counted) and gauge passes that take
        GAUGE_SHARE of the time, at least one."""
        wl = self.wl
        phase = Phase([], [gauge.measure()], wl.gauge)
        gauge_s = phase.gauges[0]["both"]
        start = time.perf_counter()
        paused = 0.0
        while (now := time.perf_counter()) - paused < start + seconds:
            elapsed = now - paused - start
            if setup is not None and setup.due(elapsed, seconds):
                setup.probe()
                paused += time.perf_counter() - now
            elif gauge_s < GAUGE_SHARE * elapsed:
                phase.gauges.append(gauge.measure())
                gauge_s += phase.gauges[-1]["both"]
            elif (result := self.op()) is not None:
                wall, host, out = result
                share = host / wall
                phase.samples.append(Sample(host, wall - host, wl.items(out), wl.pulses(out),
                                            [x * share for x in wl.latencies(out, wall)]))
        return phase


def tail(samples: list) -> tuple:
    """The highest percentile with at least ten samples beyond it, or None
    below forty samples, where it would be no tail."""
    if len(samples) < 40:
        return None
    ranked = sorted(samples)
    k = len(ranked) - 11
    return 100.0 * (k + 1) / len(ranked), ranked[k]


def end_to_end(phase: Phase, setup: dict) -> dict:
    done, scale = phase.samples, phase.scale
    wall_s = phase.seconds()
    latencies = [x * scale for d in done for x in d.latencies]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    metrics = {
        "wall_s": wall_s,
        "items_per_s": done[0].items / wall_s,
        "latency_s": statistics.median(latencies),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    host = [d.host_s for d in done]
    stolen = sum(d.stolen_s for d in done) / sum(d.stolen_s + d.host_s for d in done)
    print(f"{len(done)} timed operations, {len(latencies)} latency samples, "
          f"{len(phase.gauges)} gauge passes; host seconds per operation "
          f"{statistics.median(host):.6g} (quartile spread "
          f"{spread(host):.3f}), share of wall time stolen {stolen:.3f}, "
          f"gauge loop {statistics.median(g['loop'] for g in phase.gauges):.6g} s, "
          f"loop and arrays {statistics.median(g['both'] for g in phase.gauges):.6g} s, "
          f"speed factor {scale:.4g} "
          f"(information only)")
    t = tail(latencies)
    if t is not None:
        print(f"latency_s_tail {t[1]:.6g} s (p{t[0]:.1f}, information only)")
    return metrics


def spread(values: list) -> float:
    """Distance between the quartiles as a share of the median; 0 below two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def per_layer(plain: Phase, traced: Phase, rows: list, setup: dict) -> dict:
    from tracing import layer_metrics

    scale = traced.scale
    values = {
        k: v / scale if k.endswith("_per_s") else v * scale if k.endswith("_s") else v
        for k, v in layer_metrics(rows, len(traced.samples),
                                  sum(d.pulses for d in traced.samples)).items()
    }
    values.update({k: setup[k] for k in ("setup.import_s", "config.load_s", "setup.spec_s")})
    values["trace.overhead_s"] = traced.seconds() - plain.seconds()
    print(f"{len(plain.samples)} untraced and {len(traced.samples)} traced operations")
    return values


def units(kind: str) -> dict:
    """Metric name -> unit for the end_to_end or per_layer list of BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    args = parse_args(argv)
    gauge.pin()  # before numpy or a session starts a thread
    if not (SRC / "phaselink" / "__init__.py").is_file():
        print(f"no phaselink sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        print(json.dumps(probe_setup(args.workload, args.seed)))
        return 0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(cls.load(args.seed))
    setup_timer = SetupTimer(args)
    runner = Runner(wl)
    runner.op()  # the check operation: warms up, and every later output must equal it
    if args.trace:
        from tracing import Tracer

        plain = runner.timed(args.seconds / 2, setup_timer)
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.timed(args.seconds / 2)
        finally:
            tracer.uninstall()
        phases = [plain, traced]
    else:
        phases = [runner.timed(args.seconds, setup_timer)]
    if not all(p.samples for p in phases):
        print(f"{runner.failed} of {runner.attempted} operations failed; nothing to measure",
              file=sys.stderr)
        return 1
    setup = setup_timer.result(phases[0].scale)
    if args.trace:
        metrics = per_layer(plain, traced, tracer.rows(), setup)
        unit = units("per_layer")
    else:
        metrics = end_to_end(phases[0], setup)
        unit = units("end_to_end")
    if set(metrics) != set(unit):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(unit)}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{runner.attempted} operations, {runner.failed} failed")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit[name]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
