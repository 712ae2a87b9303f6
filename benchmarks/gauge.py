"""Host time: one vCPU, the wall seconds it actually ran, and a gauge of
host speed.

The reference host is a virtual machine on a shared machine, and three
things outside the program move its timings (see README.md):

- Wake-ups. A session's two endpoint threads hand off about a thousand
  messages an operation. On two vCPUs each hand-off wakes a halted vCPU,
  and the host's delay in running it is counted as steal: 4-65% of a
  `desk_session` operation's wall time, with the operation 1.9 times slower
  at the high end. `pin()` keeps the benchmark on one vCPU, which stays busy
  through an operation, so no hand-off waits for a vCPU to wake.
- Steal. The hypervisor still takes that vCPU away at times, and wall time
  runs on. /proc/stat counts it per vCPU; `clock()` subtracts it.
- Speed. The host's processors run faster or slower by up to a factor of
  two within minutes, and process CPU time moves with wall time. A gauge,
  a fixed kernel that never calls the program, is timed at intervals
  through a run; the run's times are scaled by REFERENCE / (median gauge),
  so that they read as seconds on a host where the gauge takes REFERENCE.
  The gauge is a scalar loop followed by array passes; a workload whose
  work is scalar Python is scaled by the loop alone.
  A change to the program cannot move the gauge.
"""

from __future__ import annotations

import os
import time

_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")

# Median time of a gauge pass on the reference host (2 vCPUs, Python 3.11.7,
# numpy 2.4.6): the loop alone, and the loop with the arrays. A workload
# scales by the one most like its own work.
REFERENCE = {"loop": 0.009, "both": 0.03}

_stat_row = None  # "cpuN " of the vCPU the process is pinned to


def pin() -> None:
    """Pins this process, and the threads it starts later, to the highest
    numbered vCPU it may use. Call it before anything starts a thread.
    Where the system refuses, the process runs unpinned and clock() is
    plain wall time."""
    global _stat_row
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return
    _stat_row = f"cpu{cpu} "


def _stolen_s() -> float:
    """Seconds stolen from the pinned vCPU since boot; 0 where the process is
    not pinned or /proc/stat has no steal."""
    if _stat_row is None:
        return 0.0
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(_stat_row):
                    return int(line.split()[8]) * _TICK_S
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


def clock() -> float:
    """Wall seconds minus the seconds stolen from the pinned vCPU, on an
    arbitrary origin."""
    return time.perf_counter() - _stolen_s()


def _loop() -> None:
    """Scalar interpreter work, like a rate sweep or an import."""
    total = 0
    for i in range(100_000):
        total += i * i


def _arrays() -> None:
    """64-bit mixing over 4 MB of arrays, like the pulse streams. numpy is
    imported here, not with this module, so that the set-up probe times its
    import."""
    import numpy as np

    z = np.arange(1, 500_001, dtype=np.uint64)
    for _ in range(4):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)


def measure() -> dict:
    """Wall seconds one pass of the gauge takes now, {kind: seconds}. Steal
    is left in: at the tick of /proc/stat, 10 ms, it cannot be placed inside
    a pass this short, and the run's median drops the passes it hits."""
    t0 = time.perf_counter()
    _loop()
    t1 = time.perf_counter()
    _arrays()
    return {"loop": t1 - t0, "both": time.perf_counter() - t0}
