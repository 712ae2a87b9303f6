"""Run the benchmark on several seeds and report the spread of each metric.

    python3 benchmarks/spread.py --workloads desk_session mc_batch --seeds 1-10

For each workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound
in BENCHMARK.json. Every run's result line, with the information lines
printed before it, is appended to benchmarks/results/<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    metrics = SPEC["per_layer" if args.trace else "end_to_end"]
    (HERE / "results").mkdir(exist_ok=True)
    worst = 0.0
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                return 1
            *info, last = done.stdout.splitlines()
            result = json.loads(last)
            with open(HERE / "results" / f"{workload}.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"seed": seed, "trace": args.trace, "info": info,
                                     "result": result}) + "\n")
            results.append(result)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {len(results)} runs, failed shares {sorted(shares)}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            if bound is not None and m["name"] != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {m['name']:34s} median {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"spread {spread:7.4f}" + (f" bound {bound}" if bound is not None else ""))
    if not args.trace:
        print(f"largest spread as a share of its bound (setup_s aside): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
