"""Paired benchmark runs of two checkouts, with one verdict per metric.

    python3 tools/bench_pairs.py --against ../parent-checkout --seconds 5 --out pairs.json

For each workload it runs `benchmarks/run.py --trace 0` of this checkout
(the change) and of checkout OTHER (the parent) once per pair, with a fresh
seed for each pair. Which side runs first is one bit of a hash of the pair's
seed (first_side), so neither side is tied to fixed run positions, as strict
alternation ties them to positions 0, 3 and 1, 2 mod 4. For each end-to-end
metric of this checkout's BENCHMARK.json it prints each side's median and
quartiles (as statistics.quantiles(values, n=4) gives them), the pairs the
change wins out of those run (a tie counts for neither side), the two-sided
sign-test p over the pairs that did not tie, and one verdict:

    worse         the change's median is beyond the metric's bound from the
                  parent's median
    better        the change wins at least 9 of every 10 pairs run, the
                  medians differ by more than the parent's interquartile
                  range, and the change fails no more operations or runs
                  than the parent
    unresolved    the parent's interquartile range, as a share of its
                  median, exceeds the bound
    within bound  otherwise

The checks are made in that order. Before a workload's pairs each side
runs it once, briefly, and that run is discarded. A run that exits
non-zero is reported and leaves its pair out of the metrics, though not
out of the pairs run. The report also counts the pairs whose two output
digests differ: a change meant to keep results shows none. With --out the
file also holds both checkouts' commits, the processor count and
model, and every run's result line and `output sha256` line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SIDES = ("parent", "change")
WARM_UP_SECONDS = 1.0  # of the discarded run of each side before a workload's pairs


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def first_side(seed: int) -> str:
    """The side that runs first in the pair of this seed: the low bit of the
    first byte of the SHA-256 of its decimal text."""
    return SIDES[hashlib.sha256(str(seed).encode()).digest()[0] & 1]


def run_once(repo: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of a checkout: its exit code, its result line and
    the result it holds, its output digest line, and its stderr on failure."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=repo, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    run = {
        "exit": done.returncode,
        "result_line": lines[-1] if done.returncode == 0 and lines else None,
        "sha256_line": next((line for line in lines if line.startswith("output sha256")), None),
    }
    run["result"] = json.loads(run["result_line"]) if run["result_line"] else None
    if done.returncode != 0:
        run["stderr"] = done.stderr[-2000:]
    return run


def quartiles(values: list) -> tuple:
    """(q1, median, q3) of the values; all three the value when there is one."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided sign-test p of wins against losses, ties left out."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2**n
    return min(1.0, 2.0 * tail)


def judge(parent: list, change: list, better: str, bound: float,
          pairs_run: int | None = None, more_failures: bool = False) -> dict:
    """The summary and verdict of one metric over paired values, pair i
    being (parent[i], change[i]), of pairs_run pairs (default all of them
    succeeded); a change with more_failures than the parent is never better."""
    pairs_run = len(parent) if pairs_run is None else pairs_run
    sign = 1.0 if better == "higher" else -1.0  # a larger sign * value is better
    wins = sum(sign * c > sign * p for p, c in zip(parent, change))
    losses = sum(sign * c < sign * p for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    spread = (pq3 - pq1) / abs(pmed) if pmed else 0.0
    if sign * (cmed - pmed) < -bound * abs(pmed):
        verdict = "worse"
    elif (not more_failures and 10 * wins >= 9 * pairs_run
          and sign * (cmed - pmed) > pq3 - pq1):
        verdict = "better"
    elif spread > bound:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent": {"q1": pq1, "median": pmed, "q3": pq3},
        "change": {"q1": cq1, "median": cmed, "q3": cq3},
        "parent_spread": spread,
        "bound": bound,
        "wins": wins,
        "losses": losses,
        "pairs": pairs_run,
        "sign_p": sign_test_p(wins, losses),
        "verdict": verdict,
    }


def summarize(pairs: list) -> dict:
    """Per-side run and operation counts over the pairs of one workload, the
    pairs whose output digests differ, and each end-to-end metric's judge()
    over the pairs whose two runs both succeeded."""
    good = [p for p in pairs if all(p[side]["result"] for side in SIDES)]
    summary = {
        "pairs_run": len(pairs),
        "failed_runs": {side: sum(p[side]["result"] is None for p in pairs) for side in SIDES},
        "operations": {
            side: {key: sum(p[side]["result"][key] for p in pairs if p[side]["result"])
                   for key in ("attempted", "failed")}
            for side in SIDES
        },
        "digests_differ": sum(p["parent"].get("sha256_line") != p["change"].get("sha256_line")
                              for p in pairs),
        "metrics": {},
    }
    runs, ops = summary["failed_runs"], summary["operations"]
    more_failures = (runs["change"] > runs["parent"]
                     or ops["change"]["failed"] > ops["parent"]["failed"])
    if good:
        for m in SPEC["end_to_end"]:
            values = {side: [p[side]["result"]["metrics"][m["name"]]["value"] for p in good]
                      for side in SIDES}
            summary["metrics"][m["name"]] = judge(
                values["parent"], values["change"], m["better"], m["bound"],
                pairs_run=len(pairs), more_failures=more_failures,
            )
    return summary


def report_lines(workload: str, summary: dict) -> list:
    ops = summary["operations"]
    lines = [f"{workload}: failed operations parent {ops['parent']['failed']} of "
             f"{ops['parent']['attempted']}, change {ops['change']['failed']} of "
             f"{ops['change']['attempted']}; failed runs parent "
             f"{summary['failed_runs']['parent']}, change {summary['failed_runs']['change']}; "
             f"output digests differ in {summary['digests_differ']} of {summary['pairs_run']} pairs"]
    for name, j in summary["metrics"].items():
        p, c = j["parent"], j["change"]
        lines.append(
            f"  {name:12s} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
            f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
            f"  wins {j['wins']}/{j['pairs']}  p {j['sign_p']:.3g}"
            f"  spread {j['parent_spread']:.3f} bound {j['bound']}  {j['verdict']}"
        )
    return lines


def commit(repo: Path) -> dict:
    def git(*args):
        return subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True).stdout
    return {"head": git("rev-parse", "HEAD").strip(),
            "dirty": bool(git("status", "--porcelain").strip())}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", type=Path, required=True, metavar="OTHER",
                    help="the parent checkout")
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                    help="a-b, one seed per pair (default 1-10)")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--out", type=Path, default=None, help="JSON file of the runs and verdicts")
    args = ap.parse_args(argv)
    repos = {"parent": args.against.resolve(), "change": ROOT}
    print(f"seeds {args.seeds[0]}-{args.seeds[-1]}, {args.seconds:g} s per run", flush=True)
    record = {
        "commits": {side: commit(repo) for side, repo in repos.items()},
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seconds": args.seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in args.workloads:
        # the first run of a workload can read slow, its setup_s above all,
        # which would handicap the side that opens the first pair
        for side in SIDES:
            run_once(repos[side], workload, args.seeds[0], WARM_UP_SECONDS)
        pairs = []
        for seed in args.seeds:
            order = SIDES if first_side(seed) == SIDES[0] else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(repos[side], workload, seed, args.seconds)
                if pair[side]["exit"]:
                    print(f"{workload} seed {seed} {side}: exit {pair[side]['exit']}\n"
                          f"{pair[side]['stderr']}", flush=True)
            pairs.append(pair)
        summary = summarize(pairs)
        print("\n".join(report_lines(workload, summary)), flush=True)
        for pair in pairs:
            for side in SIDES:
                pair[side].pop("result")  # the result line holds it
        record["workloads"][workload] = {"pairs": pairs, "summary": summary}
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
