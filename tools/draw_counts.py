"""True draws per pulse of the CLI's sessions and Monte Carlo batch.

Counts every stream position that any random draw mixes, by wrapping
phaselink.rng._draw (which every raw, uniform, bit and byte draw goes
through), and divides by the pulses simulated. It prints one line for the
session of each bundled config and one for simulate on measured_link.cfg:

    python3 tools/draw_counts.py                 # this checkout
    python3 tools/draw_counts.py --repo OTHER    # another checkout

Under each run's line, one line per stage splits the count: each draw is
charged to the first function outside rng.py on the call stack, named by
its module and qualified name (montecarlo.class_schedule, for one).

Runs that abort still count the draws made up to the abort.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

CONFIGS = ("desk_session", "measured_link", "upgraded_link")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_repo = Path(__file__).resolve().parents[1]
    parser.add_argument("--repo", type=Path, default=default_repo, help="checkout to run")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.repo.resolve() / "src"))
    from phaselink import cli, rng
    from phaselink.config import load_config
    from phaselink.protocol.session import run_session_detailed

    drawn = []
    draw = rng._draw

    def stage() -> str:
        frame = sys._getframe(2)  # the rng function that called _draw
        while frame.f_code.co_filename == rng.__file__:
            frame = frame.f_back
        return f"{Path(frame.f_code.co_filename).stem}.{frame.f_code.co_qualname}"

    def counting(*args):
        # the first array argument holds the draws: _draw(z, scratch) here,
        # _draw(seed, counters) in checkouts that start draws inside _draw
        drawn.append((stage(), next(len(a) for a in args if hasattr(a, "__len__"))))
        return draw(*args)

    def report(name: str, pulses: int) -> None:
        total = sum(n for _, n in drawn)
        print(f"{name}: {total / pulses:.4f} draws/pulse ({total} draws, {pulses} pulses)")
        per_stage = Counter()
        for caller, n in drawn:
            per_stage[caller] += n
        for caller, n in per_stage.most_common():
            print(f"  {caller}: {n / pulses:.4f} draws/pulse ({n} draws)")

    rng._draw = counting
    config_dir = args.repo / "src" / "phaselink" / "configs"
    for config in CONFIGS:
        drawn.clear()
        result, _, _ = run_session_detailed(load_config(config_dir / f"{config}.cfg"))
        report(f"session {config}", result.total_pulses)
    cfg = load_config(config_dir / "measured_link.cfg")
    drawn.clear()
    cli.cmd_simulate(cfg, "csv")
    report("simulate measured_link", cfg.montecarlo.n_pulses)
    return 0


if __name__ == "__main__":
    sys.exit(main())
