"""True draws per pulse of the CLI's sessions and Monte Carlo batch.

Counts every stream position that any random draw mixes, by wrapping
phaselink.rng._draw (which every raw, uniform, bit and byte draw goes
through), and divides by the pulses simulated. It prints one line for the
session of each bundled config and one for simulate on measured_link.cfg:

    python3 tools/draw_counts.py                 # this checkout
    python3 tools/draw_counts.py --repo OTHER    # another checkout

Runs that abort still count the draws made up to the abort.
"""

from __future__ import annotations

import argparse
import sys
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

    drawn = []  # list.append is atomic, so both endpoint threads may count
    draw = rng._draw

    def counting(seed, counters):
        drawn.append(len(counters))
        return draw(seed, counters)

    rng._draw = counting
    config_dir = args.repo / "src" / "phaselink" / "configs"
    for config in CONFIGS:
        drawn.clear()
        report, _, _ = run_session_detailed(load_config(config_dir / f"{config}.cfg"))
        print(f"session {config}: {sum(drawn) / report.total_pulses:.4f} draws/pulse "
              f"({sum(drawn)} draws, {report.total_pulses} pulses)")
    cfg = load_config(config_dir / "measured_link.cfg")
    drawn.clear()
    cli.cmd_simulate(cfg, "csv")
    n = cfg.montecarlo.n_pulses
    print(f"simulate measured_link: {sum(drawn) / n:.4f} draws/pulse "
          f"({sum(drawn)} draws, {n} pulses)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
