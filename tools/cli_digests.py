"""Digests of the CLI's output on every bundled config, for byte-identity checks.

Runs the 48 CLI invocations (4 subcommands x csv/json x 3 bundled configs x
the bundled seeds and --seed 5), each in its own subprocess with
PYTHONPATH=src, and prints one line per run: the argv, the exit code, and
the sha256 of stdout and of stderr. Runs that a config cannot serve (for
example rate-sweep without a sweep section) are listed with their exit code
too.

    python3 tools/cli_digests.py                 # this checkout
    python3 tools/cli_digests.py --repo OTHER    # another checkout
    python3 tools/cli_digests.py --against OTHER # compare with another checkout

Two checkouts print the same line for a run exactly when that run's output
is byte-identical. With --against, each run is made in both checkouts and
only the runs that differ are printed, each with what differs (exit code,
stdout, stderr), then a count of the identical runs; the exit code is 1
when any run differs and 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = ("link-budget", "rate-sweep", "simulate", "session")
FORMATS = ("csv", "json")
CONFIGS = ("desk_session", "measured_link", "upgraded_link")
SEEDS = ((), ("--seed", "5"))


def runs():
    """The argv of every run, relative to the repository root."""
    for command, config, fmt, seed in itertools.product(COMMANDS, CONFIGS, FORMATS, SEEDS):
        config_path = f"src/phaselink/configs/{config}.cfg"
        yield [command, "--config", config_path, "--format", fmt, *seed]


def digests(repo: Path, cli_args: list) -> dict:
    """The exit code and the sha256 of stdout and of stderr of one run."""
    done = subprocess.run(
        [sys.executable, "-m", "phaselink", *cli_args],
        cwd=repo,
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True,
    )
    return {
        "exit": done.returncode,
        "stdout": hashlib.sha256(done.stdout).hexdigest(),
        "stderr": hashlib.sha256(done.stderr).hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_repo = Path(__file__).resolve().parents[1]
    parser.add_argument("--repo", type=Path, default=default_repo, help="checkout to run")
    parser.add_argument(
        "--against", type=Path, default=None, metavar="OTHER",
        help="also run checkout OTHER; print the runs that differ and exit 1 if any does",
    )
    args = parser.parse_args(argv)
    n_runs = n_differ = 0
    for cli_args in runs():
        n_runs += 1
        ours = digests(args.repo, cli_args)
        if args.against is None:
            print(" ".join([*cli_args, *(f"{k}={v}" for k, v in ours.items())]), flush=True)
            continue
        theirs = digests(args.against, cli_args)
        moved = [key for key in ours if ours[key] != theirs[key]]
        if moved:
            n_differ += 1
            print(f"differs: {' '.join(cli_args)} ({', '.join(moved)})", flush=True)
    if args.against is not None:
        print(f"{n_runs - n_differ} of {n_runs} runs identical")
    return 1 if n_differ else 0


if __name__ == "__main__":
    sys.exit(main())
