"""Digests of the CLI's output on every bundled config, for byte-identity checks.

Runs the 48 CLI invocations (4 subcommands x csv/json x 3 bundled configs x
the bundled seeds and --seed 5), each in its own subprocess with
PYTHONPATH=src, and prints one line per run: the argv, the exit code, and
the sha256 of stdout and of stderr. Runs that a config cannot serve (for
example rate-sweep without a sweep section) are listed with their exit code
too.

    python3 tools/cli_digests.py                 # this checkout
    python3 tools/cli_digests.py --repo OTHER    # another checkout

Two checkouts print the same line for a run exactly when that run's output
is byte-identical, so `diff` of two listings names the runs that moved.
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_repo = Path(__file__).resolve().parents[1]
    parser.add_argument("--repo", type=Path, default=default_repo, help="checkout to run")
    args = parser.parse_args(argv)
    env = {**os.environ, "PYTHONPATH": "src"}
    for cli_args in runs():
        done = subprocess.run(
            [sys.executable, "-m", "phaselink", *cli_args],
            cwd=args.repo,
            env=env,
            capture_output=True,
        )
        out = hashlib.sha256(done.stdout).hexdigest()
        err = hashlib.sha256(done.stderr).hexdigest()
        print(f"{' '.join(cli_args)} exit={done.returncode} stdout={out} stderr={err}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
