"""The scripts under tools/: draw_counts.py runs end to end and its report
adds up, and cli_digests.py lists the CLI runs that it digests."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOTAL = re.compile(r"(\S.*): (\d+\.\d{4}) draws/pulse \((\d+) draws, (\d+) pulses\)")
STAGE = re.compile(r"  (\w+(?:\.[\w<>]+)+): (\d+\.\d{4}) draws/pulse \((\d+) draws\)")
RUNS = {
    "session desk_session",
    "session measured_link",
    "session upgraded_link",
    "simulate measured_link",
}


@pytest.fixture(scope="module")
def draw_counts():
    """Per run that tools/draw_counts.py reports: (draws per pulse, draws,
    pulses, {function: draws})."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "draw_counts.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    runs = {}
    for line in done.stdout.splitlines():
        if total := TOTAL.fullmatch(line):
            stages = {}
            name, per_pulse, draws, pulses = total.groups()
            runs[name] = (float(per_pulse), int(draws), int(pulses), stages)
        else:
            stage = STAGE.fullmatch(line)
            assert stage and runs, f"unparsed line: {line!r}"
            stages[stage[1]] = int(stage[3])
    return runs


def test_draw_counts_lines_add_up(draw_counts):
    # every line parses, and each run's per-function draws sum to its total
    assert set(draw_counts) == RUNS
    for name, (per_pulse, draws, pulses, stages) in draw_counts.items():
        assert abs(draws / pulses - per_pulse) <= 5e-5, name
        assert stages and sum(stages.values()) == draws, name


def test_draws_per_pulse(draw_counts):
    # desk decides classes, clicks and error flags on byte lanes, about 8
    # pulses per draw; the lossy link draws per event, not per pulse
    assert draw_counts["session desk_session"][0] <= 0.75
    assert draw_counts["session measured_link"][0] <= 0.19
    # simulate reads each click's class once, with its candidate; reading
    # the clicks' classes again costs about 0.0008 draws per pulse more
    assert draw_counts["simulate measured_link"][0] <= 0.1505


def test_cli_digest_runs_listed_without_running(monkeypatch):
    spec = importlib.util.spec_from_file_location("cli_digests", ROOT / "tools" / "cli_digests.py")
    cli_digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_digests)

    def no_process(*args, **kwargs):
        raise AssertionError("listing the runs started a subprocess")

    monkeypatch.setattr(subprocess, "run", no_process)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    runs = list(cli_digests.runs())
    assert len(runs) == 48 and len({tuple(argv) for argv in runs}) == 48
    for argv in runs:
        assert argv[0] in cli_digests.COMMANDS
        assert (ROOT / argv[argv.index("--config") + 1]).is_file()
