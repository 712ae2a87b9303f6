"""The scripts under tools/: draw_counts.py and stage_times.py run end to
end and their reports add up, stage_times.py --repeat prints per-session
means, and cli_digests.py lists the CLI runs that it digests and, with
--against, names the runs whose output differs between two checkouts."""

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


# The exact draws of each run. A change that keeps the stream layout keeps
# these; one that moves it on purpose updates them and says so.
DRAWS = {
    "session desk_session": 7_120_200,
    "session measured_link": 1_523_795,
    "session upgraded_link": 1_502_097,
    "simulate measured_link": 1_501_947,
}


def test_draw_totals_pinned(draw_counts):
    # an upper bound alone misses draws that stop passing through rng._draw
    assert {name: run[1] for name, run in draw_counts.items()} == DRAWS


def test_draws_per_pulse(draw_counts):
    # desk decides classes, clicks and error flags on byte lanes, about 8
    # pulses per draw; the lossy link draws per event, not per pulse
    assert draw_counts["session desk_session"][0] <= 0.75
    assert draw_counts["session measured_link"][0] <= 0.19
    # simulate reads each click's class once, with its candidate; reading
    # the clicks' classes again costs about 0.0008 draws per pulse more
    assert draw_counts["simulate measured_link"][0] <= 0.1505


SESSION = re.compile(r"session (\w+): (\d+) frames, (\d+) pulses")
ROLE = re.compile(r"  (alice|bob|driver): (\d+\.\d{2}) ms, (\d+) minor faults")
STAGE_TIME = re.compile(r"    ([\w.]+): (\d+\.\d{2}) ms, (-?\d+) minor faults, (\d+) calls")


def test_stage_times_rows_within_thread_totals():
    # each role's stage rows (self time and self faults) sum to no more
    # than its totals, on the session of every config: an endpoint's are
    # those of its run() steps, the driver's those of the whole session
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_times.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    roles = {}
    for line in done.stdout.splitlines():
        if session := SESSION.fullmatch(line):
            config = session[1]
        elif role := ROLE.fullmatch(line):
            rows = []
            roles[config, role[1]] = (float(role[2]), int(role[3]), rows)
        else:
            stage = STAGE_TIME.fullmatch(line)
            assert stage and roles, f"unparsed line: {line!r}"
            rows.append((stage[1], float(stage[2]), int(stage[3]), int(stage[4])))
    configs = {"desk_session", "measured_link", "upgraded_link"}
    assert set(roles) == {(c, role) for c in configs for role in ("alice", "bob", "driver")}
    for key, (total_ms, total_faults, rows) in roles.items():
        names = {name for name, *_ in rows}
        transport = {"LoopbackTransport.send", "LoopbackTransport.recv"}
        # the driver moves every message; the endpoints only yield them
        assert transport <= names if key[1] == "driver" else not transport & names, key
        assert all(ms >= 0 and faults >= 0 and calls > 0 for _, ms, faults, calls in rows), key
        assert sum(ms for _, ms, _, _ in rows) <= total_ms + 0.005 * len(rows), key
        assert sum(faults for _, _, faults, _ in rows) <= total_faults, key
    assert "session._signal_rank" in {name for name, *_ in roles["measured_link", "alice"][2]}
    assert "session.detect" in {name for name, *_ in roles["measured_link", "bob"][2]}


def test_stage_times_repeat_prints_means():
    # one warm-up session, then the means of two more, on every config
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_times.py"), "--repeat", "2"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    mean = re.compile(r"^session (\w+): \d+ frames, \d+ pulses \(mean of 2 sessions\)$", re.M)
    sessions = mean.findall(done.stdout)
    assert sessions == ["desk_session", "measured_link", "upgraded_link"]
    lines = [line for line in done.stdout.splitlines() if not line.startswith("session ")]
    assert lines and all(ROLE.fullmatch(line) or STAGE_TIME.fullmatch(line) for line in lines)
    # a stage's calls are per session: the measured link's 4 frames
    measured = done.stdout.split("session measured_link")[1].split("session upgraded_link")[0]
    assert re.search(r"session\._signal_rank: [\d.]+ ms, -?\d+ minor faults, 4 calls", measured)


@pytest.fixture
def cli_digests():
    spec = importlib.util.spec_from_file_location("cli_digests", ROOT / "tools" / "cli_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_digest_runs_listed_without_running(monkeypatch, cli_digests):
    def no_process(*args, **kwargs):
        raise AssertionError("listing the runs started a subprocess")

    monkeypatch.setattr(subprocess, "run", no_process)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    runs = list(cli_digests.runs())
    assert len(runs) == 48 and len({tuple(argv) for argv in runs}) == 48
    for argv in runs:
        assert argv[0] in cli_digests.COMMANDS
        assert (ROOT / argv[argv.index("--config") + 1]).is_file()


@pytest.mark.parametrize("differ", [False, True])
def test_cli_digest_against_names_differing_runs(monkeypatch, capsys, cli_digests, differ):
    # the subprocess is stubbed: checkout OTHER moves one run's stdout and
    # another's exit code and stderr when differ is set
    runs = list(cli_digests.runs())
    moved_out, moved_exit = runs[5], runs[40]
    calls = []

    def fake_run(argv, cwd, **kwargs):
        cli_args = argv[argv.index("phaselink") + 1:]
        calls.append((cwd, cli_args))
        other = differ and cwd == Path("OTHER")
        return subprocess.CompletedProcess(
            argv,
            returncode=3 if other and cli_args == moved_exit else 0,
            stdout=b"moved" if other and cli_args == moved_out else b"table",
            stderr=b"why" if other and cli_args == moved_exit else b"",
        )

    monkeypatch.setattr(subprocess, "run", fake_run)
    code = cli_digests.main(["--repo", "THIS", "--against", "OTHER"])
    lines = capsys.readouterr().out.splitlines()
    assert sorted(calls) == sorted((Path(c), r) for r in runs for c in ("THIS", "OTHER"))
    if not differ:
        assert code == 0 and lines == ["48 of 48 runs identical"]
        return
    assert code == 1
    assert lines == [
        f"differs: {' '.join(moved_out)} (stdout)",
        f"differs: {' '.join(moved_exit)} (exit, stderr)",
        "46 of 48 runs identical",
    ]
