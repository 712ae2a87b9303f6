"""The scripts under tools/: stage_times.py runs end to end, its time and
draw reports add up, and with --repeat it prints per-session means and the
same draws, cli_digests.py lists the CLI runs that it digests and, with
--against, names the runs whose output differs between two checkouts, and
bench_pairs.py summarizes and judges paired benchmark result lines, with
the benchmark itself stubbed, and src_lines.py sorts every line of a
module into exactly one of its four columns."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOTAL = re.compile(r"(\S.*): (\d+\.\d{4}) draws/pulse \((\d+) draws, (\d+) pulses\)")
STAGE = re.compile(r"  (\w+(?:\.[\w<>]+)+): (\d+\.\d{4}) draws/pulse \((\d+) draws\)")
SESSION = re.compile(r"session (\w+): (\d+) frames, (\d+) pulses")
ROLE = re.compile(r"  (alice|bob|driver): (\d+\.\d{2}) ms, (\d+) minor faults")
STAGE_TIME = re.compile(r"    ([\w.]+): (\d+\.\d{2}) ms, (-?\d+) minor faults, (\d+) calls")
RUNS = {
    "session desk_session",
    "session measured_link",
    "session upgraded_link",
    "simulate measured_link",
}


def stage_times_output(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_times.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    ).stdout


def is_draw_line(line):
    return TOTAL.fullmatch(line) or STAGE.fullmatch(line)


def is_timing_line(line):
    return SESSION.fullmatch(line) or ROLE.fullmatch(line) or STAGE_TIME.fullmatch(line)


@pytest.fixture(scope="module")
def stage_times():
    """The stdout of one tools/stage_times.py run."""
    return stage_times_output()


@pytest.fixture(scope="module")
def draw_counts(stage_times):
    """Per run whose draws tools/stage_times.py reports: (draws per pulse,
    draws, pulses, {function: draws})."""
    runs = {}
    for line in stage_times.splitlines():
        if is_timing_line(line):
            continue  # test_stage_times_rows_within_thread_totals parses these
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
    # every line parses, each run's per-function draws sum to its total, and
    # none is charged to the tool's own timing wrappers
    assert set(draw_counts) == RUNS
    for name, (per_pulse, draws, pulses, stages) in draw_counts.items():
        assert abs(draws / pulses - per_pulse) <= 5e-5, name
        assert stages and sum(stages.values()) == draws, name
        assert not any(stage.startswith("stage_times.") for stage in stages), name


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


def test_stage_times_rows_within_thread_totals(stage_times):
    # each role's stage rows (self time and self faults) sum to no more
    # than its totals, on the session of every config: an endpoint's are
    # those of its run() steps, the driver's those of the whole session
    roles = {}
    for line in stage_times.splitlines():
        if is_draw_line(line):
            continue  # the draw_counts fixture parses these
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


def test_stage_times_repeat_prints_means(stage_times):
    # one warm-up session, then the means of two more, on every config
    stdout = stage_times_output("--repeat", "2")
    mean = re.compile(r"^session (\w+): \d+ frames, \d+ pulses \(mean of 2 sessions\)$", re.M)
    sessions = mean.findall(stdout)
    assert sessions == ["desk_session", "measured_link", "upgraded_link"]
    draws = [line for line in stdout.splitlines() if is_draw_line(line)]
    lines = [
        line for line in stdout.splitlines()
        if not line.startswith("session ") and not is_draw_line(line)
    ]
    assert lines and all(ROLE.fullmatch(line) or STAGE_TIME.fullmatch(line) for line in lines)
    # a stage's calls are per session: the measured link's 4 frames
    measured = stdout.split("session measured_link")[1].split("session upgraded_link")[0]
    assert re.search(r"session\._signal_rank: [\d.]+ ms, -?\d+ minor faults, 4 calls", measured)
    # the draws are one session's, with --repeat as without
    assert draws == [line for line in stage_times.splitlines() if is_draw_line(line)]


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


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result_line(wall_s, failed=0, attempted=20):
    """A result line as benchmarks/run.py prints it last, its end-to-end
    metrics derived from one wall time."""
    values = {"wall_s": wall_s, "items_per_s": 1e6 / wall_s, "latency_s": wall_s / 100,
              "setup_s": 0.2, "peak_rss_mb": 50.0}
    units = {"wall_s": "s", "items_per_s": "1/s", "latency_s": "s", "setup_s": "s",
             "peak_rss_mb": "MB"}
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


# (parent, change) values of ten pairs, and the verdict of a lower-is-better
# metric with bound 0.24
VERDICTS = {
    "worse": ([1.0 + i / 100 for i in range(10)], [1.5] * 10),
    "better": ([1.0 + i / 100 for i in range(10)], [0.9] * 9 + [1.2]),
    "unresolved": ([1.0, 0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0], [1.0] * 10),
    "within bound": ([1.0 + i / 100 for i in range(10)], [1.0 + i / 100 for i in range(10)][::-1]),
}


@pytest.mark.parametrize("verdict", sorted(VERDICTS))
def test_bench_pairs_verdicts(bench_pairs, verdict):
    parent, change = VERDICTS[verdict]
    assert bench_pairs.judge(parent, change, "lower", 0.24)["verdict"] == verdict
    # a higher-is-better metric over the reciprocals reads the same
    inverse = [[1 / v for v in side] for side in (parent, change)]
    assert bench_pairs.judge(*inverse, "higher", 0.24)["verdict"] == verdict


def test_bench_pairs_better_needs_nine_wins_and_a_gap_beyond_the_quartiles(bench_pairs):
    parent = [1.0 + i / 100 for i in range(10)]
    eight = bench_pairs.judge(parent, [0.9] * 8 + [1.2] * 2, "lower", 0.24)
    assert (eight["wins"], eight["losses"], eight["verdict"]) == (8, 2, "within bound")
    # ten wins by less than the parent's interquartile range
    close = bench_pairs.judge(parent, [v - 0.001 for v in parent], "lower", 0.24)
    assert close["wins"] == 10 and close["verdict"] == "within bound"


def test_bench_pairs_sign_test(bench_pairs):
    assert bench_pairs.sign_test_p(9, 1) == 2 * (1 + 10) / 2**10
    assert bench_pairs.sign_test_p(1, 9) == bench_pairs.sign_test_p(9, 1)
    assert bench_pairs.sign_test_p(5, 5) == 1.0 == bench_pairs.sign_test_p(0, 0)


def _completed(stdout, returncode=0):
    return subprocess.CompletedProcess([], returncode=returncode, stdout=stdout, stderr="boom")


def test_bench_pairs_summary_of_result_lines(bench_pairs):
    # three pairs; the third's change run failed and leaves the pair out
    lines = [(_result_line(0.5), _result_line(0.4, failed=1)),
             (_result_line(0.6), _result_line(0.45)),
             (_result_line(0.55), None)]
    pairs = []
    for seed, (parent, change) in enumerate(lines):
        runs = {side: {"result": json.loads(line) if line else None}
                for side, line in zip(bench_pairs.SIDES, (parent, change))}
        pairs.append({"seed": seed, **runs})
    summary = bench_pairs.summarize(pairs)
    assert summary["failed_runs"] == {"parent": 0, "change": 1}
    assert summary["operations"] == {"parent": {"attempted": 60, "failed": 0},
                                     "change": {"attempted": 40, "failed": 1}}
    wall = summary["metrics"]["wall_s"]
    assert (wall["parent"]["median"], wall["change"]["median"]) == pytest.approx((0.55, 0.425))
    assert (wall["wins"], wall["pairs"]) == (2, 3)
    assert summary["metrics"]["setup_s"]["wins"] == 0
    assert set(summary["metrics"]) == {m["name"] for m in bench_pairs.SPEC["end_to_end"]}


def _pairs(walls, failed=None, exit_codes=None):
    """Stored pairs, (parent, change) wall times each, with the change's
    failed operations and run exit codes per pair (default none)."""
    pairs = []
    for i, (parent, change) in enumerate(walls):
        code = (exit_codes or {}).get(i, 0)
        lines = (_result_line(parent), _result_line(change, failed=(failed or {}).get(i, 0)))
        pairs.append({"seed": i, "parent": {"result": json.loads(lines[0])},
                      "change": {"result": None if code else json.loads(lines[1])}})
    return pairs


def test_bench_pairs_better_needs_no_more_failures_and_counts_every_pair_run(bench_pairs):
    walls = [(1.0 + i / 100, 0.5) for i in range(10)]
    assert bench_pairs.summarize(_pairs(walls))["metrics"]["wall_s"]["verdict"] == "better"
    # one operation more fails on the change side
    failed = bench_pairs.summarize(_pairs(walls, failed={3: 1}))["metrics"]["wall_s"]
    assert (failed["wins"], failed["verdict"]) == (10, "within bound")
    # a failed change run: 9 wins of the 9 good pairs out of 10 run
    lost = bench_pairs.summarize(_pairs(walls, exit_codes={3: 1}))["metrics"]["wall_s"]
    assert (lost["wins"], lost["pairs"], lost["verdict"]) == (9, 10, "within bound")
    # 9 wins of 10 pairs run is enough; 8 wins of the 9 pairs kept out of
    # 10 run is not
    ten = [(1.0 + i / 100, 0.5) for i in range(9)] + [(1.0, 1.5)]
    wins_9 = bench_pairs.judge(*zip(*ten), "lower", 0.24, pairs_run=10)
    assert (wins_9["wins"], wins_9["verdict"]) == (9, "better")
    wins_8 = bench_pairs.judge(*zip(*ten[1:]), "lower", 0.24, pairs_run=10)
    assert (wins_8["wins"], wins_8["verdict"]) == (8, "within bound")


def test_bench_pairs_alternates_sides_with_a_seed_per_pair(monkeypatch, tmp_path, capsys, bench_pairs):
    # the side that runs first is a hash bit of the pair's seed, not the
    # pair's parity: seeds 6-9 put the change first, first, last, first
    calls = []

    def fake_run(argv, cwd, **kwargs):
        if argv[0] == "git":
            return _completed("abc123\n" if "rev-parse" in argv else "")
        seed = int(argv[argv.index("--seed") + 1])
        calls.append((Path(cwd).name, seed, float(argv[argv.index("--seconds") + 1])))
        side_wall = 0.5 if Path(cwd).name == "OTHER" else 0.4
        digest = f"{seed}b" if seed == 9 and Path(cwd).name != "OTHER" else seed
        return _completed(f"output sha256 {digest} (information only)\n{_result_line(side_wall)}\n")

    monkeypatch.setattr(subprocess, "run", fake_run)
    out = tmp_path / "BENCH.json"
    bench_pairs.main(["--against", "OTHER", "--workloads", "rate_sweep", "--seeds", "6-9",
                      "--seconds", "2", "--out", str(out)])
    this = bench_pairs.ROOT.name
    # one short run of each side to warm up, then the pairs
    assert calls == [("OTHER", 6, 1.0), (this, 6, 1.0),
                     (this, 6, 2.0), ("OTHER", 6, 2.0), (this, 7, 2.0), ("OTHER", 7, 2.0),
                     ("OTHER", 8, 2.0), (this, 8, 2.0), (this, 9, 2.0), ("OTHER", 9, 2.0)]
    record = json.loads(out.read_text())
    assert record["seeds"] == [6, 7, 8, 9]
    assert record["commits"]["parent"] == {"head": "abc123", "dirty": False}
    assert {"nproc", "cpu_model"} <= set(record)
    pairs = record["workloads"]["rate_sweep"]["pairs"]
    assert [p["first"] for p in pairs] == ["change", "change", "parent", "change"]
    # over many seeds each side runs first about half the time
    firsts = [bench_pairs.first_side(seed) for seed in range(1, 1001)]
    assert 450 < firsts.count("parent") < 550
    assert pairs[1]["change"]["sha256_line"] == "output sha256 7 (information only)"
    assert json.loads(pairs[1]["change"]["result_line"])["metrics"]["wall_s"]["value"] == 0.4
    summary = record["workloads"]["rate_sweep"]["summary"]
    assert summary["metrics"]["wall_s"]["verdict"] == "better"
    # the stubs print their seed as the digest, but for the change at seed 9
    assert summary["digests_differ"] == 1
    report = capsys.readouterr().out
    assert ("rate_sweep: failed operations parent 0 of 80, change 0 of 80; failed runs "
            "parent 0, change 0; output digests differ in 1 of 4 pairs") in report


SRC_FIXTURE = '''"""Module docstring.

Its second paragraph.
"""

# a comment-only line
import os  # a trailing comment is code


class Thing:
    """One line."""

    def method(self):
        """Two
        lines."""
        # an indented comment
        text = """not a

docstring"""
        return text


async def go():
    """Async."""
    return os.sep
'''


def test_src_lines_columns_add_up_to_line_count(tmp_path):
    # a module with a docstring at each level, comments, blank lines and a
    # multi-line string that is no docstring, whose empty line counts as
    # blank; the columns of each module and of the total add up to the
    # newline count that wc -l prints
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("# package\n")
    (package / "mod.py").write_text(SRC_FIXTURE)
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_lines.py"), "--repo", str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    )
    rows = {}
    for line in done.stdout.splitlines()[1:]:
        name, *values = line.split()
        rows[name] = list(map(int, values))
    # code, doc, comment, blank, lines
    assert rows == {
        "src/pkg/__init__.py": [0, 0, 1, 0, 1],
        "src/pkg/mod.py": [8, 8, 2, 7, 25],
        "total": [8, 8, 3, 7, 26],
    }
    for name in ("__init__.py", "mod.py"):
        code, doc, comment, blank, lines = rows[f"src/pkg/{name}"]
        assert code + doc + comment + blank == lines == (package / name).read_bytes().count(b"\n")
