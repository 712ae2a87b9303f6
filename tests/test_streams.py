"""Stream audit: runs of the CLI record every seed they derive, under the
stream-table name (rng.STREAMS) it was derived with, and every word they
read from each seed, counting split_seed(s, k) as a read of word k of s.

A run fails the audit when a derived seed has no name or two, or when a
word of a seed is read both as a draw and as a child seed. The one allowed
case is word TIE of a stream read in byte lanes: its tie child, which is
the stream's own draw TIE (the coincidence beside the table).
"""

import re
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from phaselink import cli, rng

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "phaselink" / "configs"
TIE = rng.STREAMS["tie"]
RUN_SEED = 3301
SESSION = {"alice", "bob", "channel", "payload", "schedule", "alice_bases", "sample"}
SESSION |= {"key_pool", "mask", "clicks", "errors", "tie", "frame"}
SPARSE = {"counts", "slots", "thinning"}
PLAN = {"alice", "bob", "channel", "plan_schedule", "plan_clicks", "plan_errors", "tie"}

# run -> (command, config, settings, the names its seeds are derived under)
RUNS = {
    "desk_session": (
        "session",
        "desk_session.cfg",
        {"protocol.n_frames": 2, "protocol.spread_ratio": 8},
        SESSION,
    ),
    "measured_session": (
        "session",
        "measured_link.cfg",
        {"protocol.n_frames": 2, "jitter.max_db": 3.0},
        SESSION | SPARSE | {"jitter"},
    ),
    "simulate": ("simulate", "measured_link.cfg", {"montecarlo.n_pulses": 1_000_000}, PLAN | SPARSE),
}


class Audit:
    """What a run reads of each seed: its draws (word ranges started by
    rng._start, word arrays by rng._start_at), its children by word (every
    rng.split_seed) and each child's names (every step of rng.child)."""

    def __init__(self, monkeypatch):
        self.ranges = defaultdict(list)  # seed -> [(first, end)] of drawn words
        self.words = defaultdict(list)  # seed -> [arrays of drawn words]
        self.children = defaultdict(dict)  # seed -> {word: child seed}
        self.names = defaultdict(set)  # child seed -> names it was derived under
        start, start_at, split_seed, child = rng._start, rng._start_at, rng.split_seed, rng.child

        def audited_start(seed, position, z):
            self.ranges[seed].append((position, position + len(z)))
            return start(seed, position, z)

        def audited_start_at(seed, positions):
            self.words[seed].append(positions.copy())  # before it starts them in place
            return start_at(seed, positions)

        def audited_split_seed(seed, k):
            self.children[seed][k] = split_seed(seed, k)
            return self.children[seed][k]

        def named_child(seed, *path):
            for step in path:
                seed = child(seed, step)
                self.names[seed].add(step if isinstance(step, str) else "frame")
            return seed

        monkeypatch.setattr(rng, "_start", audited_start)
        monkeypatch.setattr(rng, "_start_at", audited_start_at)
        monkeypatch.setattr(rng, "split_seed", audited_split_seed)
        for name, module in list(sys.modules.items()):
            if name.startswith("phaselink") and getattr(module, "child", None) is child:
                monkeypatch.setattr(module, "child", named_child)

    def drawn(self, seed, word) -> bool:
        return any(first <= word < end for first, end in self.ranges[seed]) or any(
            np.any(words == word) for words in self.words[seed]
        )

    def faults(self) -> list:
        faults = []
        for parent, children in self.children.items():
            for k, seed in children.items():
                names = sorted(self.names[seed])
                if len(names) != 1:
                    faults.append(f"child {k} of {parent} derived under names {names}")
                if self.drawn(parent, k) and not (k == TIE and names == ["tie"]):
                    faults.append(f"word {k} of {parent} read as a draw and as child {names}")
        return faults


def test_runs_cover_the_table():
    assert set().union(*(run[3] for run in RUNS.values())) == set(rng.STREAMS) | {"frame"}


@pytest.mark.parametrize("run", RUNS)
def test_every_stream_read_once_by_name(monkeypatch, tmp_path, run):
    command, config, settings, names = RUNS[run]
    text = (CONFIG_DIR / config).read_text()
    for key, value in settings.items():
        line = f"{key} = {value}"
        text, found = re.subn(rf"^{re.escape(key)} = .*$", line, text, flags=re.M)
        if not found:
            text += line + "\n"
    path = tmp_path / config
    path.write_text(text)
    audit = Audit(monkeypatch)
    argv = [command, "--config", str(path), "--seed", str(RUN_SEED), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_OK
    assert audit.faults() == []
    assert set().union(*audit.names.values()) == names
