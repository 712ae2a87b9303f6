import contextlib
import io
import json
import math
import re
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phaselink import cli, config

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "phaselink" / "configs"
MEASURED = str(CONFIG_DIR / "measured_link.cfg")
UPGRADED = str(CONFIG_DIR / "upgraded_link.cfg")


def run_cli(args):
    return cli.main(args)


def set_keys(text: str, values: dict) -> str:
    """Config text with each key's line set to its value; a key is given
    with "__" for its dot (protocol__n_frames)."""
    for key, value in values.items():
        key = key.replace("__", ".")
        text, found = re.subn(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text, flags=re.M)
        assert found == 1, key
    return text


def edited_config(tmp_path, name: str, **values) -> str:
    """The bundled config name with each key set to its value (set_keys)."""
    path = tmp_path / name
    path.write_text(set_keys((CONFIG_DIR / name).read_text(), values))
    return str(path)


COMMANDS = ("link-budget", "rate-sweep", "simulate", "session")
JITTER = "jitter.max_db = 3.0\njitter.tau_s = 0.002\njitter.step_db = 40.0\n"


class TestLinkBudget:
    def test_csv_schema_and_values(self, capsys):
        assert run_cli(["link-budget", "--config", MEASURED]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == cli.LINK_BUDGET_HEADER
        rows = dict(l.split(",") for l in lines[1:])
        assert float(rows["channel_db"]) == pytest.approx(18.477, abs=1e-3)
        assert abs(float(rows["channel_db"]) - 17.83) < 1.5

    def test_json_format(self, capsys):
        assert run_cli(["link-budget", "--config", MEASURED, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 < payload["eta_total"] < 1.0
        assert set(payload["breakdown_db"]) == {
            "geometric", "atmospheric", "conversion", "fiber", "adapter", "receiver", "detector",
        }

    def test_regime_violation_exit_code(self, tmp_path, capsys):
        text = Path(MEASURED).read_text()
        text = text.replace("geometry.d_fs = 1400.0", "geometry.d_fs = 500000.0")
        bad = tmp_path / "beyond.cfg"
        bad.write_text(text)
        assert run_cli(["link-budget", "--config", str(bad)]) == cli.EXIT_REGIME
        assert "regime" in capsys.readouterr().err.lower()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "broken.cfg"
        bad.write_text("beam.w0 = 0.001\n")
        assert run_cli(["link-budget", "--config", str(bad)]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_code(self):
        assert run_cli(["link-budget", "--config", "/no/such.cfg"]) == cli.EXIT_CONFIG


class TestRateSweep:
    def test_csv_header_golden(self, capsys):
        assert run_cli(["rate-sweep", "--config", MEASURED, "--grid", "0:2000:1000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "d_fs_m,key_gen_rate_bps,cs_raw,q_mu,e_mu,q1,e1,collapsed"
        assert len(lines) == 4

    @pytest.mark.parametrize("grid", ["0:10:0", "-10:0:10", "0:10:nan", "0:inf:10"])
    def test_bad_grid_is_config_error(self, grid, capsys):
        # a zero step, a negative start and non-finite values; an infinite
        # stop would otherwise grow the grid without end
        assert run_cli(["rate-sweep", "--config", MEASURED, f"--grid={grid}"]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_empty_grid_header_only(self, capsys):
        assert run_cli(["rate-sweep", "--config", MEASURED, "--grid", "10:5:10"]) == 0
        out = capsys.readouterr().out
        assert out == "d_fs_m,key_gen_rate_bps,cs_raw,q_mu,e_mu,q1,e1,collapsed\n"

    def test_upgraded_reaches_30km(self, capsys):
        assert run_cli(["rate-sweep", "--config", UPGRADED]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        positive = [float(l.split(",")[0]) for l in lines if float(l.split(",")[1]) > 0]
        assert max(positive) >= 30_000.0

    def test_matches_standalone_evaluation(self, capsys):
        # 1.4 km sweep row within 2% of the direct formula evaluation
        assert run_cli(["rate-sweep", "--config", MEASURED, "--grid", "1400:1400:100"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        from phaselink.config import load_config
        from phaselink.optics import transmittance
        from phaselink.rates import decoy_estimate, forward_gains, secrecy_capacity

        cfg = load_config(MEASURED)
        eta = transmittance(
            cfg.geometry, cfg.atmosphere, cfg.beam, cfg.detector.eta_b, cfg.detector.eta_d
        ).eta_total
        obs = forward_gains(eta, cfg.source, cfg.detector)
        est = decoy_estimate(obs, cfg.source)
        cs = secrecy_capacity(obs, est, cfg.source, cfg.detector)
        rate = cs.cs_per_pulse * cfg.source.rep_rate * cfg.source.signal_fraction
        assert float(row[1]) == pytest.approx(rate, rel=0.02)


class TestSimulate:
    def test_csv_schema(self, capsys):
        assert run_cli(["simulate", "--config", MEASURED]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "class,sent,clicked,errored,gain,qber,se_gain,se_qber"
        assert [l.split(",")[0] for l in lines[1:]] == ["signal", "decoy", "vacuum"]


class TestSession:
    def test_session_runs_and_persists(self, tmp_path, capsys):
        out = tmp_path / "session.csv"
        cfg = tmp_path / "tiny.cfg"
        text = Path(CONFIG_DIR / "desk_session.cfg").read_text()
        text = text.replace("protocol.n_frames = 142", "protocol.n_frames = 3")
        text = text.replace("protocol.spread_ratio = 64", "protocol.spread_ratio = 8")
        cfg.write_text(text)
        assert run_cli(["session", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("qber,comm_rate,key_gen_rate")
        record = json.loads(Path(str(out) + ".record.json").read_text())
        assert record["scenario_id"] == "tiny"
        assert len(record["config_hash"]) == 64
        assert record["tables"]["output"] == out.read_text()

    def test_reruns_byte_identical(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        text = Path(CONFIG_DIR / "desk_session.cfg").read_text()
        text = text.replace("protocol.n_frames = 142", "protocol.n_frames = 3")
        text = text.replace("protocol.spread_ratio = 64", "protocol.spread_ratio = 8")
        cfg.write_text(text)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["session", "--config", str(cfg), "--out", str(out1)]) == 0
        assert run_cli(["session", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rec1 = json.loads(Path(str(out1) + ".record.json").read_text())
        rec2 = json.loads(Path(str(out2) + ".record.json").read_text())
        assert rec1["tables"] == rec2["tables"]

    def test_seed_override_changes_output(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        text = Path(CONFIG_DIR / "desk_session.cfg").read_text()
        text = text.replace("protocol.n_frames = 142", "protocol.n_frames = 3")
        text = text.replace("protocol.spread_ratio = 64", "protocol.spread_ratio = 8")
        cfg.write_text(text)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["session", "--config", str(cfg), "--out", str(out1)]) == 0
        assert run_cli(["session", "--config", str(cfg), "--seed", "99", "--out", str(out2)]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_abort_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "noisy.cfg"
        text = Path(CONFIG_DIR / "desk_session.cfg").read_text()
        text = text.replace("protocol.n_frames = 142", "protocol.n_frames = 3")
        text = text.replace("protocol.spread_ratio = 64", "protocol.spread_ratio = 8")
        text = text.replace("detector.e_mis = 0.0", "detector.e_mis = 0.2")
        cfg.write_text(text)
        assert run_cli(["session", "--config", str(cfg)]) == cli.EXIT_ABORT
        assert "abort" in capsys.readouterr().err.lower()


class TestTypedExits:
    """Inputs that once escaped main as a traceback end in a documented exit."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_pool_below_one_frame_is_config_error(self, tmp_path, capsys, command):
        # 1000 bits against 1,920,000 chips per frame: rejected on load
        cfg = edited_config(tmp_path, "upgraded_link.cfg", protocol__initial_pool_bits=1000)
        assert run_cli([command, "--config", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "initial_pool_bits" in err

    def test_pool_of_one_frame_loads(self, tmp_path, capsys):
        cfg = edited_config(tmp_path, "upgraded_link.cfg", protocol__initial_pool_bits=1_920_000)
        assert run_cli(["link-budget", "--config", cfg]) == cli.EXIT_OK

    def test_pool_exhausted_mid_session(self, tmp_path, capsys):
        # the pool covers frame 0; its disclosed check bits are not credited
        # back, so frame 1's debit fails
        cfg = edited_config(
            tmp_path,
            "desk_session.cfg",
            protocol__n_frames=2,
            protocol__spread_ratio=8,
            protocol__initial_pool_bits=8000,
        )
        threads = threading.active_count()
        assert run_cli(["session", "--config", cfg]) == cli.EXIT_POOL
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("key pool exhausted: pool holds") and "Traceback" not in err
        assert threading.active_count() == threads

    @pytest.mark.parametrize("command", COMMANDS)
    def test_dark_count_yield_of_one_is_config_error(self, tmp_path, capsys, command):
        # y0 = 2 p_d = 1 once failed in rate-sweep's forward model; the
        # measured config has a section for every command
        cfg = edited_config(tmp_path, "measured_link.cfg", detector__p_d="0.5")
        assert run_cli([command, "--config", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "p_d" in err

    @pytest.mark.parametrize("command", ("link-budget", "rate-sweep", "session"))
    @pytest.mark.parametrize(
        "key,value",
        [("geometry__d_fiber", "1e9"), ("atmosphere__l0", "1e-308"), ("beam__w0", "1e308")],
        ids=["fiber_loss_underflows", "inner_scale_divides_by_zero", "waist_overflows"],
    )
    def test_link_budget_out_of_float_range_is_regime_violation(
        self, tmp_path, capsys, command, key, value
    ):
        # each once escaped main as a ValueError, ZeroDivisionError or
        # OverflowError traceback
        cfg = edited_config(tmp_path, "upgraded_link.cfg", **{key: value})
        assert run_cli([command, "--config", cfg]) == cli.EXIT_REGIME
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("regime violation: link budget out of floating-point")

    @pytest.mark.parametrize(
        "name,key,value,grid",
        [
            ("desk_session.cfg", "detector__p_d", "0.3", ["--grid", "0:1000:500"]),
            ("upgraded_link.cfg", "source__mu", "1e9", []),
        ],
        ids=["dark_count_probability", "bright_signal"],
    )
    def test_gain_not_below_one_is_regime_violation(self, tmp_path, capsys, name, key, value, grid):
        # each once escaped main as ValueError: gains must be in (0, 1)
        cfg = edited_config(tmp_path, name, **{key: value})
        assert run_cli(["rate-sweep", "--config", cfg, *grid]) == cli.EXIT_REGIME
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("regime violation: closed-form gain")

    def test_sweep_step_of_1e_308_is_config_error(self, tmp_path, capsys):
        # the grid once appended points past a 10 s limit; now it is counted
        # and rejected on load
        cfg = edited_config(tmp_path, "upgraded_link.cfg", sweep__d_fs_step="1e-308")
        assert run_cli(["rate-sweep", "--config", cfg]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error:") and "points" in err

    @pytest.mark.parametrize("e_mis", ["0.5", "1e308"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_error_rate_above_half_is_config_error(self, tmp_path, capsys, command, e_mis):
        # e_det + e_mis > 0.5 once failed in rate-sweep's forward model and
        # overflowed in simulate and session
        cfg = edited_config(tmp_path, "upgraded_link.cfg", detector__e_mis=e_mis)
        assert run_cli([command, "--config", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "e_mis" in err

    @pytest.mark.parametrize(
        "key,value,jitter",
        [
            ("source__rep_rate", "1e-308", True),
            ("source__rep_rate", "5e-324", True),
            ("source__rep_rate", "1e-308", False),
            ("protocol__duty_cycle", "5e-324", False),
        ],
        ids=["jitter_step_of_inf_s", "jitter_step_subnormal_rate", "elapsed_inf", "duty_cycle"],
    )
    def test_clock_out_of_float_range_is_regime_violation(
        self, tmp_path, capsys, key, value, jitter
    ):
        # a frame of 8,816 pulses lasting inf s once made the jitter step NaN
        # (ValueError traceback), and without jitter the session printed
        # elapsed_s=inf with every rate 0.0
        small = {"protocol__spread_ratio": 8, "protocol__n_frames": 1, key: value}
        cfg = edited_config(tmp_path, "upgraded_link.cfg", **small)
        if jitter:
            Path(cfg).write_text(Path(cfg).read_text() + JITTER)
        assert run_cli(["session", "--config", cfg]) == cli.EXIT_REGIME
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("regime violation: simulated clock out of floating")

    def test_subnormal_decoy_intensity_collapses(self, tmp_path, capsys):
        # mu nu - nu^2 is subnormal: the decoy bound was NaN and rate-sweep
        # exited 1 with DomainError from binary_entropy
        cfg = edited_config(tmp_path, "upgraded_link.cfg", source__nu="5e-324")
        assert run_cli(["rate-sweep", "--config", cfg, "--grid", "0:1000:500"]) == cli.EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 3 and all(row.endswith(",0.0,0.0,1") for row in rows)


def _small_scenario() -> str:
    """upgraded_link.cfg cut to 2 frames of spread 8, a 5-point 0-2000 m
    grid and 2e4 MC pulses, with a jitter section: every section present."""
    small = {
        "protocol.spread_ratio": 8,
        "protocol.n_frames": 2,
        "sweep.d_fs_stop": 2000.0,
        "sweep.d_fs_step": 500.0,
    }
    text = set_keys((CONFIG_DIR / "upgraded_link.cfg").read_text(), small)
    return text + "montecarlo.n_pulses = 20000\n" + JITTER


SMALL_SCENARIO = _small_scenario()
# edge values per key type; every int is small, so no run holds many
# frames, pulses or pool bits
EDGES = {
    float: (-1.0, 0.0, 5e-324, 1e-308, 1e-6, 0.5, 1 - 2**-53, 1.0, 1.5, 1e9, 1e154, 1e308),
    int: (-1, 0, 1, 2, 3, 9),
    tuple: ("1:1:1", "1:0:1", "30:2:0", "-1:2:1", "1:2", "1:9:9"),
}
KEYS = [(f"{s}.{k}", kind) for s, keys in config._KEY_TYPES.items() for k, kind in keys.items()]
EDGE_CASES = st.sampled_from(KEYS).flatmap(
    lambda case: st.tuples(st.just(case[0]), st.sampled_from(EDGES[case[1]]))
)


@settings(max_examples=300, deadline=None)
@given(case=EDGE_CASES, command=st.sampled_from(COMMANDS))
@example(case=("source.rep_rate", 1e-308), command="session")
@example(case=("source.rep_rate", 5e-324), command="session")
@example(case=("protocol.duty_cycle", 5e-324), command="session")
@example(case=("source.nu", 5e-324), command="rate-sweep")
def test_config_edge_values_end_in_documented_exit(tmp_path_factory, case, command):
    # each config key at an edge value, on each command: a documented exit,
    # no traceback, no thread left running and no non-finite session cell
    key, value = case
    path = tmp_path_factory.getbasetemp() / "edge.cfg"  # rewritten by each example
    path.write_text(set_keys(SMALL_SCENARIO, {key: value}))
    threads = threading.active_count()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, "--config", str(path)])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_REGIME, cli.EXIT_ABORT, cli.EXIT_POOL)
    assert threading.active_count() == threads
    if command == "session" and code in (cli.EXIT_OK, cli.EXIT_ABORT):
        row = out.getvalue().splitlines()[1].split(",")
        assert all(math.isfinite(float(cell)) for cell in row), row
