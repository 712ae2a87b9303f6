from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from phaselink import cli
from phaselink.config import (
    MAX_SWEEP_POINTS,
    ScenarioConfig,
    SweepGrid,
    config_hash,
    load_config,
    parse_config,
    serialize_config,
)
from phaselink.errors import ConfigError
from phaselink.optics import transmittance

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "phaselink" / "configs"

MINIMAL = """
atmosphere.cn2 = 1.28e-14
atmosphere.l0 = 0.001
atmosphere.alpha_fs = 0.2
beam.w0 = 0.00174
beam.gamma = 27.1
beam.wavelength = 1.54932e-06
geometry.d_fs = 1400.0
geometry.d_fiber = 10000.0
geometry.a_r = 0.06
geometry.conv_loss_db = 15.4
geometry.adapter_loss_db = 0.42
geometry.alpha_fiber = 0.2
source.mu = 0.71
source.nu = 0.28
detector.p_d = 1e-06
detector.eta_d = 0.2
detector.visibility = 0.9847
detector.eta_b = 0.22387211385683395
seeds.alice = 1
seeds.bob = 2
seeds.channel = 3
"""


class TestParsing:
    def test_minimal_parses_with_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.source.mix_ratio == (30, 2, 1)
        assert cfg.protocol.spread_ratio == 1920
        assert cfg.sweep is None and cfg.jitter is None

    def test_bundled_configs_parse(self):
        for name in ("measured_link.cfg", "upgraded_link.cfg", "desk_session.cfg"):
            cfg = load_config(CONFIG_DIR / name)
            assert isinstance(cfg, ScenarioConfig)

    @pytest.mark.parametrize("name", ["measured_link", "upgraded_link", "desk_session"])
    def test_link_budget_is_transmittance_of_the_sections(self, name):
        cfg = load_config(CONFIG_DIR / f"{name}.cfg")
        det = cfg.detector
        expected = transmittance(cfg.geometry, cfg.atmosphere, cfg.beam, det.eta_b, det.eta_d)
        assert cfg.link_budget() == expected

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# top comment\n\n" + MINIMAL + "\n# trailing\n")
        assert cfg.beam.gamma == 27.1

    def test_inline_comment(self):
        cfg = parse_config(MINIMAL + "\ndetector.e_mis = 0.01  # extra misalignment\n")
        assert cfg.detector.e_mis == 0.01

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(MINIMAL + "\nnonsense.key = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL + "\nbeam.color = 5\n")

    def test_missing_field_named(self):
        # detector.eta_b has a default in DetectorConfig but is required here
        for line, key in (("beam.gamma = 27.1", "gamma"), ("detector.eta_b = 0.2238", "eta_b")):
            broken = "\n".join(l for l in MINIMAL.splitlines() if not l.startswith(line))
            with pytest.raises(ConfigError, match=f"missing required keys: {key}"):
                parse_config(broken)

    def test_missing_section_named(self):
        lines = [l for l in MINIMAL.splitlines() if not l.startswith("seeds.")]
        with pytest.raises(ConfigError, match="seeds"):
            parse_config("\n".join(lines))

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(MINIMAL + "\nbeam.gamma = 30.0\n")

    def test_bad_value_diagnostics(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config(MINIMAL + "\ndetector.e_mis = not_a_number\n")

    def test_bad_ratio(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\nsource.mix_ratio = 30:2\n")

    @pytest.mark.parametrize("key", ["fec_ratio", "spread_ratio"])
    def test_protocol_ratio_below_one_rejected(self, key):
        # framing.chip_count, which the pool check calls, rejects the ratio
        with pytest.raises(ConfigError, match="fec_ratio and spread_ratio must be >= 1"):
            parse_config(MINIMAL + f"\nprotocol.{key} = 0\n")

    def test_invalid_physics_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("source.nu = 0.28", "source.nu = 0.9"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("line", ["geometry.d_fs = 1400.0", "source.mu = 0.71"])
    def test_non_finite_float_rejected(self, tmp_path, capsys, line, value):
        key = line.partition(" = ")[0]
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL.replace(line, f"{key} = {value}"))
        assert cli.main(["link-budget", "--config", str(bad)]) == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err


class TestSweepGrid:
    def test_points_do_not_accumulate_rounding(self):
        points = SweepGrid(0, 1, 0.1).points()
        assert points == [i * 0.1 for i in range(11)]
        assert points[-1] == 1.0

    def test_empty_when_stop_below_start(self):
        assert SweepGrid(5.0, 1.0, 1.0).points() == []

    @staticmethod
    def appended(grid):
        """The points by appending start + i * step until one passes stop."""
        out = []
        while (d := grid.d_fs_start + len(out) * grid.d_fs_step) <= grid.d_fs_stop + 1e-9:
            out.append(d)
        return out

    @given(
        start=st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
        step=st.floats(1e-3, 1e3),
        count=st.integers(0, 300),
        slack=st.sampled_from([0.0, 1e-9, -1e-9, 2e-9, 1e-10, -1e-10, 0.5, -0.5]),
    )
    def test_points_match_appending(self, start, step, count, slack):
        # counted, not appended, to the same floats, up to stop within 1e-9
        grid = SweepGrid(start, start + count * step + slack, step)
        assert grid.points() == self.appended(grid)

    def test_benchmark_grid_points(self):
        # 0-40 km at 10 m, as the rate_sweep workload sweeps it
        grid = SweepGrid(0.0, 40_000.0, 10.0)
        assert grid.points() == self.appended(grid)
        assert len(grid.points()) == 4001

    def test_point_bound(self):
        assert len(SweepGrid(0.0, MAX_SWEEP_POINTS - 1, 1.0).points()) == MAX_SWEEP_POINTS
        with pytest.raises(ValueError, match="more than"):
            SweepGrid(0.0, MAX_SWEEP_POINTS, 1.0)
        # the span is 1e4 steps, but the 1e-9 tolerance past stop holds
        # about 1.01e6 points
        with pytest.raises(ValueError, match="more than"):
            SweepGrid(0.0, 1e-11, 1e-15)

    def test_step_that_does_not_advance_rejected(self):
        # 1e-12 is below half an ulp of 1e6, so start + step == start
        with pytest.raises(ValueError, match="does not advance"):
            SweepGrid(1e6, 2e6, 1e-12)


class TestRoundTrip:
    def test_fixed_point(self):
        for name in ("measured_link.cfg", "upgraded_link.cfg", "desk_session.cfg"):
            cfg1 = load_config(CONFIG_DIR / name)
            text = serialize_config(cfg1)
            cfg2 = parse_config(text)
            assert cfg2 == cfg1
            assert serialize_config(cfg2) == text

    def test_hash_stability(self):
        cfg = load_config(CONFIG_DIR / "measured_link.cfg")
        assert config_hash(cfg) == config_hash(parse_config(serialize_config(cfg)))
        other = load_config(CONFIG_DIR / "upgraded_link.cfg")
        assert config_hash(cfg) != config_hash(other)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.cfg")
