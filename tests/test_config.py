from pathlib import Path

import pytest

from phaselink.config import (
    ScenarioConfig,
    SweepGrid,
    config_hash,
    load_config,
    parse_config,
    serialize_config,
)
from phaselink.errors import ConfigError

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

    def test_invalid_physics_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("source.nu = 0.28", "source.nu = 0.9"))


class TestSweepGrid:
    def test_points_do_not_accumulate_rounding(self):
        points = SweepGrid(0, 1, 0.1).points()
        assert points == [i * 0.1 for i in range(11)]
        assert points[-1] == 1.0

    def test_empty_when_stop_below_start(self):
        assert SweepGrid(5.0, 1.0, 1.0).points() == []


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
