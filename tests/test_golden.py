"""Golden digests of the CLI tables for the bundled configs.

The CSV text that cli.cmd_link_budget, cmd_rate_sweep, cmd_simulate and
cmd_session produce for each bundled config the command accepts is pinned
by its sha256, and so are the JSON text of the first three commands and
each config's config_hash. The session table counts frames only, so the
desk session's per-frame decode statuses and recovered payloads are pinned
too, at the bundled seeds and at --seed 5. A refactor or speed-up must keep every digest.
A deliberate change of the random-stream layout (or of any number in a
table) updates the digests here and is noted in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from phaselink import cli
from phaselink.config import config_hash, load_config
from phaselink.protocol.session import run_session_detailed

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "phaselink" / "configs"

GOLDEN = {
    ("desk_session", "link_budget"): "dad5195d9c34eb2216617a8dc082daafb18e36b3b607c20c9d941941b0929d27",
    ("desk_session", "session"): "a623a94e9ee2d31459536d5726973d11814811ca06c7868be02d4bf3a6f377e5",
    ("measured_link", "link_budget"): "85fb1dbaeb304a356d55a47a1e47dae2d4df0e478c1baa8d34f04f690d2a92dc",
    ("measured_link", "rate_sweep"): "434e9f8e84dafbb23ab28a16aa36de1c952cb9e780a24a9f34b62a5cb4a185e2",
    ("measured_link", "simulate"): "9b880e46ca290a719283e8ddd9c17960c8e4731c7c80033b88c335410c74cdab",
    ("measured_link", "session"): "9abb3b1a8b968246ccadcdfb3a132ed77949578c9ed5dd314738e65338427d08",
    ("upgraded_link", "link_budget"): "46a54e51bd59c39c3cff5024e8838b643a5ebac7f772b1286bed276ad105e1dc",
    ("upgraded_link", "rate_sweep"): "2c3c612e1cdaab831c0b802e695ae400f8bea5e32c1f3b2f53c59f74f3de5c65",
    ("upgraded_link", "session"): "dc73e3f56dfc10fd815781d59ff431d0e498e4330698bdf6b5d51144f68bce04",
}

GOLDEN_JSON = {
    ("desk_session", "link_budget"): "2d5fef283c522f2b7f75cf0d93074d59a077a362d1cd335e117f0571c40084dc",
    ("measured_link", "link_budget"): "7018f38c3eafa9ed61502b224722c9683279f1c2e7c50ec6cc5396f72167d817",
    ("measured_link", "rate_sweep"): "0668d7bb03c01edc86f53c60e32023a4ee384bf7ffd008bb729dbf4c4c127405",
    ("measured_link", "simulate"): "2fdade04412db763aae0af256600c7d6f7d42fe6991afd6724ddf2664c1d1960",
    ("upgraded_link", "link_budget"): "bbe4099854af35e77f6723d3e817574ba3931a013e20c8b1def35d3f78f54b9e",
    ("upgraded_link", "rate_sweep"): "46230a22303e761e7143f1555c494887d878fe619d8af01c3ce08c919a79c016",
}

CONFIG_HASH = {
    "desk_session": "c004de3f85eec5b7de1a53ef60baf8f73ada1377686810b687b52e342d4049e6",
    "measured_link": "f0c6f981b7b92c687b1b6a2405b1e8f4d6d1c8340bfe864258c3b2a22b2aefa3",
    "upgraded_link": "2b336b14c358c5bc20b3bec048dbefe954103b98a29af3d082a6f29245136cfc",
}

# sha256 of one "frame,status,sha256(recovered payload)" line per frame
RECOVERED = {
    None: "880e92dcc4ed3e5975eee18707f8c3e9d9ca91117588fdb1d3fb248e48e09b07",
    5: "9bcf5d04e1d24a4d2066813e030649cf250f64ad3dc589361a9500fa1db782d8",
}


def _digest(config, command, fmt):
    out = getattr(cli, f"cmd_{command}")(load_config(CONFIG_DIR / f"{config}.cfg"), fmt)
    text = out[0] if command == "session" else out
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("config,command", sorted(GOLDEN))
def test_csv_digest(config, command):
    assert _digest(config, command, "csv") == GOLDEN[(config, command)]


@pytest.mark.parametrize("config,command", sorted(GOLDEN_JSON))
def test_json_digest(config, command):
    assert _digest(config, command, "json") == GOLDEN_JSON[(config, command)]


@pytest.mark.parametrize("config", sorted(CONFIG_HASH))
def test_config_hash(config):
    assert config_hash(load_config(CONFIG_DIR / f"{config}.cfg")) == CONFIG_HASH[config]


def test_every_accepted_output_is_pinned():
    # rate-sweep needs a sweep section and simulate a montecarlo section
    for path in CONFIG_DIR.glob("*.cfg"):
        cfg = load_config(path)
        accepted = {"link_budget", "session"}
        accepted |= {"rate_sweep"} if cfg.sweep else set()
        accepted |= {"simulate"} if cfg.montecarlo else set()
        assert accepted == {cmd for name, cmd in GOLDEN if name == path.stem}


@pytest.mark.parametrize("seed", sorted(RECOVERED, key=str))
def test_recovered_payload_digest(seed):
    cfg = cli._apply_seed_override(load_config(CONFIG_DIR / "desk_session.cfg"), seed)
    _, _, bob = run_session_detailed(cfg)
    lines = ""
    for f, status in sorted(bob.statuses.items()):
        digest = hashlib.sha256(bob.recovered[f]).hexdigest() if f in bob.recovered else ""
        lines += f"{f},{status},{digest}\n"
    assert hashlib.sha256(lines.encode("utf-8")).hexdigest() == RECOVERED[seed]
