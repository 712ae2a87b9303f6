"""Command-line entry points.

Subcommands:

    link-budget   itemized dB breakdown and total transmittance
    rate-sweep    rate vs free-space distance, one CSV row per grid point
    simulate      Monte Carlo pulse batch vs the closed-form model
    session       full two-endpoint protocol run over a socketpair

Exit codes: 0 success, 2 configuration error (a key pool smaller than one
frame's chips, a dark count probability p_d of 0.5 or more, and a sweep
grid whose step does not advance its start or that holds more than
config.MAX_SWEEP_POINTS points among them), 3 regime violation (a
free-space distance at or beyond the critical distance, a link budget
whose arithmetic leaves floating-point range: an overflow, a division by
zero, or a transmittance that underflows to 0, a closed-form gain of
rate-sweep's forward model that is not below 1, or a session whose
simulated clock leaves floating-point range: a frame's duration or the
elapsed pulses / (rep_rate * duty_cycle) that is not finite), 4 session
abort, 5 key pool exhausted mid-session (disclosed check bits are never
credited back; a message on stderr, no table), 1 anything else. Outputs
are UTF-8 CSV or JSON; CSV bytes are deterministic for fixed seeds. With
--out, a sidecar <out>.record.json stores the scenario id, config hash,
timestamp, and the emitted tables.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from .config import ScenarioConfig, SweepGrid, config_hash, format_value, load_config
from .errors import ConfigError, EstimatorCollapse, InsufficientStatistics
from .errors import KeyPoolExhausted, RegimeViolation
from .montecarlo import PulsePlan, simulate_batch, stats_to_observables
from .optics import transmittance
from .protocol.session import Seeds, run_session_detailed
from .rates import decoy_estimate, rate_sweep
from .rng import split_seed

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REGIME = 3
EXIT_ABORT = 4
EXIT_POOL = 5

LINK_BUDGET_HEADER = "item,value"
RATE_SWEEP_HEADER = "d_fs_m,key_gen_rate_bps,cs_raw,q_mu,e_mu,q1,e1,collapsed"
SIMULATE_HEADER = "class,sent,clicked,errored,gain,qber,se_gain,se_qber"
SESSION_HEADER = (
    "qber,comm_rate,key_gen_rate,key_cons_rate,p_rec_empirical,"
    "frames_ok,frames_failed,aborted,q_mu_hat,q_nu_hat,total_pulses,elapsed_s"
)


def _apply_seed_override(cfg: ScenarioConfig, seed: int | None) -> ScenarioConfig:
    if seed is None:
        return cfg
    seeds = Seeds(
        alice=split_seed(seed, 1), bob=split_seed(seed, 2), channel=split_seed(seed, 3)
    )
    return replace(cfg, seeds=seeds)


def _parse_grid(text: str) -> SweepGrid:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("--grid expects start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
        return SweepGrid(d_fs_start=start, d_fs_stop=stop, d_fs_step=step)
    except ValueError as exc:
        raise ConfigError(f"bad --grid value: {exc}") from exc


def _csv(header: str, rows) -> str:
    """CSV text: the header line, then one line per row of values."""
    lines = [header] + [",".join(map(format_value, row)) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_link_budget(cfg: ScenarioConfig, fmt: str) -> str:
    budget = transmittance(
        cfg.geometry, cfg.atmosphere, cfg.beam, cfg.detector.eta_b, cfg.detector.eta_d
    )
    totals = {
        "channel_db": budget.channel_db,
        "total_db": budget.total_db,
        "eta_total": budget.eta_total,
        "w_eff_m": budget.w_eff,
        "rytov_variance": budget.rytov,
    }
    if fmt == "json":
        return json.dumps({"breakdown_db": budget.breakdown, **totals}, indent=2, sort_keys=True)
    items = [(f"{item}_db", db) for item, db in budget.breakdown.items()]
    return _csv(LINK_BUDGET_HEADER, items + list(totals.items()))


def cmd_rate_sweep(cfg: ScenarioConfig, fmt: str) -> str:
    if cfg.sweep is None:
        raise ConfigError("rate-sweep needs a sweep section or --grid")
    points = rate_sweep(
        cfg.geometry,
        cfg.atmosphere,
        cfg.beam,
        cfg.source,
        cfg.detector,
        cfg.sweep.points(),
        duty_cycle=cfg.protocol.duty_cycle,
    )
    rows = [
        (
            pt.d_fs,
            pt.report.key_gen_rate,
            pt.report.cs_raw,
            pt.observables.q_mu,
            pt.observables.e_mu,
            pt.estimate.q1 if pt.estimate else 0.0,
            pt.estimate.e1 if pt.estimate else 0.0,
            int(pt.collapsed),
        )
        for pt in points
    ]
    if fmt == "json":
        columns = RATE_SWEEP_HEADER.split(",")
        return json.dumps([dict(zip(columns, row)) for row in rows], indent=2, sort_keys=True)
    return _csv(RATE_SWEEP_HEADER, rows)


def cmd_simulate(cfg: ScenarioConfig, fmt: str) -> str:
    if cfg.montecarlo is None:
        raise ConfigError("simulate needs a montecarlo section (n_pulses)")
    budget = transmittance(
        cfg.geometry, cfg.atmosphere, cfg.beam, cfg.detector.eta_b, cfg.detector.eta_d
    )
    plan = PulsePlan.make(cfg.montecarlo.n_pulses, cfg.source.mix_ratio, cfg.seeds.channel)
    stats = simulate_batch(plan, budget.eta_total, cfg.source, cfg.detector)
    estimate = None
    try:
        obs = stats_to_observables(stats)
        est = decoy_estimate(obs, cfg.source)
        estimate = {"q1": est.q1, "e1": est.e1}
    except (InsufficientStatistics, EstimatorCollapse, ValueError):
        pass
    columns = SIMULATE_HEADER.split(",")[1:]
    classes = {
        name: {col: getattr(getattr(stats, name), col) for col in columns}
        for name in ("signal", "decoy", "vacuum")
    }
    if fmt == "json":
        payload = {"eta_total": budget.eta_total, "classes": classes, "estimate": estimate}
        return json.dumps(payload, indent=2, sort_keys=True)
    # the counts are whole-number floats; the table shows them as integers
    counts = ("sent", "clicked", "errored")
    rows = [
        [name, *(int(v) if col in counts else v for col, v in row.items())]
        for name, row in classes.items()
    ]
    return _csv(SIMULATE_HEADER, rows)


def cmd_session(cfg: ScenarioConfig, fmt: str) -> tuple:
    report, _, _ = run_session_detailed(cfg)
    d = report.as_dict()
    if fmt == "json":
        return json.dumps(d, indent=2, sort_keys=True), report
    return _csv(SESSION_HEADER, [[d[col] for col in SESSION_HEADER.split(",")]]), report


def _write_output(out_path: str | None, text: str, cfg: ScenarioConfig, command: str, scenario_id: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    path = Path(out_path)
    path.write_text(text, encoding="utf-8", newline="")
    record = {
        "scenario_id": scenario_id,
        "config_hash": config_hash(cfg),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "tables": {"output": text, "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()},
    }
    Path(str(path) + ".record.json").write_text(
        json.dumps(record, indent=2, sort_keys=True), encoding="utf-8"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaselink",
        description="Cascaded free-space + fiber quantum link simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("link-budget", "itemized link budget for the configured geometry"),
        ("rate-sweep", "key rate versus free-space distance"),
        ("simulate", "Monte Carlo pulse batch statistics"),
        ("session", "full protocol session over a socketpair"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario config file")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--seed", type=int, default=None, help="override all seeds")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if name == "rate-sweep":
            p.add_argument("--grid", default=None, help="start:stop:step in meters")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = _apply_seed_override(cfg, args.seed)
        if args.command == "rate-sweep" and args.grid is not None:
            cfg = replace(cfg, sweep=_parse_grid(args.grid))
        scenario_id = Path(args.config).stem
        if args.command == "link-budget":
            text = cmd_link_budget(cfg, args.format)
        elif args.command == "rate-sweep":
            text = cmd_rate_sweep(cfg, args.format)
        elif args.command == "simulate":
            text = cmd_simulate(cfg, args.format)
        else:
            text, report = cmd_session(cfg, args.format)
            if report.aborted:
                _write_output(args.out, text, cfg, args.command, scenario_id)
                print(f"session aborted: {report.abort_reason}", file=sys.stderr)
                return EXIT_ABORT
        _write_output(args.out, text, cfg, args.command, scenario_id)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RegimeViolation as exc:
        print(f"regime violation: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except KeyPoolExhausted as exc:
        print(f"key pool exhausted: {exc}", file=sys.stderr)
        return EXIT_POOL


if __name__ == "__main__":
    sys.exit(main())
