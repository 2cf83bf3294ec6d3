"""Batch front-end: scenario subcommands with scriptable exit codes.

Exit codes: 0 success, 2 configuration error, 3 infeasible schedule,
4 I/O failure. Every subcommand is reproducible: the same config and
seed produce identical artifacts.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .coordinator import cap_value, simulate_day
from .errors import ConfigError, DataError, InfeasibleError
from .fleet import write_fleet_csv
from .report import emit, run_cases
from .scenario import (FLEET_SEED_OFFSET, HOUSEHOLD_SEED_OFFSET,
                       PRICE_SEED_OFFSET, ScenarioConfig,
                       build_scenario, config_digest, load_config)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


def _out_dir(cfg: ScenarioConfig, override: str | None) -> str:
    out = override or cfg.out_dir
    if not out:
        raise ConfigError("no output directory: set out_dir in the config "
                          "or pass --out")
    return out


def _meta(cfg: ScenarioConfig) -> dict:
    return {
        "config_sha256": config_digest(cfg),
        "seed": cfg.seed,
        "stage_seeds": {"fleet": cfg.seed + FLEET_SEED_OFFSET,
                        "households": cfg.seed + HOUSEHOLD_SEED_OFFSET,
                        "prices": cfg.seed + PRICE_SEED_OFFSET},
    }


def _refuse_existing(path: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise OSError(f"{path} exists; pass --force to overwrite")


def cmd_gen_fleet(cfg: ScenarioConfig, out: str | None = None,
                  force: bool = False) -> str:
    """Sample the fleet and write it as CSV; prints summary statistics."""
    out_dir = _out_dir(cfg, out)
    path = os.path.join(out_dir, "fleet.csv")
    _refuse_existing(path, force)
    scenario = build_scenario(cfg)
    os.makedirs(out_dir, exist_ok=True)
    write_fleet_csv(scenario.fleet, path)

    lengths = np.array([p.window_length() for p in scenario.fleet])
    energy = np.array([p.required_energy for p in scenario.fleet])
    print(f"wrote {path}: {len(scenario.fleet)} vehicles")
    print(f"window length (h): min {lengths.min()} "
          f"mean {lengths.mean():.1f} max {lengths.max()}")
    print(f"energy demand: total {energy.sum():.1f} kWh, "
          f"mean {energy.mean():.2f} kWh/vehicle")
    return path


def cmd_simulate(cfg: ScenarioConfig, out: str | None = None,
                 force: bool = False) -> str:
    """Run the full day (shaping + real-time walk) and emit artifacts."""
    out_dir = _out_dir(cfg, out)
    _refuse_existing(os.path.join(out_dir, "summary.json"), force)
    scenario = build_scenario(cfg)
    cap = cap_value(scenario.household_total, scenario.fleet, cfg.case.kappa)
    day = simulate_day(scenario.fleet, scenario.household_total,
                       scenario.market, cfg.case, cap=cap)
    emit(day, out_dir, meta=_meta(cfg))
    peak = float(day.aggregate.max())
    print(f"shaping sweeps: {day.da_sweeps}")
    print(f"altered slots: {day.altered_slots or 'none'}")
    print(f"peak demand: {peak:.1f} kWh at slot "
          f"{int(np.argmax(day.aggregate)) + 1}")
    print(f"artifacts in {out_dir}")
    return out_dir


def cmd_compare_cases(cfg: ScenarioConfig, out: str | None = None,
                      force: bool = False) -> str:
    """Run all four coordination cases and emit the cost comparison."""
    out_dir = _out_dir(cfg, out)
    _refuse_existing(os.path.join(out_dir, "case_costs.csv"), force)
    scenario = build_scenario(cfg)
    comparison = run_cases(scenario.fleet, scenario.household_total,
                           scenario.market, cfg.case)
    emit(comparison, out_dir, meta=_meta(cfg))
    print(f"{'case':<6}{'label':<24}{'cost_usd':>10}")
    for r in comparison.results:
        print(f"{r.case:<6}{r.label:<24}{r.total_cost:>10.2f}")
    for (i, j), d in sorted(comparison.deltas.items()):
        print(f"delta {i}-{j}: {d:+.2f}")
    print(f"artifacts in {out_dir}")
    return out_dir


_COMMANDS = {
    "gen-fleet": cmd_gen_fleet,
    "simulate": cmd_simulate,
    "compare-cases": cmd_compare_cases,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetdr",
        description="Fleet demand-response scheduling workflows.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0])
        p.add_argument("--config", required=True, help="scenario YAML file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None,
                       help="output directory (overrides config out_dir)")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be >= 0, got {args.seed}")
            cfg.seed = args.seed
        _COMMANDS[args.command](cfg, out=args.out, force=args.force)
        return EXIT_OK
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
