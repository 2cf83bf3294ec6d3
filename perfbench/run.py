#!/usr/bin/env python3
"""Closed-loop benchmark of the ``fleetdr compare-cases`` day.

Runs the library path behind ``compare-cases`` (``load_config`` and
``build_scenario``, then ``run_cases`` and ``emit``) one day after another
in one process with one caller and no extra threads, and checks every
day's outputs. Run it from the root of a source checkout:

    python3 perfbench/run.py --workload reference --seed 7 --seconds 40 --trace 0

``--trace 0`` times a set of seeded days untraced, interleaved with blocks
of a fixed calibration kernel, and reports the end-to-end metrics with
times scaled to the kernel's reference speed.
``--trace 1`` runs the seed's own day untraced and then traced, and reports
the per-layer split. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are for people.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "reference.yaml"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from calibrate import REFERENCE_BLOCK_S, Calibrator  # noqa: E402
from legality import FleetArrays, artifact_digests, day_problems  # noqa: E402
import tracing  # noqa: E402

CONFIG_SEED = 20250401
# day i of a set has scenario seed seed + i * SEED_STRIDE; a scenario seeds
# its fleet, households and prices with seed, seed+1 and seed+2, so days
# share no random stream, and the sets of nearby seeds share no day
SEED_STRIDE = 1000
TRACED_SETUPS = 5
TRACED_DAYS_MAX = 10  # bounds the spans a traced run holds in memory
WARMUP_USERS = 40  # vehicles in the untimed day that fills caches first


@dataclass(frozen=True)
class Workload:
    """``configs/reference.yaml`` with fleet overrides, run on ``days``
    distinct seeded days, so one run's figures do not hinge on whether a
    single draw converges a sweep sooner."""

    fleet: dict
    days: int
    setups: int = 3  # timed set-ups before each timed day


WORKLOADS = {
    # the paper's day: every solve is greedy, so per-solve overhead and the
    # real-time walk carry the time and the simplex is idle
    "reference": Workload({}, 16),
    # ten times the vehicles: per-vehicle overhead dominates, and set-up is
    # large enough to time. Not in BENCHMARK.json: on a shared 2-vCPU VM its
    # 5 s days mix fast and slow spells, and over ten seeds the spread of
    # its raw day time reached the largest bound allowed (0.25). Run it by
    # hand.
    "fleet10k": Workload({"n_users": 10000}, 3),
    # discharge makes state-of-charge floors bind: about one solve in eight
    # falls back to the simplex and every coordinated case hits max_sweeps.
    # Only the seed's own day: more days would meet the cap verdict bug
    # more often. A run repeats it 2 or 3 times, so it sets up 10 times
    # before each
    "v2g_half": Workload({"v2g_fraction": 0.5}, 1, setups=10),
}

# seed-commit outputs of each workload's day at CONFIG_SEED
EXPECTED_COSTS = {
    "reference": (878.85, 520.07, 795.25),
    "fleet10k": (8839.58, 8480.80, 8573.81),
    "v2g_half": (878.74, 516.53, 791.45),
}
REFERENCE_DIGESTS = {
    "case_costs.csv":
        "506acb857d299b91947e21cee6fc6901203372f5dc64a7f4719cc613a88a77f5",
    "aggregate_1.csv":
        "77eaf531f33a26cccd4c09fd4b74d9ee3bec0f70cd747b2c95afc3407e0b0efa",
    "aggregate_2.csv":
        "630b9abff5cf784089e4dcbead5fc200a91184ac73d3b188fb8d13b47f92567d",
    "aggregate_3.csv":
        "fbaa704c459803c9cd60e9661a752b2fd8c21f5a851d5e20769ffa873819d1c8",
    "aggregate_4.csv":
        "42c3c3d421c94f7c764eef30a9b02dfd8374142a13b417efd74fdb69788ed945",
    "mse_trace.csv":
        "58a87eb8e0cc7eca8b1056afcb9c31052d39f332c695de221c92224ec8ec05e7",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "day_s": "s",
    "peak_rss_mb": "MB",
    "cost_case2_usd": "USD",
    "cost_case3_usd": "USD",
    "cost_case4_usd": "USD",
    "da_sweeps": "count",
}
SETUP_LAYER = ("scenario.build_s", "scenario.connection_counts_s",
               "scenario.purchase_s", "fleet.sample_s", "fleet.households_s",
               "market.synth_s")


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or ".solve_s." in name or name == "simplex.s":
        return "s"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


PER_LAYER_UNITS = {name: _layer_unit(name) for name in (
    *SETUP_LAYER, "fleet.uncoordinated_s", "market.cost_calls",
    "market.cost_s", "coordinator.shape_calls", "coordinator.shape_s",
    "coordinator.walk_s", "coordinator.pass_calls", "coordinator.pass_s",
    "coordinator.pass_self_s", "coordinator.replans",
    "coordinator.replan_passes", "coordinator.replan_budget_hits",
    "coordinator.unconverged_cases", "subproblem.build_calls",
    "subproblem.build_s",
    *(f"subproblem.solve_calls.{m}" for m in tracing.SOLVE_METHODS),
    *(f"subproblem.solve_s.{m}" for m in tracing.SOLVE_METHODS),
    "subproblem.greedy_hit_ratio", "simplex.calls", "simplex.s",
    "simplex.pivots", "simplex.not_optimal", "report.run_cases_s",
    "report.emit_s", "report.emit_bytes", "trace.overhead_frac")}


def import_fleetdr() -> Dict[str, object]:
    """The fleetdr modules, imported from this checkout's ``src``."""
    if not (SRC / "fleetdr" / "__init__.py").is_file() or not CONFIG.is_file():
        raise FileNotFoundError(
            f"no fleetdr source tree and reference config under {ROOT}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return {name: importlib.import_module(f"fleetdr.{name}")
            for name in ("scenario", "report", "coordinator", "subproblem")}


@dataclass
class Day:
    """One seeded day, built and ready to run."""

    seed: int
    cfg: object
    scenario: object
    arrays: FleetArrays
    cap: float | None
    warm_up: bool = False  # a warm-up day has no seed-commit outputs


def set_up(lib, fleet: dict, seed: int):
    """``load_config`` plus ``build_scenario``: the timed set-up."""
    cfg = lib["scenario"].load_config(CONFIG)
    cfg.seed = seed
    for key, value in fleet.items():
        setattr(cfg.fleet, key, value)
    return cfg, lib["scenario"].build_scenario(cfg)


def make_day(lib, cfg, sc) -> Day:
    cap = (lib["coordinator"].cap_value(sc.household_total, sc.fleet,
                                        cfg.case.kappa)
           if cfg.case.kappa is not None else None)
    return Day(cfg.seed, cfg, sc, FleetArrays.of(sc.fleet), cap)


@contextmanager
def capture_days(report):
    """Keep the ``DayResult`` of every case ``run_cases`` simulates."""
    captured = []
    inner = report.simulate_day

    def simulate_day(*args, **kwargs):
        result = inner(*args, **kwargs)
        captured.append(result)
        return result

    report.simulate_day = simulate_day
    try:
        yield captured
    finally:
        report.simulate_day = inner


class Runner:
    """Runs and checks days; counts attempts and failures."""

    def __init__(self, lib, name: str, out_dir: Path,
                 calibrator: Calibrator | None = None):
        self.lib = lib
        self.calibrator = calibrator  # its blocks inside a day are not timed
        self.name = name
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digests: Dict[tuple, dict] = {}  # each day's first artifacts

    def run(self, day: Day, captured: list):
        """Run one day; returns (seconds, comparison, emitted bytes), or
        None when it raised or failed its output check."""
        report, sc = self.lib["report"], day.scenario
        self.attempted += 1
        captured.clear()
        gc.collect()
        cal = self.calibrator
        try:
            cal0 = cal.in_days_s if cal is not None else 0.0
            t0 = time.perf_counter()
            comparison = report.run_cases(sc.fleet, sc.household_total,
                                          sc.market, day.cfg.case)
            paths = report.emit(comparison, self.out_dir,
                                meta={"seed": day.seed})
            elapsed = time.perf_counter() - t0
            if cal is not None:
                elapsed -= cal.in_days_s - cal0
        except Exception as exc:  # a day that raises is a failed day
            return self._fail(day, f"{type(exc).__name__}: {exc}")
        problems = [f"{c} {u}: {d}" for c, u, d in day_problems(
            day.arrays, sc.household_total, sc.market, comparison, captured,
            day.cap)]
        problems += self._output_problems(day, comparison)
        if problems:
            return self._fail(day, "; ".join(problems[:5]))
        return elapsed, comparison, sum(os.path.getsize(p) for p in paths)

    def _output_problems(self, day: Day, comparison) -> List[str]:
        digests = artifact_digests(self.out_dir)
        first = self.digests.setdefault((day.seed, day.warm_up), digests)
        problems = []
        if digests != first:
            problems.append("artifacts differ from this day's first run")
        if day.seed == CONFIG_SEED and not day.warm_up:
            costs = tuple(round(comparison.get(c).total_cost, 2)
                          for c in (2, 3, 4))
            if costs != EXPECTED_COSTS.get(self.name, costs):
                problems.append(f"case 2-4 costs {costs} != "
                                f"{EXPECTED_COSTS[self.name]}")
            if self.name == "reference" and digests != REFERENCE_DIGESTS:
                problems.append("reference artifacts differ from the "
                                "seed-commit digests")
        return problems

    def _fail(self, day: Day, why: str):
        self.failed += 1
        self.problems.append(f"day seed {day.seed}: {why}")
        return None


def unconverged(comparison, conv) -> int:
    """Coordinated cases whose day-ahead sweeps ran out of budget."""
    return sum(len(r.da_mse_trace) >= conv.max_sweeps
               and r.da_mse_trace[-1] >= conv.mse_tol
               for r in comparison.results if r.case > 1)


def warm_up(lib, workload: Workload, seed: int, runner: Runner,
            captured: list) -> None:
    """One untimed small day, so first-call costs stay out of the figures.

    Its cap is off: a fleet this small can trip the cap's false infeasible
    verdict, which belongs to a regression test, not to the warm-up.
    """
    cfg, sc = set_up(lib, {**workload.fleet, "n_users": WARMUP_USERS}, seed)
    cfg.case.kappa = None
    day = make_day(lib, cfg, sc)
    day.warm_up = True
    runner.run(day, captured)


def run_end_to_end(lib, name: str, workload: Workload, seed: int,
                   seconds: float, out_dir: Path) -> dict:
    """Untraced: set up and run the day set in rotation for ``seconds``.

    Each day is set up afresh before it runs, so set-ups are spread over
    the run like the days and sample the same mix of machine states.
    Calibration blocks run between passes, at most one per ``CAL_EVERY_S``,
    and their time is taken out of the day's. Times are reported at the
    speed where a block takes ``REFERENCE_BLOCK_S``.
    """
    cal = Calibrator()
    runner = Runner(lib, name, out_dir, cal)
    seeds = [seed + SEED_STRIDE * i for i in range(workload.days)]
    setup_times: List[float] = []
    times: Dict[int, List[float]] = {s: [] for s in seeds}
    outcomes = {}
    with capture_days(lib["report"]) as captured, \
            cal.pacing(lib["coordinator"]):
        warm_up(lib, workload, seed, runner, captured)
        cal.restart()
        start = time.perf_counter()
        i = 0
        while i < len(seeds) or time.perf_counter() - start < seconds:
            for _ in range(workload.setups):
                t0 = time.perf_counter()
                cfg, sc = set_up(lib, workload.fleet, seeds[i % len(seeds)])
                setup_times.append(time.perf_counter() - t0)
            i += 1
            day = make_day(lib, cfg, sc)
            outcome = runner.run(day, captured)
            if outcome is not None:
                times[day.seed].append(outcome[0])
                outcomes[day.seed] = outcome[1]

    conv = cfg.case.conv
    done = [s for s in seeds if times[s]]
    block_s = statistics.fmean(cal.blocks)
    scale = REFERENCE_BLOCK_S / block_s
    setup_s = statistics.median(setup_times)
    metrics = {
        "setup_s": setup_s * scale,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if done:
        cmp = [outcomes[s] for s in done]
        # each day of the set weighs the same, however often it ran
        day_s = statistics.fmean(statistics.fmean(times[s]) for s in done)
        metrics["day_s"] = day_s * scale
        for case in (2, 3, 4):
            metrics[f"cost_case{case}_usd"] = statistics.fmean(
                c.get(case).total_cost for c in cmp)
        metrics["da_sweeps"] = statistics.fmean(
            sum(c.get(k).sweeps for k in (2, 3, 4)) for c in cmp)
        first = outcomes.get(seeds[0])
        lines = [
            f"calibration block {block_s:.5f} s: mean of {len(cal.blocks)}; "
            f"reported times are measured ones x {scale:.4f}",
            f"raw day {day_s:.4f} s: mean over the {len(done)} days of the "
            f"set of each day's mean; {sum(map(len, times.values()))} timed "
            f"days in all, median "
            f"{statistics.median(t for s in done for t in times[s]):.4f} s",
            f"raw set-up {setup_s:.4f} s: median of {len(setup_times)} "
            f"set-ups",
            f"unconverged_cases {sum(unconverged(c, conv) for c in cmp)} "
            f"over the {len(cmp)} days",
        ]
        if first is not None:
            lines.append(
                f"day seed {seeds[0]}: costs "
                + " / ".join(f"{first.get(c).total_cost:.2f}"
                             for c in (2, 3, 4))
                + f" USD, da_sweeps "
                f"{sum(first.get(k).sweeps for k in (2, 3, 4))}, "
                f"unconverged_cases {unconverged(first, conv)}")
    else:
        lines = []
    return _result(runner, metrics, END_TO_END_UNITS, lines)


def run_traced(lib, name: str, workload: Workload, seed: int,
               seconds: float, out_dir: Path) -> dict:
    """The seed's own day, untraced then traced, each for half the time."""
    runner = Runner(lib, name, out_dir)
    with capture_days(lib["report"]) as captured:
        warm_up(lib, workload, seed, runner, captured)
        cfg, sc = set_up(lib, workload.fleet, seed)
        day = make_day(lib, cfg, sc)
        untraced = _repeat(runner, day, captured, seconds / 2)
        tracer = tracing.Tracer(lib)
        try:
            for i in range(TRACED_SETUPS):
                tracer.day = -1 - i
                set_up(lib, workload.fleet, seed)
            start = time.perf_counter()
            traced = []
            while not traced or (time.perf_counter() - start < seconds / 2
                                 and len(traced) < TRACED_DAYS_MAX):
                tracer.day = len(traced)
                traced.append(runner.run(day, captured))
        finally:
            tracer.close()
    tracer.write(out_dir / "spans.csv")

    ok = [t for t in traced if t is not None]
    if not (untraced and ok):
        return _result(runner, {}, PER_LAYER_UNITS, [])
    conv = cfg.case.conv
    setups = tracing.median_metrics([
        tracing.unit_metrics(tracer.spans, -1 - i, conv.max_sweeps)
        for i in range(TRACED_SETUPS)])
    units = [tracing.unit_metrics(tracer.spans, i, conv.max_sweeps)
             for i, t in enumerate(traced) if t is not None]
    for unit, (_, comparison, emitted) in zip(units, ok):
        unit["coordinator.unconverged_cases"] = unconverged(comparison, conv)
        unit["report.emit_bytes"] = emitted
    counts = [k for k, u in PER_LAYER_UNITS.items()
              if u in ("count", "bytes") and k in units[0]]
    if any(u[k] != units[0][k] for u in units for k in counts):
        runner.problems.append("per-layer counts differ between traced days")
    metrics = tracing.median_metrics(units)
    metrics.update({k: setups[k] for k in SETUP_LAYER})
    untraced_s = min(t[0] for t in untraced)
    traced_s = min(t[0] for t in ok)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    lines = [f"traced day {traced_s:.4f} s (fastest of {len(ok)}), untraced "
             f"{untraced_s:.4f} s (fastest of {len(untraced)}); spans in "
             f"{out_dir / 'spans.csv'}"]
    return _result(runner, metrics, PER_LAYER_UNITS, lines)


def _repeat(runner: Runner, day: Day, captured: list, seconds: float):
    start = time.perf_counter()
    outcomes = []
    while not outcomes or time.perf_counter() - start < seconds:
        outcomes.append(runner.run(day, captured))
    return [o for o in outcomes if o is not None]


def _result(runner: Runner, values: dict, units: dict, lines) -> dict:
    missing = sorted(set(units) - set(values))
    correct = not runner.problems and not missing
    return {
        "lines": list(lines) + runner.problems
        + ([f"no value for {', '.join(missing)}"] if missing else []),
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u}
                    for k, u in units.items() if k in values},
    }


def run(name: str, seed: int, seconds: float, trace: bool,
        workload: Workload | None = None) -> dict:
    """Run one workload and return its result; ``workload`` overrides the
    named one (the benchmark's tests use small fleets)."""
    lib = import_fleetdr()
    workload = workload or WORKLOADS[name]
    out_dir = OUT / name
    out_dir.mkdir(parents=True, exist_ok=True)
    body = run_traced if trace else run_end_to_end
    return body(lib, name, workload, seed, seconds, out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=CONFIG_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in result.pop("lines"):
        print(line)
    for key, m in result["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} days)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
