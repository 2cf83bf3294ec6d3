"""The names the benchmark patches from outside still exist and are still
called through.

``perfbench/tracing.py`` wraps module attributes by name,
``perfbench/calibrate.py`` paces ``coordinator.best_response_pass`` and
``perfbench/run.py`` captures every ``report.simulate_day``; a renamed,
inlined or deleted name, or one the program stops calling through its
module global, would break only the benchmark, so tier-1 checks both here.
It also holds the benchmark's output pins to tier-1's, and its output
contract: a run exits 0, writes no stderr and ends on one JSON result line.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from conftest import REFERENCE_YAML, REPO_ROOT
from test_acceptance import REFERENCE_DIGESTS

import fleetdr.coordinator as coordinator
import fleetdr.report as report
from fleetdr.scenario import build_scenario, load_config

PERFBENCH = os.path.join(REPO_ROOT, "perfbench")


def load_perfbench(name):
    path = os.path.join(PERFBENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr", [
    entry[:2] for entry in load_perfbench("tracing").TRACED])
def test_traced_name_resolves(module, attr):
    target = importlib.import_module(f"fleetdr.{module}")
    assert callable(getattr(target, attr, None)), \
        f"fleetdr.{module}.{attr} is gone"


def test_paced_pass_resolves():
    coordinator = importlib.import_module("fleetdr.coordinator")
    assert callable(getattr(coordinator, "best_response_pass", None))


@pytest.mark.parametrize("capped", [True, False])
def test_pacing_and_day_capture_see_every_call(monkeypatch, event_log,
                                               capped):
    # run.py imports its sibling modules by name
    monkeypatch.syspath_prepend(PERFBENCH)
    run = load_perfbench("run")
    calibrator = load_perfbench("calibrate").Calibrator()
    # count, time nothing; the capped shaping paces in a forked worker
    calibrator.tick = lambda: event_log.add("tick")

    cfg = load_config(REFERENCE_YAML)
    cfg.fleet.n_users = 20
    cfg.seed = 3  # a 20-vehicle day clear of the false cap verdict
    if not capped:  # as the benchmark's warm-up day runs
        cfg.case.kappa = None
    sc = build_scenario(cfg)
    plans = []  # the ShapedPlans each case walks from
    simulate_day = report.simulate_day

    def keep_plans(*args, **kwargs):
        plans.append(args[4])
        return simulate_day(*args, **kwargs)

    monkeypatch.setattr(report, "simulate_day", keep_plans)
    with run.capture_days(report) as days, calibrator.pacing(coordinator):
        report.run_cases(sc.fleet, sc.household_total, sc.market, cfg.case)
    paced = event_log.values("tick")

    # cases 2, 3 and 4, even without a cap: the benchmark checks three
    # captured days a run (perfbench/legality.py::day_problems)
    assert len(days) == 3
    # cases 2 and 3 share one shaping, and case 4 does too without a cap;
    # each shaping's sweeps are passes
    sweeps = {id(shaped): day.da_sweeps for shaped, day in zip(plans, days)}
    assert len(sweeps) == (2 if capped else 1)
    assert len(paced) >= sum(sweeps.values()) > 0


# ---------------------------------------------------------------------------
# the benchmark's output pins against tier-1's

@pytest.fixture(scope="module")
def perfbench_run():
    patch = pytest.MonkeyPatch()
    patch.syspath_prepend(PERFBENCH)  # run.py imports its siblings by name
    try:
        yield load_perfbench("run")
    finally:
        patch.undo()


def benchmark_costs(run, name):
    """Cases 2-4 of a workload's day at the benchmark's config seed, rounded
    as ``perfbench/run.py`` checks them."""
    lib = run.import_fleetdr()
    cfg, sc = run.set_up(lib, run.WORKLOADS[name].fleet, run.CONFIG_SEED)
    comparison = report.run_cases(sc.fleet, sc.household_total, sc.market,
                                  cfg.case)
    return tuple(round(comparison.get(c).total_cost, 2) for c in (2, 3, 4))


def test_benchmark_reference_digests_are_tier_1s(perfbench_run):
    assert perfbench_run.REFERENCE_DIGESTS == REFERENCE_DIGESTS


def test_benchmark_reference_costs_match_the_reference_day(
        perfbench_run, reference_cases):
    assert perfbench_run.CONFIG_SEED == load_config(REFERENCE_YAML).seed
    costs = tuple(round(reference_cases.get(c).total_cost, 2)
                  for c in (2, 3, 4))
    assert costs == perfbench_run.EXPECTED_COSTS["reference"]


@pytest.fixture(scope="module")
def v2g_half_costs(perfbench_run):
    return benchmark_costs(perfbench_run, "v2g_half")


def test_benchmark_v2g_half_costs_of_cases_2_and_3_match(perfbench_run,
                                                        v2g_half_costs):
    assert v2g_half_costs[:2] == perfbench_run.EXPECTED_COSTS["v2g_half"][:2]


# the pin predates a change to the capped case: the day gives 790.71, the
# pin says 791.45, so every default-seed v2g_half run reads "correct": false
# (ROADMAP item 2). Re-pinning it in the benchmark turns this into a pass.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="stale v2g_half case 4 pin in perfbench/run.py")
def test_benchmark_v2g_half_case_4_pin_matches(perfbench_run,
                                               v2g_half_costs):
    assert v2g_half_costs[2] == perfbench_run.EXPECTED_COSTS["v2g_half"][2]


# ---------------------------------------------------------------------------
# the benchmark's output contract, on one short run of each workload

def reject_constant(name):
    raise ValueError(f"result line holds {name}, which is not JSON")


@pytest.mark.parametrize("workload, seed", [("v2g_half", 41),
                                            ("reference", 3301)])
def test_a_benchmark_run_ends_on_a_json_result_line(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    result = json.loads(proc.stdout.splitlines()[-1],
                        parse_constant=reject_constant)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
