"""The names the benchmark patches from outside still exist and are still
called through.

``perfbench/tracing.py`` wraps module attributes by name,
``perfbench/calibrate.py`` paces ``coordinator.best_response_pass`` and
``perfbench/run.py`` captures every ``report.simulate_day``; a renamed,
inlined or deleted name, or one the program stops calling through its
module global, would break only the benchmark, so tier-1 checks both here.
"""

import importlib
import importlib.util
import os
import sys

import pytest

from conftest import REFERENCE_YAML, REPO_ROOT

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


def test_pacing_and_day_capture_see_every_call(monkeypatch, event_log):
    # run.py imports its sibling modules by name
    monkeypatch.syspath_prepend(PERFBENCH)
    run = load_perfbench("run")
    calibrator = load_perfbench("calibrate").Calibrator()
    # count, time nothing; the capped shaping paces in a forked worker
    calibrator.tick = lambda: event_log.add("tick")

    cfg = load_config(REFERENCE_YAML)
    cfg.fleet.n_users = 20
    cfg.seed = 3  # a 20-vehicle day clear of the false cap verdict
    sc = build_scenario(cfg)
    with run.capture_days(report) as days, calibrator.pacing(coordinator):
        report.run_cases(sc.fleet, sc.household_total, sc.market, cfg.case)
    paced = event_log.values("tick")

    assert len(days) == 3  # cases 2, 3 and 4
    # cases 2 and 3 share one shaping; each shaping's sweeps are passes
    sweeps = {id(day.shaped): day.da_sweeps for day in days}
    assert len(sweeps) == 2
    assert len(paced) >= sum(sweeps.values()) > 0
