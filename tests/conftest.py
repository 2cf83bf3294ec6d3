"""Shared fixtures: repo paths, the frozen large-scenario build, the plan
audits and the writers of the config and market files the program reads.

The reference scenario (1000 vehicles) is built once per session and shared
by every test that only reads it; tests that mutate schedule state build
their own copies.
"""

import json
import os

import numpy as np
import pytest
import yaml

from fleetdr.fleet import write_slot_csv
from fleetdr.market import PRICE_CSV_HEADER, PROFILE_CSV_HEADER
from fleetdr.report import run_cases
from fleetdr.scenario import build_scenario, config_to_dict, load_config
from fleetdr.subproblem import FEAS_TOL

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(REPO_ROOT, "configs")
REFERENCE_YAML = os.path.join(CONFIG_DIR, "reference.yaml")
FLAT_DAY_YAML = os.path.join(CONFIG_DIR, "flat_day.yaml")

RESERVE = 0.2  # state-of-charge floor, share of capacity


def save_config(cfg, path):
    """Write the ``ScenarioConfig`` ``cfg`` as a YAML file ``load_config``
    reads back to the same config."""
    with open(path, "w") as fh:
        yaml.safe_dump(config_to_dict(cfg), fh, sort_keys=False)


def save_market_day(day, directory):
    """Write the ``MarketDay`` ``day`` as the da_prices.csv / rt_prices.csv
    / da_profile.csv bundle that ``market.files`` names: prices in $/MWh,
    every value with 6 decimals."""
    os.makedirs(directory, exist_ok=True)
    for name, header, values in (
            ("da_prices.csv", PRICE_CSV_HEADER, day.da_prices.values * 1000.0),
            ("rt_prices.csv", PRICE_CSV_HEADER, day.rt_prices.values * 1000.0),
            ("da_profile.csv", PROFILE_CSV_HEADER, day.da_profile)):
        write_slot_csv(os.path.join(directory, name), header, values)


def audit_plan(prof, x, who, tol=1e-6):
    """Assert that the 24-slot plan ``x`` is physically legal for ``prof``,
    checked from the profile alone: no load outside the window, every slot
    inside the rate box (down to -rate for a V2G vehicle), the energy
    delivered, and the battery kept within [20 %, 100 %] of capacity."""
    assert np.count_nonzero(x[prof.window]) == np.count_nonzero(x), \
        f"{who}: load outside its window"
    low = -prof.rate if prof.v2g else 0.0
    assert np.all(x >= low - tol), f"{who}: below its rate box"
    assert np.all(x <= prof.rate + tol), f"{who}: above its rate box"
    assert abs(x.sum() - prof.required_energy) <= tol, \
        f"{who}: energy delivered off"
    soc = prof.initial_soc + np.cumsum(x[prof.window])
    assert np.all(soc >= RESERVE * prof.capacity - tol), \
        f"{who}: battery under its reserve"
    assert np.all(soc <= prof.capacity + tol), \
        f"{who}: battery above capacity"


def check_feasible(sub, x, tol=FEAS_TOL):
    """List every constraint the candidate plan ``x`` of the
    ``UserSubproblem`` ``sub`` violates (empty = fine)."""
    x = np.asarray(x, dtype=float)
    problems = []
    k = len(sub.coeff)
    if x.shape != (k,):
        return [f"shape {x.shape} != ({k},)"]
    for i in range(k):
        if x[i] < sub.lo[i] - tol or x[i] > sub.up[i] + tol:
            problems.append(
                f"slot {sub.first + i}: {x[i]:.6f} outside "
                f"[{sub.lo[i]:.6f}, {sub.up[i]:.6f}]")
    if abs(float(x.sum()) - sub.target) > tol:
        problems.append(f"energy {x.sum():.6f} != target {sub.target:.6f}")
    running = np.cumsum(x)
    for i in range(k):
        if running[i] < sub.min_prefix - tol:
            problems.append(
                f"slot {sub.first + i}: running sum {running[i]:.6f} "
                f"below floor {sub.min_prefix:.6f}")
        if running[i] > sub.max_prefix + tol:
            problems.append(
                f"slot {sub.first + i}: running sum {running[i]:.6f} "
                f"above ceiling {sub.max_prefix:.6f}")
    return problems


def with_each_yaml_loader(monkeypatch, parse):
    """``(parse(), parse())``: first with the YAML loader ``load_config``
    picks here (libyaml's when PyYAML has it), then with ``CSafeLoader``
    taken away, so with PyYAML's pure-Python safe loader. Asserts that each
    parse went through a loader derived from the one it was meant to."""
    expected = [getattr(yaml, "CSafeLoader", yaml.SafeLoader), yaml.SafeLoader]
    used = []
    real_load = yaml.load

    def load(stream, Loader):
        used.append(Loader)
        return real_load(stream, Loader)

    monkeypatch.setattr(yaml, "load", load)
    first = parse()
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    second = parse()
    assert [loader.__bases__ for loader in used] == [
        (base,) for base in expected]
    return first, second


class EventLog:
    """Events that survive a fork: one JSON line each, appended to a file
    opened ``O_APPEND``, so a worker that ``run_cases`` forks logs into the
    same file as the test that forked it."""

    def __init__(self, path):
        self._pid = os.getpid()
        self._path = path
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def add(self, name, value=1):
        line = json.dumps([os.getpid(), name, value]) + "\n"
        os.write(self._fd, line.encode())  # one write, so lines never mix

    def values(self, name):
        """The values logged under ``name``: this process's first, then
        those of the processes it forked, each in the order logged."""
        with open(self._path) as fh:
            rows = [json.loads(line) for line in fh]
        rows.sort(key=lambda row: row[0] != self._pid)  # stable
        return [value for _, logged, value in rows if logged == name]

    def __getitem__(self, name):
        return sum(self.values(name))

    def clear(self):
        os.ftruncate(self._fd, 0)

    def close(self):
        os.close(self._fd)


@pytest.fixture
def event_log(tmp_path):
    log = EventLog(tmp_path / "events.jsonl")
    yield log
    log.close()


@pytest.fixture(scope="session")
def reference_config():
    return load_config(REFERENCE_YAML)


@pytest.fixture(scope="session")
def reference_scenario(reference_config):
    return build_scenario(reference_config)


@pytest.fixture(scope="session")
def reference_cases(reference_config, reference_scenario):
    """All four coordination cases on the frozen reference scenario."""
    sc = reference_scenario
    return run_cases(sc.fleet, sc.household_total, sc.market,
                     reference_config.case)
