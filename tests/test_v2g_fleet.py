"""Fleet-scale check of the V2G regime: half the reference fleet may
discharge, the demand cap is on, and every plan of every coordinated case
is audited against the physical limits directly, without ``check_feasible``.
"""

import hashlib
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import coo_array

from conftest import RESERVE, REFERENCE_YAML, audit_plan

import fleetdr.report as report
from fleetdr.cli import cmd_compare_cases
from fleetdr.coordinator import ScheduleState, cap_value, shape_day_ahead
from fleetdr.errors import InfeasibleError
from fleetdr.fleet import N_SLOTS
from fleetdr.scenario import build_scenario, load_config

TOL_KWH = 1e-6

# The same seed at 100 and 300 vehicles meets the demand cap's false
# infeasible verdict: the first sweep hands the cap's head-room to early
# vehicles and a late one finds none (ROADMAP item 1).
FALSE_CAP_VERDICT = pytest.mark.xfail(strict=True, raises=InfeasibleError,
                                      reason="false demand-cap verdict")

# 1,000-vehicle days of the benchmark's v2g_half workload (perfbench/run.py
# --workload v2g_half --seed 61 or 70) whose first capped sweep refuses a
# late vehicle: user 998 at seed 61 (10.800 kWh owed, 6.289 reachable),
# user 1000 at seed 70 (7.200 owed, 5.932 reachable)
BENCHMARK_FALSE_VERDICT_SEEDS = (61, 70)


def half_v2g_config(n_users, seed=None):
    cfg = load_config(REFERENCE_YAML)
    cfg.fleet.n_users = n_users
    cfg.fleet.v2g_fraction = 0.5
    if seed is not None:
        cfg.seed = seed
    return cfg


@pytest.mark.parametrize("n_users", [
    pytest.param(100, marks=FALSE_CAP_VERDICT),
    200,
    pytest.param(300, marks=FALSE_CAP_VERDICT),
])
def test_half_v2g_fleet_plans_are_legal(n_users, monkeypatch):
    cfg = half_v2g_config(n_users)
    sc = build_scenario(cfg)
    cap = cap_value(sc.household_total, sc.fleet, cfg.case.kappa)

    days = []
    simulate_day = report.simulate_day

    def keep_day(*args, **kwargs):
        days.append(simulate_day(*args, **kwargs))
        return days[-1]

    monkeypatch.setattr(report, "simulate_day", keep_day)
    cases = report.run_cases(sc.fleet, sc.household_total, sc.market,
                             cfg.case)

    assert sum(p.v2g for p in sc.fleet) >= 0.4 * n_users
    assert len(days) == 3  # cases 2, 3 and 4
    for case, day in zip((2, 3, 4), days):
        for prof, x in zip(sc.fleet, day.pev):
            audit_plan(prof, x, f"case {case}, user {prof.user_id}", TOL_KWH)
    assert np.all(cases.get(4).aggregate <= cap + TOL_KWH)


def fleet_lp_plans(fleet, household_total, cap):
    """Plans for the whole fleet under the demand cap from one HiGHS LP
    with every vehicle's rate box, energy and state-of-charge band, and
    the cap at every slot. None when HiGHS proves the LP infeasible."""
    rows, cols, vals, b_ub, bounds, windows = [], [], [], [], [], []
    for p in fleet:
        first = len(bounds)
        bounds += [(-p.rate if p.v2g else 0.0, p.rate)] * p.window_length()
        for last in range(first + 1, len(bounds) + 1):
            # the running sum over the window's slots up to this one
            # keeps the battery between its reserve and its capacity
            prefix = range(first, last)
            rows += [len(b_ub)] * len(prefix) + [len(b_ub) + 1] * len(prefix)
            cols += [*prefix, *prefix]
            vals += [1.0] * len(prefix) + [-1.0] * len(prefix)
            b_ub += [p.capacity - p.initial_soc,
                     p.initial_soc - RESERVE * p.capacity]
        windows.append(np.arange(p.arrival_slot - 1, p.departure_slot))
    n = len(bounds)
    slots = np.concatenate(windows)
    owner = np.repeat(np.arange(len(fleet)), [len(w) for w in windows])
    # every slot's fleet load stays under the cap's head-room
    rows += (len(b_ub) + slots).tolist()
    cols += range(n)
    vals += [1.0] * n
    b_ub += (cap - household_total).tolist()
    res = linprog(np.zeros(n),
                  A_ub=coo_array((vals, (rows, cols)),
                                 shape=(len(b_ub), n)).tocsr(),
                  b_ub=b_ub,
                  A_eq=coo_array((np.ones(n), (owner, np.arange(n))),
                                 shape=(len(fleet), n)).tocsr(),
                  b_eq=[p.required_energy for p in fleet],
                  bounds=bounds, method="highs")
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    plans = np.zeros((len(fleet), N_SLOTS))
    plans[owner, slots] = res.x
    return plans


@pytest.mark.parametrize("seed", [
    pytest.param(seed, marks=FALSE_CAP_VERDICT)
    for seed in BENCHMARK_FALSE_VERDICT_SEEDS])
def test_benchmark_v2g_day_shapes_under_its_cap(seed):
    cfg = half_v2g_config(1000, seed)
    sc = build_scenario(cfg)
    cap = cap_value(sc.household_total, sc.fleet, cfg.case.kappa)
    state = ScheduleState(fleet=list(sc.fleet),
                          household_total=sc.household_total,
                          da_profile=sc.market.da_profile)
    shape_day_ahead(state, cfg.case.conv, cap=cap)


def test_a_false_verdict_day_is_feasible_for_highs():
    # the first of those days admits plans for every vehicle under the cap
    # of kappa = 1.5, and none under kappa = 1.4, so the LP does bind
    cfg = half_v2g_config(1000, BENCHMARK_FALSE_VERDICT_SEEDS[0])
    sc = build_scenario(cfg)
    hh = sc.household_total
    cap = cap_value(hh, sc.fleet, cfg.case.kappa)
    plans = fleet_lp_plans(sc.fleet, hh, cap)
    assert plans is not None
    for prof, x in zip(sc.fleet, plans):
        audit_plan(prof, x, f"user {prof.user_id}", TOL_KWH)
    assert np.all(hh + plans.sum(axis=0) <= cap + TOL_KWH)
    assert fleet_lp_plans(sc.fleet, hh, cap_value(hh, sc.fleet, 1.4)) is None


def test_half_v2g_day_is_silent(capfd):
    # a benchmark run reports on its last line of output, so the day must
    # print nothing and raise no warning (numpy's floating-point warnings
    # included) that could land after it
    cfg = half_v2g_config(200)
    sc = build_scenario(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report.run_cases(sc.fleet, sc.household_total, sc.market, cfg.case)
    assert capfd.readouterr() == ("", "")


# sha256 of the 200-vehicle day's artifacts; the state-of-charge band binds
# here, so the exact solver's tie-breaking is pinned too
HALF_V2G_DIGESTS = {
    "case_costs.csv":
        "595d62a8ed3d082e7f40228ba14e88c673d509bc0e6cc26ab65f0f69f8ca4a00",
    "aggregate_1.csv":
        "d544456fa9c17c55054424f688890ebe6f81c83a40b3b22b2c3c0189a1044989",
    "aggregate_2.csv":
        "1b5e3dbf8eaf2bd6f10650b2af16541ac8462dcb7effd4cd5d5e854c136d543f",
    "aggregate_3.csv":
        "08c86ccc5bd1d73e5d49ee5adcaffcce55168d0e02efcf511cee29fae7a847ae",
    "aggregate_4.csv":
        "cbe575337d252c699573c6bca4ec80521ef49046d064234f19e2199f652948b1",
    "mse_trace.csv":
        "f789ce0e956737555d5a2801dcfc195efd47ada94d4182a35bc53865886ee138",
}


def test_half_v2g_artifacts_match_pinned_digests(tmp_path):
    cmd_compare_cases(half_v2g_config(200), out=str(tmp_path))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in HALF_V2G_DIGESTS}
    changed = sorted(n for n in got if got[n] != HALF_V2G_DIGESTS[n])
    assert not changed, f"half-V2G artifacts changed: {changed}"
