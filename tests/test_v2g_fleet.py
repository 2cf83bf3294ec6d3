"""Fleet-scale check of the V2G regime: half the reference fleet may
discharge, the demand cap is on, and every plan of every coordinated case
is audited against the physical limits directly, without ``check_feasible``.
"""

import hashlib

import numpy as np
import pytest

from conftest import REFERENCE_YAML

import fleetdr.report as report
from fleetdr.cli import cmd_compare_cases
from fleetdr.coordinator import cap_value
from fleetdr.errors import InfeasibleError
from fleetdr.scenario import build_scenario, load_config

TOL_KWH = 1e-6
RESERVE = 0.2  # state-of-charge floor, share of capacity

# The same seed at 100 and 300 vehicles meets the demand cap's false
# infeasible verdict: the first sweep hands the cap's head-room to early
# vehicles and a late one finds none (ROADMAP item 3).
FALSE_CAP_VERDICT = pytest.mark.xfail(strict=True, raises=InfeasibleError,
                                      reason="false demand-cap verdict")


def half_v2g_config(n_users):
    cfg = load_config(REFERENCE_YAML)
    cfg.fleet.n_users = n_users
    cfg.fleet.v2g_fraction = 0.5
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
            who = f"case {case}, user {prof.user_id}"
            window = np.array(prof.window_slots()) - 1
            outside = np.delete(x, window)
            assert np.all(outside == 0.0), f"{who}: load outside its window"
            low = -prof.rate if prof.v2g else 0.0
            assert np.all(x >= low - TOL_KWH), f"{who}: below its rate box"
            assert np.all(x <= prof.rate + TOL_KWH), \
                f"{who}: above its rate box"
            assert abs(x.sum() - prof.required_energy) <= TOL_KWH, \
                f"{who}: energy delivered off"
            soc = prof.initial_soc + np.cumsum(x[window])
            assert np.all(soc >= RESERVE * prof.capacity - TOL_KWH), \
                f"{who}: battery under its reserve"
            assert np.all(soc <= prof.capacity + TOL_KWH), \
                f"{who}: battery above capacity"
    assert np.all(cases.get(4).aggregate <= cap + TOL_KWH)


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
