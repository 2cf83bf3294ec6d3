"""Every solve of a whole day, certified optimal by the LP's own
optimality conditions (``oracles.exchange_certificate``), which share no
code with the solver. The days are the reference day and two 200-vehicle
days, one at half V2G and one at full V2G (the library default).

The days run serially (``os.fork`` taken away), so this process sees the
capped shaping's solves too. The certificate is shown to bite: from the
same inputs, a dearest-first pour that is feasible and costlier must be
flagged.
"""

import os

import numpy as np
import pytest

from oracles import exchange_certificate, feasibility_problems
from test_v2g_fleet import half_v2g_config

import fleetdr.coordinator as coordinator
from fleetdr.report import run_cases
from fleetdr.scenario import build_scenario
from fleetdr.subproblem import FEAS_TOL


def captured_solves(scenario, case, monkeypatch):
    """(lo, up, coeff, target, floor, ceiling, x, method) of every
    ``solve_vehicle`` call of the day's four cases."""
    solves = []
    kernel = coordinator.solve_vehicle

    def captured(lp, box, coeff, order):
        x, method = kernel(lp, box, coeff, order)
        solves.append((box.lo.tolist(), box.up.tolist(), coeff.tolist(),
                       lp.target, lp.min_prefix, lp.max_prefix, x.tolist(),
                       method))
        return x, method

    with monkeypatch.context() as patch:
        patch.delattr(os, "fork")
        patch.setattr(coordinator, "solve_vehicle", captured)
        run_cases(scenario.fleet, scenario.household_total, scenario.market,
                  case)
    return solves


@pytest.fixture(scope="module")
def day_solves(reference_scenario, reference_config):
    patch = pytest.MonkeyPatch()
    try:
        half = half_v2g_config(200)
        # at seed 7 the demand cap's false verdict (ROADMAP item 1) spares
        # the day, and compare-cases exits 0
        full = half_v2g_config(200, seed=7)
        full.fleet.v2g_fraction = 1.0
        yield {
            "reference": captured_solves(reference_scenario,
                                         reference_config.case, patch),
            "half_v2g": captured_solves(build_scenario(half), half.case,
                                        patch),
            "full_v2g": captured_solves(build_scenario(full), full.case,
                                        patch),
        }
    finally:
        patch.undo()


@pytest.mark.parametrize("day", ["reference", "half_v2g", "full_v2g"])
def test_every_solve_of_the_day_is_certified(day_solves, day):
    solves = day_solves[day]
    methods = {}
    for lo, up, coeff, target, floor, ceiling, x, method in solves:
        problems = exchange_certificate(lo, up, coeff, target, floor,
                                        ceiling, x)
        assert not problems, (method, problems[:3])
        methods[method] = methods.get(method, 0) + 1
    assert methods.get("greedy", 0) > 1000
    if day != "reference":
        # the band binds, so the exact program is certified too
        assert methods.get("exact", 0) > 100


def dearest_first(lo, up, coeff, target):
    """The pour in the wrong order: dearest slot first, ties in slot
    order."""
    x = list(lo)
    remaining = target - sum(lo)
    for i in sorted(range(len(x)), key=lambda i: -coeff[i]):
        add = min(up[i] - lo[i], max(remaining, 0.0))
        x[i] += add
        remaining -= add
    return x


def test_a_costlier_dearest_first_pour_is_flagged(day_solves):
    flagged = as_cheap = 0
    for lo, up, coeff, target, floor, ceiling, x, _ in (
            day_solves["reference"] + day_solves["half_v2g"]):
        worse = dearest_first(lo, up, coeff, target)
        if feasibility_problems(lo, up, target, floor, ceiling, worse):
            continue
        problems = exchange_certificate(lo, up, coeff, target, floor,
                                        ceiling, worse)
        gap = float(np.dot(coeff, worse)) - float(np.dot(coeff, x))
        if gap > FEAS_TOL * (1.0 + abs(float(np.dot(coeff, x)))):
            assert problems, (lo, up, coeff, target, floor, ceiling, worse)
            flagged += 1
        else:  # as cheap as the solver's plan, so optimal too
            assert not problems, (lo, up, coeff, target, floor, ceiling,
                                  worse)
            as_cheap += 1
    # the wrong order must often be feasible and costlier
    assert flagged > 10000 and as_cheap > 100, (flagged, as_cheap)


def test_an_exchange_the_band_blocks_is_no_gain():
    # slot 1 is cheaper, but moving energy there from slot 0 would take
    # the running sum after slot 0 under the floor
    args = ([0.0, 0.0], [2.0, 2.0], [1.0, 0.5], 2.0)
    assert exchange_certificate(*args, 2.0, 10.0, [2.0, 0.0]) == []
    assert exchange_certificate(*args, 1.0, 10.0, [2.0, 0.0]) == [
        "slot 0 can move energy to cheaper slot 1"]
    # the ceiling blocks a move from a dear slot to a cheaper earlier one,
    # which would raise the running sum after slot 0 past it
    args = ([-1.0] * 3, [1.0] * 3, [0.5, 3.0, 1.0], 0.0)
    plan = [0.5, -1.0, 0.5]
    assert exchange_certificate(*args, -10.0, 0.5, plan) == []
    assert exchange_certificate(*args, -10.0, 1.0, plan) == [
        "slot 2 can move energy to cheaper slot 0"]
    # an infeasible plan is not certified
    assert exchange_certificate(*args, -10.0, 1.0, [0.5, -1.0, 0.0]) == [
        "delivers -0.5, owes 0.0"]
