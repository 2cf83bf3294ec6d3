"""Tests of the benchmark itself: metric emission, failure counting, the
span arithmetic and the output checker.

    python -m pytest perfbench
"""
import json

import numpy as np
import pytest

import calibrate
import run
import tracing
from legality import cap_problems, day_problems, plan_problems

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# A 40-vehicle day can trip the demand cap's false infeasible verdict
# (ROADMAP item 3). The days of seed 3 (seeds 3 and 1003) do not, with or
# without V2G.
SMOKE_SEED = 3


def tiny(v2g: float) -> run.Workload:
    return run.Workload({"n_users": 40, "v2g_fraction": v2g}, days=2)


@pytest.fixture(scope="module")
def lib():
    return run.import_fleetdr()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("v2g", [0.0, 0.5])
def test_smoke_run_emits_every_metric_with_its_unit(v2g, trace):
    result = run.run("smoke", SMOKE_SEED, 0.0, trace, workload=tiny(v2g))
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"], result["lines"]
    assert result["failed"] == 0
    assert result["attempted"] >= 3  # warm-up plus at least two days
    assert ({k: m["unit"] for k, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in listed})
    assert all(isinstance(m["value"], float)
               for m in result["metrics"].values())


def test_a_day_that_raises_counts_as_failed(lib, monkeypatch):
    def emit(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(lib["report"], "emit", emit)
    result = run.run("smoke", SMOKE_SEED, 0.0, False, workload=tiny(0.0))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 3
    assert "day_s" not in result["metrics"]


def test_calibration_blocks_inside_a_day_are_counted_apart(monkeypatch):
    monkeypatch.setattr(calibrate, "CAL_EVERY_S", 0.0)  # a block every pass
    coordinator = type("Coordinator", (), {
        "best_response_pass": staticmethod(lambda state: state + 1)})
    cal = calibrate.Calibrator()
    cal.restart()
    with cal.pacing(coordinator):
        assert coordinator.best_response_pass(1) == 2
        assert coordinator.best_response_pass(2) == 3
    assert coordinator.best_response_pass(3) == 4  # unwrapped again
    assert len(cal.blocks) == 3
    assert cal.in_days_s == pytest.approx(sum(cal.blocks[1:]))


def test_unit_metrics_split_self_time_and_replans():
    # one replan whose two passes use the whole budget of two
    spans = [
        (0, -1, 0, "coordinator.walk", 0.0, 10.0, None),
        (1, 0, 0, "coordinator.connected_users", 0.0, 1.0, 3),
        (2, 0, 0, "coordinator.pass", 1.0, 5.0, None),
        (3, 2, 0, "subproblem.build", 1.0, 2.0, None),
        (4, 2, 0, "subproblem.solve", 2.0, 4.0, "greedy"),
        (5, 0, 0, "coordinator.pass", 5.0, 9.0, None),
        (6, -1, 1, "coordinator.pass", 0.0, 1.0, None),  # another day
    ]
    m = tracing.unit_metrics(spans, 0, max_sweeps=2)
    assert m["coordinator.pass_calls"] == 2
    assert m["coordinator.pass_s"] == 8.0
    assert m["coordinator.pass_self_s"] == 5.0
    assert (m["coordinator.replans"], m["coordinator.replan_passes"],
            m["coordinator.replan_budget_hits"]) == (1, 2, 1)
    assert m["subproblem.solve_calls.greedy"] == 1
    assert m["subproblem.greedy_hit_ratio"] == 1.0


def _day(lib, v2g):
    cfg, sc = run.set_up(lib, tiny(v2g).fleet, SMOKE_SEED)
    with run.capture_days(lib["report"]) as captured:
        comparison = lib["report"].run_cases(
            sc.fleet, sc.household_total, sc.market, cfg.case)
    return run.make_day(lib, cfg, sc), comparison, list(captured)


def _checks(problems):
    return {check for check, _, _ in problems}


@pytest.mark.parametrize("v2g", [0.0, 0.5])
def test_checker_accepts_untouched_plans(lib, v2g):
    day, comparison, days = _day(lib, v2g)
    sc = day.scenario
    assert day_problems(day.arrays, sc.household_total, sc.market,
                        comparison, days, day.cap) == []


def test_checker_rejects_a_slot_over_rate(lib):
    day, _, days = _day(lib, 0.0)
    pev = days[0].pev.copy()
    for i, prof in enumerate(day.scenario.fleet):
        slots = [s - 1 for s in prof.window_slots()]
        full = [k for k, s in enumerate(slots)
                if pev[i, s] >= prof.rate - 1e-9]
        later = [s for s in slots[full[0] + 1:] if pev[i, s] >= 0.1
                 ] if full else []
        if later:
            # energy and the battery band stay legal; only the rate breaks
            pev[i, slots[full[0]]] += 0.1
            pev[i, later[-1]] -= 0.1
            break
    else:
        pytest.fail("no vehicle charges at full rate before a later slot")
    assert _checks(plan_problems(day.arrays, pev)) == {"rate"}


def test_checker_rejects_a_state_of_charge_dip(lib):
    day, _, days = _day(lib, 0.5)
    pev = days[0].pev.copy()
    for i, prof in enumerate(day.scenario.fleet):
        slots = [s - 1 for s in prof.window_slots()]
        floor = 0.2 * prof.capacity
        first = floor - 0.1 - prof.initial_soc  # 0.1 kWh under the floor
        shift = pev[i, slots[0]] - first
        if (prof.v2g and len(slots) > 1 and first >= -prof.rate
                and pev[i, slots[-1]] + shift <= prof.rate):
            pev[i, slots[0]] = first
            pev[i, slots[-1]] += shift  # same energy, inside the rate box
            break
    else:
        pytest.fail("no V2G vehicle can dip below its floor within its rate")
    assert _checks(plan_problems(day.arrays, pev)) == {"soc"}


def test_checker_rejects_a_plan_short_of_energy(lib):
    day, _, days = _day(lib, 0.0)
    pev = days[0].pev.copy()
    i, s = np.argwhere(pev >= 0.1)[0]
    pev[i, s] -= 0.1
    assert _checks(plan_problems(day.arrays, pev)) == {"energy"}


def test_checker_rejects_a_case4_aggregate_over_the_cap(lib):
    day, _, days = _day(lib, 0.0)
    aggregate = day.scenario.household_total + days[2].pev.sum(axis=0)
    assert cap_problems(aggregate, day.cap) == []
    slot = int(np.argmax(aggregate))
    aggregate[slot] = day.cap + 1.0
    assert [(c, s) for c, s, _ in cap_problems(aggregate, day.cap)] == [
        ("cap", slot + 1)]
