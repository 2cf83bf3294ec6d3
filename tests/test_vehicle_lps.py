"""``vehicle_lps`` derives a batch of vehicle LPs in array steps; every
field must carry the bits the one-vehicle derivation gives, and each
settle loop must derive its users' LPs in one call.
"""

import numpy as np
import pytest

from test_v2g_fleet import half_v2g_config

import fleetdr.coordinator as coordinator
from fleetdr.coordinator import (ScheduleState, cap_value, real_time_walk,
                                 shape_day_ahead, shape_fleet, simulate_day,
                                 walk_fleet)
from fleetdr.errors import ConfigError
from fleetdr.fleet import N_SLOTS, PevProfile
from fleetdr.scenario import build_scenario
from fleetdr.subproblem import (SOC_FLOOR_FRACTION, build_subproblem,
                                vehicle_lps)


def one_vehicle_lp(prof, plan, realized_upto):
    """``prof``'s LP fields, derived on their own from its (24,) ``plan``
    with day slots 1..``realized_upto`` frozen: user id, free slots,
    target, floor, ceiling, reach and the box's slot count."""
    done = max(0, realized_upto - prof.arrival_slot + 1)
    history = plan[prof.window][:done]
    delivered = float(history.sum())
    soc_start = prof.initial_soc + delivered
    first = prof.arrival_slot + len(history)
    k = prof.departure_slot - first + 1
    return (prof.user_id, slice(first - 1, prof.departure_slot),
            prof.required_energy - delivered,
            SOC_FLOOR_FRACTION * prof.capacity - soc_start,
            prof.capacity - soc_start, prof.rate * k, k)


def bits(value):
    """A scalar's type and exact value: a float's hex digits."""
    return type(value), value.hex() if isinstance(value, float) else value


def assert_batch_matches(fleet, pev, realized_upto):
    boxes = {}  # the first box of each (slot count, rate, V2G flag)
    lps = vehicle_lps(fleet, pev, realized_upto)
    assert len(lps) == len(fleet)
    for prof, plan, lp in zip(fleet, pev, lps):
        user, free, target, floor, ceiling, reach, k = one_vehicle_lp(
            prof, plan, realized_upto)
        who = f"user {user} at realized_upto {realized_upto}"
        assert (lp.user_id, lp.free) == (user, free), who
        assert [bits(v) for v in (lp.target, lp.min_prefix, lp.max_prefix,
                                  lp.reach)] == \
            [bits(v) for v in (target, floor, ceiling, reach)], who
        assert lp.box is boxes.setdefault((k, prof.rate, prof.v2g),
                                          lp.box), who
    for (k, rate, v2g), box in boxes.items():
        assert box.lo.tolist() == [-rate if v2g else 0.0] * k
        assert box.up.tolist() == [rate] * k
    return lps


def walked_plans(cfg):
    """The fleet of ``cfg``'s day and its plans after the capped walk."""
    sc = build_scenario(cfg)
    cap = cap_value(sc.household_total, sc.fleet, cfg.case.kappa)
    shaped = shape_fleet(sc.fleet, sc.household_total, sc.market.da_profile,
                         cfg.case.conv, cap=cap)
    walked = walk_fleet(sc.fleet, sc.household_total, sc.market, cfg.case,
                        shaped)
    day = simulate_day(sc.fleet, sc.household_total, sc.market, cfg.case,
                       walked)
    assert day.altered_slots == [10]
    return sc.fleet, day.pev


@pytest.fixture(scope="module")
def reference_day(reference_config):
    return walked_plans(reference_config)


@pytest.fixture(scope="module")
def half_v2g_day():
    return walked_plans(half_v2g_config(200))


@pytest.mark.parametrize("realized_upto", [0, 9, 14, 24])
def test_batch_matches_each_vehicle_on_the_reference_day(
        reference_day, realized_upto):
    fleet, pev = reference_day
    assert_batch_matches(fleet, pev, realized_upto)


@pytest.mark.parametrize("realized_upto", [0, 9, 14, 24])
def test_batch_matches_each_vehicle_on_the_half_v2g_day(
        half_v2g_day, realized_upto):
    fleet, pev = half_v2g_day
    assert any(prof.v2g for prof in fleet)
    assert_batch_matches(fleet, pev, realized_upto)


def synthetic_fleet(n, seed):
    """``n`` vehicles arriving at slot 1 to 4 and leaving at 24, two rates,
    half of them V2G, with plans of every magnitude on their windows."""
    rng = np.random.default_rng(seed)
    fleet, pev = [], np.zeros((n, N_SLOTS))
    for i in range(n):
        arrival = int(rng.integers(1, 5))
        rate = (1.8, 3.7)[i % 2]
        fleet.append(PevProfile(
            user_id=i + 1, arrival_slot=arrival, departure_slot=N_SLOTS,
            required_energy=float(rng.uniform(0, 10)), capacity=60.0,
            initial_soc=float(rng.uniform(0, 40)), rate=rate,
            v2g=bool(i % 4 < 2)))
        pev[i, arrival - 1:] = (rng.standard_normal(N_SLOTS - arrival + 1)
                                * 10.0 ** rng.integers(-6, 4))
    return fleet, pev


@pytest.mark.parametrize("realized_upto", range(11, 21))
def test_batch_matches_each_vehicle_over_8_to_20_realized_slots(
        realized_upto):
    # numpy sums 8 or more values pairwise, in 8 running partial sums
    fleet, pev = synthetic_fleet(120, seed=realized_upto)
    done = {realized_upto - prof.arrival_slot + 1 for prof in fleet}
    assert done <= set(range(8, 21)) and len(done) == 4
    assert_batch_matches(fleet, pev, realized_upto)


def test_fully_realized_windows_get_an_empty_box():
    fleet, pev = synthetic_fleet(40, seed=5)
    fleet.append(PevProfile(user_id=41, arrival_slot=3, departure_slot=9,
                            required_energy=2.0, capacity=24.0,
                            initial_soc=6.0, rate=1.8, v2g=False))
    pev = np.vstack([pev, np.zeros(N_SLOTS)])
    pev[-1, 2:9] = [0.3, 0.1, 0.7, 0.2, 0.4, 0.1, 0.2]
    for realized_upto in (9, N_SLOTS):
        lps = assert_batch_matches(fleet, pev, realized_upto)
        assert lps[-1].free == slice(9, 9)
        assert lps[-1].box.lo.size == 0
    assert all(lp.box.lo.size == 0 for lp in lps)


def test_build_subproblem_derives_one_row_the_same_way():
    fleet, pev = synthetic_fleet(30, seed=9)
    for prof, plan in zip(fleet, pev):
        for done in (0, 1, 9, 17, prof.window_length()):
            sub = build_subproblem(prof, np.zeros(N_SLOTS),
                                   history=plan[prof.window][:done])
            _, free, target, floor, ceiling, _, k = one_vehicle_lp(
                prof, plan, prof.arrival_slot - 1 + done)
            assert (sub.first - 1, sub.lo.size) == (free.start, k)
            assert [bits(v) for v in (sub.target, sub.min_prefix,
                                      sub.max_prefix)] == \
                [bits(v) for v in (target, floor, ceiling)]
    with pytest.raises(ConfigError,
                       match="^user 1: history longer than window$"):
        build_subproblem(fleet[0], np.zeros(N_SLOTS),
                         history=np.ones(fleet[0].window_length() + 1))


def test_no_vehicles_derive_nothing():
    assert vehicle_lps([], np.zeros((0, N_SLOTS)), 5) == []


@pytest.fixture
def derived(monkeypatch):
    """The fleet rows each ``vehicle_lps`` call derived an LP for, one list
    per call."""
    calls = []
    real = coordinator.vehicle_lps

    def counted(profiles, plans, realized_upto):
        calls.append([prof.user_id - 1 for prof in profiles])
        return real(profiles, plans, realized_upto)

    monkeypatch.setattr(coordinator, "vehicle_lps", counted)
    return calls


def test_each_settle_loop_derives_its_users_lps_once(
        reference_scenario, reference_config, derived, monkeypatch):
    sc = reference_scenario
    fleet, case = list(sc.fleet), reference_config.case
    assert [p.user_id for p in fleet] == list(range(1, len(fleet) + 1))
    passes = []
    fused = coordinator.best_response_pass

    def counted_pass(state, **kwargs):
        passes.append(kwargs["cache"])
        fused(state, **kwargs)

    monkeypatch.setattr(coordinator, "best_response_pass", counted_pass)
    state = ScheduleState(fleet=fleet, household_total=sc.household_total,
                          da_profile=sc.market.da_profile)
    trace = shape_day_ahead(state, case.conv)
    assert len(trace) > 1 and derived == [list(range(len(fleet)))]
    altered = real_time_walk(state, sc.market, case)
    # one derivation per replan, of the vehicles connected at its slot
    assert altered and derived[1:] == [
        [idx for idx, p in enumerate(fleet)
         if p.arrival_slot <= slot <= p.departure_slot] for slot in altered]
    # and each loop's passes share the cache it built
    assert len(passes) > len(derived) == len({id(c) for c in passes})
