"""The fused best-response pass against the per-vehicle reference pass.

``reference_pass`` is the pass as one ``build_subproblem`` + ``solve`` per
vehicle, in Gauss-Seidel order over the users the ``PassCache`` lists (or
everyone), with the spike term's one price added to the first free slot.
``coordinator.best_response_pass`` visits those users in the cache's order,
takes each vehicle's LP from the cache its settle loop shares, or from one
it builds for itself over everyone, and calls ``solve_vehicle`` on it,
unless the vehicle's box, price order and price ties repeat its last solve
in that cache; it must write the same plans, bit for bit, on every pass of
a day, with or without a shared cache, also after a caller puts new plans
or arrays on the state, and fail the same way on bad input.
"""

import copy
from collections import Counter

import numpy as np
import pytest

from test_v2g_fleet import half_v2g_config

import fleetdr.coordinator as coordinator
import fleetdr.report as report
from fleetdr.coordinator import (PassCache, ScheduleState,
                                 best_response_pass, cap_value,
                                 connected_users, shape_fleet, simulate_day)
from fleetdr.errors import ConfigError, InfeasibleError
from fleetdr.fleet import N_SLOTS, PevProfile
from fleetdr.scenario import build_scenario
from fleetdr.subproblem import build_subproblem, solve, t0_term


def realized_history(state, idx):
    """Fleet row ``idx``'s plan on its window slots that ``state`` has
    already frozen (a view of ``state.pev``)."""
    prof = state.fleet[idx]
    done = max(0, state.realized_upto - prof.arrival_slot + 1)
    return state.pev[idx, prof.window][:done]


def reference_pass(state, *, lam=1.0, t0=None, cap=None, cache=None):
    """The pass from scratch; it reads only which users ``cache`` lists,
    in order (everyone without one)."""
    users = range(len(state.fleet)) if cache is None else cache.vehicles
    agg_pev = state.pev.sum(axis=0)
    for idx in users:
        plan = state.pev[idx]
        others = state.household_total + agg_pev - plan
        signal = others - state.da_profile
        room = None if cap is None else cap - others
        sub = build_subproblem(
            state.fleet[idx], signal, lam=lam,
            history=realized_history(state, idx), slot_cap=room)
        if t0 is not None and sub.coeff.size:  # as build_subproblem adds it
            sub.coeff[0] += t0
        x = solve(sub).x
        end = state.fleet[idx].departure_slot
        free = slice(end - x.size, end)
        agg_pev[free] += x - plan[free]
        plan[free] = x


@pytest.fixture
def checked_passes(monkeypatch, event_log):
    """Run the reference pass beside every fused pass of a day and compare
    plans; count passes, walk passes, the vehicles the passes visit and the
    fused pass's solves by method, in this process and in the shaping
    worker ``run_cases`` forks."""
    fused, kernel = coordinator.best_response_pass, coordinator.solve_vehicle

    def counted_solve(lp, box, coeff, order):
        x, method = kernel(lp, box, coeff, order)
        event_log.add(method)
        return x, method

    def checked_pass(state, **kwargs):
        expected = copy.deepcopy(state)
        reference_pass(expected, **kwargs)
        fused(state, **kwargs)
        event_log.add("passes")
        event_log.add("walk_passes", int(state.realized_upto > 0))
        cache = kwargs.get("cache")
        event_log.add("visits", len(state.fleet if cache is None
                                    else cache.vehicles))
        assert np.array_equal(state.pev, expected.pev), \
            f"pass {event_log['passes']} ({kwargs}) left other plans"

    monkeypatch.setattr(coordinator, "solve_vehicle", counted_solve)
    monkeypatch.setattr(coordinator, "best_response_pass", checked_pass)
    return event_log


def test_reference_day_passes_match_bit_for_bit(
        reference_scenario, reference_config, checked_passes):
    sc = reference_scenario
    report.run_cases(sc.fleet, sc.household_total, sc.market,
                     reference_config.case)
    assert checked_passes["walk_passes"] > 0
    # the band never binds on this charge-only day
    assert checked_passes["greedy"] > 0
    assert checked_passes["exact"] == 0


def test_half_v2g_day_passes_match_bit_for_bit(checked_passes):
    cfg = half_v2g_config(200)
    sc = build_scenario(cfg)
    report.run_cases(sc.fleet, sc.household_total, sc.market, cfg.case)
    # the band binds, so some solves go to the exact solver, and replans
    # start past slot 0, so the cached LPs must follow realized_upto
    assert checked_passes["exact"] > 0
    assert checked_passes["walk_passes"] > 0
    # plans that no longer move are not solved again
    solves = sum(checked_passes[m] for m in ("greedy", "exact", "empty"))
    assert solves < checked_passes["visits"]


def test_passes_after_a_caller_swaps_arrays_match_bit_for_bit(
        checked_passes):
    """A pass without a cache reads the arrays the state holds at its
    start, not those an earlier pass saw."""
    cfg = half_v2g_config(200)
    sc = build_scenario(cfg)
    cap = cap_value(sc.household_total, sc.fleet, cfg.case.kappa)
    # many vehicles share each free window, and with it its arrays
    windows = Counter((p.arrival_slot, p.departure_slot) for p in sc.fleet)
    assert windows.most_common(1)[0][1] > 50
    state = ScheduleState(fleet=list(sc.fleet),
                          household_total=sc.household_total,
                          da_profile=sc.market.da_profile)
    coordinator.best_response_pass(state, cap=cap)
    state.pev = state.pev.copy()
    coordinator.best_response_pass(state, cap=cap)
    state.da_profile = np.roll(sc.market.da_profile, 1)
    coordinator.best_response_pass(state, cap=cap)
    state.household_total = 0.9 * sc.household_total
    coordinator.best_response_pass(state, cap=cap)
    state.realized_upto = 9
    state.pev = state.pev.copy()
    coordinator.best_response_pass(
        state, lam=0.5, t0=t0_term(0.5, 1, 1.0), cap=cap,
        cache=PassCache(state, connected_users(state, 10)))
    # the cap binds: some slot's aggregate sits at it
    assert np.isclose(state.aggregate, cap).any()
    assert checked_passes["exact"] > 0


def test_a_pass_visits_the_users_its_cache_lists_in_order(monkeypatch):
    cfg = half_v2g_config(200)
    sc = build_scenario(cfg)
    shaped = shape_fleet(sc.fleet, sc.household_total, sc.market.da_profile,
                         cfg.case.conv)
    state = ScheduleState(fleet=list(sc.fleet),
                          household_total=sc.household_total,
                          da_profile=sc.market.da_profile, pev=shaped.pev)
    users = [150, 7, 42, 3, 199, 0]
    kernel, visited = coordinator.solve_vehicle, []

    def logged_solve(lp, *args):
        visited.append(lp.user_id)
        return kernel(lp, *args)

    monkeypatch.setattr(coordinator, "solve_vehicle", logged_solve)
    best_response_pass(state, lam=0.5, t0=t0_term(0.5, -1, 1.0),
                       cache=PassCache(state, users))
    assert visited == [sc.fleet[idx].user_id for idx in users]
    others = [idx for idx in range(len(sc.fleet)) if idx not in users]
    assert state.pev[others].tobytes() == shaped.pev[others].tobytes()


# ---------------------------------------------------------------------------
# the skip: a vehicle is solved again whenever a repeat could move its plan

def priced(state, prices):
    """Set the purchase, in place, so the first free slots cost ``prices``:
    a lone vehicle's price is the households less the purchase."""
    state.da_profile[:] = 0.0
    state.da_profile[:len(prices)] = \
        state.household_total[:len(prices)] - prices


# the battery's ceiling binds, so both price lists run the exact program;
# both sort in slot order, but only the tie keeps the plan at [1.8, 0, 0]
TIED = ([1.0, 2.0, 2.0], [1.8, 0.0, 0.0])  # prices, the plan they give
UNTIED = ([1.0, 2.0, 3.0], [1.8, 0.2, -0.2])


@pytest.mark.parametrize("first, second", [(TIED, UNTIED), (UNTIED, TIED)])
def test_a_new_tie_between_exact_solves_is_solved_again(checked_passes,
                                                        first, second):
    state = one_vehicle_state(required_energy=1.8, capacity=6.0,
                              initial_soc=4.0, v2g=True)
    cache = coordinator.PassCache(state, [0])
    for prices, plan in (first, second, second):
        priced(state, np.array(prices))
        coordinator.best_response_pass(state, cache=cache)
        assert state.pev[0, :3] == pytest.approx(plan)
    # the repeat of `second` skips
    assert (checked_passes["exact"], checked_passes["greedy"]) == (2, 0)


def test_a_new_cap_head_room_is_solved_again(checked_passes):
    # same prices each pass; only the head-room the cap leaves changes
    state = one_vehicle_state(required_energy=2.0)
    priced(state, np.array([1.0, 2.0, 3.0]))
    cache = coordinator.PassCache(state, [0])
    # households draw 2 kWh a slot
    for cap, plan in [(4.0, [1.8, 0.2, 0.0]), (3.0, [1.0, 1.0, 0.0]),
                      (3.0, [1.0, 1.0, 0.0])]:
        coordinator.best_response_pass(state, cap=cap, cache=cache)
        assert state.pev[0, :3] == pytest.approx(plan)
    # the repeat of cap 3 skips
    assert (checked_passes["greedy"], checked_passes["exact"]) == (2, 0)


@pytest.mark.parametrize("put", ["rebind", "write_row"])
def test_a_direct_pass_answers_the_plans_a_caller_put_in(checked_passes,
                                                         put):
    state = one_vehicle_state(required_energy=1.8)
    priced(state, np.array([1.0, 2.0, 3.0]))
    coordinator.best_response_pass(state)
    assert state.pev[0, :3].tolist() == [1.8, 0.0, 0.0]
    other = np.zeros((1, N_SLOTS))
    other[0, 2] = 1.8  # a legal plan, but not the best response
    if put == "rebind":
        state.pev = other
    else:
        state.pev[0] = other[0]
    coordinator.best_response_pass(state)
    assert state.pev[0, :3].tolist() == [1.8, 0.0, 0.0]


def test_passes_sharing_a_cache_match_passes_building_their_own(
        monkeypatch):
    """The cache only saves solves: the capped day's shaping and walk write
    the same bits whether each loop's passes share one cache or not."""
    cfg = half_v2g_config(200)
    sc = build_scenario(cfg)
    cap = cap_value(sc.household_total, sc.fleet, cfg.case.kappa)
    fused, kernel = coordinator.best_response_pass, coordinator.solve_vehicle
    solves = []

    def counted_solve(*args):
        solves[-1] += 1
        return kernel(*args)

    def day():
        solves.append(0)
        shaped = shape_fleet(sc.fleet, sc.household_total,
                             sc.market.da_profile, cfg.case.conv, cap=cap)
        return shaped, simulate_day(sc.fleet, sc.household_total, sc.market,
                                    cfg.case, shaped)

    monkeypatch.setattr(coordinator, "solve_vehicle", counted_solve)
    shaped, walked = day()
    monkeypatch.setattr(
        coordinator, "best_response_pass",
        lambda state, cache, **kwargs: fused(
            state, cache=PassCache(state, list(cache.vehicles)), **kwargs))
    own_shaped, own_walked = day()
    assert shaped.pev.tobytes() == own_shaped.pev.tobytes()
    assert shaped.mse_trace == own_shaped.mse_trace
    assert walked.pev.tobytes() == own_walked.pev.tobytes()
    assert walked.altered_slots == own_walked.altered_slots != []
    assert np.isclose(walked.aggregate, cap).any()  # the cap binds
    assert solves[0] < solves[1]  # the shared caches skipped repeats


def test_a_solve_that_returns_the_held_plan_writes_nothing(monkeypatch):
    solves = []
    kernel = coordinator.solve_vehicle

    def counted_solve(*args):
        solves.append(kernel(*args))
        return solves[-1]

    # free slots 5-10; the 1.8 kWh owed fills slot 6, the cheapest, alone
    state = one_vehicle_state(arrival_slot=5, departure_slot=10,
                              required_energy=1.8, rate=1.8, capacity=24.0,
                              initial_soc=12.0)
    prices = np.zeros(N_SLOTS)
    prices[4:10] = [3.0, 1.0, 2.0, 4.0, 5.0, 6.0]
    state.da_profile = state.household_total - prices
    monkeypatch.setattr(coordinator, "solve_vehicle", counted_solve)
    best_response_pass(state)
    plan = state.pev.tobytes()
    assert state.pev[0, 5] == 1.8 and state.pev.sum() == 1.8
    # a new order among the slots the pour leaves at 0 only
    prices[4:10] = [6.0, 1.0, 5.0, 4.0, 3.0, 2.0]
    state.da_profile = state.household_total - prices
    state.pev.setflags(write=False)
    best_response_pass(state)
    # the memo could not skip the solve, since the argsort changed
    assert [method for _, method in solves] == ["greedy", "greedy"]
    assert solves[0][0].tobytes() == solves[1][0].tobytes()
    assert state.pev.tobytes() == plan


def test_a_copied_state_passes_on_its_own_arrays(checked_passes):
    state = one_vehicle_state(required_energy=1.8, capacity=6.0,
                              initial_soc=4.0, v2g=True)
    priced(state, np.array(TIED[0]))
    coordinator.best_response_pass(state)
    twin = copy.deepcopy(state)
    priced(twin, np.array(UNTIED[0]))
    coordinator.best_response_pass(twin)
    assert twin.pev[0, :3] == pytest.approx(UNTIED[1])
    assert state.pev[0, :3] == pytest.approx(TIED[1])


# ---------------------------------------------------------------------------
# error paths: the fused pass fails as the reference pass does

PASSES = pytest.mark.parametrize("run_pass", [reference_pass,
                                              best_response_pass])


def one_vehicle_state(pev=None, realized_upto=0, **kw):
    base = dict(user_id=1, arrival_slot=1, departure_slot=3,
                required_energy=3.6, capacity=24.0, initial_soc=12.0,
                rate=1.8, v2g=False)
    base.update(kw)
    return ScheduleState(fleet=[PevProfile(**base)],
                         household_total=np.full(N_SLOTS, 2.0),
                         da_profile=np.zeros(N_SLOTS), pev=pev,
                         realized_upto=realized_upto)


@PASSES
def test_lam_outside_the_unit_interval_is_a_config_error(run_pass):
    with pytest.raises(ConfigError, match=r"lam must be in \[0, 1\]"):
        run_pass(one_vehicle_state(), lam=1.5)


@PASSES
def test_non_finite_cap_is_a_config_error(run_pass):
    with pytest.raises(ConfigError):
        run_pass(one_vehicle_state(), cap=float("nan"))


@PASSES
def test_energy_owed_with_no_free_slot_is_an_energy_balance_error(run_pass):
    with pytest.raises(InfeasibleError) as err:
        run_pass(one_vehicle_state(realized_upto=3))
    assert err.value.constraint == "energy balance"
    assert err.value.user_id == 1


@PASSES
def test_band_infeasible_v2g_vehicle_is_a_state_of_charge_error(run_pass):
    # arrives below its 2 kWh reserve and can add only 1 kWh in its slot
    state = one_vehicle_state(departure_slot=1, required_energy=1.0,
                              capacity=10.0, initial_soc=0.5, rate=1.0,
                              v2g=True)
    with pytest.raises(InfeasibleError) as err:
        run_pass(state)
    assert err.value.constraint == "state-of-charge"
    assert err.value.user_id == 1



@PASSES
def test_cap_below_households_is_a_demand_cap_error(run_pass):
    # households draw 2 kWh a slot, so a 1.5 kWh cap leaves negative room
    with pytest.raises(InfeasibleError) as err:
        run_pass(one_vehicle_state(), cap=1.5)
    assert type(err.value) is InfeasibleError
    assert (err.value.constraint, err.value.user_id) == ("demand cap", 1)
    assert str(err.value) == ("user 1: [demand cap] demand cap leaves no "
                              "room at a connected slot")


@PASSES
def test_cap_short_of_the_target_is_a_demand_cap_error(run_pass):
    # 0.5 kWh of head-room in each of 3 slots: 1.5 of the 3.6 kWh owed
    with pytest.raises(InfeasibleError) as err:
        run_pass(one_vehicle_state(), cap=2.5)
    assert type(err.value) is InfeasibleError
    assert (err.value.constraint, err.value.user_id) == ("demand cap", 1)
    assert str(err.value) == ("user 1: [demand cap] 3.600 kWh owed but the "
                              "cap's head-room leaves 1.500 kWh reachable")
