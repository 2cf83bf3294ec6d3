import inspect

import numpy as np
import pytest

import fleetdr.coordinator as coordinator
from fleetdr.coordinator import (
    CaseConfig,
    ConvergenceSpec,
    DayResult,
    PassCache,
    ScheduleState,
    ShapedPlans,
    WalkedPlans,
    best_response_pass,
    cap_value,
    connected_users,
    decide_altering,
    real_time_walk,
    shape_day_ahead,
    shape_fleet,
    simulate_day,
    walk_fleet,
)
from fleetdr.errors import ConfigError, InfeasibleError
from fleetdr.fleet import (
    Dist,
    FleetSpec,
    N_SLOTS,
    PevProfile,
    sample_fleet,
    uncoordinated_profile,
)
from fleetdr.market import MarketDay, PriceSeries, water_fill


def make_profile(**kw):
    base = dict(user_id=1, arrival_slot=1, departure_slot=4,
                required_energy=3.6, capacity=24.0, initial_soc=12.0,
                rate=1.8, v2g=False)
    base.update(kw)
    return PevProfile(**base)


def make_day(da=0.03, rt=None, purchased=None):
    rt_vals = np.full(N_SLOTS, da) if rt is None else np.asarray(rt, float)
    prof = np.zeros(N_SLOTS) if purchased is None else purchased
    return MarketDay(da_prices=PriceSeries(np.full(N_SLOTS, da), kind="da"),
                     rt_prices=PriceSeries(rt_vals, kind="rt"),
                     da_profile=prof)


def small_fleet(n=12, seed=3):
    spec = FleetSpec(
        n_users=n, capacity_kwh=24.0, rate_kw=1.8, v2g_fraction=0.0,
        day_start_hour=12,
        arrival=Dist("truncnorm", {"mean": 19.0, "std": 1.2,
                                   "lo": 15.0, "hi": 20.4}, round_to=1.0),
        departure=Dist("truncnorm", {"mean": 4.0, "std": 0.3,
                                     "lo": 3.6, "hi": 5.4}, round_to=1.0),
        charging_time=Dist("truncnorm", {"mean": 5.0, "std": 2.0,
                                         "lo": 1.0, "hi": 7.0}, round_to=1.0),
        initial_soc=Dist("choice", {"values": [0.2, 0.35, 0.5],
                                    "probs": [0.35, 0.4, 0.25]}),
        energy_grid=1.8,
    )
    return sample_fleet(spec, seed)


# ---------------------------------------------------------------------------
# state container

def test_state_defaults_and_aggregate():
    fleet = [make_profile()]
    hh = np.full(N_SLOTS, 2.0)
    state = ScheduleState(fleet=fleet, household_total=hh,
                          da_profile=np.zeros(N_SLOTS))
    assert state.pev.shape == (1, N_SLOTS)
    assert np.allclose(state.aggregate, 2.0)
    state.pev[0, 0] = 1.8
    assert state.aggregate[0] == pytest.approx(3.8)


def test_state_rejects_bad_pev_shape():
    with pytest.raises(ConfigError):
        ScheduleState(fleet=[make_profile()], household_total=np.zeros(24),
                      da_profile=np.zeros(24), pev=np.zeros((2, 24)))


def test_state_rejects_plans_outside_the_window():
    prof = make_profile(user_id=7, arrival_slot=2, departure_slot=4)
    pev = np.zeros((1, N_SLOTS))
    pev[0, 1:4] = 1.2
    ScheduleState(fleet=[prof], household_total=np.zeros(24),
                  da_profile=np.zeros(24), pev=pev)
    pev[0, 4] = 0.5  # slot 5, after departure
    with pytest.raises(ConfigError, match="user 7"):
        ScheduleState(fleet=[prof], household_total=np.zeros(24),
                      da_profile=np.zeros(24), pev=pev)


def test_state_rejects_wrapped_windows():
    wrapped = make_profile(arrival_slot=20, departure_slot=3)
    with pytest.raises(ConfigError, match="wraps"):
        ScheduleState(fleet=[wrapped], household_total=np.zeros(24),
                      da_profile=np.zeros(24))


def test_state_takes_shaped_plans_and_leaves_them_untouched():
    fleet = small_fleet(n=4)
    hh = np.full(N_SLOTS, 3.0)
    shaped = shape_fleet(fleet, hh, water_fill(
        hh, sum(p.required_energy for p in fleet)), ConvergenceSpec())
    plans = shaped.pev.tobytes()
    state = ScheduleState(fleet=fleet, household_total=hh,
                          da_profile=np.zeros(24), pev=shaped.pev)
    best_response_pass(state)
    assert state.pev.tobytes() != plans  # the pass moved the state's copy
    assert shaped.pev.tobytes() == plans and not shaped.pev.flags.writeable
    assert not np.shares_memory(state.pev, shaped.pev)


def test_pass_lp_reads_only_the_realized_history():
    state = ScheduleState(fleet=[make_profile(arrival_slot=2,
                                              departure_slot=6)],
                          household_total=np.zeros(24),
                          da_profile=np.zeros(24))
    state.pev[0, 1:6] = [0.5, 0.6, 0.7, 0.8, 0.9]
    state.realized_upto = 4
    cache = PassCache(state, [0])
    best_response_pass(state, cache=cache)
    lp, held, _, _ = cache.vehicles[0]
    assert lp.free == slice(4, 6)
    assert lp.target == 3.6 - (0.5 + 0.6 + 0.7)
    assert lp.max_prefix == 24.0 - (12.0 + (0.5 + 0.6 + 0.7))
    assert np.shares_memory(held, state.pev[0, 4:6]) and held.size == 2


# ---------------------------------------------------------------------------
# small decision helpers

def test_decide_altering_needs_a_real_divergence():
    assert decide_altering(0.30, 0.03, trigger=2.0)       # spike
    assert decide_altering(0.01, 0.03, trigger=2.0)       # dip
    assert not decide_altering(0.05, 0.03, trigger=2.0)   # within band
    assert not decide_altering(0.03, 0.03, trigger=2.0)   # equal never fires
    assert not decide_altering(0.0, 0.0, trigger=2.0)
    # the trigger's range is run.trigger's, checked by the walk that calls it
    state = ScheduleState(fleet=[], household_total=np.zeros(24),
                          da_profile=np.zeros(24))
    with pytest.raises(ConfigError,
                       match=r"^run.trigger must be > 1, got 1.0$"):
        real_time_walk(state, make_day(), CaseConfig(trigger=1.0))


def test_cap_value_scales_mean_total_demand():
    hh = np.full(N_SLOTS, 10.0)  # 240 kWh/day
    fleet = [make_profile(required_energy=3.6),
             make_profile(user_id=2, required_energy=2.4)]
    cap = cap_value(hh, fleet, kappa=1.5)
    assert cap == 1.5 * (240.0 + 6.0) / 24.0
    # run.kappa's range: a cap at or below the mean demand is refused
    for kappa in (1.0, 0.5, 0.0):
        with pytest.raises(ConfigError,
                           match=rf"^run.kappa must be > 1, got {kappa}$"):
            cap_value(hh, fleet, kappa=kappa)


def test_cap_value_without_kappa_is_no_cap():
    hh = np.full(N_SLOTS, 10.0)
    assert cap_value(hh, [make_profile()], None) is None


def test_connected_users_filters_window_and_history():
    fleet = [make_profile(arrival_slot=1, departure_slot=4),
             make_profile(user_id=2, arrival_slot=6, departure_slot=9)]
    state = ScheduleState(fleet=fleet, household_total=np.zeros(24),
                          da_profile=np.zeros(24))
    assert connected_users(state, 3) == [0]
    assert connected_users(state, 7) == [1]
    assert connected_users(state, 5) == []
    state.realized_upto = 3
    assert connected_users(state, 3) == []  # already realized


# ---------------------------------------------------------------------------
# day-ahead shaping

def test_best_response_fills_the_purchased_valley():
    bid = np.zeros(N_SLOTS)
    bid[[0, 1]] = 5.0
    state = ScheduleState(fleet=[make_profile()],
                          household_total=np.zeros(24), da_profile=bid)
    best_response_pass(state)
    assert np.allclose(state.pev[0, :4], [1.8, 1.8, 0.0, 0.0])


def test_two_users_split_the_purchase_exactly():
    bid = np.zeros(N_SLOTS)
    bid[[0, 1]] = 1.8
    fleet = [make_profile(required_energy=1.8),
             make_profile(user_id=2, required_energy=1.8)]
    state = ScheduleState(fleet=fleet, household_total=np.zeros(24),
                          da_profile=bid)
    trace = shape_day_ahead(state, ConvergenceSpec())
    assert np.allclose(state.aggregate, bid)
    assert len(trace) == 2 and trace[-1] < 1e-6


def test_shaping_respects_demand_cap():
    # nothing purchased: both users are indifferent and would pile onto one
    # slot; the cap forces them apart
    fleet = [make_profile(required_energy=1.8, departure_slot=2),
             make_profile(user_id=2, required_energy=1.8, departure_slot=2)]
    state = ScheduleState(fleet=fleet, household_total=np.zeros(24),
                          da_profile=np.zeros(24))
    shape_day_ahead(state, ConvergenceSpec(), cap=1.8)
    assert np.all(state.aggregate <= 1.8 + 1e-9)
    assert state.aggregate[:2].sum() == pytest.approx(3.6)


def test_shaping_rejects_cap_below_households():
    hh = np.full(24, 3.0)
    hh[6:9] = [5.0, 4.5, 5.5]  # above the cap from slot 7 on
    state = ScheduleState(fleet=[make_profile()], household_total=hh,
                          da_profile=np.zeros(24))
    with pytest.raises(InfeasibleError, match=(
            r"^\[demand cap\] demand cap 4\.000 kWh lies below firm household "
            r"demand of 5\.000 kWh at slot 7$")) as err:
        shape_day_ahead(state, ConvergenceSpec(), cap=4.0)
    assert err.value.constraint == "demand cap"


def test_reference_day_cap_blocked_vehicle_names_the_cap(reference_scenario,
                                                        reference_config):
    # at kappa 1.45 the first sweep leaves user 965 too little head-room;
    # the verdict itself is not proven (ROADMAP item 1), only its label
    sc = reference_scenario
    state = ScheduleState(fleet=list(sc.fleet),
                          household_total=sc.household_total,
                          da_profile=sc.market.da_profile)
    cap = cap_value(sc.household_total, sc.fleet, kappa=1.45)
    with pytest.raises(InfeasibleError) as err:
        shape_day_ahead(state, reference_config.case.conv, cap=cap)
    assert err.value.constraint == "demand cap"
    assert err.value.user_id == 965


def test_shaping_small_fleet_tracks_waterfilled_bid():
    fleet = small_fleet()
    hh = np.full(N_SLOTS, 3.0)
    energy = sum(p.required_energy for p in fleet)
    bid = water_fill(hh, energy)
    state = ScheduleState(fleet=fleet, household_total=hh, da_profile=bid)
    trace = shape_day_ahead(state, ConvergenceSpec())
    assert trace[-1] < 1e-6
    shaped_err = float(np.mean((state.aggregate - bid) ** 2))
    dumb_err = float(np.mean((hh + uncoordinated_profile(fleet) - bid) ** 2))
    assert shaped_err < dumb_err
    for i, p in enumerate(fleet):
        x = state.pev[i]
        assert x.sum() == pytest.approx(p.required_energy, abs=1e-9)
        assert np.all(x <= p.rate + 1e-9) and np.all(x >= -1e-9)
        assert np.count_nonzero(x[p.window]) == np.count_nonzero(x)


# ---------------------------------------------------------------------------
# real-time walk

def spike_day(slot=3, da=0.03, mult=10.0):
    rt = np.full(N_SLOTS, da)
    rt[slot - 1] = mult * da
    return make_day(da=da, rt=rt)


def test_walk_without_divergence_does_nothing():
    state = ScheduleState(fleet=[make_profile(required_energy=0.0, v2g=True,
                                              departure_slot=6)],
                          household_total=np.full(24, 1.0),
                          da_profile=np.full(24, 1.0))
    before = state.pev.copy()
    altered = real_time_walk(state, make_day(), CaseConfig())
    assert altered == []
    assert np.array_equal(state.pev, before)
    assert state.realized_upto == N_SLOTS


def test_walk_spike_triggers_discharge():
    prof = make_profile(required_energy=0.0, v2g=True, departure_slot=6)
    state = ScheduleState(fleet=[prof], household_total=np.full(24, 1.0),
                          da_profile=np.full(24, 1.0))
    altered = real_time_walk(state, spike_day(slot=3),
                             CaseConfig(lam_rt=0.5, t0_term_scale=10.0))
    assert altered == [3]
    x = state.pev[0]
    assert x[2] == pytest.approx(-1.8)          # dumped at the spike
    assert x.sum() == pytest.approx(0.0)        # energy balance kept
    assert np.all(x[:2] == 0.0)                 # realized slots untouched
    assert state.aggregate[2] < 1.0             # below firm demand


def test_walk_dip_attracts_consumption():
    prof = make_profile(arrival_slot=1, departure_slot=6, required_energy=3.6)
    rt = np.full(N_SLOTS, 0.03)
    rt[3] = 0.003  # deep dip at slot 4
    state = ScheduleState(fleet=[prof], household_total=np.full(24, 1.0),
                          da_profile=np.full(24, 1.0))
    altered = real_time_walk(state, make_day(rt=rt),
                             CaseConfig(lam_rt=0.5, t0_term_scale=10.0))
    assert altered == [4]
    assert state.pev[0, 3] == pytest.approx(1.8)


def test_walk_validates_lam():
    state = ScheduleState(fleet=[], household_total=np.zeros(24),
                          da_profile=np.zeros(24))
    with pytest.raises(ConfigError):
        real_time_walk(state, make_day(), CaseConfig(lam_rt=1.5))


# ---------------------------------------------------------------------------
# full day pipeline

def shaped_day(fleet, hh, day, case, cap=None):
    """``simulate_day`` from plans freshly shaped under ``cap`` and
    walked for it."""
    shaped = shape_fleet(fleet, hh, day.da_profile, case.conv, cap=cap)
    return simulate_day(fleet, hh, day, case,
                        walk_fleet(fleet, hh, day, case, shaped))


def test_simulate_day_freezes_pre_walk_aggregate():
    fleet = small_fleet()
    hh = np.full(N_SLOTS, 3.0)
    bid = water_fill(hh, sum(p.required_energy for p in fleet))
    day = MarketDay(da_prices=PriceSeries(np.full(24, 0.03), kind="da"),
                    rt_prices=PriceSeries(np.full(24, 0.03), kind="rt"),
                    da_profile=bid)
    res = shaped_day(fleet, hh, day, CaseConfig())
    assert isinstance(res, DayResult)
    assert res.altered_slots == []
    assert np.array_equal(res.aggregate, res.da_aggregate)
    assert res.da_sweeps == len(res.da_mse_trace)
    assert res.pev.shape == (len(fleet), N_SLOTS)


def test_simulate_day_spike_changes_only_realtime_aggregate():
    fleet = small_fleet()
    hh = np.full(N_SLOTS, 3.0)
    bid = water_fill(hh, sum(p.required_energy for p in fleet))
    rt = np.full(N_SLOTS, 0.03)
    rt[9] = 0.3
    day = MarketDay(da_prices=PriceSeries(np.full(24, 0.03), kind="da"),
                    rt_prices=PriceSeries(rt, kind="rt"), da_profile=bid)
    res = shaped_day(fleet, hh, day,
                     CaseConfig(lam_rt=0.5, t0_term_scale=1000.0))
    assert res.altered_slots == [10]  # the 10x spike fires a trigger of 2
    assert res.aggregate[9] < res.da_aggregate[9]
    # and not one of 20
    held = shaped_day(fleet, hh, day,
                      CaseConfig(t0_term_scale=1000.0, trigger=20.0))
    assert held.altered_slots == []
    assert np.array_equal(held.aggregate, held.da_aggregate)


def test_simulate_day_without_altering_keeps_the_shaped_plans(monkeypatch):
    fleet = small_fleet()
    hh = np.full(N_SLOTS, 3.0)
    day = spike_day(slot=10)
    day.da_profile = water_fill(hh, sum(p.required_energy for p in fleet))
    case = CaseConfig(t0_term_scale=1000.0)
    shaped = shape_fleet(fleet, hh, day.da_profile, case.conv)
    walks = []
    monkeypatch.setattr(coordinator, "real_time_walk",
                        lambda *args, **kwargs: walks.append(args))
    res = simulate_day(fleet, hh, day, case, shaped)
    assert walks == []
    assert res.altered_slots == []
    assert res.pev.tobytes() == shaped.pev.tobytes()
    assert not np.shares_memory(res.pev, shaped.pev)
    assert res.aggregate.tobytes() == res.da_aggregate.tobytes()


def test_walk_fleet_walks_under_the_plans_cap(monkeypatch):
    fleet = small_fleet()
    hh = np.full(N_SLOTS, 3.0)
    day = make_day(purchased=water_fill(
        hh, sum(p.required_energy for p in fleet)))
    cap = cap_value(hh, fleet, kappa=3.0)
    shaped = shape_fleet(fleet, hh, day.da_profile, ConvergenceSpec(),
                         cap=cap)
    walk = coordinator.real_time_walk
    caps = []

    def logged(*args, **kwargs):
        caps.append(kwargs["cap"])
        return walk(*args, **kwargs)

    monkeypatch.setattr(coordinator, "real_time_walk", logged)
    walked = walk_fleet(fleet, hh, day, CaseConfig(), shaped)
    assert caps == [shaped.cap] and cap is not None
    res = simulate_day(fleet, hh, day, CaseConfig(), walked)
    assert caps == [shaped.cap]  # the day walks nothing more
    assert np.all(res.aggregate <= cap + 1e-6)


@pytest.mark.parametrize("case, key", [
    (CaseConfig(t0_term_scale=-1000.0), "run.t0_term_scale"),
    (CaseConfig(lam_rt=1.0), "run.lam_rt"),
    (CaseConfig(trigger=0.5), "run.trigger"),
    (CaseConfig(conv=ConvergenceSpec(max_sweeps=0)), "run.max_sweeps"),
])
def test_simulate_day_refuses_bad_run_settings(monkeypatch, case, key):
    fleet = small_fleet(n=4)
    hh = np.full(N_SLOTS, 3.0)
    day = make_day(purchased=water_fill(
        hh, sum(p.required_energy for p in fleet)))
    shaped = shape_fleet(fleet, hh, day.da_profile, ConvergenceSpec())
    passes = []
    inner = coordinator.best_response_pass

    def counted_pass(*args, **kwargs):
        passes.append(kwargs)
        return inner(*args, **kwargs)

    monkeypatch.setattr(coordinator, "best_response_pass", counted_pass)
    for run in (walk_fleet, simulate_day):
        with pytest.raises(ConfigError, match=key):
            run(fleet, hh, day, case, shaped)
    # refused before the walk's first pass
    assert passes == []


def test_run_settings_have_defaults_only_in_case_config():
    for fn in (simulate_day, real_time_walk, decide_altering):
        params = inspect.signature(fn).parameters
        for name in ("conv", "lam", "lam_rt", "trigger", "t0_term_scale"):
            assert (name not in params
                    or params[name].default is inspect.Parameter.empty), \
                f"{fn.__name__} defaults {name}"


def test_simulate_day_from_shaped_plans_matches_a_fresh_run():
    fleet = small_fleet()
    hh = np.full(N_SLOTS, 3.0)
    bid = water_fill(hh, sum(p.required_energy for p in fleet))
    rt = np.full(N_SLOTS, 0.03)
    rt[9] = 0.3
    day = MarketDay(da_prices=PriceSeries(np.full(24, 0.03), kind="da"),
                    rt_prices=PriceSeries(rt, kind="rt"), da_profile=bid)
    case = CaseConfig(t0_term_scale=1000.0)
    shaped = shape_fleet(fleet, hh, day.da_profile, case.conv)
    first = simulate_day(fleet, hh, day, case, shaped)
    fresh = shaped_day(fleet, hh, day, case)
    reused = simulate_day(fleet, hh, day, case,
                          walk_fleet(fleet, hh, day, case, shaped))
    assert reused.converged and reused.converged == fresh.converged
    assert reused.da_mse_trace == fresh.da_mse_trace
    assert reused.altered_slots == fresh.altered_slots == [10]
    assert np.array_equal(reused.pev, fresh.pev)
    assert np.array_equal(reused.da_aggregate, fresh.da_aggregate)
    assert not np.shares_memory(reused.pev, first.pev)
    assert not np.shares_memory(reused.pev, shaped.pev)
    assert np.array_equal(shaped.pev, first.pev)  # the walk left it alone


@pytest.mark.parametrize("kappa", [None, 3.0])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_given_plans_with_a_non_finite_value_are_refused(kappa, bad):
    fleet = small_fleet(n=4)
    hh = np.full(N_SLOTS, 3.0)
    day = spike_day(slot=10)
    day.da_profile = water_fill(hh, sum(p.required_energy for p in fleet))
    case = CaseConfig(kappa=kappa)
    shaped = shape_fleet(fleet, hh, day.da_profile, case.conv,
                         cap=cap_value(hh, fleet, kappa))
    pev = shaped.pev.copy()
    pev[1, fleet[1].window.start] = bad  # one window slot of user 2
    bad_shaped = ShapedPlans(pev=pev, mse_trace=shaped.mse_trace,
                             cap=shaped.cap)
    bad_walked = WalkedPlans(shaped=shaped, pev=pev, altered_slots=(10,))
    message = f"user {fleet[1].user_id}: plan has a non-finite value"
    for run, plans in ((walk_fleet, bad_shaped), (simulate_day, bad_shaped),
                       (simulate_day, bad_walked)):
        with pytest.raises(ConfigError, match=message):
            run(fleet, hh, day, case, plans)


def test_convergence_spec_validation():
    with pytest.raises(ConfigError):
        ConvergenceSpec(max_sweeps=0).validate()
    with pytest.raises(ConfigError):
        ConvergenceSpec(mse_tol=0.0).validate()


@pytest.mark.parametrize("field", ["max_sweeps", "mse_tol"])
def test_convergence_spec_rejects_nan(field):
    with pytest.raises(ConfigError, match=f"run.{field} must be"):
        ConvergenceSpec(**{field: float("nan")}).validate()
