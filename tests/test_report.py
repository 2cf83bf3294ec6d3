import csv
import dataclasses
import json
import os
import pickle

import numpy as np
import pytest

from conftest import REFERENCE_YAML
from test_v2g_fleet import half_v2g_config

import fleetdr.coordinator as coordinator
import fleetdr.report as report
from fleetdr.coordinator import (ConvergenceSpec, DayResult, ScheduleState,
                                 cap_value, shape_day_ahead, shape_fleet,
                                 simulate_day)
from fleetdr.errors import ConfigError, DataError, InfeasibleError
from fleetdr.fleet import Dist, FleetSpec, N_SLOTS, sample_fleet
from fleetdr.market import (
    CostBreakdown,
    MarketDay,
    MarketSpec,
    SpikeSpec,
    procurement_cost,
    synth_prices,
    water_fill,
)
from fleetdr.report import (
    AGGREGATE_CSV_HEADER,
    CASE_LABELS,
    COSTS_CSV_HEADER,
    CaseConfig,
    CaseComparison,
    CaseResult,
    emit,
    run_cases,
)
from fleetdr.scenario import build_scenario, load_config


def small_fleet(n=40, seed=6, v2g=0.0):
    spec = FleetSpec(
        n_users=n, capacity_kwh=24.0, rate_kw=1.8, v2g_fraction=v2g,
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


def build_inputs(spike=True, seed=6):
    fleet = small_fleet(seed=seed)
    hh = np.full(N_SLOTS, 30.0)
    spec = MarketSpec(rt_noise_sigma=0.0,
                      spike=SpikeSpec(slot=10, multiplier=10.0) if spike
                      else None)
    da, rt = synth_prices(spec, seed)
    bid = water_fill(hh, sum(p.required_energy for p in fleet))
    market = MarketDay(da_prices=da, rt_prices=rt, da_profile=bid)
    return fleet, hh, market


# ---------------------------------------------------------------------------
# configuration and result containers

def test_case_config_validation():
    CaseConfig().validate()
    CaseConfig(kappa=1.5).validate()
    with pytest.raises(ConfigError):
        CaseConfig(kappa=1.0).validate()
    with pytest.raises(ConfigError):
        CaseConfig(lam_rt=1.0).validate()
    with pytest.raises(ConfigError):
        CaseConfig(trigger=1.0).validate()
    with pytest.raises(ConfigError):
        CaseConfig(t0_term_scale=0.0).validate()
    with pytest.raises(ConfigError):
        CaseConfig(conv=ConvergenceSpec(max_sweeps=0)).validate()


@pytest.mark.parametrize("field,why", [
    ("kappa", "kappa must be > 1"),
    ("lam_rt", "lam_rt must be in"),
    ("trigger", "trigger must be > 1"),
    ("t0_term_scale", "t0_term_scale must be positive"),
])
def test_case_config_rejects_nan(field, why):
    with pytest.raises(ConfigError, match=why):
        CaseConfig(**{field: float("nan")}).validate()


def test_case_result_properties():
    agg = np.zeros(N_SLOTS)
    agg[7] = 42.0
    r = CaseResult(case=2, label=CASE_LABELS[2],
                   cost=CostBreakdown(da_cost=10.0, rt_cost=-2.5),
                   aggregate=agg, purchased=agg.copy(),
                   da_mse_trace=[0.6, 1e-9], altered_slots=[10])
    assert r.total_cost == pytest.approx(7.5)
    assert r.peak_kwh == pytest.approx(42.0)
    assert r.peak_slot == 8
    assert r.sweeps == 2


def test_comparison_get():
    r = CaseResult(1, CASE_LABELS[1], CostBreakdown(0.0, 0.0),
                   np.zeros(N_SLOTS), np.zeros(N_SLOTS), [], [])
    comp = CaseComparison(results=[r], deltas={})
    assert comp.get(1) is r
    with pytest.raises(KeyError):
        comp.get(3)


# ---------------------------------------------------------------------------
# the four-case run

def test_run_cases_structure_and_deltas():
    fleet, hh, market = build_inputs()
    comp = run_cases(fleet, hh, market, CaseConfig(kappa=1.5,
                                                   t0_term_scale=1000.0))
    assert [r.case for r in comp.results] == [1, 2, 3, 4]
    assert [r.label for r in comp.results] == [CASE_LABELS[c]
                                               for c in (1, 2, 3, 4)]
    for (i, j), v in comp.deltas.items():
        assert v == pytest.approx(comp.get(i).total_cost
                                  - comp.get(j).total_cost)
    assert len(comp.deltas) == 6


def test_run_cases_case1_buys_everything_realtime():
    fleet, hh, market = build_inputs()
    comp = run_cases(fleet, hh, market)
    c1 = comp.get(1)
    assert np.all(c1.purchased == 0.0)
    assert c1.cost.da_cost == 0.0
    assert c1.sweeps == 0 and c1.altered_slots == []


def test_run_cases_coordinated_cases_buy_their_shaped_profile():
    fleet, hh, market = build_inputs()
    comp = run_cases(fleet, hh, market, CaseConfig(t0_term_scale=1000.0))
    for case in (2, 3, 4):
        r = comp.get(case)
        recomputed = procurement_cost(
            MarketDay(da_prices=market.da_prices, rt_prices=market.rt_prices,
                      da_profile=r.purchased), r.aggregate)
        assert r.total_cost == pytest.approx(recomputed.total, abs=1e-9)
    # without altering, case 2 consumes exactly its purchase
    assert np.array_equal(comp.get(2).aggregate, comp.get(2).purchased)


def test_run_cases_shaping_improves_bid_tracking():
    fleet, hh, market = build_inputs()
    comp = run_cases(fleet, hh, market)
    shaped = np.mean((comp.get(2).purchased - market.da_profile) ** 2)
    dumb = np.mean((comp.get(1).aggregate - market.da_profile) ** 2)
    assert shaped < dumb


def test_run_cases_flat_prices_make_altering_a_no_op():
    fleet, hh, market = build_inputs(spike=False)
    comp = run_cases(fleet, hh, market)
    assert comp.get(3).altered_slots == []
    assert comp.get(3).total_cost == comp.get(2).total_cost
    assert np.array_equal(comp.get(3).aggregate, comp.get(2).aggregate)


def test_run_cases_no_kappa_degenerates_case4_to_case3():
    fleet, hh, market = build_inputs()
    comp = run_cases(fleet, hh, market, CaseConfig(t0_term_scale=1000.0))
    assert comp.get(4).total_cost == comp.get(3).total_cost
    assert np.array_equal(comp.get(4).aggregate, comp.get(3).aggregate)
    assert comp.deltas[(3, 4)] == 0.0


@pytest.mark.parametrize("field, value", [
    ("arrival_slot", 0), ("departure_slot", 25), ("capacity", -5.0),
    ("user_id", 0), ("rate", 0.0), ("required_energy", float("nan")),
    ("arrival_slot", 2**70)])
def test_run_cases_refuses_a_hand_built_profile_validate_rejects(field,
                                                                 value):
    fleet, hh, market = build_inputs()
    fleet[3] = dataclasses.replace(fleet[3], **{field: value})
    with pytest.raises(ConfigError) as expected:
        fleet[3].validate()
    with pytest.raises(ConfigError) as err:
        run_cases(fleet, hh, market, CaseConfig(kappa=3.0))
    assert str(err.value) == str(expected.value)


def test_run_cases_cap_binds_case4():
    fleet, hh, market = build_inputs()
    cfg = CaseConfig(kappa=1.5, t0_term_scale=1000.0)
    comp = run_cases(fleet, hh, market, cfg)
    cap = cap_value(hh, fleet, 1.5)
    assert np.all(comp.get(4).aggregate <= cap + 1e-6)


# ---------------------------------------------------------------------------
# one shaping per distinct cap

def count_shapings(monkeypatch, event_log):
    """Log the cap of every ``shape_day_ahead`` call the coordinator makes,
    in this process or a worker it forks, under ``"shape"``."""
    shape = coordinator.shape_day_ahead

    def counted(state, conv, *, cap=None):
        event_log.add("shape", cap)
        return shape(state, conv, cap=cap)

    monkeypatch.setattr(coordinator, "shape_day_ahead", counted)
    return event_log


def keep_days(monkeypatch, plans=None):
    """Keep the ``DayResult`` of every case ``run_cases`` simulates, and
    append the ``ShapedPlans`` each walks from to ``plans``."""
    days = []
    plans = [] if plans is None else plans
    simulate_day = report.simulate_day

    def kept(fleet, hh, market, case, shaped, **kwargs):
        plans.append(shaped)
        days.append(simulate_day(fleet, hh, market, case, shaped, **kwargs))
        return days[-1]

    monkeypatch.setattr(report, "simulate_day", kept)
    return days


def test_run_cases_shapes_once_per_distinct_cap(monkeypatch, event_log):
    fleet, hh, market = build_inputs()
    log = count_shapings(monkeypatch, event_log)
    run_cases(fleet, hh, market, CaseConfig(kappa=1.5, t0_term_scale=1000.0))
    caps = log.values("shape")
    assert caps == [None, cap_value(hh, fleet, 1.5)]
    log.clear()
    run_cases(fleet, hh, market, CaseConfig(t0_term_scale=1000.0))
    caps = log.values("shape")
    assert caps == [None]


def test_run_cases_uncapped_cases_share_one_shaping(monkeypatch):
    fleet, hh, market = build_inputs()
    plans = []
    days = keep_days(monkeypatch, plans)
    comp = run_cases(fleet, hh, market,
                     CaseConfig(kappa=1.5, t0_term_scale=1000.0))
    assert len(days) == 3
    c2, c3 = comp.get(2), comp.get(3)
    assert c2.da_mse_trace == c3.da_mse_trace
    assert np.array_equal(c2.purchased, c3.purchased)
    assert plans[0] is plans[1]
    assert plans[2] is not plans[0]
    assert c3.altered_slots  # the spike moved case 3 off the shared plans
    assert not np.array_equal(days[0].pev, days[1].pev)


def test_run_cases_day_plans_do_not_alias(monkeypatch):
    fleet, hh, market = build_inputs()
    plans = []
    days = keep_days(monkeypatch, plans)
    run_cases(fleet, hh, market, CaseConfig(t0_term_scale=1000.0))
    assert len(days) == 3
    before = [day.pev.copy() for day in days]
    for i, day in enumerate(days):
        day.pev += 100.0 * (i + 1)
        for j, other in enumerate(days):
            if j != i:
                assert np.array_equal(other.pev, before[j]), \
                    f"writing case {i + 2}'s plans changed case {j + 2}'s"
        day.pev[:] = before[i]
    # the shared shaped plans are read-only, so no walk can write into them
    with pytest.raises(ValueError):
        plans[0].pev[0, 0] = 1.0


def test_small_v2g_day_reports_running_out_of_sweeps(tmp_path):
    fleet = small_fleet(n=20, seed=4, v2g=0.5)
    hh = np.full(N_SLOTS, 30.0)
    da, rt = synth_prices(MarketSpec(rt_noise_sigma=0.0,
                                     spike=SpikeSpec(slot=10)), 4)
    bid = water_fill(hh, sum(p.required_energy for p in fleet))
    market = MarketDay(da_prices=da, rt_prices=rt, da_profile=bid)
    conv = ConvergenceSpec(max_sweeps=10, mse_tol=1e-6)
    comp = run_cases(fleet, hh, market,
                     CaseConfig(t0_term_scale=1000.0, conv=conv))
    for case in (2, 3, 4):
        r = comp.get(case)
        assert r.sweeps == conv.max_sweeps
        assert r.da_mse_trace[-1] >= conv.mse_tol
        assert r.converged is False
    emit(comp, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [c["converged"] for c in summary["cases"]] == [
        None, False, False, False]


# ---------------------------------------------------------------------------
# the capped shaping's forked worker

def log_shaping_pids(monkeypatch, event_log):
    """Log the process of every ``shape_day_ahead`` call under
    ``"shaped in"``."""
    shape = coordinator.shape_day_ahead

    def logged(state, conv, *, cap=None):
        event_log.add("shaped in", os.getpid())
        return shape(state, conv, cap=cap)

    monkeypatch.setattr(coordinator, "shape_day_ahead", logged)


def serial_days(sc, case):
    """Cases 2-4 as ``simulate_day`` runs in this process, each from plans
    of its own ``shape_fleet`` call."""
    cap = cap_value(sc.household_total, sc.fleet, case.kappa)
    return [simulate_day(sc.fleet, sc.household_total, sc.market, case,
                         shape_fleet(sc.fleet, sc.household_total,
                                     sc.market.da_profile, case.conv,
                                     cap=day_cap),
                         altering=altering)
            for altering, day_cap in ((False, None), (True, None),
                                      (True, cap))]


@pytest.mark.parametrize("config", [
    pytest.param(lambda: load_config(REFERENCE_YAML), id="reference"),
    pytest.param(lambda: half_v2g_config(200), id="half_v2g_200"),
])
def test_forked_cases_match_serial_days_bit_for_bit(config, monkeypatch,
                                                    event_log):
    cfg = config()
    sc = build_scenario(cfg)
    log_shaping_pids(monkeypatch, event_log)
    plans = []
    days = keep_days(monkeypatch, plans)
    run_cases(sc.fleet, sc.household_total, sc.market, cfg.case)
    # the capped shaping ran in another process
    assert event_log.values("shaped in")[0] == os.getpid()
    assert len(set(event_log.values("shaped in"))) == 2
    assert len(days) == 3
    # the worker's plans come back read-only, as in-process ones are
    assert not plans[2].pev.flags.writeable
    for case, got, want in zip((2, 3, 4), days, serial_days(sc, cfg.case)):
        for name in ("pev", "aggregate", "da_aggregate"):
            assert (getattr(got, name).tobytes()
                    == getattr(want, name).tobytes()), f"case {case} {name}"
        assert got.da_mse_trace == want.da_mse_trace, f"case {case}"
        assert got.altered_slots == want.altered_slots, f"case {case}"
        assert got.converged == want.converged, f"case {case}"


@pytest.mark.filterwarnings("error")  # else pytest keeps them off fd 2
def test_a_capped_day_writes_nothing_to_stdout_or_stderr(capfd, monkeypatch,
                                                        event_log):
    # the benchmark reads its result from the last line of its stdout
    cfg = load_config(REFERENCE_YAML)
    cfg.fleet.n_users = 20
    cfg.seed = 3  # a 20-vehicle day clear of the false cap verdict
    sc = build_scenario(cfg)
    log_shaping_pids(monkeypatch, event_log)
    capfd.readouterr()
    run_cases(sc.fleet, sc.household_total, sc.market, cfg.case)
    assert capfd.readouterr() == ("", "")  # the worker's fds are captured too
    assert len(set(event_log.values("shaped in"))) == 2


def test_a_false_verdict_in_the_worker_reaches_the_caller_unchanged():
    # the 100-vehicle half-V2G day's first capped sweep refuses user 98
    cfg = half_v2g_config(100)
    sc = build_scenario(cfg)
    state = ScheduleState(fleet=list(sc.fleet),
                          household_total=sc.household_total,
                          da_profile=sc.market.da_profile)
    cap = cap_value(sc.household_total, sc.fleet, cfg.case.kappa)
    with pytest.raises(InfeasibleError) as serial:
        shape_day_ahead(state, cfg.case.conv, cap=cap)
    with pytest.raises(InfeasibleError) as forked:
        run_cases(sc.fleet, sc.household_total, sc.market, cfg.case)

    def fields(err):
        return str(err), err.user_id, err.constraint, err.detail

    assert serial.value.user_id == 98
    assert serial.value.constraint == "demand cap"
    assert fields(forked.value) == fields(serial.value)
    assert fields(pickle.loads(pickle.dumps(serial.value))) == fields(
        serial.value)


def raise_local():
    class Local(Exception):  # a class pickle cannot find by name
        pass

    raise Local("no pickle")


def exit_3():
    raise SystemExit(3)


def test_a_worker_exception_comes_back_to_the_caller():
    with report._forked(raise_local) as collect:
        with pytest.raises(RuntimeError, match=r"Local\('no pickle'\)"):
            collect()
    with report._forked(exit_3) as collect:
        with pytest.raises(SystemExit) as err:
            collect()
    assert err.value.code == 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def reference_inputs():
    sc = build_scenario(load_config(REFERENCE_YAML))
    return sc.fleet, sc.household_total, sc.market


@pytest.mark.parametrize("inputs", [
    pytest.param(build_inputs, id="fits_the_pipe"),
    # 1,000 plans outgrow the pipe, so the worker blocks writing them
    pytest.param(reference_inputs, id="fills_the_pipe"),
])
def test_a_failing_case_leaves_no_worker(inputs, monkeypatch):
    fleet, hh, market = inputs()
    walk = coordinator.real_time_walk
    walks = []

    def walk_fails_in_case_3(*args, **kwargs):
        walks.append(kwargs["cap"])
        if len(walks) == 1:  # case 2 does not walk
            raise RuntimeError("case 3 failed")
        return walk(*args, **kwargs)

    monkeypatch.setattr(coordinator, "real_time_walk", walk_fails_in_case_3)
    with pytest.raises(RuntimeError, match="case 3 failed"):
        run_cases(fleet, hh, market,
                  CaseConfig(kappa=1.5, t0_term_scale=1000.0))
    assert walks == [None]  # case 3's uncapped walk
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_without_fork_every_case_runs_in_process(monkeypatch, event_log):
    fleet, hh, market = build_inputs()
    config = CaseConfig(kappa=1.5, t0_term_scale=1000.0)
    forked = run_cases(fleet, hh, market, config)
    log_shaping_pids(monkeypatch, event_log)
    monkeypatch.delattr(os, "fork")
    in_process = run_cases(fleet, hh, market, config)
    assert event_log.values("shaped in") == [os.getpid()] * 2
    for a, b in zip(forked.results, in_process.results):
        assert a.aggregate.tobytes() == b.aggregate.tobytes()
        assert a.purchased.tobytes() == b.purchased.tobytes()
        assert (a.total_cost, a.da_mse_trace, a.altered_slots, a.converged) \
            == (b.total_cost, b.da_mse_trace, b.altered_slots, b.converged)
    assert forked.deltas == in_process.deltas


def test_no_cap_forks_no_worker(monkeypatch):
    def no_fork():
        raise AssertionError("forked without a cap")

    monkeypatch.setattr(os, "fork", no_fork)
    comp = run_cases(*build_inputs(), CaseConfig(t0_term_scale=1000.0))
    assert comp.get(4).total_cost == comp.get(3).total_cost


# ---------------------------------------------------------------------------
# artifact emission

def fake_comparison():
    rng = np.random.default_rng(0)
    results = []
    for case in (1, 2, 3, 4):
        agg = np.abs(rng.normal(30.0, 5.0, N_SLOTS))
        buy = np.abs(rng.normal(30.0, 5.0, N_SLOTS)) if case > 1 \
            else np.zeros(N_SLOTS)
        results.append(CaseResult(
            case, CASE_LABELS[case],
            CostBreakdown(da_cost=float(case), rt_cost=0.5),
            agg, buy, [0.5] if case > 1 else [], [10] if case == 3 else []))
    deltas = {(a.case, b.case): a.total_cost - b.total_cost
              for i, a in enumerate(results) for b in results[i + 1:]}
    return CaseComparison(results=results, deltas=deltas)


def test_emit_comparison_files_and_headers(tmp_path):
    comp = fake_comparison()
    written = emit(comp, tmp_path, meta={"seed": 7})
    names = [p.split("/")[-1] for p in written]
    assert names == ["case_costs.csv", "aggregate_1.csv", "aggregate_2.csv",
                     "aggregate_3.csv", "aggregate_4.csv", "mse_trace.csv",
                     "summary.json"]
    with open(tmp_path / "case_costs.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == COSTS_CSV_HEADER
    assert len(rows) == 5
    with open(tmp_path / "aggregate_2.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == AGGREGATE_CSV_HEADER and len(rows) == 25
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert {c["case"] for c in summary["cases"]} == {1, 2, 3, 4}
    assert set(summary["deltas_usd"]) == {"1-2", "1-3", "1-4",
                                          "2-3", "2-4", "3-4"}
    assert summary["meta"] == {"seed": 7}


def test_emit_is_deterministic(tmp_path):
    comp = fake_comparison()
    emit(comp, tmp_path / "a", meta={"seed": 7})
    emit(comp, tmp_path / "b", meta={"seed": 7})
    for name in ("case_costs.csv", "aggregate_3.csv", "mse_trace.csv",
                 "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_emit_rejects_empty_results(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(DataError, match="empty"):
        emit(CaseComparison(results=[], deltas={}), out)
    assert not out.exists()  # nothing written before the failure
    with pytest.raises(DataError):
        emit("not a result", out)


def test_emit_rejects_nonfinite_profiles(tmp_path):
    comp = fake_comparison()
    comp.results[2].aggregate[5] = np.nan
    out = tmp_path / "out"
    with pytest.raises(DataError, match="case 3"):
        emit(comp, out)
    assert not out.exists()


def test_emit_day_result(tmp_path):
    day = DayResult(pev=np.zeros((3, N_SLOTS)),
                    aggregate=np.full(N_SLOTS, 12.0),
                    da_aggregate=np.full(N_SLOTS, 11.0),
                    da_mse_trace=[0.4, 1e-8], altered_slots=[10],
                    converged=True)
    written = emit(day, tmp_path)
    names = [p.split("/")[-1] for p in written]
    assert names == ["aggregate.csv", "mse_trace.csv", "summary.json"]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["sweeps"] == 2
    assert summary["converged"] is True
    assert summary["altered_slots"] == [10]
    assert summary["peak_kwh"] == pytest.approx(12.0)


def test_emit_rejects_a_day_with_no_vehicles(tmp_path):
    day = DayResult(pev=np.zeros((0, N_SLOTS)),
                    aggregate=np.full(N_SLOTS, 12.0),
                    da_aggregate=np.full(N_SLOTS, 12.0),
                    da_mse_trace=[1e-8], altered_slots=[], converged=True)
    out = tmp_path / "out"
    with pytest.raises(DataError, match="empty day result: no vehicles"):
        emit(day, out)
    assert not out.exists()


def test_emitted_costs_match_recomputation_from_files(tmp_path):
    # the numbers on disk must stand on their own: prices times the emitted
    # profiles reproduce the reported cost of every case
    fleet, hh, market = build_inputs()
    comp = run_cases(fleet, hh, market, CaseConfig(kappa=1.5,
                                                   t0_term_scale=1000.0))
    emit(comp, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    for entry in summary["cases"]:
        with open(tmp_path / f"aggregate_{entry['case']}.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        actual = np.array([float(r[1]) for r in rows])
        purchased = np.array([float(r[2]) for r in rows])
        cost = procurement_cost(
            MarketDay(da_prices=market.da_prices, rt_prices=market.rt_prices,
                      da_profile=purchased), actual)
        assert cost.total == pytest.approx(entry["cost_usd"], abs=1e-3)
