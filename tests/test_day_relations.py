"""Whole-day relations, each checked bit for bit on the reference day and
the 200-vehicle half-V2G day: a day changed in a way that must not move a
plan gives the same plans, and its costs follow from the first day's.

* Doubling every day-ahead and real-time price (exact in binary) doubles
  every case cost and changes no plan, aggregate, purchase or altered slot.
* Renaming every ``user_id`` changes nothing.
* A cap that never binds (kappa = 1e6), shaped in the forked worker, gives
  case 4 the plans, aggregate, purchase, cost and trace of case 3.
"""

import dataclasses
import os

import pytest

from conftest import REFERENCE_YAML
from test_report import keep_days, log_shaping_pids
from test_v2g_fleet import half_v2g_config

from fleetdr.market import MarketDay, PriceSeries
from fleetdr.report import run_cases
from fleetdr.scenario import build_scenario, load_config


def run_day(fleet, household_total, market, case, monkeypatch):
    """The day's case comparison and the ``DayResult`` of cases 2-4."""
    with monkeypatch.context() as patch:
        days = keep_days(patch)
        comparison = run_cases(fleet, household_total, market, case)
    return comparison, days


@pytest.fixture(scope="module", params=["reference", "half_v2g"])
def day(request):
    cfg = (load_config(REFERENCE_YAML) if request.param == "reference"
           else half_v2g_config(200))
    sc = build_scenario(cfg)
    patch = pytest.MonkeyPatch()
    try:
        yield (sc, cfg.case,
               *run_day(sc.fleet, sc.household_total, sc.market, cfg.case,
                        patch))
    finally:
        patch.undo()


def assert_same_plans(got, want):
    """The same plans, aggregates, purchases, traces and altered slots,
    bit for bit, for two results of cases 2-4 (``DayResult``s) or 1-4
    (``CaseResult``s)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in ("pev", "aggregate", "da_aggregate", "purchased"):
            if hasattr(w, name):
                assert (getattr(g, name).tobytes()
                        == getattr(w, name).tobytes()), name
        assert g.da_mse_trace == w.da_mse_trace
        assert g.altered_slots == w.altered_slots
        assert g.converged == w.converged


def test_doubling_every_price_doubles_every_cost(day, monkeypatch):
    sc, case, comparison, days = day
    market = sc.market
    doubled = MarketDay(
        da_prices=PriceSeries(2.0 * market.da_prices.values, kind="da"),
        rt_prices=PriceSeries(2.0 * market.rt_prices.values, kind="rt"),
        da_profile=market.da_profile)
    got, got_days = run_day(sc.fleet, sc.household_total, doubled, case,
                            monkeypatch)
    assert_same_plans(got_days, days)
    assert_same_plans(got.results, comparison.results)
    for g, w in zip(got.results, comparison.results):
        assert (g.cost.da_cost, g.cost.rt_cost, g.total_cost) == (
            2.0 * w.cost.da_cost, 2.0 * w.cost.rt_cost, 2.0 * w.total_cost)
    assert got.deltas == {k: 2.0 * v for k, v in comparison.deltas.items()}


def test_renaming_every_user_changes_no_plan(day, monkeypatch):
    sc, case, comparison, days = day
    renamed = [dataclasses.replace(p, user_id=10 ** 9 - p.user_id)
               for p in sc.fleet]
    got, got_days = run_day(renamed, sc.household_total, sc.market, case,
                            monkeypatch)
    assert_same_plans(got_days, days)
    assert_same_plans(got.results, comparison.results)
    assert [r.cost for r in got.results] == [
        r.cost for r in comparison.results]


def test_a_cap_that_never_binds_makes_case_4_case_3(day, monkeypatch,
                                                     event_log):
    sc, case, comparison, days = day
    log_shaping_pids(monkeypatch, event_log)
    got, got_days = run_day(sc.fleet, sc.household_total, sc.market,
                            dataclasses.replace(case, kappa=1.0e6),
                            monkeypatch)
    # the capped shaping ran in the forked worker
    assert len(set(event_log.values("shaped in")) - {os.getpid()}) == 1
    assert_same_plans(got_days[2:], got_days[1:2])
    assert_same_plans(got.results[3:], got.results[2:3])
    assert got.get(4).cost == got.get(3).cost
    # and case 3 is the day's own case 3
    assert_same_plans(got_days[1:2], days[1:2])
    assert got.get(3).cost == comparison.get(3).cost
