"""End-to-end acceptance checks, one test per criterion.

Each test prints a single verdict line (visible under -v as the test
outcome) and pins its tolerances as module constants. The reference
scenario in configs/reference.yaml is the fixed 1000-vehicle day all the
aggregate-level checks run against.
"""

import hashlib
import os
import time

import numpy as np

from conftest import REFERENCE_YAML, audit_plan, check_feasible
from oracles import brute_force_oracle

from fleetdr.cli import cmd_compare_cases
from fleetdr.coordinator import (ScheduleState, cap_value, shape_day_ahead,
                                 shape_fleet, simulate_day, walk_fleet)
from fleetdr.errors import InfeasibleError
from fleetdr.fleet import N_SLOTS, uncoordinated_profile
from fleetdr.market import MarketDay, procurement_cost
from fleetdr.scenario import connection_counts, load_config
from fleetdr.subproblem import UserSubproblem, solve

GRID_STEP = 0.1            # kWh lattice for the oracle cross-check
FEAS_TOL_KWH = 1e-6        # schedule constraint slack
CAP_TOL_KWH = 1e-6         # demand-cap slack
CONV_TOL = 1e-6            # sweep-to-sweep MSE change at convergence
COST_REL_TOL = 1e-9        # settlement linearity, relative
ORACLE_BUDGET_S = 30.0
SHAPING_BUDGET_S = 60.0


def report(n, detail):
    print(f"criterion {n}: PASS - {detail}")


# ---------------------------------------------------------------------------
# criterion 1: production solver vs. dynamic-programming oracle

def oracle_instance(rng):
    k = int(rng.integers(1, 7))
    slots = sorted(int(s) + 1 for s in rng.choice(N_SLOTS, k, replace=False))
    v2g = bool(rng.random() < 0.5)
    lo = np.full(k, -1.8 if v2g else 0.0)
    up = np.full(k, 1.8)
    if rng.random() < 0.5:  # congestion cap tightening some slots
        up = np.maximum(np.minimum(up, rng.integers(0, 19, k) * GRID_STEP), lo)
    span = (int(round(lo.sum() / GRID_STEP)), int(round(up.sum() / GRID_STEP)))
    target = float(rng.integers(span[0] - 3, span[1] + 4)) * GRID_STEP
    min_prefix = -float(rng.integers(0, 60)) * GRID_STEP
    if rng.random() < 0.1:
        min_prefix = float(rng.integers(0, 5)) * GRID_STEP
    max_prefix = (min_prefix + float(rng.integers(5, 80)) * GRID_STEP
                  if rng.random() < 0.5 else np.inf)
    return UserSubproblem(user_id=int(rng.integers(1, 2000)), first=slots[0],
                          coeff=rng.normal(0.0, 2.0, k), lo=lo, up=up,
                          target=target, min_prefix=min_prefix,
                          max_prefix=max_prefix)


def attempt(fn, sub, *args):
    try:
        return fn(sub, *args)
    except InfeasibleError:
        return None


def test_criterion_1_solver_matches_oracle_battery():
    rng = np.random.default_rng(314159)
    start = time.perf_counter()
    n_checked = n_feasible = n_infeasible = 0
    for _ in range(140):
        sub = oracle_instance(rng)
        got = attempt(solve, sub)
        want = attempt(brute_force_oracle, sub, GRID_STEP)
        assert (got is None) == (want is None), \
            f"feasibility verdicts disagree on {sub}"
        n_checked += 1
        if got is None:
            n_infeasible += 1
            continue
        n_feasible += 1
        assert check_feasible(sub, got.x) == []
        bound = GRID_STEP * float(np.abs(sub.coeff).sum())
        assert abs(got.objective - want.objective) <= bound + 1e-12, \
            f"objectives {got.objective} vs {want.objective} differ by " \
            f"more than {bound}"
    elapsed = time.perf_counter() - start
    assert n_checked >= 100
    assert n_feasible >= 40 and n_infeasible >= 10
    assert elapsed < ORACLE_BUDGET_S
    report(1, f"{n_checked} instances ({n_feasible} feasible, "
              f"{n_infeasible} infeasible) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: every final schedule is physically legal

def test_criterion_2_full_fleet_schedules_obey_constraints(reference_config,
                                                           reference_scenario):
    sc = reference_scenario
    cfg = reference_config
    cap = cap_value(sc.household_total, sc.fleet, cfg.case.kappa)
    shaped = shape_fleet(sc.fleet, sc.household_total, sc.market.da_profile,
                         cfg.case.conv, cap=cap)
    walked = walk_fleet(sc.fleet, sc.household_total, sc.market, cfg.case,
                        shaped)
    day = simulate_day(sc.fleet, sc.household_total, sc.market, cfg.case,
                       walked)
    assert day.altered_slots == [10]  # the audited plans were walked
    assert day.pev.shape == (1000, N_SLOTS)
    for prof, x in zip(sc.fleet, day.pev):
        audit_plan(prof, x, f"user {prof.user_id}", FEAS_TOL_KWH)
    report(2, f"1000 schedules clean within {FEAS_TOL_KWH} kWh")


# ---------------------------------------------------------------------------
# criterion 3: day-ahead shaping converges in two sweeps

def test_criterion_3_shaping_converges_within_two_sweeps(reference_scenario):
    sc = reference_scenario
    state = ScheduleState(fleet=sc.fleet, household_total=sc.household_total,
                          da_profile=sc.market.da_profile)
    start = time.perf_counter()
    trace = shape_day_ahead(state, sc.config.case.conv)
    elapsed = time.perf_counter() - start
    assert len(trace) <= 2, f"took {len(trace)} sweeps: {trace}"
    assert trace[-1] < CONV_TOL
    assert elapsed < SHAPING_BUDGET_S
    report(3, f"settled in {len(trace)} sweeps "
              f"(last change {trace[-1]:.3g}) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: shaping at least halves the tracking error

def test_criterion_4_shaped_tracking_error_halved(reference_scenario,
                                                  reference_cases):
    sc = reference_scenario
    bid = sc.market.da_profile
    shaped = float(np.mean((reference_cases.get(2).purchased - bid) ** 2))
    dumb = float(np.mean(
        (sc.household_total + uncoordinated_profile(sc.fleet) - bid) ** 2))
    assert shaped <= 0.5 * dumb, f"shaped {shaped:.1f} vs dumb {dumb:.1f}"
    report(4, f"tracking MSE {shaped:.1f} vs uncoordinated {dumb:.1f} "
              f"({shaped / dumb:.1%})")


# ---------------------------------------------------------------------------
# criterion 5: altering bites at the spike

def test_criterion_5_spike_slot_demand_drops(reference_scenario,
                                             reference_cases):
    sc = reference_scenario
    spike = sc.config.market_synth.spike.slot
    da = sc.market.da_prices[spike]
    rt = sc.market.rt_prices[spike]
    assert rt >= 5.0 * da, f"spike ratio only {rt / da:.1f}x"
    wall_hour = (sc.config.fleet.day_start_hour + spike - 1) % 24
    assert 17 <= wall_hour <= 23, f"spike at {wall_hour}:00 is not evening"
    connected_share = connection_counts(sc.fleet)[spike - 1] / len(sc.fleet)
    assert connected_share >= 0.35
    before = reference_cases.get(2).aggregate[spike - 1]
    after = reference_cases.get(3).aggregate[spike - 1]
    drop = (before - after) / before
    assert drop >= 0.20, f"spike-slot demand only dropped {drop:.1%}"
    report(5, f"{before:.0f} -> {after:.0f} kWh at slot {spike} "
              f"({drop:.1%} drop, {connected_share:.0%} connected)")


# ---------------------------------------------------------------------------
# criterion 6: the demand cap binds and is honored

def test_criterion_6_cap_honored_and_binding(reference_scenario,
                                             reference_cases):
    sc = reference_scenario
    cap = cap_value(sc.household_total, sc.fleet, sc.config.case.kappa)
    spike = sc.config.market_synth.spike.slot
    capped = reference_cases.get(4)
    free = reference_cases.get(3)
    assert np.all(capped.aggregate <= cap + CAP_TOL_KWH), \
        f"cap {cap:.1f} exceeded by {float((capped.aggregate - cap).max()):.3g}"
    assert capped.aggregate[spike - 1] > free.aggregate[spike - 1], \
        "cap did not limit the spike response"
    assert capped.total_cost >= free.total_cost
    report(6, f"cap {cap:.1f} kWh respected; spike slot keeps "
              f"{capped.aggregate[spike - 1]:.0f} vs {free.aggregate[spike - 1]:.0f} kWh")


# ---------------------------------------------------------------------------
# criterion 7: costs order the cases

def test_criterion_7_cost_ordering(reference_cases):
    c = {r.case: r.total_cost for r in reference_cases.results}
    assert c[1] > c[2] > c[3], f"ordering broken: {c}"
    assert c[3] <= c[4] <= c[2], f"capped case out of band: {c}"
    saving = (c[1] - c[2]) / c[1]
    assert saving >= 0.10, f"shaping saves only {saving:.1%}"
    report(7, "costs " + " / ".join(f"{c[k]:.2f}" for k in (1, 2, 3, 4))
           + f"; shaping saves {saving:.1%}")


# ---------------------------------------------------------------------------
# criterion 8: settlement is linear in real-time deviations

def test_criterion_8_cost_linearity(reference_scenario, reference_cases):
    market = reference_scenario.market
    actual = reference_cases.get(3).aggregate
    day = MarketDay(da_prices=market.da_prices, rt_prices=market.rt_prices,
                    da_profile=reference_cases.get(3).purchased)
    base = procurement_cost(day, actual).total
    rng = np.random.default_rng(8888)
    worst = 0.0
    for _ in range(20):
        delta = rng.normal(0.0, 25.0, N_SLOTS)
        moved = procurement_cost(day, actual + delta).total
        expected = float(delta @ market.rt_prices.values)
        err = abs((moved - base) - expected) / max(1.0, abs(expected))
        worst = max(worst, err)
        assert err <= COST_REL_TOL, f"nonlinear settlement: {err:.2e}"
    report(8, f"20 perturbations linear within {worst:.2e} relative")


# ---------------------------------------------------------------------------
# criterion 9: byte-identical reruns

def test_criterion_9_compare_cases_is_reproducible(tmp_path):
    cfg_a = load_config(REFERENCE_YAML)
    cfg_b = load_config(REFERENCE_YAML)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cmd_compare_cases(cfg_a, out=str(out_a))
    cmd_compare_cases(cfg_b, out=str(out_b))
    names_a = sorted(os.listdir(out_a))
    names_b = sorted(os.listdir(out_b))
    assert names_a == names_b and len(names_a) == 7
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), \
            f"{name} differs between identical runs"
    report(9, f"{len(names_a)} files byte-identical across reruns")


# ---------------------------------------------------------------------------
# pinned reference outputs

# sha256 of the reference day's artifacts at the config seed; summary.json
# is left out because its metadata carries the config digest
REFERENCE_DIGESTS = {
    "case_costs.csv":
        "506acb857d299b91947e21cee6fc6901203372f5dc64a7f4719cc613a88a77f5",
    "aggregate_1.csv":
        "77eaf531f33a26cccd4c09fd4b74d9ee3bec0f70cd747b2c95afc3407e0b0efa",
    "aggregate_2.csv":
        "630b9abff5cf784089e4dcbead5fc200a91184ac73d3b188fb8d13b47f92567d",
    "aggregate_3.csv":
        "fbaa704c459803c9cd60e9661a752b2fd8c21f5a851d5e20769ffa873819d1c8",
    "aggregate_4.csv":
        "42c3c3d421c94f7c764eef30a9b02dfd8374142a13b417efd74fdb69788ed945",
    "mse_trace.csv":
        "58a87eb8e0cc7eca8b1056afcb9c31052d39f332c695de221c92224ec8ec05e7",
}


def test_reference_artifacts_match_pinned_digests(tmp_path):
    cmd_compare_cases(load_config(REFERENCE_YAML), out=str(tmp_path))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in REFERENCE_DIGESTS}
    changed = sorted(n for n in got if got[n] != REFERENCE_DIGESTS[n])
    assert not changed, f"reference artifacts changed: {changed}"


def test_reference_day_shaping_converges(reference_cases):
    assert reference_cases.get(1).converged is None
    for case in (2, 3, 4):
        r = reference_cases.get(case)
        assert r.converged is True, f"case {case} ran out of sweeps"
        assert r.da_mse_trace[-1] < CONV_TOL
