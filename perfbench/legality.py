"""Independent output check for one compare-cases day.

Reads each vehicle's ``PevProfile`` fields directly and checks every
coordinated case's charge plans against the physics of the problem, without
going through ``fleetdr.subproblem``: a solver that returns an illegal plan
must not be able to pass its own check.
"""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

N_SLOTS = 24
SOC_FLOOR_FRACTION = 0.2  # the battery never drains below 20 % of capacity
TOL = 1e-6

# emitted artifacts whose bytes are compared; summary.json is left out
# because its schema is still growing
DIGEST_FILES = ("case_costs.csv", "aggregate_1.csv", "aggregate_2.csv",
                "aggregate_3.csv", "aggregate_4.csv", "mse_trace.csv")

Problem = Tuple[str, int, str]  # (check, user id or slot, detail)


@dataclass
class FleetArrays:
    """A fleet laid out for vectorised checks, slots in causal order.

    Row i of ``order`` lists vehicle i's 24 day slots (0-based) starting at
    its arrival, so a window that wraps past the end of the day is still a
    prefix of length ``length[i]``.
    """

    user_id: np.ndarray
    order: np.ndarray
    length: np.ndarray
    lo: np.ndarray
    rate: np.ndarray
    energy: np.ndarray
    soc0: np.ndarray
    floor: np.ndarray
    capacity: np.ndarray

    @classmethod
    def of(cls, fleet) -> "FleetArrays":
        arrival = np.array([p.arrival_slot for p in fleet], dtype=int)
        departure = np.array([p.departure_slot for p in fleet], dtype=int)
        rate = np.array([p.rate for p in fleet], dtype=float)
        capacity = np.array([p.capacity for p in fleet], dtype=float)
        v2g = np.array([p.v2g for p in fleet], dtype=bool)
        return cls(
            user_id=np.array([p.user_id for p in fleet], dtype=int),
            order=(arrival[:, None] - 1 + np.arange(N_SLOTS)) % N_SLOTS,
            length=(departure - arrival) % N_SLOTS + 1,
            lo=np.where(v2g, -rate, 0.0),
            rate=rate,
            energy=np.array([p.required_energy for p in fleet], dtype=float),
            soc0=np.array([p.initial_soc for p in fleet], dtype=float),
            floor=SOC_FLOOR_FRACTION * capacity,
            capacity=capacity,
        )


def _users(arrays: FleetArrays, check: str, bad_rows, detail: str
           ) -> List[Problem]:
    return [(check, int(arrays.user_id[i]), detail)
            for i in np.flatnonzero(bad_rows)]


def plan_problems(arrays: FleetArrays, pev: np.ndarray) -> List[Problem]:
    """Every way the (n_users, 24) plan matrix breaks a vehicle's limits."""
    pev = np.asarray(pev, dtype=float)
    if pev.shape != (len(arrays.user_id), N_SLOTS):
        return [("shape", -1, f"plan matrix shape {pev.shape}")]
    x = np.take_along_axis(pev, arrays.order, axis=1)
    inside = np.arange(N_SLOTS)[None, :] < arrays.length[:, None]
    x_in = np.where(inside, x, 0.0)
    soc = arrays.soc0[:, None] + np.cumsum(x_in, axis=1)

    problems = _users(arrays, "window",
                      np.any(~inside & (np.abs(x) > TOL), axis=1),
                      "charges outside its window")
    problems += _users(arrays, "rate", np.any(inside & (
        (x < arrays.lo[:, None] - TOL) | (x > arrays.rate[:, None] + TOL)),
        axis=1), "slot outside the rate box")
    problems += _users(arrays, "energy",
                       np.abs(x_in.sum(axis=1) - arrays.energy) > TOL,
                       "delivered energy differs from required_energy")
    problems += _users(arrays, "soc", np.any(inside & (
        (soc < arrays.floor[:, None] - TOL)
        | (soc > arrays.capacity[:, None] + TOL)), axis=1),
        "state of charge leaves [20 % of capacity, capacity]")
    return problems


def cap_problems(aggregate, cap: float) -> List[Problem]:
    """Slots (1-based) where the aggregate exceeds the demand cap."""
    over = np.flatnonzero(np.asarray(aggregate, dtype=float) > cap + TOL)
    return [("cap", int(s) + 1, f"aggregate above cap {cap:.6f}")
            for s in over]


def day_problems(arrays: FleetArrays, household_total, market, comparison,
                 day_results, cap: float | None) -> List[Problem]:
    """Check cases 2-4 of one ``CaseComparison`` against their plans.

    ``day_results`` are the ``DayResult`` objects ``run_cases`` produced for
    cases 2, 3 and 4, in that order. Besides each plan's legality, the
    reported aggregate must be households plus plans, and the reported cost
    must be the day-ahead purchase at day-ahead prices plus the imbalance
    at real-time prices.
    """
    if len(day_results) != 3:
        return [("cases", -1, f"{len(day_results)} coordinated days, not 3")]
    hh = np.asarray(household_total, dtype=float)
    da = np.asarray(market.da_prices.values, dtype=float)
    rt = np.asarray(market.rt_prices.values, dtype=float)
    problems: List[Problem] = []
    for case, day in zip((2, 3, 4), day_results):
        result = comparison.get(case)
        problems += [(f"case{case}.{c}", u, d)
                     for c, u, d in plan_problems(arrays, day.pev)]
        actual = hh + np.asarray(day.pev).sum(axis=0)
        if np.max(np.abs(actual - result.aggregate)) > TOL:
            problems.append((f"case{case}.aggregate", -1,
                             "aggregate is not households plus plans"))
        cost = (float(result.purchased @ da)
                + float((actual - result.purchased) @ rt))
        if abs(cost - result.total_cost) > TOL * max(1.0, abs(cost)):
            problems.append((f"case{case}.cost", -1,
                             f"cost {result.total_cost:.6f} != {cost:.6f}"))
        if case == 4 and cap is not None:
            problems += cap_problems(actual, cap)
    return problems


def artifact_digests(out_dir) -> dict:
    """sha256 of each compared artifact in an emitted directory."""
    digests = {}
    for name in DIGEST_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests
