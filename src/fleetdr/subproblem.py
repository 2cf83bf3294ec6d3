"""Single-vehicle scheduling subproblems.

Each best-response step of the coordination loop asks one vehicle to replan
its charging over the slots it can still influence: minimise a linear
congestion signal over its feasible charge/discharge set. Those slots are
the tail of the vehicle's window, one contiguous run of day slots ending at
departure. The feasible set is a box (per-slot power limits), an equality
(remaining energy must be delivered by departure), and a running
state-of-charge band (the battery never drains below its reserve nor fills
past its capacity).

One solver, two independent oracles for the same object:

* :func:`solve` -- the solver: a greedy fill that is provably optimal
  whenever the state-of-charge band does not bind, and an exact dynamic
  program over the running sum (a min-cost flow along the slot chain) when
  it does.
* :func:`brute_force_oracle` -- exact dynamic program over a discretised
  charge grid, for small instances, used to validate the production path.
* :func:`enumerate_oracle` -- literal exhaustive search over the same grid,
  only viable for a few slots, used to validate the dynamic program.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import ConfigError, DataError, InfeasibleError
from .fleet import PevProfile, as_profile

FEAS_TOL = 1e-7
SOC_FLOOR_FRACTION = 0.2


def solve_lp(*args, **kwargs):
    """Never called. ``perfbench/tracing.py`` still wraps this name for its
    ``simplex.solve_lp`` span, which is the only reason it exists."""
    raise NotImplementedError("solve() is the vehicle LP solver")


@dataclass
class UserSubproblem:
    """One vehicle's replanning LP over its remaining schedulable slots.

    Arrays are indexed by causal position within the remaining window
    (position 0 = the first slot the vehicle can still change); ``slots``
    maps positions back to absolute 1-based day slots.
    """

    user_id: int
    slots: List[int]
    coeff: np.ndarray
    lo: np.ndarray
    up: np.ndarray
    target: float
    min_prefix: float  # every running sum of x must stay >= this
    max_prefix: float = np.inf  # ... and <= this (battery can't overfill)

    @property
    def n_free(self) -> int:
        return len(self.slots)


@dataclass
class SubproblemSolution:
    x: np.ndarray
    objective: float
    method: str  # "greedy" | "exact" | "empty"


def build_subproblem(profile: PevProfile, signal, *, lam: float = 1.0,
                     history: Sequence[float] = (),
                     t0_sign: int = 0, t0_term_scale: float = 1.0,
                     slot_cap=None) -> UserSubproblem:
    """Assemble the replanning LP for one vehicle.

    ``signal`` is the 24-slot congestion coefficient the vehicle prices its
    consumption against (aggregate of everyone else minus the day-ahead
    purchase). ``history`` fixes the first ``len(history)`` window slots to
    already-realised values; only later window slots stay free.

    When ``lam < 1`` and ``t0_sign`` is nonzero, an immediate-consumption
    term of weight ``(1 - lam) * t0_term_scale * t0_sign`` is added to the
    first free slot: positive sign discourages consuming right now (price
    spike), negative encourages it (price dip).

    ``slot_cap``, if given, is a 24-slot ceiling on this vehicle's own
    charge rate (typically the head-room a fleet-wide demand cap leaves
    after everyone else's plans); it tightens the upper bounds. When the
    tightened bounds fall short of an energy target the vehicle's own box
    reaches, the cap is named as the binding constraint.
    """
    signal = as_profile(signal)
    if not 0 <= lam <= 1:
        raise ConfigError(f"lam must be in [0, 1], got {lam}")
    if len(history) > profile.window_length():
        raise ConfigError(f"user {profile.user_id}: history longer than window")
    history = np.asarray(history, dtype=float)

    delivered = float(history.sum())
    target = profile.required_energy - delivered
    soc_start = profile.initial_soc + delivered
    floor = SOC_FLOOR_FRACTION * profile.capacity

    first = profile.arrival_slot + len(history)  # first free day slot
    k = profile.departure_slot - first + 1
    free = slice(first - 1, profile.departure_slot)
    lo = np.full(k, -profile.rate if profile.v2g else 0.0)
    up = np.full(k, profile.rate)
    if slot_cap is not None and k:
        room = as_profile(slot_cap)
        up = np.minimum(up, room[free])
        if (up < lo - FEAS_TOL).any():
            raise InfeasibleError(
                "demand cap leaves no room at a connected slot",
                user_id=profile.user_id, constraint="demand cap")
        up = np.maximum(up, lo)
        reachable = sum(up.tolist())  # cheaper than up.sum() at this size
        if reachable < target - FEAS_TOL <= profile.rate * k:
            raise InfeasibleError(
                f"{target:.3f} kWh owed but the cap's head-room leaves "
                f"{reachable:.3f} kWh reachable", user_id=profile.user_id,
                constraint="demand cap")
    coeff = lam * signal[free]
    if k and lam < 1.0 and t0_sign:
        coeff[0] += (1.0 - lam) * t0_term_scale * float(np.sign(t0_sign))

    return UserSubproblem(
        user_id=profile.user_id,
        slots=list(range(first, profile.departure_slot + 1)),
        coeff=coeff,
        lo=lo,
        up=up,
        target=target,
        min_prefix=floor - soc_start,
        max_prefix=profile.capacity - soc_start,
    )


def check_feasible(sub: UserSubproblem, x, tol: float = FEAS_TOL) -> List[str]:
    """List every constraint a candidate solution violates (empty = fine)."""
    x = np.asarray(x, dtype=float)
    problems: List[str] = []
    if x.shape != (sub.n_free,):
        return [f"shape {x.shape} != ({sub.n_free},)"]
    for i in range(sub.n_free):
        if x[i] < sub.lo[i] - tol or x[i] > sub.up[i] + tol:
            problems.append(
                f"slot {sub.slots[i]}: {x[i]:.6f} outside "
                f"[{sub.lo[i]:.6f}, {sub.up[i]:.6f}]")
    if abs(float(x.sum()) - sub.target) > tol:
        problems.append(f"energy {x.sum():.6f} != target {sub.target:.6f}")
    running = np.cumsum(x)
    for i in range(sub.n_free):
        if running[i] < sub.min_prefix - tol:
            problems.append(
                f"slot {sub.slots[i]}: running sum {running[i]:.6f} "
                f"below floor {sub.min_prefix:.6f}")
        if running[i] > sub.max_prefix + tol:
            problems.append(
                f"slot {sub.slots[i]}: running sum {running[i]:.6f} "
                f"above ceiling {sub.max_prefix:.6f}")
    return problems


def _pour(x: List[float], width: List[float], remaining: float,
          coeff: np.ndarray) -> List[float]:
    """Raise ``x`` (a list, in place) by ``remaining`` in total, filling
    each slot's ``width`` cheapest ``coeff`` first; ties go in slot order.
    """
    for i in coeff.argsort(kind="stable").tolist():
        if remaining <= 0:
            break
        add = min(width[i], remaining)
        x[i] += add
        remaining -= add
    return x


def _greedy_fill(sub: UserSubproblem) -> np.ndarray | None:
    """Box+equality optimum by cheapest-first pouring; None if infeasible."""
    lo_sum = float(sub.lo.sum())
    up_sum = float(sub.up.sum())
    if not lo_sum - FEAS_TOL <= sub.target <= up_sum + FEAS_TOL:
        return None
    return np.array(_pour(sub.lo.tolist(), (sub.up - sub.lo).tolist(),
                          sub.target - lo_sum, sub.coeff))


def _prefix_band_fill(sub: UserSubproblem) -> np.ndarray | None:
    """Exact optimum inside the state-of-charge band; None if infeasible.

    A dynamic program over the running sum s. After each slot, the cheapest
    cost of reaching s is convex and piecewise linear on an interval, held
    as the interval's left end plus its (slope, length) pieces in ascending
    slope. A slot shifts the interval by its lower bound and merges in one
    piece of its box width at its own price; the band then trims the
    cheapest pieces from the left and the dearest from the right. The
    backtrack picks, slot by slot, the cheapest predecessor sum that the
    slot's box can reach, and on a flat stretch the one that moves the slot
    least, so tied optima never charge and discharge for zero gain.
    """
    lo, up, coeff = sub.lo.tolist(), sub.up.tolist(), sub.coeff.tolist()
    floor, ceiling = sub.min_prefix, sub.max_prefix
    start = 0.0
    pieces: List[tuple[float, float]] = []
    stages = []  # (start, pieces) of the cost before each slot
    for i in range(sub.n_free):
        stages.append((start, pieces.copy()))
        start += lo[i]
        if up[i] > lo[i]:
            bisect.insort(pieces, (coeff[i], up[i] - lo[i]))
        if start < floor:
            cut = floor - start
            while pieces and pieces[0][1] <= cut:
                cut -= pieces.pop(0)[1]
            if pieces:
                pieces[0] = (pieces[0][0], pieces[0][1] - cut)
            elif cut > FEAS_TOL:
                return None
            start = floor
        end = start + sum(length for _, length in pieces)
        if end > ceiling:
            cut = end - ceiling
            while pieces and pieces[-1][1] <= cut:
                cut -= pieces.pop()[1]
            if pieces:
                pieces[-1] = (pieces[-1][0], pieces[-1][1] - cut)
            elif cut > FEAS_TOL:
                return None
    end = start + sum(length for _, length in pieces)
    if not start - FEAS_TOL <= sub.target <= end + FEAS_TOL:
        return None

    x = np.zeros(sub.n_free)
    s = sub.target
    for i in range(sub.n_free - 1, -1, -1):
        start, pieces = stages[i]
        cheaper = sum(length for slope, length in pieces if slope < coeff[i])
        tied = sum(length for slope, length in pieces if slope == coeff[i])
        end = start + sum(length for _, length in pieces)
        best = min(max(s, start + cheaper), start + cheaper + tied)
        prev = min(max(best, start, s - up[i]), end, s - lo[i])
        x[i] = s - prev
        s = prev
    return x


def solve(sub: UserSubproblem) -> SubproblemSolution:
    """Solve one vehicle's replanning LP.

    The greedy fill solves the relaxation without the state-of-charge band;
    if its answer happens to respect the band it is optimal for the full
    problem too (adding constraints can only worsen the optimum), and that
    certificate lets most solves skip the exact prefix-band program.
    """
    if sub.n_free == 0:
        if abs(sub.target) > FEAS_TOL:
            raise InfeasibleError(
                f"{abs(sub.target):.3f} kWh still owed after the last "
                "schedulable slot", user_id=sub.user_id,
                constraint="energy balance")
        return SubproblemSolution(x=np.zeros(0), objective=0.0, method="empty")

    x = _greedy_fill(sub)
    if x is None:
        raise InfeasibleError(
            f"energy target {sub.target:.3f} kWh outside reachable "
            f"[{sub.lo.sum():.3f}, {sub.up.sum():.3f}]",
            user_id=sub.user_id, constraint="energy balance")
    running = np.cumsum(x)
    if (running.min() >= sub.min_prefix - FEAS_TOL
            and running.max() <= sub.max_prefix + FEAS_TOL):
        return SubproblemSolution(
            x=x, objective=float(sub.coeff @ x), method="greedy")

    x = _prefix_band_fill(sub)
    if x is None:
        raise InfeasibleError(
            "no schedule meets the energy target while keeping the battery "
            "between its reserve and its capacity", user_id=sub.user_id,
            constraint="state-of-charge")
    return SubproblemSolution(x=x, objective=float(sub.coeff @ x),
                              method="exact")


# ---------------------------------------------------------------------------
# exact oracles on a discretised charge grid

MAX_ORACLE_SLOTS = 6
MAX_ENUM_SLOTS = 3


def _grid_int(value: float, step: float, what: str) -> int:
    g = value / step
    r = round(g)
    if abs(g - r) > 1e-6:
        raise DataError(f"{what} {value} is not a multiple of grid step {step}")
    return int(r)


def _grid_floor(value: float, step: float) -> int:
    """Largest grid multiple <= value (rounds an upper bound inward)."""
    return int(np.floor(value / step + 1e-9))


def _grid_ceil(value: float, step: float) -> int:
    """Smallest grid multiple >= value (rounds a lower bound inward)."""
    return int(np.ceil(value / step - 1e-9))


def brute_force_oracle(sub: UserSubproblem, grid_step: float = 0.1
                       ) -> SubproblemSolution:
    """Exact optimum by dynamic programming over a charge grid.

    States are (position, running energy sum in grid units); transitions
    enumerate every grid-aligned charge level in the slot's box. Bounds and
    the target must sit on the grid. Intended as an independent check on
    :func:`solve`; refuses instances with more than ``MAX_ORACLE_SLOTS``
    free slots to keep runtime honest.
    """
    k = sub.n_free
    if k > MAX_ORACLE_SLOTS:
        raise DataError(
            f"oracle limited to {MAX_ORACLE_SLOTS} free slots, got {k}")
    if grid_step <= 0:
        raise ConfigError("grid_step must be positive")
    if k == 0:
        if abs(sub.target) > FEAS_TOL:
            raise InfeasibleError("nonzero target with no free slots",
                                  user_id=sub.user_id)
        return SubproblemSolution(x=np.zeros(0), objective=0.0, method="dp")

    # bounds round inward to the grid; the target must sit on it exactly
    lo_g = [_grid_ceil(sub.lo[i], grid_step) for i in range(k)]
    up_g = [_grid_floor(sub.up[i], grid_step) for i in range(k)]
    tgt_g = _grid_int(sub.target, grid_step, "energy target")
    floor_g = _grid_ceil(sub.min_prefix, grid_step)
    ceil_g = (_grid_floor(sub.max_prefix, grid_step)
              if np.isfinite(sub.max_prefix) else None)

    # cost[cum_units] = cheapest way to reach this running sum; parents for
    # solution recovery
    costs: dict[int, float] = {0: 0.0}
    parents: List[dict[int, tuple[int, int]]] = []
    for i in range(k):
        nxt: dict[int, float] = {}
        par: dict[int, tuple[int, int]] = {}
        for cum, cost in costs.items():
            for step_units in range(lo_g[i], up_g[i] + 1):
                cum2 = cum + step_units
                if cum2 < floor_g:
                    continue
                if ceil_g is not None and cum2 > ceil_g:
                    continue
                cost2 = cost + sub.coeff[i] * step_units * grid_step
                if cum2 not in nxt or cost2 < nxt[cum2] - 1e-15:
                    nxt[cum2] = cost2
                    par[cum2] = (cum, step_units)
        costs = nxt
        parents.append(par)
        if not costs:
            break

    if tgt_g not in costs:
        raise InfeasibleError(
            "no grid schedule reaches the energy target within the "
            "state-of-charge band", user_id=sub.user_id,
            constraint="state-of-charge")

    x = np.zeros(k)
    cum = tgt_g
    for i in range(k - 1, -1, -1):
        prev, step_units = parents[i][cum]
        x[i] = step_units * grid_step
        cum = prev
    return SubproblemSolution(x=x, objective=float(costs[tgt_g]), method="dp")


def enumerate_oracle(sub: UserSubproblem, grid_step: float = 0.1
                     ) -> SubproblemSolution:
    """Plain exhaustive search over the charge grid; cross-checks the DP."""
    k = sub.n_free
    if k > MAX_ENUM_SLOTS:
        raise DataError(
            f"enumeration limited to {MAX_ENUM_SLOTS} free slots, got {k}")
    lo_g = [_grid_ceil(sub.lo[i], grid_step) for i in range(k)]
    up_g = [_grid_floor(sub.up[i], grid_step) for i in range(k)]
    tgt_g = _grid_int(sub.target, grid_step, "energy target")
    floor_g = _grid_ceil(sub.min_prefix, grid_step)
    ceil_g = (_grid_floor(sub.max_prefix, grid_step)
              if np.isfinite(sub.max_prefix) else None)

    best = None
    best_cost = np.inf
    ranges = [range(lo_g[i], up_g[i] + 1) for i in range(k)]
    for combo in itertools.product(*ranges):
        if sum(combo) != tgt_g:
            continue
        cum = 0
        ok = True
        for units in combo:
            cum += units
            if cum < floor_g or (ceil_g is not None and cum > ceil_g):
                ok = False
                break
        if not ok:
            continue
        cost = sum(sub.coeff[i] * combo[i] * grid_step for i in range(k))
        if cost < best_cost:
            best_cost = cost
            best = combo
    if best is None:
        raise InfeasibleError("exhaustive search found no feasible schedule",
                              user_id=sub.user_id)
    return SubproblemSolution(
        x=np.array([u * grid_step for u in best]),
        objective=float(best_cost), method="enum")
