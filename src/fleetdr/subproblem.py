"""Single-vehicle scheduling subproblems.

Each best-response step of the coordination loop asks one vehicle to replan
its charging over the slots it can still influence: minimise a linear
congestion signal over its feasible charge/discharge set. Those slots are
the tail of the vehicle's window, one contiguous run of day slots ending at
departure. The feasible set is a box (per-slot power limits), an equality
(remaining energy must be delivered by departure), and a running
state-of-charge band (the battery never drains below its reserve nor fills
past its capacity).

Every solve, the coordinator's and the public one, runs the same three
steps:

* :func:`vehicle_lps` derives the part of the LP that stays fixed while the
  vehicle's history does: free slots, energy target, band and rate box,
  for a batch of vehicles in array steps.
* :func:`capped_box` tightens the box to a demand cap's head-room on the
  free slots, or raises when the cap leaves the vehicle no way to meet its
  target.
* :func:`solve_vehicle` solves the LP or raises: a greedy fill that is
  provably optimal whenever the state-of-charge band does not bind, and an
  exact dynamic program over the running sum (a min-cost flow along the
  slot chain) when it does. Over a charge-only box (every lower bound
  +0.0) the fill never discharges, so its running sums never fall and the
  band check reads only the first and the last.

:func:`build_subproblem` and :func:`solve` expose the same steps as one
:class:`UserSubproblem` at a time. The test suite's oracles (a dynamic
program and an exhaustive search over a discretised charge grid, in
``tests/oracles.py``) check them independently.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import ConfigError, InfeasibleError
from .fleet import N_SLOTS, PevProfile, as_fleet, as_profile

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
    (position 0 = the first slot the vehicle can still change, which is day
    slot ``first``, 1-based).
    """

    user_id: int
    first: int
    coeff: np.ndarray
    lo: np.ndarray
    up: np.ndarray
    target: float
    min_prefix: float  # every running sum of x must stay >= this
    max_prefix: float = np.inf  # ... and <= this (battery can't overfill)


@dataclass
class SubproblemSolution:
    x: np.ndarray
    objective: float
    method: str  # "greedy" | "exact" | "empty"


class Box(NamedTuple):
    """Per-slot bounds of the free slots, with the sums and lists the
    solver reads."""

    lo: np.ndarray
    up: np.ndarray
    lo_sum: float
    up_sum: float
    lo_list: List[float]
    width: List[float]  # up - lo
    least_room: np.ndarray  # lo - FEAS_TOL, the head-room a cap must leave
    # every lower bound is +0.0 and no upper bound is below it: each width
    # is its upper bound's own bits, and a plan never discharges
    charge_only: bool


def _box(lo: np.ndarray, up: np.ndarray) -> Box:
    return Box(lo, up, float(lo.sum()), float(up.sum()), lo.tolist(),
               (up - lo).tolist(), lo - FEAS_TOL,
               lo.tobytes() == bytes(lo.nbytes) and bool((up >= 0).all()))


class VehicleLp(NamedTuple):
    """The part of one vehicle's LP that stays fixed while its history
    does; only the prices and the cap's head-room change between solves."""

    user_id: int
    free: slice  # the free slots, as a slice of a (24,) profile
    target: float
    min_prefix: float
    max_prefix: float
    reach: float  # rate * k, the most the rate box alone can deliver
    box: Box  # the rate box, before any cap


def vehicle_lps(fleet: Sequence[PevProfile], plans: np.ndarray,
                realized_upto: int) -> List[VehicleLp]:
    """Derive the LP of each vehicle of ``fleet`` once day slots
    1..``realized_upto`` of its row of ``plans`` (one (24,) row per
    vehicle) are fixed.

    ``fleet`` is read through :func:`~fleetdr.fleet.as_fleet`. Vehicles
    that agree on slot count, rate and V2G flag share one rate box; the
    solver never writes to a box.

    A vehicle's fixed energy is the sum of its realized window slots. The
    rows with as many realized slots are summed as one contiguous block,
    whose per-row sums numpy takes pairwise, just as it sums one row's
    slots alone, so every field has the bits a one-vehicle derivation
    gives.
    """
    fleet = as_fleet(fleet)
    arrival, departure = fleet.arrival, fleet.departure
    # the realized window slots of each vehicle
    done = np.clip(realized_upto + 1 - arrival, 0, departure + 1 - arrival)
    delivered = np.zeros(len(fleet))  # no history sums to +0.0
    for d in set(done.tolist()) - {0}:
        rows = np.flatnonzero(done == d)
        block = plans[rows[:, None], arrival[rows, None] - 1 + np.arange(d)]
        delivered[rows] = block.sum(axis=1)
    soc_start = fleet.soc0 + delivered
    owed = fleet.required - delivered
    boxes: Dict[tuple, Box] = {}
    lps = []
    for prof, start, target, floor, ceiling in zip(
            fleet, (arrival - 1 + done).tolist(), owed.tolist(),
            (SOC_FLOOR_FRACTION * fleet.capacity - soc_start).tolist(),
            (fleet.capacity - soc_start).tolist()):
        stop = prof.departure_slot  # the free slots are start:stop
        k = stop - start
        key = (k, prof.rate, prof.v2g)
        box = boxes.get(key)
        if box is None:
            # float boxes, also for an int rate: one past int64 would overflow
            box = boxes[key] = _box(
                np.full(k, -prof.rate if prof.v2g else 0.0, float),
                np.full(k, prof.rate, float))
        # tuple.__new__ skips the NamedTuple's Python-level __new__
        lps.append(tuple.__new__(VehicleLp, (
            prof.user_id, slice(start, stop), target, floor, ceiling,
            prof.rate * k, box)))
    return lps


def capped_box(lp: VehicleLp, room: np.ndarray) -> Box:
    """``lp``'s rate box with its upper bounds cut to ``room``, the head-room
    a fleet-wide demand cap leaves on the free slots after everyone else's
    plans.

    Raises with the cap as the binding constraint when the head-room is
    below the box's lower bound at a free slot, or falls short of an energy
    target the box alone reaches.

    The rate box's upper bounds are never below its lower bounds, so the
    head-room can be short of a lower bound only where the cut bound is
    raised back to it, leaving a width of zero: the "no room" comparison
    runs only then. A charge-only box's widths are its upper bounds, so one
    list serves as both.
    """
    box = lp.box
    lo = box.lo
    up = np.minimum(box.up, room)
    np.maximum(up, lo, out=up)
    up_list = up.tolist()
    width = up_list if box.charge_only else (up - lo).tolist()
    if 0.0 in width and True in (room < box.least_room).tolist():
        raise InfeasibleError(
            "demand cap leaves no room at a connected slot",
            user_id=lp.user_id, constraint="demand cap")
    reachable = sum(up_list)  # cheaper than up.sum() at this size
    if reachable < lp.target - FEAS_TOL <= lp.reach:
        raise InfeasibleError(
            f"{lp.target:.3f} kWh owed but the cap's head-room leaves "
            f"{reachable:.3f} kWh reachable", user_id=lp.user_id,
            constraint="demand cap")
    # tuple.__new__ skips the NamedTuple's Python-level __new__
    return tuple.__new__(Box, (lo, up, box.lo_sum, reachable, box.lo_list,
                               width, box.least_room, box.charge_only))


def t0_term(lam: float, t0_sign: int, t0_term_scale: float) -> float | None:
    """The immediate-consumption price added to the first free slot, or
    None when there is none."""
    if lam < 1.0 and t0_sign:
        return (1.0 - lam) * t0_term_scale * float(np.sign(t0_sign))
    return None


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
    after everyone else's plans); it tightens the upper bounds (see
    :func:`capped_box`).
    """
    signal = as_profile(signal)
    if not 0 <= lam <= 1:
        raise ConfigError(f"lam must be in [0, 1], got {lam}")
    history = np.asarray(history, dtype=float)
    if len(history) > profile.window_length():
        raise ConfigError(f"user {profile.user_id}: history longer than window")
    plan = np.zeros((1, N_SLOTS))
    plan[0, profile.window][:len(history)] = history
    lp, = vehicle_lps([profile], plan,
                      profile.arrival_slot - 1 + len(history))
    box = (lp.box if slot_cap is None
           else capped_box(lp, as_profile(slot_cap)[lp.free]))
    coeff = lam * signal[lp.free]
    t0 = t0_term(lam, t0_sign, t0_term_scale)
    if t0 is not None and coeff.size:
        coeff[0] += t0
    return UserSubproblem(
        user_id=lp.user_id, first=lp.free.start + 1, coeff=coeff, lo=box.lo, up=box.up, target=lp.target,
        min_prefix=lp.min_prefix, max_prefix=lp.max_prefix)


def _pour(x: List[float], width: List[float], remaining: float,
          order: np.ndarray) -> List[float]:
    """Raise ``x`` (a list, in place) by ``remaining`` in total, filling
    each slot's ``width`` in ``order``, the prices' stable argsort, so
    cheapest first and ties in slot order.
    """
    for i in order.tolist():
        if remaining <= 0:
            break
        add = width[i]
        if remaining < add:  # min(width[i], remaining), without the call
            add = remaining
        x[i] += add
        remaining -= add
    return x


def _prefix_band_fill(lo: List[float], up: List[float], coeff: List[float],
                      floor: float, ceiling: float,
                      target: float) -> np.ndarray | None:
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

    Of the cost before each slot, the backtrack reads four sums: where the
    interval starts, where the pieces cheaper than the slot's price end,
    where the pieces tied with it end, and where the interval ends. The
    forward pass takes them as it goes and keeps no copy of the pieces.
    Each sum adds the lengths in list order from 0.

    The pieces are two parallel lists, their slopes as plain floats and
    their lengths, so a bisect on the slopes compares floats. A right trim
    can leave an equal-slope group's lengths out of order, and the order
    fixes every sum's rounding. So a new piece whose slope no piece has
    goes where its slope sorts, and only one that ties a group goes where
    the (slope, length) tuple bisect puts it, as it always has. The loops
    write each ``min``/``max`` as the comparisons the builtin makes, the
    first argument winning ties, since a builtin call costs about as much
    as the rest of a step.
    """
    start = 0.0
    slopes: List[float] = []  # the pieces' slopes, ascending
    lens: List[float] = []  # the pieces' lengths, in the same order
    total = 0  # sum(lens)
    stages = []  # (start, cheap_end, tie_end, end) before each slot
    for i, c in enumerate(coeff):
        j = bisect.bisect_left(slopes, c)
        k = bisect.bisect_right(slopes, c, j)  # the pieces of slope c: j:k
        cheap_end = start + sum(lens[:j])
        # with no tie, + sum([]) adds int 0: exact, as cheap_end is not -0.0
        tie_end = cheap_end if j == k else cheap_end + sum(lens[j:k])
        stages.append((start, cheap_end, tie_end, start + total))
        start += lo[i]
        if up[i] > lo[i]:
            width = up[i] - lo[i]
            if j < k:
                j = bisect.bisect_right(list(zip(slopes, lens)), (c, width))
            slopes.insert(j, c)
            lens.insert(j, width)
        if start < floor:
            cut = floor - start
            while lens and lens[0] <= cut:
                cut -= lens.pop(0)
                del slopes[0]
            if lens:
                lens[0] -= cut
            elif cut > FEAS_TOL:
                return None
            start = floor
        total = sum(lens)
        end = start + total
        if end > ceiling:
            cut = end - ceiling
            while lens and lens[-1] <= cut:
                cut -= lens.pop()
                slopes.pop()
            if lens:
                lens[-1] -= cut
            elif cut > FEAS_TOL:
                return None
            total = sum(lens)
    if not start - FEAS_TOL <= target <= start + total + FEAS_TOL:
        return None

    x = [0.0] * len(lo)
    s = target
    for i in range(len(lo) - 1, -1, -1):
        start, cheap_end, tie_end, end = stages[i]
        # best = min(max(s, cheap_end), tie_end)
        prev = s
        if cheap_end > prev:
            prev = cheap_end
        if tie_end < prev:
            prev = tie_end
        # prev = min(max(best, s - up[i]), end, s - lo[i]), where
        # best >= cheap_end >= start, as every piece's length is positive
        bound = s - up[i]
        if bound > prev:
            prev = bound
        if end < prev:
            prev = end
        bound = s - lo[i]
        if bound < prev:
            prev = bound
        x[i] = s - prev
        s = prev
    return np.array(x)


def solve_vehicle(lp: VehicleLp | UserSubproblem, box: Box,
                  coeff: np.ndarray, order: np.ndarray
                  ) -> Tuple[np.ndarray, str]:
    """Solve one vehicle's LP over ``box`` at prices ``coeff``; returns the
    plan on the free slots and the method that found it.

    ``lp`` supplies only the user id, the energy target and the band, and
    ``order`` is ``coeff.argsort(kind="stable")``.
    The greedy pour solves the relaxation without the state-of-charge band;
    if its running sums happen to respect the band it is optimal for the
    full problem too (adding constraints can only worsen the optimum), and
    that certificate lets most solves skip the exact prefix-band program.
    Over a ``charge_only`` box the sums never fall, so the least is the
    first and the greatest the last; other boxes check every sum.
    The pour reads the prices only through ``order``, and the exact
    program only compares them, so the plan depends on the prices only
    through their order and, for an exact plan, which of them tie.
    Raises ``InfeasibleError`` naming the binding constraint.
    """
    _, up, lo_sum, up_sum, lo_list, width, _, charge_only = box
    target = lp.target
    if not lo_list:
        if abs(target) > FEAS_TOL:
            raise InfeasibleError(
                f"{abs(target):.3f} kWh still owed after the last "
                "schedulable slot", user_id=lp.user_id,
                constraint="energy balance")
        return np.zeros(0), "empty"
    if not lo_sum - FEAS_TOL <= target <= up_sum + FEAS_TOL:
        raise InfeasibleError(
            f"energy target {target:.3f} kWh outside reachable "
            f"[{lo_sum:.3f}, {up_sum:.3f}]",
            user_id=lp.user_id, constraint="energy balance")
    x = _pour(lo_list.copy(), width, target - lo_sum, order)
    if charge_only:
        # sum() adds left to right as accumulate does (before Python 3.12,
        # which compensates float sums)
        fits = (x[0] >= lp.min_prefix - FEAS_TOL
                and sum(x) <= lp.max_prefix + FEAS_TOL)
    else:
        running = list(accumulate(x))  # the sums np.cumsum gives
        fits = (min(running) >= lp.min_prefix - FEAS_TOL
                and max(running) <= lp.max_prefix + FEAS_TOL)
    if fits:
        return np.array(x), "greedy"
    x = _prefix_band_fill(lo_list, up.tolist(), coeff.tolist(),
                          lp.min_prefix, lp.max_prefix, target)
    if x is None:
        raise InfeasibleError(
            "no schedule meets the energy target while keeping the battery "
            "between its reserve and its capacity", user_id=lp.user_id,
            constraint="state-of-charge")
    return x, "exact"


def solve(sub: UserSubproblem) -> SubproblemSolution:
    """Solve one vehicle's replanning LP (see :func:`solve_vehicle`)."""
    x, method = solve_vehicle(sub, _box(sub.lo, sub.up), sub.coeff,
                              sub.coeff.argsort(kind="stable"))
    return SubproblemSolution(x=x, objective=float(sub.coeff @ x),
                              method=method)
