"""The capped box and the greedy certificate against their earlier forms,
bit for bit.

``reference_capped_box`` is ``capped_box`` as it stood when it took the
24-slot head-room, compared every slot with the least room before raising
the cut bounds back to the lower bounds, and summed and differenced the
bounds in separate passes. ``reference_solve_vehicle`` is ``solve_vehicle``
as it stood when every pour was certified by ``accumulate`` with ``min``
and ``max``. Both read the box of the seven fields they were written for
(``RefBox``). The current ``capped_box`` and ``solve_vehicle`` must give
the same upper-bound bytes, reachable sum, widths, plans, methods and error
texts on every instance: charge-only, V2G and ``-0.0`` lower bounds;
head-room above the rate, at ``0.0``, at ``-0.0``, exactly at the lower
bound, at the least room and just under it; zero widths and empty boxes.
"""

from collections import Counter
from itertools import accumulate
from typing import List, NamedTuple

import numpy as np

from fleetdr.errors import InfeasibleError
from fleetdr.fleet import N_SLOTS
from fleetdr.subproblem import (
    FEAS_TOL, VehicleLp, _box, _pour, _prefix_band_fill, capped_box,
    solve_vehicle)


class RefBox(NamedTuple):
    lo: np.ndarray
    up: np.ndarray
    lo_sum: float
    up_sum: float
    lo_list: List[float]
    width: List[float]  # up - lo
    least_room: np.ndarray  # lo - FEAS_TOL, the head-room a cap must leave


Box = RefBox  # the name the reference bodies build


def ref_box(lo: np.ndarray, up: np.ndarray) -> RefBox:
    return RefBox(lo, up, float(lo.sum()), float(up.sum()), lo.tolist(),
                  (up - lo).tolist(), lo - FEAS_TOL)


def reference_capped_box(lp: VehicleLp, room: np.ndarray) -> Box:
    lo, up, lo_sum, _, lo_list, _, least_room = lp.box
    up = np.minimum(up, room[lp.free])
    if True in (up < least_room).tolist():  # cheaper than .any() here
        raise InfeasibleError(
            "demand cap leaves no room at a connected slot",
            user_id=lp.user_id, constraint="demand cap")
    up = np.maximum(up, lo)
    reachable = sum(up.tolist())  # cheaper than up.sum() at this size
    if reachable < lp.target - FEAS_TOL <= lp.reach:
        raise InfeasibleError(
            f"{lp.target:.3f} kWh owed but the cap's head-room leaves "
            f"{reachable:.3f} kWh reachable", user_id=lp.user_id,
            constraint="demand cap")
    return Box(lo, up, lo_sum, reachable, lo_list, (up - lo).tolist(),
               least_room)


def reference_solve_vehicle(lp, box, coeff, order):
    _, up, lo_sum, up_sum, lo_list, width, _ = box
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
    running = list(accumulate(x))  # the sums np.cumsum gives
    if (min(running) >= lp.min_prefix - FEAS_TOL
            and max(running) <= lp.max_prefix + FEAS_TOL):
        return np.array(x), "greedy"
    x = _prefix_band_fill(lo_list, up.tolist(), coeff.tolist(),
                          lp.min_prefix, lp.max_prefix, target)
    if x is None:
        raise InfeasibleError(
            "no schedule meets the energy target while keeping the battery "
            "between its reserve and its capacity", user_id=lp.user_id,
            constraint="state-of-charge")
    return x, "exact"


def bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def outcome(capper, solver, lp, room, coeff, order):
    """Everything one capped solve shows: the box's bytes and the plan, or
    where it raised and what."""
    try:
        box = lp.box if room is None else capper(lp, room)
    except InfeasibleError as exc:
        return ("cap", str(exc), exc.user_id, exc.constraint)
    shown = (bits(box.up), bits(box.up_sum), bits(box.width),
             bits(box.lo_sum), bits(box.lo_list), bits(box.least_room))
    try:
        x, method = solver(lp, box, coeff, order)
    except InfeasibleError as exc:
        return shown + ("solve", str(exc), exc.user_id, exc.constraint)
    return shown + (method, x.tobytes())


def lp_pair(lo, up, first, target, min_prefix, max_prefix, rate):
    """The same LP twice: over the current box and over ``RefBox``."""
    k = len(lo)
    free = slice(first - 1, first - 1 + k)
    fields = (7, free, target, min_prefix, max_prefix, rate * k)
    return VehicleLp(*fields, _box(lo, up)), VehicleLp(*fields, ref_box(lo, up))


def draw_room(rng, lo, rate):
    """Head-room on the free slots, each slot of one kind."""
    # room short of the lower bound comes one time in four
    short = rng.random() < 0.25
    kind = rng.choice(8, len(lo), p=[.3, .3, .08, .08, .08, .07, .03, .06]
                      if short else [.34, .34, .08, .08, .08, .08, 0, 0])
    least = lo - FEAS_TOL
    choices = [
        rate + rng.uniform(0.0, 1.0, len(lo)),  # above the rate
        rng.uniform(lo, rate),  # cuts inside the box
        np.zeros(len(lo)),
        np.full(len(lo), -0.0),
        lo,  # exactly at the lower bound
        least,  # the least room a cap may leave
        np.nextafter(least, -np.inf),  # just under it
        rng.uniform(-3.0, 3.0, len(lo)),
    ]
    return np.choose(kind, choices)


def instance(rng):
    """One capped (or, one time in ten, uncapped) vehicle LP with prices."""
    k = int(rng.integers(0, N_SLOTS + 1))
    first = int(rng.integers(1, N_SLOTS - k + 2))
    rate = float(rng.choice([1.8, 3.6, rng.uniform(0.5, 4.0)]))
    kind = rng.choice(["charge", "v2g", "neg_zero", "mixed"])
    if kind == "charge":
        lo = np.zeros(k)
    elif kind == "v2g":
        lo = np.full(k, -rate)
    elif kind == "neg_zero":
        lo = np.full(k, -0.0)
    else:
        lo = rng.choice([0.0, -0.0, -rate], k)
    up = np.full(k, float(rate))
    room = None if rng.random() < 0.1 else draw_room(rng, lo, rate)
    # a target the box may or may not reach, sometimes right at a sum
    reach_hi = float(np.maximum(np.minimum(up, np.inf if room is None
                                           else room), lo).sum())
    target = float(rng.choice([
        rng.uniform(float(lo.sum()) - 0.5, rate * k + 0.5),
        reach_hi, reach_hi + FEAS_TOL, np.nextafter(reach_hi + FEAS_TOL, 9),
        (rng.integers(0, 8 * k + 1) * 0.25) if k else 0.0]))
    # a band that binds now and then, sometimes right at the target
    min_prefix = float(rng.choice([-50.0, rng.uniform(-3.0, 1.0), 0.0,
                                   rng.uniform(0.0, rate)]))
    max_prefix = float(rng.choice([
        50.0, target + rng.uniform(0.0, 2.0), target + rng.uniform(-1.0, 0.0),
        target - FEAS_TOL, np.nextafter(target - FEAS_TOL, -9), target]))
    coeff = rng.integers(0, 4, k).astype(float)  # ties in every order
    return (lo, up, first, target, min_prefix, max_prefix, rate, room,
            coeff, kind)


def assert_same(lo, up, first, target, min_prefix, max_prefix, rate, room,
                coeff):
    new_lp, ref_lp = lp_pair(lo, up, first, target, min_prefix, max_prefix,
                             rate)
    order = coeff.argsort(kind="stable")
    room24 = None
    if room is not None:
        room24 = np.full(N_SLOTS, np.nan)  # only the free slots are read
        room24[new_lp.free] = room
    got = outcome(capped_box, solve_vehicle, new_lp, room, coeff, order)
    want = outcome(reference_capped_box, reference_solve_vehicle, ref_lp,
                   room24, coeff, order)
    assert got == want, (lo, up, first, target, min_prefix, max_prefix,
                         room, coeff)
    return got


def test_capped_solves_match_reference_on_seeded_instances():
    rng = np.random.default_rng(2202)
    seen = Counter()
    for _ in range(6000):
        *args, kind = instance(rng)
        got = assert_same(*args)
        if got[0] == "cap":
            verdict = "no room" if "no room" in got[1] else "short"
        else:
            verdict = got[9] if got[6] == "solve" else got[6]
            seen["zero widths"] += 0.0 in np.frombuffer(got[2]).tolist()
        seen[verdict] += 1
        seen[kind] += 1
        seen[kind, verdict] += 1
    # every verdict and every kind of box must really occur; on charge-only
    # boxes the pour must both pass and fail its certificate
    for key, least in [("no room", 400), ("short", 800), ("greedy", 1500),
                       ("exact", 80), ("state-of-charge", 1000),
                       ("energy balance", 150), ("empty", 100),
                       ("zero widths", 1000), ("charge", 1000),
                       ("v2g", 1000), ("neg_zero", 1000), ("mixed", 1000),
                       (("charge", "greedy"), 300),
                       (("charge", "exact"), 15),
                       (("charge", "state-of-charge"), 150)]:
        assert seen[key] >= least, (key, seen)


def test_capped_solves_match_reference_on_edge_instances():
    rate = 1.8
    for lo in (np.zeros(3), np.full(3, -0.0), np.full(3, -rate),
               np.array([0.0, -0.0, -rate])):
        up = np.full(3, rate)
        least = lo - FEAS_TOL
        for room in (np.full(3, 5.0), np.zeros(3), np.full(3, -0.0), lo,
                     least, np.nextafter(least, -np.inf),
                     np.array([5.0, 0.0, -0.0])):
            for target in (0.0, -0.0, 1.8, 3.6, 5.4, 6.0):
                for max_prefix in (50.0, target, target - FEAS_TOL):
                    assert_same(lo, up, 1, target, -50.0, max_prefix, rate,
                                room, np.array([2.0, 0.0, 1.0]))
    # an empty box, capped and not
    for room in (np.zeros(0), None):
        for target in (0.0, 1e-8, 1.0):
            assert_same(np.zeros(0), np.zeros(0), 25, target, -50.0, 50.0,
                        rate, room, np.zeros(0))


def test_only_a_box_of_plus_zero_lower_bounds_is_charge_only():
    up = np.full(2, 1.8)
    assert _box(np.zeros(2), up).charge_only
    assert _box(np.zeros(0), np.zeros(0)).charge_only
    assert not _box(np.full(2, -0.0), up).charge_only
    assert not _box(np.full(2, -1.8), up).charge_only
    # an upper bound below the lower bound would pour a discharge
    assert not _box(np.zeros(2), np.array([1.8, -0.5])).charge_only
