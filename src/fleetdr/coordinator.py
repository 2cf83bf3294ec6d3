"""Fleet coordination: day-ahead shaping and real-time response.

The coordination game is played in two phases over a 24-slot day:

* **Day-ahead shaping.** Starting from empty plans, vehicles take turns
  best-responding to the aggregate of everyone else's plan minus the
  retailer's day-ahead purchase. This Gauss-Seidel sweep drives the fleet
  into the purchase profile's valleys and repeats until plans stop moving.

* **Real-time walk.** The day is replayed slot by slot. When the real-time
  price diverges from the day-ahead price by the trigger ratio, the
  connected vehicles replan their remaining slots with an extra term that
  pushes immediate consumption down (spike) or up (dip). Each slot's
  consumption is then frozen and the walk advances.

One :class:`CaseConfig` holds every run setting of the day, from a
scenario file's ``run`` section down to the walk, which checks it once.

A fleet-wide demand cap (the decarbonization limit) can be threaded through
both phases: each vehicle's upper bounds shrink to the head-room the cap
leaves after everyone else, which keeps the aggregate under the cap by
construction.

Each best response is one vehicle's LP, solved by the steps of
:mod:`fleetdr.subproblem`. :func:`best_response_pass` keeps each vehicle's
derived LP on the :class:`ScheduleState` until the walk freezes another
slot. Before its first visit it derives every LP it will need that is
missing or older than the frozen slots, all of them in one call of
:func:`~fleetdr.subproblem.vehicle_lps`. Then, vehicle by vehicle, it cuts
the box to the cap's head-room, prices the free slots and calls
:func:`~fleetdr.subproblem.solve_vehicle`, which returns the plan or raises
for an infeasible vehicle.

A pass prices only the free slots. It refills everyone's load (households
plus the fleet's aggregate) in place at its start, and again only after a
plan write, with the same expression, so every visit reads the bits a
fresh sum would give. A visit slices nothing and allocates no array for a
result. The state keeps, per free window, views of the load, the purchase
and the aggregate on its slots beside three scratch arrays, and per
vehicle a view of its plan there; the visit writes each step into them
with numpy's ``out``. Everyone else's load is the load less the held plan,
the prices are that less the purchase, and the cap's head-room is the
scalar cap less it; a write adds the plan's step to the aggregate's view.
These are the operations, in the order, of the sliced expressions, so
they give the same bits. The views outlive the pass: one that finds
``pev`` or ``da_profile`` replaced cuts them afresh, keeping every LP and
solve record, and each pass reads ``household_total`` anew.

Beside the LP the pass keeps what the vehicle's last solve saw: the capped
box's upper bounds, the stable argsort of its prices and, when that solve
ran the exact program, which neighbours in sorted order tied. The greedy
pour reads the prices only through that argsort, and the exact program
only compares them, so when all of it repeats the solve would return the
plan the vehicle already holds, bit for bit. The pass skips such a solve
and its no-op update of the aggregate. A solve that runs anyway and
returns the held plan's bytes (a new order that moves only slots the plan
leaves alone, say) writes nothing either: the update it skips would add
+0.0, and the aggregate never holds -0.0. Only passes write plans, and the
record goes with the LP when the walk freezes another slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated, Dict, List, Sequence, Tuple

import numpy as np

from .errors import ConfigError, InfeasibleError
from .fleet import N_SLOTS, PevProfile, as_profile, check_ranges
from .market import MarketDay
from .subproblem import Box, capped_box, solve_vehicle, t0_term, vehicle_lps
# unused here; perfbench/tracing.py wraps both (test_traced_name_resolves)
from .subproblem import build_subproblem, solve  # noqa: F401


@dataclass
class ConvergenceSpec:
    """Stopping rule for best-response sweeps."""

    max_sweeps: Annotated[int, ">= 1"] = 10
    mse_tol: Annotated[float, "positive"] = 1e-6

    def validate(self) -> None:
        check_ranges(self, "run")


@dataclass
class CaseConfig:
    """A day's run settings: a scenario file's ``run`` section, with
    ``conv`` flattened into it.

    ``kappa`` is the demand-cap factor, above 1 (None = cap off, making
    case 4 degenerate to case 3); ``lam_rt`` weighs price tracking against
    the immediate-consumption term during spike response. Each field's
    range is declared beside its type.
    """

    kappa: Annotated[float | None, "> 1"] = None
    lam_rt: Annotated[float, "in [0, 1)"] = 0.5
    trigger: Annotated[float, "> 1"] = 2.0
    t0_term_scale: Annotated[float, "positive"] = 1.0
    conv: ConvergenceSpec = field(default_factory=ConvergenceSpec)

    def validate(self) -> None:
        check_ranges(self, "run")
        self.conv.validate()


@dataclass
class ScheduleState:
    """Everyone's current plan plus how much of the day is already real.

    Passes cache each vehicle's LP, derived from the frozen slots of
    ``pev``, and what its last solve saw, until ``realized_upto`` moves,
    so change plans only through passes, or start a new state.

    Passes also keep the fleet's aggregate and everyone's load in two
    (24,) arrays, refilled at each pass start, and views into them, ``pev``
    and ``da_profile``. A pass cuts the views afresh when it finds ``pev``
    or ``da_profile`` replaced, and a copy of the state starts without
    them.
    """

    fleet: List[PevProfile]
    household_total: np.ndarray
    da_profile: np.ndarray
    pev: np.ndarray = field(default=None)  # (n_users, 24) charge plans, kWh
    realized_upto: int = 0  # day slots 1..realized_upto are frozen
    # each fleet row's [realized_upto, derived LP, plan view on its free
    # slots, its window's arrays, last solve's inputs], and the rate boxes
    # those LPs share
    _vehicles: Dict[int, list] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _boxes: Dict[tuple, Box] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # per free window (start, stop): [load, purchase, aggregate views,
    # others, coeff, spare scratch]
    _windows: Dict[tuple, list] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _agg: np.ndarray = field(default_factory=lambda: np.zeros(N_SLOTS),
                             init=False, repr=False, compare=False)
    _load: np.ndarray = field(default_factory=lambda: np.zeros(N_SLOTS),
                              init=False, repr=False, compare=False)
    # the pev and da_profile the views were cut from
    _aimed: tuple = field(default=(None, None), init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        self.household_total = as_profile(self.household_total)
        self.da_profile = as_profile(self.da_profile)
        given = self.pev is not None
        if not given:
            self.pev = np.zeros((len(self.fleet), N_SLOTS))
        self.pev = np.asarray(self.pev, dtype=float)
        if self.pev.shape != (len(self.fleet), N_SLOTS):
            raise ConfigError(
                f"pev matrix shape {self.pev.shape} does not match "
                f"{len(self.fleet)} users x {N_SLOTS} slots")
        for prof in self.fleet:
            if prof.departure_slot < prof.arrival_slot:
                prof.validate()  # raises the wrapped-window error
        if given:
            # passes only ever write window slots, so a plan must start
            # with nothing outside its window
            arrival = np.array([p.arrival_slot for p in self.fleet], float)
            departure = np.array([p.departure_slot for p in self.fleet],
                                 float)
            slot = np.arange(1, N_SLOTS + 1)
            outside = (self.pev != 0.0) & ((slot < arrival[:, None])
                                           | (slot > departure[:, None]))
            if outside.any():
                idx = int(np.flatnonzero(outside.any(axis=1))[0])
                raise ConfigError(
                    f"user {self.fleet[idx].user_id}: plan has load "
                    "outside its charging window")

    def __getstate__(self):
        # a copy's views would not see its own arrays
        return {**self.__dict__, "_vehicles": {}, "_windows": {},
                "_aimed": (None, None)}

    @property
    def aggregate(self) -> np.ndarray:
        return self.household_total + self.pev.sum(axis=0)


def _matrix_mse(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.mean((a - b) ** 2))


def decide_altering(rt_price: float, da_price: float, trigger: float) -> bool:
    """Should connected vehicles replan at this slot?

    Fires when the real-time price has diverged from the day-ahead price by
    the trigger ratio in either direction. Equal prices never fire.
    ``trigger`` must be in ``CaseConfig.trigger``'s range, > 1.
    """
    if rt_price == da_price:
        return False
    return rt_price >= trigger * da_price or rt_price <= da_price / trigger


def cap_value(household_total, fleet: Sequence[PevProfile],
              kappa: float | None) -> float | None:
    """Decarbonization cap: kappa times the day's mean total demand, or
    None (no cap) when ``kappa`` is None. ``kappa`` must be in
    ``CaseConfig.kappa``'s range, > 1, so the cap lies above the mean.

    The mean is conservation-based -- households plus every vehicle's
    required energy spread over the day -- so it does not depend on how the
    fleet ends up scheduled.
    """
    if kappa is None:
        return None
    # run.kappa's declared range; the other run settings keep defaults
    check_ranges(CaseConfig(kappa=kappa), "run")
    hh = as_profile(household_total)
    total = float(hh.sum()) + sum(p.required_energy for p in fleet)
    cap = kappa * total / N_SLOTS
    if not math.isfinite(cap):
        raise ConfigError(f"run.kappa {kappa!r} is too large: the cap, kappa "
                          f"times the day's mean demand of "
                          f"{total / N_SLOTS:.6g} kWh, overflows")
    return cap


def _ties(coeff: np.ndarray, order: np.ndarray) -> bytes:
    """Which neighbours of ``coeff`` in sorted ``order`` are equal."""
    ranked = coeff[order]
    return (ranked[1:] == ranked[:-1]).tobytes()


def best_response_pass(state: ScheduleState, *, lam: float = 1.0,
                       t0_sign: int = 0, t0_term_scale: float = 1.0,
                       cap: float | None = None,
                       users: Sequence[int] | None = None) -> None:
    """One Gauss-Seidel sweep: each listed user replans in turn, in place.

    ``users`` are row indices into the fleet (default: everyone). Each
    solve sees the aggregate updated by all previous solves in the sweep.

    The inputs are checked once per pass, not once per solve. Each
    vehicle's LP is derived once per ``realized_upto`` and kept on
    ``state``, the pass's stale ones together before the first visit; per
    solve the pass only cuts its box to the cap's head-room, prices its
    free slots (against everyone's load, refreshed after each write) and
    solves it, so it writes exactly the plans
    ``solve(build_subproblem(...))`` gives and raises the same errors. A
    vehicle whose box, price order and, after an exact solve, price ties
    repeat those of its last solve keeps its plan unsolved, and a solve
    that returns the held plan writes nothing (see the module docstring).
    """
    if not 0 <= lam <= 1:
        raise ConfigError(f"lam must be in [0, 1], got {lam}")
    if cap is not None and not math.isfinite(cap):
        raise ConfigError(f"demand cap must be finite, got {cap}")
    if users is None:
        users = range(len(state.fleet))
    t0 = t0_term(lam, t0_sign, t0_term_scale)
    pev, hh, da = state.pev, state.household_total, state.da_profile
    agg, load = state._agg, state._load  # refilled in place
    as_profile(np.sum(pev, axis=0, out=agg))
    np.add(hh, agg, load)  # everyone's load; refreshed after each write
    upto, vehicles, windows = (state.realized_upto, state._vehicles,
                               state._windows)
    if state._aimed[0] is not pev:  # the caller swapped in new plans
        for idx, cached in vehicles.items():
            cached[2] = pev[idx, cached[1].free]
    if state._aimed[1] is not da:  # ... or a new purchase
        for (start, stop), window in windows.items():
            window[1] = da[start:stop]
    state._aimed = pev, da
    stale = [idx for idx in users
             if idx not in vehicles or vehicles[idx][0] != upto]
    if stale:
        lps = vehicle_lps([state.fleet[idx] for idx in stale], pev[stale],
                          upto, state._boxes)
        for idx, lp in zip(stale, lps):
            free = lp.free
            window = windows.get((free.start, free.stop))
            if window is None:
                window = windows[free.start, free.stop] = [
                    load[free], da[free], agg[free],
                    *np.empty((3, free.stop - free.start))]
            vehicles[idx] = [upto, lp, pev[idx, free], window, None]
    subtract, add = np.subtract, np.add
    for idx in users:
        _, lp, held, window, last = cached = vehicles[idx]
        load_w, da_w, agg_w, others, coeff, spare = window
        subtract(load_w, held, others)
        subtract(others, da_w, coeff)
        if cap is None:
            box, up = lp.box, None
        else:
            subtract(cap, others, spare)  # the cap's head-room
            box = capped_box(lp, spare)
            up = box.up.tobytes()
        if lam != 1.0:  # shaping passes skip an exact multiply by 1
            coeff *= lam
        if t0 is not None and coeff.size:
            coeff[0] += t0
        order = coeff.argsort(kind="stable")
        ranks = order.tobytes()
        if (last is not None and last[0] == ranks and last[1] == up
                and (last[2] is None or last[2] == _ties(coeff, order))):
            continue  # the solve would return the plan's own bits
        x, method = solve_vehicle(lp, box, coeff, order)
        cached[4] = (ranks, up,
                     _ties(coeff, order) if method == "exact" else None)
        if x.tobytes() != held.tobytes():  # else the update adds +0.0
            subtract(x, held, spare)  # the step, into spent scratch
            add(agg_w, spare, agg_w)
            held[:] = x
            add(hh, agg, load)


def _sweep_until_settled(state: ScheduleState, conv: ConvergenceSpec,
                         **pass_kwargs) -> List[float]:
    """Best-response passes until one moves plans by less than ``mse_tol``
    or ``max_sweeps`` run out; returns each pass's MSE against the plans
    before it."""
    trace: List[float] = []
    prev = state.pev.copy()
    for _ in range(conv.max_sweeps):
        best_response_pass(state, **pass_kwargs)
        trace.append(_matrix_mse(state.pev, prev))
        if trace[-1] < conv.mse_tol:
            break
        prev = state.pev.copy()
    return trace


def shape_day_ahead(state: ScheduleState, conv: ConvergenceSpec, *,
                    cap: float | None = None) -> List[float]:
    """Run day-ahead sweeps until plans settle; returns the MSE trace.

    Trace entry i is the mean squared change between sweep i+1 and what
    preceded it (the zero initial plan before sweep 1).
    """
    conv.validate()
    if cap is not None and np.any(state.household_total > cap + 1e-9):
        raise InfeasibleError(
            "demand cap lies below firm household demand",
            constraint="demand cap")
    return _sweep_until_settled(state, conv, lam=1.0, cap=cap)


def connected_users(state: ScheduleState, slot: int) -> List[int]:
    """Fleet rows plugged in at ``slot`` with that slot still unfrozen."""
    if slot <= state.realized_upto:
        return []
    return [idx for idx, prof in enumerate(state.fleet)
            if prof.arrival_slot <= slot <= prof.departure_slot]


@dataclass(frozen=True, eq=False)
class ShapedPlans:
    """Everyone's day-ahead plan after shaping under one cap.

    ``pev`` is read-only: every walk that starts from it works on its own
    copy.
    """

    pev: np.ndarray
    mse_trace: Tuple[float, ...]
    cap: float | None


@dataclass
class DayResult:
    """Everything the real-time walk produced for one case run.

    ``converged`` says whether day-ahead shaping settled (its last sweep
    moved plans by less than ``mse_tol``) rather than running out of
    sweeps; ``shaped`` holds the plans it settled on, for a later case
    under the same cap.
    """

    pev: np.ndarray
    aggregate: np.ndarray
    da_aggregate: np.ndarray
    da_mse_trace: List[float]
    altered_slots: List[int]
    converged: bool
    shaped: ShapedPlans | None = None

    @property
    def da_sweeps(self) -> int:
        return len(self.da_mse_trace)


def real_time_walk(state: ScheduleState, market: MarketDay, case: CaseConfig,
                   *, altering: bool = True,
                   cap: float | None = None) -> List[int]:
    """Replay the day slot by slot, replanning on price divergence.

    Returns the slots at which replanning fired. ``state`` ends with the
    whole day realized.
    """
    case.validate()
    altered: List[int] = []
    for t in range(1, N_SLOTS + 1):
        state.realized_upto = t - 1
        rt = market.rt_prices[t]
        da = market.da_prices[t]
        if altering and decide_altering(rt, da, case.trigger):
            users = connected_users(state, t)
            if users:
                altered.append(t)
                _sweep_until_settled(
                    state, case.conv, lam=case.lam_rt,
                    t0_sign=1 if rt > da else -1,
                    t0_term_scale=case.t0_term_scale, cap=cap, users=users)
        # slot t is now real
    state.realized_upto = N_SLOTS
    return altered


def shape_fleet(fleet: Sequence[PevProfile], household_total,
                da_profile, conv: ConvergenceSpec, *,
                cap: float | None = None) -> ShapedPlans:
    """Shape everyone's day-ahead plan from zero under ``cap``.

    Reads nothing but its arguments, so one shaping per distinct cap can
    run anywhere, even in another process.
    """
    state = ScheduleState(fleet=list(fleet), household_total=household_total,
                          da_profile=da_profile)
    trace = shape_day_ahead(state, conv, cap=cap)
    state.pev.setflags(write=False)
    return ShapedPlans(pev=state.pev, mse_trace=tuple(trace), cap=cap)


def simulate_day(fleet: Sequence[PevProfile], household_total,
                 market: MarketDay, case: CaseConfig, *,
                 altering: bool = True, cap: float | None = None,
                 shaped: ShapedPlans | None = None) -> DayResult:
    """Full pipeline for one coordination case: shape day-ahead, then walk
    the day in real time from a copy of the shaped plans.

    ``cap`` comes from :func:`cap_value`. ``shaped`` skips the shaping. It
    must come from :func:`shape_fleet`, or be the ``DayResult.shaped`` of an
    earlier call, on the same fleet, households, purchase and ``case.conv``,
    under the same ``cap``. ``case`` is checked before any shaping.
    """
    case.validate()
    if shaped is None:
        shaped = shape_fleet(fleet, household_total, market.da_profile,
                             case.conv, cap=cap)
    elif shaped.cap != cap:
        raise ConfigError(f"plans shaped under cap {shaped.cap} cannot "
                          f"start a day under cap {cap}")
    state = ScheduleState(fleet=list(fleet), household_total=household_total,
                          da_profile=market.da_profile, pev=shaped.pev.copy())
    da_agg = state.aggregate
    altered = real_time_walk(state, market, case, altering=altering, cap=cap)
    agg = state.aggregate
    if cap is not None and np.any(agg > cap + 1e-6):
        worst = int(np.argmax(agg)) + 1
        raise InfeasibleError(
            f"aggregate exceeds the demand cap at slot {worst} "
            f"({agg[worst - 1]:.6f} > {cap:.6f})", constraint="demand cap")
    trace = list(shaped.mse_trace)
    return DayResult(pev=state.pev, aggregate=agg, da_aggregate=da_agg,
                     da_mse_trace=trace, altered_slots=altered,
                     converged=trace[-1] < case.conv.mse_tol, shaped=shaped)
