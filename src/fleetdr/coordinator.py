"""Fleet coordination: day-ahead shaping and real-time response.

The coordination game is played in two phases over a 24-slot day:

* **Day-ahead shaping.** Starting from empty plans, vehicles take turns
  best-responding to the aggregate of everyone else's plan minus the
  retailer's day-ahead purchase. This Gauss-Seidel sweep drives the fleet
  into the purchase profile's valleys and repeats until plans stop moving.

* **Real-time walk.** The day is replayed slot by slot. When the real-time
  price diverges from the day-ahead price by the trigger ratio, the
  connected vehicles replan their remaining slots, with one extra price on
  the first that pushes immediate consumption down (spike) or up (dip).
  Each slot's consumption is then frozen and the walk advances.

One :class:`CaseConfig` holds every run setting of the day, from a
scenario file's ``run`` section down to the walk, which checks it once.

A fleet-wide demand cap (the decarbonization limit) can be threaded through
both phases: each vehicle's upper bounds shrink to the head-room the cap
leaves after everyone else, which keeps the aggregate under the cap by
construction.

Each best response is one vehicle's LP, solved by the steps of
:mod:`fleetdr.subproblem`. The sweeps of one shaping or one replan form a
settle loop, and its passes share one :class:`PassCache`, built before the
first of them: no pass freezes a slot, so one call of
:func:`~fleetdr.subproblem.vehicle_lps` derives every LP the loop needs.
A pass visits the vehicles its cache lists, in order: it cuts each box to
the cap's head-room, prices the free slots and calls ``solve_vehicle``,
which returns the plan or raises for an infeasible vehicle.

A pass prices only the free slots. It refills everyone's load (households
plus the fleet's aggregate) in place at its start, and again only after a
plan write, with the same expression, so every visit reads the bits a
fresh sum would give. A visit slices nothing and allocates no array for a
result: with numpy's ``out`` it writes each step into the cache's views of
the load, the purchase, the aggregate and its plan on its free slots, and
into three scratch arrays. Everyone else's load is the load less the held
plan, the prices are that less the purchase, and the cap's head-room is
the scalar cap less it; a write adds the plan's step to the aggregate's
view. These are the operations, in the order, of the sliced expressions,
so they give the same bits.

Beside the LP the cache keeps what the vehicle's last solve saw: the capped
box's upper bounds, the stable argsort of its prices and, when that solve
ran the exact program, which neighbours in sorted order tied. The greedy
pour reads the prices only through that argsort, and the exact program
only compares them, so when all of it repeats the solve would return the
plan the vehicle already holds, bit for bit: within a loop only its passes
write plans. The pass skips such a solve and its no-op update of the
aggregate. A solve that runs anyway and returns the held plan's bytes (a
new order that moves only slots the plan leaves alone, say) writes
nothing either: the update it skips would add +0.0, and the aggregate
never holds -0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated, Dict, List, Sequence, Tuple

import numpy as np

from .errors import ConfigError, InfeasibleError
from .fleet import N_SLOTS, PevProfile, as_profile, check_ranges
from .market import MarketDay
from .subproblem import capped_box, solve_vehicle, t0_term, vehicle_lps
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

    The state plans on its own copy of ``pev``, so read-only plans such as
    ``ShapedPlans.pev`` start one as they are and stay untouched.
    """

    fleet: List[PevProfile]
    household_total: np.ndarray
    da_profile: np.ndarray
    pev: np.ndarray = field(default=None)  # (n_users, 24) charge plans, kWh
    realized_upto: int = 0  # day slots 1..realized_upto are frozen

    def __post_init__(self):
        self.household_total = as_profile(self.household_total)
        self.da_profile = as_profile(self.da_profile)
        given = self.pev is not None
        self.pev = (np.array(self.pev, dtype=float) if given
                    else np.zeros((len(self.fleet), N_SLOTS)))
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

    @property
    def aggregate(self) -> np.ndarray:
        return self.household_total + self.pev.sum(axis=0)


class PassCache:
    """What the passes of one settle loop share (see the module docstring):
    the aggregate and load arrays, and per user of ``users`` (fleet rows,
    default all), in order, its [LP, plan view, free window's views and
    scratch arrays, last solve's inputs]. It serves passes while the
    state's ``pev``, ``da_profile`` and ``realized_upto`` stay put.
    """

    def __init__(self, state: ScheduleState,
                 users: Sequence[int] | None = None):
        pev, da = state.pev, state.da_profile
        self.agg = np.zeros(N_SLOTS)
        self.load = np.zeros(N_SLOTS)
        self.vehicles: Dict[int, list] = {}
        windows: Dict[tuple, list] = {}  # shared by the users of a window
        users = list(range(len(state.fleet)) if users is None else users)
        lps = vehicle_lps([state.fleet[idx] for idx in users], pev[users],
                          state.realized_upto)
        for idx, lp in zip(users, lps):
            free = lp.free
            window = windows.get((free.start, free.stop))
            if window is None:
                window = windows[free.start, free.stop] = [
                    self.load[free], da[free], self.agg[free],
                    *np.empty((3, free.stop - free.start))]
            self.vehicles[idx] = [lp, pev[idx, free], window, None]


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
        for prof in fleet:  # a bad profile, not kappa, is then to blame
            prof.validate()
        raise ConfigError(f"run.kappa {kappa!r} is too large: the cap, kappa "
                          f"times the day's mean demand of "
                          f"{total / N_SLOTS:.6g} kWh, overflows")
    return cap


def _ties(coeff: np.ndarray, order: np.ndarray) -> bytes:
    """Which neighbours of ``coeff`` in sorted ``order`` are equal."""
    ranked = coeff[order]
    return (ranked[1:] == ranked[:-1]).tobytes()


def best_response_pass(state: ScheduleState, *, lam: float = 1.0,
                       t0: float | None = None, cap: float | None = None,
                       cache: PassCache | None = None) -> None:
    """One Gauss-Seidel sweep: the users ``cache`` lists replan in turn,
    in place, in its order (without a cache the pass builds its own, over
    everyone). Each solve sees the aggregate updated by all previous
    solves in the sweep. ``t0``, the spike term's price (see ``t0_term``),
    is added to each vehicle's first free slot. The inputs are checked
    once per pass, not once per solve.

    The pass writes exactly the plans ``solve(build_subproblem(...))``
    gives and raises the same errors, but keeps unsolved a vehicle whose
    box, price order and, after an exact solve, price ties repeat its last
    solve in the cache, and writes nothing for a solve that returns the
    held plan (see the module docstring).
    """
    if not 0 <= lam <= 1:
        raise ConfigError(f"lam must be in [0, 1], got {lam}")
    if cap is not None and not math.isfinite(cap):
        raise ConfigError(f"demand cap must be finite, got {cap}")
    if cache is None:
        cache = PassCache(state)
    hh, agg, load = state.household_total, cache.agg, cache.load
    as_profile(np.sum(state.pev, axis=0, out=agg))  # refilled in place
    np.add(hh, agg, load)  # everyone's load; refreshed after each write
    subtract, add = np.subtract, np.add
    for cached in cache.vehicles.values():
        lp, held, window, last = cached
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
        cached[3] = (ranks, up,
                     _ties(coeff, order) if method == "exact" else None)
        if x.tobytes() != held.tobytes():  # else the update adds +0.0
            subtract(x, held, spare)  # the step, into spent scratch
            add(agg_w, spare, agg_w)
            held[:] = x
            add(hh, agg, load)


def _sweep_until_settled(state: ScheduleState, conv: ConvergenceSpec, *,
                         users: Sequence[int] | None = None,
                         **pass_kwargs) -> List[float]:
    """Best-response passes over ``users`` (default all) until one moves
    plans by less than ``mse_tol`` or ``max_sweeps`` run out; returns each
    pass's MSE against the plans before it. They share one cache."""
    cache = PassCache(state, users)
    trace: List[float] = []
    prev = state.pev.copy()
    for _ in range(conv.max_sweeps):
        best_response_pass(state, cache=cache, **pass_kwargs)
        trace.append(float(np.mean((state.pev - prev) ** 2)))
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
    sweeps.
    """

    pev: np.ndarray
    aggregate: np.ndarray
    da_aggregate: np.ndarray
    da_mse_trace: List[float]
    altered_slots: List[int]
    converged: bool

    @property
    def da_sweeps(self) -> int:
        return len(self.da_mse_trace)


def real_time_walk(state: ScheduleState, market: MarketDay, case: CaseConfig,
                   *, cap: float | None = None) -> List[int]:
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
        if decide_altering(rt, da, case.trigger):
            users = connected_users(state, t)
            if users:
                altered.append(t)
                t0 = t0_term(case.lam_rt, 1 if rt > da else -1,
                             case.t0_term_scale)
                _sweep_until_settled(state, case.conv, lam=case.lam_rt,
                                     t0=t0, cap=cap, users=users)
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
                 market: MarketDay, case: CaseConfig, shaped: ShapedPlans,
                 *, altering: bool = True) -> DayResult:
    """One coordination case's day: walk it in real time from a copy of
    the plans :func:`shape_fleet` shaped, under their cap.

    ``shaped`` must come from :func:`shape_fleet` on the same fleet,
    households, purchase and ``case.conv``. With ``altering=False`` no slot
    replans: the day keeps the shaped plans and no walk runs. ``case`` is
    checked first.
    """
    case.validate()
    cap = shaped.cap
    state = ScheduleState(fleet=list(fleet), household_total=household_total,
                          da_profile=market.da_profile, pev=shaped.pev)
    da_agg = state.aggregate
    altered = real_time_walk(state, market, case, cap=cap) if altering else []
    agg = state.aggregate
    if cap is not None and np.any(agg > cap + 1e-6):
        worst = int(np.argmax(agg)) + 1
        raise InfeasibleError(
            f"aggregate exceeds the demand cap at slot {worst} "
            f"({agg[worst - 1]:.6f} > {cap:.6f})", constraint="demand cap")
    trace = list(shaped.mse_trace)
    return DayResult(pev=state.pev, aggregate=agg, da_aggregate=da_agg,
                     da_mse_trace=trace, altered_slots=altered,
                     converged=trace[-1] < case.conv.mse_tol)
