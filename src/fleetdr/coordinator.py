"""Fleet coordination: day-ahead shaping and real-time response.

The coordination game is played in two phases over a 24-slot day:

* **Day-ahead shaping.** Starting from empty plans, vehicles take turns
  best-responding to the aggregate of everyone else's plan minus the
  retailer's day-ahead purchase. This Gauss-Seidel sweep drives the fleet
  into the purchase profile's valleys and repeats until plans stop moving.

* **Real-time walk.** The day is replayed slot by slot. When the real-time
  price diverges enough from the day-ahead price, the connected vehicles
  replan their remaining slots with an extra term that pushes immediate
  consumption down (spike) or up (dip). Each slot's consumption is then
  frozen and the walk advances.

A fleet-wide demand cap (the decarbonization limit) can be threaded through
both phases: each vehicle's upper bounds shrink to the head-room the cap
leaves after everyone else, which keeps the aggregate under the cap by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .errors import ConfigError, InfeasibleError
from .fleet import N_SLOTS, PevProfile, as_profile
from .market import MarketDay
from .subproblem import build_subproblem, solve


@dataclass
class ConvergenceSpec:
    """Stopping rule for best-response sweeps."""

    max_sweeps: int = 10
    mse_tol: float = 1e-6

    def validate(self) -> None:
        if self.max_sweeps < 1:
            raise ConfigError("convergence.max_sweeps must be >= 1")
        if self.mse_tol <= 0:
            raise ConfigError("convergence.mse_tol must be positive")


@dataclass
class ScheduleState:
    """Everyone's current plan plus how much of the day is already real."""

    fleet: List[PevProfile]
    household_total: np.ndarray
    da_profile: np.ndarray
    pev: np.ndarray = field(default=None)  # (n_users, 24) charge plans, kWh
    realized_upto: int = 0  # day slots 1..realized_upto are frozen

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
            outside = self.pev.copy()
            for row, prof in zip(outside, self.fleet):
                row[prof.window] = 0.0
            if outside.any():
                idx = int(np.flatnonzero(outside.any(axis=1))[0])
                raise ConfigError(
                    f"user {self.fleet[idx].user_id}: plan has load "
                    "outside its charging window")

    @property
    def aggregate(self) -> np.ndarray:
        return self.household_total + self.pev.sum(axis=0)

    def history_for(self, idx: int) -> np.ndarray:
        """User ``idx``'s plan on its window slots that are already real
        (a view of ``pev``)."""
        prof = self.fleet[idx]
        done = max(0, self.realized_upto - prof.arrival_slot + 1)
        return self.pev[idx, prof.window][:done]


def _matrix_mse(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.mean((a - b) ** 2))


def decide_altering(rt_price: float, da_price: float,
                    trigger: float = 2.0) -> bool:
    """Should connected vehicles replan at this slot?

    Fires when the real-time price has diverged from the day-ahead price by
    the trigger ratio in either direction. Equal prices never fire.
    """
    if trigger <= 1:
        raise ConfigError(f"trigger ratio must be > 1, got {trigger}")
    if rt_price == da_price:
        return False
    return rt_price >= trigger * da_price or rt_price <= da_price / trigger


def cap_value(household_total, fleet: Sequence[PevProfile],
              kappa: float) -> float:
    """Decarbonization cap: kappa times the day's mean total demand.

    The mean is conservation-based -- households plus every vehicle's
    required energy spread over the day -- so it does not depend on how the
    fleet ends up scheduled.
    """
    if kappa <= 0:
        raise ConfigError(f"kappa must be positive, got {kappa}")
    hh = as_profile(household_total)
    total = float(hh.sum()) + sum(p.required_energy for p in fleet)
    return kappa * total / N_SLOTS


def best_response_pass(state: ScheduleState, *, lam: float = 1.0,
                       t0_sign: int = 0, t0_term_scale: float = 1.0,
                       cap: float | None = None,
                       users: Sequence[int] | None = None) -> None:
    """One Gauss-Seidel sweep: each listed user replans in turn, in place.

    ``users`` are row indices into the fleet (default: everyone). Each
    solve sees the aggregate updated by all previous solves in the sweep.
    """
    if users is None:
        users = range(len(state.fleet))
    agg_pev = state.pev.sum(axis=0)
    for idx in users:
        plan = state.pev[idx]
        others = state.household_total + agg_pev - plan
        signal = others - state.da_profile
        room = None if cap is None else cap - others
        history = state.history_for(idx)
        sub = build_subproblem(
            state.fleet[idx], signal, lam=lam, history=history,
            t0_sign=t0_sign, t0_term_scale=t0_term_scale, slot_cap=room)
        sol = solve(sub)
        # the free slots are the tail of the window, ending at departure
        end = state.fleet[idx].departure_slot
        free = slice(end - sol.x.size, end)
        agg_pev[free] += sol.x - plan[free]
        plan[free] = sol.x


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


def real_time_walk(state: ScheduleState, market: MarketDay,
                   conv: ConvergenceSpec, *, altering: bool = True,
                   lam: float = 0.5, trigger: float = 2.0,
                   t0_term_scale: float = 1.0,
                   cap: float | None = None) -> List[int]:
    """Replay the day slot by slot, replanning on price divergence.

    Returns the slots at which replanning fired. ``state`` ends with the
    whole day realized.
    """
    conv.validate()
    if not 0 <= lam <= 1:
        raise ConfigError(f"lam must be in [0, 1], got {lam}")
    altered: List[int] = []
    for t in range(1, N_SLOTS + 1):
        state.realized_upto = t - 1
        rt = market.rt_prices[t]
        da = market.da_prices[t]
        if altering and decide_altering(rt, da, trigger):
            users = connected_users(state, t)
            if users:
                altered.append(t)
                _sweep_until_settled(
                    state, conv, lam=lam, t0_sign=1 if rt > da else -1,
                    t0_term_scale=t0_term_scale, cap=cap, users=users)
        # slot t is now real
    state.realized_upto = N_SLOTS
    return altered


def simulate_day(fleet: Sequence[PevProfile], household_total,
                 market: MarketDay, conv: ConvergenceSpec, *,
                 altering: bool = True, lam_rt: float = 0.5,
                 trigger: float = 2.0, t0_term_scale: float = 1.0,
                 cap: float | None = None,
                 shaped: ShapedPlans | None = None) -> DayResult:
    """Full pipeline for one coordination case: shape day-ahead, then walk
    the day in real time.

    ``shaped`` skips the shaping and walks from a copy of its plans. It must
    be the ``DayResult.shaped`` of an earlier call on the same fleet,
    households, purchase and ``conv``, under the same ``cap``.
    """
    if shaped is None:
        state = ScheduleState(fleet=list(fleet),
                              household_total=household_total,
                              da_profile=market.da_profile)
        trace = shape_day_ahead(state, conv, cap=cap)
        plans = state.pev.copy()
        plans.setflags(write=False)
        shaped = ShapedPlans(pev=plans, mse_trace=tuple(trace), cap=cap)
    else:
        if shaped.cap != cap:
            raise ConfigError(f"plans shaped under cap {shaped.cap} cannot "
                              f"start a day under cap {cap}")
        state = ScheduleState(fleet=list(fleet),
                              household_total=household_total,
                              da_profile=market.da_profile,
                              pev=shaped.pev.copy())
        trace = list(shaped.mse_trace)
    da_agg = state.aggregate
    altered = real_time_walk(state, market, conv, altering=altering,
                             lam=lam_rt, trigger=trigger,
                             t0_term_scale=t0_term_scale, cap=cap)
    agg = state.aggregate
    if cap is not None and np.any(agg > cap + 1e-6):
        worst = int(np.argmax(agg)) + 1
        raise InfeasibleError(
            f"aggregate exceeds the demand cap at slot {worst} "
            f"({agg[worst - 1]:.6f} > {cap:.6f})", constraint="demand cap")
    return DayResult(pev=state.pev, aggregate=agg, da_aggregate=da_agg,
                     da_mse_trace=trace, altered_slots=altered,
                     converged=trace[-1] < conv.mse_tol, shaped=shaped)
