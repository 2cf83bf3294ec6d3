"""Exact oracles for one vehicle's replanning LP on a discretised charge
grid, independent of the solver they check.

* :func:`brute_force_oracle` -- a dynamic program over the running energy
  sum, for small instances; it checks ``fleetdr.subproblem.solve``.
* :func:`enumerate_oracle` -- a literal exhaustive search over the same
  grid, only viable for a few slots; it checks the dynamic program.
* :func:`exchange_certificate` -- the optimality conditions of the LP
  itself, feasibility plus a pair-exchange test, for any number of slots;
  it checks every plan a day's solves return.
"""

import math
from itertools import accumulate, product
from typing import List

import numpy as np

from fleetdr.errors import ConfigError, DataError, InfeasibleError
from fleetdr.subproblem import FEAS_TOL, SubproblemSolution, UserSubproblem

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
    :func:`fleetdr.subproblem.solve`; refuses instances with more than
    ``MAX_ORACLE_SLOTS`` free slots to keep runtime honest.
    """
    k = len(sub.coeff)
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
    k = len(sub.coeff)
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
    for combo in product(*ranges):
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


def feasibility_problems(lo, up, target: float, floor: float,
                         ceiling: float, x) -> List[str]:
    """Every bound, the energy target and the band ``x`` misses by more
    than ``FEAS_TOL`` (empty = feasible)."""
    problems = [f"slot {i}: {v!r} outside [{lo[i]!r}, {up[i]!r}]"
                for i, v in enumerate(x)
                if not lo[i] - FEAS_TOL <= v <= up[i] + FEAS_TOL]
    running = list(accumulate(x))
    total = running[-1] if running else 0.0
    if not abs(total - target) <= FEAS_TOL:
        problems.append(f"delivers {total!r}, owes {target!r}")
    problems += [f"running sum {i}: {p!r} outside [{floor!r}, {ceiling!r}]"
                 for i, p in enumerate(running)
                 if not floor - FEAS_TOL <= p <= ceiling + FEAS_TOL]
    return problems


EXCHANGE_TOL = 1e-9  # a move smaller than this is rounding, not a gain


def exchange_certificate(lo, up, coeff, target: float, floor: float,
                         ceiling: float, x) -> List[str]:
    """Why ``x`` is not an optimum of min c.x subject to lo <= x <= up,
    sum(x) = target and floor <= P_j <= ceiling for every running sum P_j;
    an empty list certifies it.

    The LP is a min-cost flow along the slot chain: each slot has an arc
    from the source, and the chain arcs carry the running sums. Every
    residual cycle uses exactly two source arcs, so the negative-cycle
    optimality condition (Klein, 1967) reduces to a pair test: a feasible
    ``x`` is optimal unless some slot ``i`` can give energy to a cheaper
    slot ``j`` (c_j < c_i, x_i above lo_i, x_j below up_j) with slack in
    the band on every running sum the move shifts: those from i up to j-1
    fall when j > i, and those from j up to i-1 rise when j < i.
    Feasibility is checked to ``FEAS_TOL``, as the solver accepts; a
    bound or the band counts as slack only past ``EXCHANGE_TOL``.
    """
    lo, up, coeff, x = (list(map(float, v)) for v in (lo, up, coeff, x))
    problems = feasibility_problems(lo, up, target, floor, ceiling, x)
    if problems:
        return problems
    running = list(accumulate(x))
    k = len(x)
    for i in range(k):
        if not x[i] > lo[i] + EXCHANGE_TOL:
            continue
        least = math.inf  # min P[i..j-1], moving right
        for j in range(i + 1, k):
            least = min(least, running[j - 1])
            if not least > floor + EXCHANGE_TOL:
                break
            if coeff[j] < coeff[i] and x[j] < up[j] - EXCHANGE_TOL:
                problems.append(f"slot {i} can move energy to cheaper "
                                f"slot {j}")
        most = -math.inf  # max P[j..i-1], moving left
        for j in range(i - 1, -1, -1):
            most = max(most, running[j])
            if not most < ceiling - EXCHANGE_TOL:
                break
            if coeff[j] < coeff[i] and x[j] < up[j] - EXCHANGE_TOL:
                problems.append(f"slot {i} can move energy to cheaper "
                                f"slot {j}")
    return problems
