"""Four-way cost comparison and artifact emission.

Prices the same fleet and price day under increasing coordination: dumb
plug-and-charge bought entirely in real time, day-ahead shaping, shaping
plus spike response, and the capped variant of the latter. Emits the
results as deterministic CSV/JSON files ready for plotting. The cases
share one :class:`~fleetdr.coordinator.CaseConfig` of run settings.
"""
from __future__ import annotations

import json
import os
import pickle
import signal
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .coordinator import (CaseConfig, DayResult, cap_value, shape_fleet,
                          simulate_day, walk_fleet)
from .errors import DataError
from .fleet import (N_SLOTS, PevProfile, as_fleet, as_profile,
                    uncoordinated_profile, write_csv, write_slot_csv)
from .market import MarketDay, CostBreakdown, procurement_cost

CASE_LABELS = {
    1: "no-dr",
    2: "da-shaping",
    3: "shaping+altering",
    4: "shaping+altering+cap",
}

COSTS_CSV_HEADER = ["case", "cost_usd", "peak_kwh", "peak_slot"]
AGGREGATE_CSV_HEADER = ["slot", "actual_kwh", "purchased_kwh"]
MSE_CSV_HEADER = ["case", "sweep", "mse"]


@dataclass
class CaseResult:
    """Outcome of one coordination case."""

    case: int
    label: str
    cost: CostBreakdown
    aggregate: np.ndarray  # realized total demand, kWh per slot
    purchased: np.ndarray  # day-ahead position, kWh per slot
    da_mse_trace: List[float]
    altered_slots: List[int]
    converged: bool | None = None  # None for case 1, which does not shape

    @property
    def total_cost(self) -> float:
        return self.cost.total

    @property
    def peak_kwh(self) -> float:
        return float(self.aggregate.max())

    @property
    def peak_slot(self) -> int:
        return int(np.argmax(self.aggregate)) + 1

    @property
    def sweeps(self) -> int:
        return len(self.da_mse_trace)


@dataclass
class CaseComparison:
    """All four cases on one fleet/day, plus pairwise cost differences."""

    results: List[CaseResult]
    deltas: Dict[Tuple[int, int], float]

    def get(self, case: int) -> CaseResult:
        for r in self.results:
            if r.case == case:
                return r
        raise KeyError(f"no case {case} in comparison")


def _priced(market: MarketDay, purchased: np.ndarray,
            actual: np.ndarray) -> CostBreakdown:
    day = MarketDay(da_prices=market.da_prices, rt_prices=market.rt_prices,
                    da_profile=purchased)
    return procurement_cost(day, actual)


@contextmanager
def _forked(fn, *args, **kwargs):
    """Start ``fn(*args, **kwargs)`` in a forked worker; yields a callable
    that waits for the worker and returns its result or raises its
    exception.

    The worker sees the caller's memory copy-on-write and sends back only
    the pickled outcome, through a pipe. An exception that does not pickle
    comes back as a ``RuntimeError`` carrying its ``repr``. The worker
    leaves through ``os._exit``, so it never returns into the caller,
    flushes inherited stdio buffers or runs ``atexit`` handlers. A worker
    not collected by the end of the ``with`` block is killed and reaped.
    Without ``os.fork`` the callable runs ``fn`` in this process.
    """
    if not hasattr(os, "fork"):
        yield lambda: fn(*args, **kwargs)
        return
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                outcome = (True, fn(*args, **kwargs))
            except BaseException as exc:
                outcome = (False, exc)
            try:
                data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
                pickle.loads(data)  # what the parent will do with it
            except Exception:
                data = pickle.dumps((False, RuntimeError(repr(outcome[1]))))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    pipe = os.fdopen(read_fd, "rb")
    reaped = False

    def collect():
        nonlocal reaped
        data = pipe.read()
        status = os.waitpid(pid, 0)[1]
        reaped = True
        if not data:
            raise RuntimeError(
                f"forked worker ended without a result (wait status {status})")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    try:
        yield collect
    finally:
        pipe.close()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_cases(fleet: List[PevProfile], household_total, market: MarketDay,
              config: CaseConfig | None = None) -> CaseComparison:
    """Run all four coordination cases on one fleet and price day.

    Every case sees the identical fleet, households and prices. Each
    coordinated case's day-ahead position is its own shaped aggregate, so
    imbalance settles exactly the real-time deviations that case makes;
    the uncoordinated case buys everything in real time.

    Shaping runs once per distinct cap, and so does the walk. This
    process shapes without the cap: case 2 keeps those plans, and case 3
    walks them once with :func:`~fleetdr.coordinator.walk_fleet`. When
    ``kappa`` is set, a forked worker meanwhile shapes under the cap and
    walks from those plans, and case 4 takes the worker's walk, or raises
    the worker's exception. When ``kappa`` is None, case 4 takes case 3's
    walk. Each case's ``simulate_day`` call stays in this process, in case
    order, and checks that case's cap here. All read the one
    :func:`~fleetdr.fleet.as_fleet` layout of the fleet made here.
    """
    config = config if config is not None else CaseConfig()
    config.validate()
    fleet = as_fleet(fleet)
    hh = as_profile(household_total)

    dumb = hh + uncoordinated_profile(fleet)
    zero = np.zeros(N_SLOTS)
    results = [CaseResult(1, CASE_LABELS[1], _priced(market, zero, dumb),
                          dumb, zero, [], [])]

    def add_case(case, plans):
        day = simulate_day(fleet, hh, market, config, plans)
        results.append(CaseResult(
            case, CASE_LABELS[case],
            _priced(market, day.da_aggregate, day.aggregate),
            day.aggregate, day.da_aggregate, list(day.da_mse_trace),
            list(day.altered_slots), day.converged))

    cap = cap_value(hh, fleet, config.kappa)

    def capped_walk():  # case 4's plans, shaped and walked under the cap
        return walk_fleet(fleet, hh, market, config, shape_fleet(
            fleet, hh, market.da_profile, config.conv, cap=cap))

    with (_forked(capped_walk) if cap is not None
          else nullcontext()) as capped:
        uncapped = shape_fleet(fleet, hh, market.da_profile, config.conv)
        add_case(2, uncapped)
        walked = walk_fleet(fleet, hh, market, config, uncapped)
        add_case(3, walked)
        if capped is not None:  # else case 4 is case 3
            walked = capped()
            for pev in (walked.pev, walked.shaped.pev):
                pev.setflags(write=False)  # the worker's come back writable
        add_case(4, walked)

    deltas = {}
    for i, a in enumerate(results):
        for b in results[i + 1:]:
            deltas[(a.case, b.case)] = a.total_cost - b.total_cost
    return CaseComparison(results=results, deltas=deltas)


# ---------------------------------------------------------------------------
# artifact emission

def _check_profile(name: str, values: np.ndarray) -> None:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (N_SLOTS,) or not np.all(np.isfinite(arr)):
        raise DataError(f"{name}: not a finite {N_SLOTS}-slot profile")


def emit(result, out_dir, meta: dict | None = None) -> List[str]:
    """Write a CaseComparison (or a single DayResult) as files.

    Returns the paths written. Contents depend only on the inputs, so a
    rerun over identical data is byte-identical. Nothing is written when
    the result is empty.
    """
    if isinstance(result, CaseComparison):
        if not result.results:
            raise DataError("empty comparison: no case results to emit")
        for r in result.results:
            _check_profile(f"case {r.case} aggregate", r.aggregate)
            _check_profile(f"case {r.case} purchased", r.purchased)
        write = _emit_comparison
    elif isinstance(result, DayResult):
        if result.pev.shape[0] == 0:
            raise DataError("empty day result: no vehicles scheduled")
        _check_profile("day aggregate", result.aggregate)
        write = _emit_day
    else:
        raise DataError(f"cannot emit a {type(result).__name__}")
    os.makedirs(out_dir, exist_ok=True)
    written: List[str] = []

    def path(name: str) -> str:
        written.append(os.path.join(out_dir, name))
        return written[-1]

    summary = write(result, path)
    with open(path("summary.json"), "w") as fh:
        json.dump({**summary, "meta": meta or {}}, fh, sort_keys=True,
                  indent=2)
        fh.write("\n")
    return written


def _emit_comparison(cases: CaseComparison, path) -> dict:
    """Write the comparison's CSV files; returns its summary."""
    write_csv(path("case_costs.csv"), COSTS_CSV_HEADER,
              ([r.case, f"{r.total_cost:.2f}", f"{r.peak_kwh:.3f}",
                r.peak_slot] for r in cases.results))
    for r in cases.results:
        write_slot_csv(path(f"aggregate_{r.case}.csv"), AGGREGATE_CSV_HEADER,
                       r.aggregate, r.purchased)
    write_csv(path("mse_trace.csv"), MSE_CSV_HEADER,
              ([r.case, sweep, f"{mse:.12g}"] for r in cases.results
               for sweep, mse in enumerate(r.da_mse_trace, start=1)))
    return {
        "cases": [{
            "case": r.case,
            "label": r.label,
            "cost_usd": round(r.total_cost, 6),
            "da_cost_usd": round(r.cost.da_cost, 6),
            "rt_cost_usd": round(r.cost.rt_cost, 6),
            "peak_kwh": round(r.peak_kwh, 6),
            "peak_slot": r.peak_slot,
            "sweeps": r.sweeps,
            "converged": r.converged,
            "altered_slots": r.altered_slots,
        } for r in cases.results],
        "deltas_usd": {f"{i}-{j}": round(v, 6)
                       for (i, j), v in sorted(cases.deltas.items())},
    }


def _emit_day(day: DayResult, path) -> dict:
    """Write the day's CSV files; returns its summary."""
    write_slot_csv(path("aggregate.csv"), AGGREGATE_CSV_HEADER,
                   day.aggregate, day.da_aggregate)
    write_csv(path("mse_trace.csv"), ["sweep", "mse"],
              ([sweep, f"{mse:.12g}"]
               for sweep, mse in enumerate(day.da_mse_trace, start=1)))
    return {
        "peak_kwh": round(float(day.aggregate.max()), 6),
        "peak_slot": int(np.argmax(day.aggregate)) + 1,
        "sweeps": day.da_sweeps,
        "converged": day.converged,
        "altered_slots": day.altered_slots,
    }
