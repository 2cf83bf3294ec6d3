"""Span tracing from outside the program, for the benchmark's traced run.

Each public fleetdr function is wrapped at the module attribute its caller
looks it up by, not where it is defined: ``coordinator`` imports
``build_subproblem`` and ``solve`` by name, so patching
``fleetdr.subproblem.solve`` would miss every call. Spans stay in memory
until the run ends.
"""
from __future__ import annotations

import csv
import itertools
import statistics
import time
from collections import defaultdict
from typing import Dict, List

# (module, attribute, span name): the module is the one whose globals the
# caller reads, so each entry catches every production call
TRACED = (
    ("scenario", "build_scenario", "scenario.build"),
    ("scenario", "connection_counts", "scenario.connection_counts"),
    ("scenario", "purchase_profile", "scenario.purchase"),
    ("scenario", "sample_fleet", "fleet.sample"),
    ("scenario", "baseline_household", "fleet.households"),
    ("report", "uncoordinated_profile", "fleet.uncoordinated"),
    ("scenario", "synth_prices", "market.synth"),
    ("report", "procurement_cost", "market.cost"),
    ("report", "run_cases", "report.run_cases"),
    ("report", "emit", "report.emit"),
    ("report", "simulate_day", "coordinator.simulate_day"),
    ("coordinator", "shape_day_ahead", "coordinator.shape"),
    ("coordinator", "real_time_walk", "coordinator.walk"),
    ("coordinator", "best_response_pass", "coordinator.pass"),
    ("coordinator", "connected_users", "coordinator.connected_users"),
    ("coordinator", "build_subproblem", "subproblem.build"),
    ("coordinator", "solve", "subproblem.solve"),
    ("subproblem", "solve_lp", "simplex.solve_lp"),
)

# what a span keeps from its function's return value
EXTRA = {
    "subproblem.solve": lambda sol: sol.method,
    "simplex.solve_lp": lambda res: (res.iterations, res.status),
    "coordinator.connected_users": len,
}

SOLVE_METHODS = ("greedy", "simplex", "empty")


class Tracer:
    """Records (id, parent, day, name, start, end, extra) spans.

    ``day`` is set by the caller before each traced unit of work, so the
    spans of one day share it. Call :meth:`close` to restore the program.
    """

    def __init__(self, modules: Dict[str, object]):
        self.spans: List[tuple] = []
        self.day = 0
        self._ids = itertools.count()
        self._stack = [-1]
        self._patched = []
        for module_name, attr, name in TRACED:
            self._patch(modules[module_name], attr, name)

    def _patch(self, module, attr, name) -> None:
        fn = getattr(module, attr)
        extra = EXTRA.get(name)
        spans, stack, ids, clock = (self.spans, self._stack, self._ids,
                                    time.perf_counter)

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, self.day, name, t0, t1,
                              None if extra is None or result is None
                              else extra(result)))

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def close(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "day", "name", "start_s",
                             "end_s", "extra"])
            for sid, parent, day, name, t0, t1, extra in sorted(self.spans):
                writer.writerow([sid, parent, day, name, f"{t0:.9f}",
                                 f"{t1:.9f}", "" if extra is None else extra])


def unit_metrics(spans, day: int, max_sweeps: int) -> Dict[str, float]:
    """Per-layer counts and busy seconds for the spans of one traced day.

    A span's self time is its duration minus its children's durations.
    A replan is a ``connected_users`` call that found vehicles; its passes
    are the sweeps the walk runs before the next one.
    """
    mine = sorted(s for s in spans if s[2] == day)
    dur = {s[0]: s[5] - s[4] for s in mine}
    child_s: Dict[int, float] = defaultdict(float)
    for sid, parent, *_ in mine:
        child_s[parent] += dur[sid]
    names = {s[0]: s[3] for s in mine}

    calls: Dict[str, int] = defaultdict(int)
    busy: Dict[str, float] = defaultdict(float)
    pass_self = 0.0
    replan_passes: List[int] = []
    pivots = not_optimal = 0
    for sid, parent, _, name, _, _, extra in mine:
        key = name
        if name == "subproblem.solve" and extra is not None:
            key = f"subproblem.solve.{extra}"
        calls[key] += 1
        busy[key] += dur[sid]
        if name == "coordinator.pass":
            pass_self += dur[sid] - child_s[sid]
            if names.get(parent) == "coordinator.walk" and replan_passes:
                replan_passes[-1] += 1
        elif name == "coordinator.connected_users" and extra:
            replan_passes.append(0)
        elif name == "simplex.solve_lp" and extra is not None:
            pivots += extra[0]
            not_optimal += extra[1] != "optimal"

    out = {
        "scenario.build_s": busy["scenario.build"],
        "scenario.connection_counts_s": busy["scenario.connection_counts"],
        "scenario.purchase_s": busy["scenario.purchase"],
        "fleet.sample_s": busy["fleet.sample"],
        "fleet.households_s": busy["fleet.households"],
        "fleet.uncoordinated_s": busy["fleet.uncoordinated"],
        "market.synth_s": busy["market.synth"],
        "market.cost_calls": calls["market.cost"],
        "market.cost_s": busy["market.cost"],
        "coordinator.shape_calls": calls["coordinator.shape"],
        "coordinator.shape_s": busy["coordinator.shape"],
        "coordinator.walk_s": busy["coordinator.walk"],
        "coordinator.pass_calls": calls["coordinator.pass"],
        "coordinator.pass_s": busy["coordinator.pass"],
        "coordinator.pass_self_s": pass_self,
        "coordinator.replans": len(replan_passes),
        "coordinator.replan_passes": sum(replan_passes),
        "coordinator.replan_budget_hits": sum(
            n >= max_sweeps for n in replan_passes),
        "subproblem.build_calls": calls["subproblem.build"],
        "subproblem.build_s": busy["subproblem.build"],
        "simplex.calls": calls["simplex.solve_lp"],
        "simplex.s": busy["simplex.solve_lp"],
        "simplex.pivots": pivots,
        "simplex.not_optimal": not_optimal,
        "report.run_cases_s": busy["report.run_cases"],
        "report.emit_s": busy["report.emit"],
    }
    for method in SOLVE_METHODS:
        out[f"subproblem.solve_calls.{method}"] = calls[
            f"subproblem.solve.{method}"]
        out[f"subproblem.solve_s.{method}"] = busy[
            f"subproblem.solve.{method}"]
    greedy = calls["subproblem.solve.greedy"]
    tried = greedy + calls["subproblem.solve.simplex"]
    out["subproblem.greedy_hit_ratio"] = greedy / tried if tried else 1.0
    return out


def median_metrics(per_unit: List[Dict[str, float]]) -> Dict[str, float]:
    """Median of each metric over several traced units of the same work."""
    return {k: statistics.median(m[k] for m in per_unit)
            for k in per_unit[0]}
