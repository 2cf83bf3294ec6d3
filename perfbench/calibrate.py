"""A fixed reference kernel that tracks the machine's current speed.

On a host shared with other tenants the same single-threaded day can take
1.5 times longer in one minute than in the next, and no statistic taken
inside one run removes a slow spell that covers the whole run. The
benchmark therefore also times this kernel, in short blocks interleaved
with the work, and reports each time at the speed where a block takes
``REFERENCE_BLOCK_S``: measured time x REFERENCE_BLOCK_S / mean block time.
The work and the kernel slow down together, so this keeps the program's
cost and drops most of the machine's. The kernel runs no fleetdr code: a
change to the program moves a reported time by the same share as the
measured one.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from typing import List

import numpy as np

CAL_EVERY_S = 0.5  # least time from the end of one block to the next
# a block's typical time on the 2-vCPU Xeon VM the baseline was measured on
REFERENCE_BLOCK_S = 0.030
KERNEL_SWEEPS = 2  # 30-40 ms a block

# the shape of a day's sweep: a greedy pour for each of 1,000 vehicles
# against the fleet's running aggregate, so the kernel touches as much
# memory as a day and slows down with it when the host is contended
_rng = np.random.default_rng(0)
_VEHICLES = [(_rng.random(24), np.zeros(24), np.full(24, 7.2))
             for _ in range(1000)]
_plans: List[np.ndarray] = [np.zeros(24)] * len(_VEHICLES)


def kernel() -> float:
    acc = 0.0
    for _ in range(KERNEL_SWEEPS):
        aggregate = np.zeros(24)
        for k, (price, lo, up) in enumerate(_VEHICLES):
            coeff = price + aggregate * 1e-4
            x = lo.copy()
            remaining = 30.0
            for i in np.argsort(coeff, kind="stable"):
                if remaining <= 0:
                    break
                add = min(up[i] - lo[i], remaining)
                x[i] += add
                remaining -= add
            _plans[k] = x
            aggregate += x
            acc += float(coeff @ x) + float(np.cumsum(x)[-1])
    return acc


class Calibrator:
    """Times kernel blocks spread over the timed days."""

    def __init__(self):
        self.blocks: List[float] = []
        self.in_days_s = 0.0  # block time that fell inside timed days
        self._last = time.perf_counter()

    def block(self) -> float:
        t0 = time.perf_counter()
        kernel()
        self._last = time.perf_counter()
        elapsed = self._last - t0
        self.blocks.append(elapsed)
        return elapsed

    def restart(self) -> None:
        """Drop the blocks so far and time one, so a run has at least one."""
        self.blocks.clear()
        self.block()

    def tick(self) -> None:
        if time.perf_counter() - self._last >= CAL_EVERY_S:
            self.in_days_s += self.block()

    @contextmanager
    def pacing(self, coordinator):
        """Tick after every ``best_response_pass``, so blocks sample the
        machine all through a long day, not only between days."""
        inner = coordinator.best_response_pass

        def best_response_pass(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.tick()
            return result

        coordinator.best_response_pass = best_response_pass
        try:
            yield self
        finally:
            coordinator.best_response_pass = inner
