"""Watch a single vehicle replan when the 21:00 real-time price spikes.

Three short scenes:

  1. shift  -- a charge-only commuter had planned to charge during the
               spike hour; replanning pushes that energy two hours later.
  2. sell   -- a vehicle-to-grid sedan that already covered its need
               discharges into the spike and buys the energy back cheap.
  3. reserve -- arbitrage looks tempting, but the battery reserve caps it;
               the greedy fill breaks the floor and the exact prefix-band
               solver takes over.

The scheduling day starts at noon, so slot s covers the wall-clock hour
11+s; the spike slot 10 is the 21:00 hour.
"""

import numpy as np

from fleetdr.fleet import PevProfile
from fleetdr.subproblem import build_subproblem, solve

SPIKE_WEIGHT = 1000.0


def hour_label(slot):
    return f"{(11 + slot) % 24:02d}:00"


def show_plan(label, first, x):
    cells = " ".join(f"{v:+5.1f}" for v in x)
    print(f"  {label:<26} {hour_label(first)}-{hour_label(first + len(x) - 1)}"
          f"  [{cells}]")


def scene_shift():
    print("scene 1: a charge-only commuter shifts out of the spike")
    car = PevProfile(user_id=1, arrival_slot=8, departure_slot=13,
                     required_energy=3.6, capacity=24.0, initial_soc=12.0,
                     rate=1.8, v2g=False)
    # congestion signal (everyone else minus the purchase): the evening is
    # loaded, the 21:00-22:00 valley is where the purchase left room
    signal = np.zeros(24)
    signal[7:13] = [0.3, 0.2, -0.2, -0.1, 0.05, 0.15]

    plan = build_subproblem(car, signal)
    calm = solve(plan)
    show_plan("day-ahead plan:", plan.first, calm.x)

    # 19:00 and 20:00 played out as planned; then 21:00 spikes
    history = [float(v) for v in calm.x[:2]]
    sub = build_subproblem(car, signal, lam=0.5, history=history,
                           t0_sign=+1, t0_term_scale=SPIKE_WEIGHT)
    sol = solve(sub)
    show_plan("replanned at 21:00:", sub.first, sol.x)
    moved_to = sub.first + int(np.argmax(sol.x - calm.x[2:]))
    print(f"  the 21:00 charge ({calm.x[2]:+.1f} kWh) moved to "
          f"{hour_label(moved_to)}; nothing was lost, only delayed")
    print()


def scene_sell():
    print("scene 2: a vehicle-to-grid sedan sells into the spike")
    car = PevProfile(user_id=2, arrival_slot=8, departure_slot=13,
                     required_energy=1.8, capacity=24.0, initial_soc=12.0,
                     rate=1.8, v2g=True)
    # the overnight signal rises gently; 21:00 itself carries the spike term
    signal = np.zeros(24)
    signal[10:13] = [0.02, 0.04, 0.06]

    # the car banked its whole 1.8-kWh need at 19:00
    history = [1.8, 0.0]
    sub = build_subproblem(car, signal, lam=0.5, history=history,
                           t0_sign=+1, t0_term_scale=SPIKE_WEIGHT)
    sol = solve(sub)
    show_plan("replanned at 21:00:", sub.first, sol.x)
    print(f"  it discharges {-sol.x[0]:.1f} kWh into the spike, buys it "
          "back over the next two hours,")
    print("  and resells a chunk at the pricier end of the night -- "
          f"net change {sol.x.sum():+.1f} kWh")
    print()


def scene_reserve():
    print("scene 3: the battery reserve stops the arbitrage")
    car = PevProfile(user_id=3, arrival_slot=1, departure_slot=5,
                     required_energy=5.4, capacity=20.0, initial_soc=5.0,
                     rate=1.8, v2g=True)
    # an afternoon plug-in: the early hours are expensive, the late cheap
    signal = np.zeros(24)
    signal[:5] = [4.0, 3.0, 2.0, -1.0, -2.0]

    sub = build_subproblem(car, signal)
    sol = solve(sub)
    show_plan("constrained optimum:", sub.first, sol.x)
    soc = car.initial_soc + np.cumsum(sol.x)
    reserve = 0.2 * car.capacity
    print("  state of charge:", "  ".join(f"{v:4.1f}" for v in soc),
          f" (reserve {reserve:.1f} kWh)")
    print(f"  the car would love to dump 1.8 kWh into the pricey 12:00 "
          f"hour, but selling")
    print(f"  more than {car.initial_soc - reserve:.1f} kWh would breach "
          f"the reserve -- hence the {sol.method} path")
    assert sol.method == "exact"


if __name__ == "__main__":
    scene_shift()
    scene_sell()
    scene_reserve()
