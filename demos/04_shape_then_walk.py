"""One full coordinated day for a 60-vehicle neighborhood, end to end.

Phase 1 (day-ahead): vehicles take turns best-responding to everyone
else's plan minus the retailer's purchase until the fleet sits in the
purchase valleys -- watch the mean-squared plan change collapse.

Phase 2 (real time): the day replays slot by slot. The 21:00 price comes
in at ten times day-ahead, the trigger fires, and the plugged-in vehicles
replan their remaining hours away from the spike. Two days start from
the same shaped plans: one keeps them, ignoring the divergence, and one
takes their real-time walk. We compare the spike-hour aggregate.

Finally every vehicle's schedule is audited against its physical limits.
"""

import numpy as np

from fleetdr.coordinator import (CaseConfig, shape_fleet, simulate_day,
                                 walk_fleet)
from fleetdr.fleet import (Dist, FleetSpec, HouseholdSpec, baseline_household,
                           sample_fleet)
from fleetdr.market import MarketDay, MarketSpec, SpikeSpec, synth_prices
from fleetdr.scenario import PurchaseSpec, purchase_profile

SEED = 2027
SPIKE_SLOT = 10


def build_day():
    fleet_spec = FleetSpec(
        n_users=60,
        capacity_kwh=24.0,
        rate_kw=1.8,
        v2g_fraction=0.25,
        day_start_hour=12,
        arrival=Dist("truncnorm", {"mean": 19.0, "std": 1.2, "lo": 15.0,
                                   "hi": 20.4}, round_to=1.0),
        departure=Dist("truncnorm", {"mean": 4.0, "std": 0.3, "lo": 3.6,
                                     "hi": 5.4}, round_to=1.0),
        charging_time=Dist("truncnorm", {"mean": 5.0, "std": 2.0, "lo": 1.0,
                                         "hi": 7.0}, round_to=1.0),
        initial_soc=Dist("choice", {"values": [0.2, 0.35, 0.5],
                                    "probs": [0.35, 0.4, 0.25]}),
    )
    fleet = sample_fleet(fleet_spec, SEED)
    homes = baseline_household(HouseholdSpec(mean_daily_kwh=17.0), 60,
                               SEED + 1).sum(axis=0)
    spec = MarketSpec(base_level_mwh=33.0, amplitude=0.35, peak_slot=9,
                      rt_noise_sigma=0.0,
                      spike=SpikeSpec(slot=SPIKE_SLOT, multiplier=10.0))
    da, rt = synth_prices(spec, SEED + 2)
    # the retailer also sold a 30-kWh grid-support block at the spike hour
    bid = purchase_profile(fleet, homes, PurchaseSpec(
        coverage=0.95, block_kwh=30.0, block_slot=SPIKE_SLOT))
    market = MarketDay(da_prices=da, rt_prices=rt, da_profile=bid)
    return fleet, homes, market


def chart(label, values, scale, mark=()):
    print(f"\n  {label} (kWh per slot)")
    for s in range(1, 25):
        v = values[s - 1]
        bar = "#" * int(round(v / scale))
        tag = "  << spike hour" if s in mark else ""
        print(f"    slot {s:2d} [{(11 + s) % 24:02d}:00] {v:7.1f}  {bar}{tag}")


def audit(fleet, pev):
    bad = 0
    for idx, prof in enumerate(fleet):
        x = pev[idx]
        window = x[prof.window]
        ok = (abs(x.sum() - prof.required_energy) <= 1e-6
              and np.all(np.abs(x) <= prof.rate + 1e-6)
              and np.count_nonzero(window) == np.count_nonzero(x))
        soc = prof.initial_soc + np.cumsum(window)
        ok = ok and np.all(soc >= 0.2 * prof.capacity - 1e-6)
        ok = ok and np.all(soc <= prof.capacity + 1e-6)
        bad += not ok
    return bad


def main():
    fleet, homes, market = build_day()
    v2g = sum(p.v2g for p in fleet)
    print(f"60 vehicles ({v2g} V2G), {homes.sum():.0f} kWh of household "
          f"load, purchase {market.da_profile.sum():.0f} kWh")
    case = CaseConfig(t0_term_scale=1000.0)

    shaped = shape_fleet(fleet, homes, market.da_profile, case.conv)
    passive = simulate_day(fleet, homes, market, case, shaped)
    print("\nphase 1: day-ahead shaping")
    print("  mean-squared plan change per sweep:",
          "  ".join(f"{m:.3g}" for m in passive.da_mse_trace))
    gap = passive.da_aggregate - market.da_profile
    print(f"  shaped aggregate vs purchase: worst slot off by "
          f"{np.abs(gap).max():.2f} kWh")

    chart("shaped demand", passive.da_aggregate, 6.0, mark={SPIKE_SLOT})

    walked = walk_fleet(fleet, homes, market, case, shaped)
    active = simulate_day(fleet, homes, market, case, walked)
    print("\nphase 2: real-time walk")
    rt_ratio = market.rt_prices[SPIKE_SLOT] / market.da_prices[SPIKE_SLOT]
    print(f"  21:00 real-time price is {rt_ratio:.1f}x day-ahead "
          f"(trigger {case.trigger}x) -> replanning fired")
    print(f"  slots altered: {active.altered_slots}")
    a, b = passive.aggregate[SPIKE_SLOT - 1], active.aggregate[SPIKE_SLOT - 1]
    print(f"  spike-hour demand: {a:.1f} kWh if nobody reacts, "
          f"{b:.1f} kWh with replanning ({(a - b) / a:.0%} less)")
    col = active.pev[:, SPIKE_SLOT - 1]
    charging = col[col > 1e-9].sum()
    discharging = -col[col < -1e-9].sum()
    print(f"  vehicles with no slack still charge {charging:.1f} kWh, "
          f"V2G units sell {discharging:.1f} kWh back,")
    print(f"  so the fleet's net spike-hour draw ends at {col.sum():+.1f} kWh")

    bad = audit(fleet, active.pev)
    print(f"\naudit: {len(fleet) - bad}/{len(fleet)} schedules respect "
          "window, rate, energy and battery limits")
    assert bad == 0


if __name__ == "__main__":
    main()
