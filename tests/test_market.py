import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import FLAT_DAY_YAML, save_market_day

from fleetdr.errors import ConfigError
from fleetdr.fleet import N_SLOTS
from fleetdr.market import (
    MarketDay,
    MarketSpec,
    PriceSeries,
    SpikeSpec,
    load_market_day,
    procurement_cost,
    synth_prices,
    water_fill,
)
from fleetdr.scenario import build_scenario, load_config

profiles = arrays(np.float64, (N_SLOTS,),
                  elements=st.floats(min_value=0.0, max_value=500.0))
deltas = arrays(np.float64, (N_SLOTS,),
                elements=st.floats(min_value=-50.0, max_value=50.0))


def flat_day(da=0.03, rt=0.05, purchased=10.0):
    return MarketDay(
        da_prices=PriceSeries(np.full(N_SLOTS, da), kind="da"),
        rt_prices=PriceSeries(np.full(N_SLOTS, rt), kind="rt"),
        da_profile=np.full(N_SLOTS, purchased),
    )


# ---------------------------------------------------------------------------
# price containers

def test_price_series_indexing_is_one_based():
    s = PriceSeries(np.arange(24, dtype=float) / 100.0, kind="da")
    assert s[1] == 0.0
    assert s[24] == pytest.approx(0.23)
    with pytest.raises(ConfigError):
        s[0]
    with pytest.raises(ConfigError):
        s[25]


def test_price_series_validation():
    with pytest.raises(ConfigError):
        PriceSeries(np.zeros(24), kind="spot")
    with pytest.raises(ConfigError):
        PriceSeries(-np.ones(24), kind="da")
    with pytest.raises(ConfigError):
        PriceSeries(np.zeros(12), kind="da")


def test_market_day_checks_series_kinds():
    da = PriceSeries(np.full(24, 0.03), kind="da")
    rt = PriceSeries(np.full(24, 0.05), kind="rt")
    with pytest.raises(ConfigError):
        MarketDay(da_prices=rt, rt_prices=rt, da_profile=np.zeros(24))
    with pytest.raises(ConfigError):
        MarketDay(da_prices=da, rt_prices=rt, da_profile=-np.ones(24))


# ---------------------------------------------------------------------------
# settlement arithmetic

def test_procurement_cost_two_leg_hand_example():
    day = flat_day(da=0.03, rt=0.05, purchased=10.0)
    actual = np.full(N_SLOTS, 12.0)
    cost = procurement_cost(day, actual)
    assert cost.da_cost == pytest.approx(24 * 10 * 0.03)
    assert cost.rt_cost == pytest.approx(24 * 2 * 0.05)
    assert cost.total == pytest.approx(cost.da_cost + cost.rt_cost)


def test_under_consumption_earns_rt_revenue():
    day = flat_day(da=0.03, rt=0.05, purchased=10.0)
    cost = procurement_cost(day, np.full(N_SLOTS, 8.0))
    assert cost.rt_cost == pytest.approx(-24 * 2 * 0.05)


@given(profiles, deltas)
def test_cost_is_linear_in_rt_deviations(actual, delta):
    day = flat_day()
    base = procurement_cost(day, actual).total
    moved = procurement_cost(day, actual + delta).total
    assert moved - base == pytest.approx(
        float(delta @ day.rt_prices.values), abs=1e-9)


# ---------------------------------------------------------------------------
# synthetic price days

def test_synth_prices_deterministic_and_positive():
    spec = MarketSpec(spike=SpikeSpec(slot=10, multiplier=10.0))
    da1, rt1 = synth_prices(spec, 99)
    da2, rt2 = synth_prices(spec, 99)
    assert np.array_equal(da1.values, da2.values)
    assert np.array_equal(rt1.values, rt2.values)
    assert np.all(da1.values > 0)


def test_synth_prices_spike_is_pinned_to_multiplier():
    spec = MarketSpec(spike=SpikeSpec(slot=10, multiplier=10.0))
    da, rt = synth_prices(spec, 4)
    assert rt.values[9] == pytest.approx(10.0 * da.values[9])
    # away from the spike, RT stays within the noise band of DA
    ratio = rt.values / da.values
    off = np.delete(ratio, 9)
    assert np.all(np.abs(off - 1.0) < 0.2)


def test_synth_prices_noise_free_rt_equals_da():
    spec = MarketSpec(rt_noise_sigma=0.0)
    da, rt = synth_prices(spec, 0)
    assert np.allclose(da.values, rt.values)


def test_market_spec_validation():
    with pytest.raises(ConfigError):
        MarketSpec(base_level_mwh=0.0).validate()
    with pytest.raises(ConfigError):
        MarketSpec(amplitude=1.0).validate()
    with pytest.raises(ConfigError):
        MarketSpec(peak_slot=0).validate()
    with pytest.raises(ConfigError):
        MarketSpec(spike=SpikeSpec(slot=30)).validate()
    with pytest.raises(ConfigError):
        MarketSpec(spike=SpikeSpec(slot=5, multiplier=0.0)).validate()


# ---------------------------------------------------------------------------
# water filling

def test_water_fill_levels_the_valley():
    hh = np.array([5.0] * 8 + [1.0] * 8 + [5.0] * 8)
    out = water_fill(hh, 16.0)
    # 16 kWh over the eight 1.0-kWh valley slots lifts them to a flat 3.0
    assert np.allclose(out[8:16], 3.0)
    assert np.allclose(out[:8], 5.0) and np.allclose(out[16:], 5.0)


def test_water_fill_conserves_energy():
    hh = np.linspace(1.0, 10.0, N_SLOTS)
    out = water_fill(hh, 37.5)
    assert (out - hh).sum() == pytest.approx(37.5)
    assert np.all(out >= hh - 1e-12)


def test_water_fill_zero_energy_is_identity():
    hh = np.linspace(1.0, 10.0, N_SLOTS)
    assert np.array_equal(water_fill(hh, 0.0), hh)


def test_water_fill_mask_restricts_fill():
    hh = np.full(N_SLOTS, 2.0)
    mask = np.zeros(N_SLOTS, dtype=bool)
    mask[5:10] = True
    out = water_fill(hh, 10.0, mask=mask)
    assert np.allclose(out[5:10], 4.0)
    assert np.allclose(out[~mask], 2.0)  # unmasked slots untouched


def test_water_fill_flood_exceeds_every_slot():
    hh = np.linspace(1.0, 10.0, N_SLOTS)
    out = water_fill(hh, 1e4)
    assert np.allclose(out, out[0])  # fully flooded: one flat level
    assert (out - hh).sum() == pytest.approx(1e4)


def test_water_fill_errors():
    hh = np.ones(N_SLOTS)
    with pytest.raises(ConfigError):
        water_fill(hh, -1.0)
    with pytest.raises(ConfigError):
        water_fill(hh, 1.0, mask=np.zeros(N_SLOTS, dtype=bool))
    with pytest.raises(ConfigError):
        water_fill(hh, 1.0, mask=np.ones(12, dtype=bool))


@given(arrays(np.float64, (N_SLOTS,),
              elements=st.floats(min_value=0.0, max_value=100.0)),
       st.floats(min_value=0.0, max_value=2000.0))
def test_water_fill_conservation_property(hh, energy):
    out = water_fill(hh, energy)
    assert abs((out - hh).sum() - energy) < 1e-6 * max(1.0, energy)
    assert np.all(out >= hh - 1e-9)


# ---------------------------------------------------------------------------
# the market bundle: CSV errors are checked through the CLI in test_cli.py

def test_market_day_bundle_round_trip(tmp_path):
    da, rt = synth_prices(MarketSpec(spike=SpikeSpec(slot=10)), 5)
    day = MarketDay(da_prices=da, rt_prices=rt,
                    da_profile=np.linspace(5.0, 30.0, N_SLOTS))
    save_market_day(day, tmp_path)
    back = load_market_day(tmp_path)
    assert np.allclose(back.da_prices.values, day.da_prices.values, atol=1e-9)
    assert np.allclose(back.rt_prices.values, day.rt_prices.values, atol=1e-9)
    assert np.allclose(back.da_profile, day.da_profile, atol=1e-6)


# sha256 of the market bundle of configs/flat_day.yaml; its real-time
# prices carry no noise, so they equal the day-ahead ones
FLAT_DAY_BUNDLE_DIGESTS = {
    "da_prices.csv":
        "3b1bd0e25f16d01b5102e571ba06c144974964ca865cb5649ce0416fea686ae8",
    "rt_prices.csv":
        "3b1bd0e25f16d01b5102e571ba06c144974964ca865cb5649ce0416fea686ae8",
    "da_profile.csv":
        "f25228c24683aae0f401b701421ffea9aac7035eb5d93af48ad4d1a88ea6a746",
}


def test_market_bundle_matches_pinned_digests(tmp_path):
    save_market_day(build_scenario(load_config(FLAT_DAY_YAML)).market,
                    tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in FLAT_DAY_BUNDLE_DIGESTS}
    changed = sorted(n for n in got if got[n] != FLAT_DAY_BUNDLE_DIGESTS[n])
    assert not changed, f"market bundle changed: {changed}"
