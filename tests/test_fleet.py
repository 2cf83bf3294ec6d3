import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fleetdr.errors import ConfigError, DataError
from fleetdr.fleet import (
    FLEET_CSV_HEADER,
    N_SLOTS,
    Dist,
    FleetSpec,
    HouseholdSpec,
    PevProfile,
    as_profile,
    baseline_household,
    greedy_schedule,
    hour_to_slot,
    read_fleet_csv,
    required_energy,
    sample_fleet,
    uncoordinated_profile,
    write_fleet_csv,
)


def make_profile(**kw):
    base = dict(user_id=1, arrival_slot=5, departure_slot=20,
                required_energy=9.0, capacity=24.0, initial_soc=8.4,
                rate=1.8, v2g=False)
    base.update(kw)
    return PevProfile(**base)


# ---------------------------------------------------------------------------
# time axis

def test_hour_to_slot_noon_start():
    # day starts at noon: slot 1 covers 12:00-13:00
    assert hour_to_slot(12.0, 12) == 1
    assert hour_to_slot(12.99, 12) == 1
    assert hour_to_slot(21.0, 12) == 10
    assert hour_to_slot(23.5, 12) == 12
    assert hour_to_slot(0.0, 12) == 13
    assert hour_to_slot(4.0, 12) == 17
    assert hour_to_slot(11.0, 12) == 24


def test_hour_to_slot_midnight_start():
    assert hour_to_slot(0.0, 0) == 1
    assert hour_to_slot(0.5, 0) == 1
    assert hour_to_slot(23.9, 0) == 24


@given(st.floats(min_value=0.0, max_value=23.999),
       st.integers(min_value=0, max_value=23))
def test_hour_to_slot_always_in_range(hour, day_start):
    assert 1 <= hour_to_slot(hour, day_start) <= N_SLOTS


def test_as_profile_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        as_profile(np.zeros(23))
    with pytest.raises(ConfigError):
        as_profile([1.0, np.nan] + [0.0] * 22)


# ---------------------------------------------------------------------------
# PevProfile

def test_window_contiguous():
    p = make_profile(arrival_slot=5, departure_slot=9)
    assert p.window_length() == 5
    assert p.window_slots() == [5, 6, 7, 8, 9]
    mask = p.window_mask()
    assert mask.sum() == 5 and mask[4] and mask[8] and not mask[3]


def test_validate_accepts_sane_profile():
    make_profile().validate()


@pytest.mark.parametrize("kw", [
    dict(user_id=0),
    dict(arrival_slot=0),
    dict(departure_slot=25),
    dict(capacity=0.0),
    dict(rate=-1.0),
    dict(initial_soc=-0.1),
    dict(initial_soc=25.0),
    dict(required_energy=-1.0),
    dict(required_energy=20.0),          # exceeds battery headroom
    dict(required_energy=10.0, arrival_slot=10, departure_slot=12),  # > window
    dict(required_energy=float("nan")),
    dict(rate=float("inf")),
    dict(capacity=float("inf")),
    dict(arrival_slot=22, departure_slot=3),  # wraps past the day's end
])
def test_validate_rejects(kw):
    with pytest.raises(ConfigError):
        make_profile(**kw).validate()


def test_required_energy():
    assert required_energy(1.8, 5.0) == pytest.approx(9.0)
    assert required_energy(1.8, 0.0) == 0.0
    with pytest.raises(ConfigError):
        required_energy(0.0, 5.0)
    with pytest.raises(ConfigError):
        required_energy(1.8, -1.0)


# ---------------------------------------------------------------------------
# distributions

def test_dist_validate_errors():
    with pytest.raises(ConfigError):
        Dist("weibull", {}).validate()
    with pytest.raises(ConfigError):
        Dist("truncnorm", {"mean": 0, "std": 1, "lo": 0}).validate()
    with pytest.raises(ConfigError):
        Dist("truncnorm", {"mean": 0, "std": 0, "lo": 0, "hi": 1}).validate()
    with pytest.raises(ConfigError):
        Dist("truncnorm", {"mean": 0, "std": 1, "lo": 2, "hi": 1}).validate()
    with pytest.raises(ConfigError):
        Dist("uniform", {"lo": 3, "hi": 1}).validate()
    with pytest.raises(ConfigError):
        Dist("choice", {"values": [1, 2], "probs": [1.0]}).validate()
    with pytest.raises(ConfigError):
        Dist("choice", {"values": [1, 2], "probs": [0.6, 0.6]}).validate()
    with pytest.raises(ConfigError):
        Dist("point", {"value": 1.0}, round_to=0.0).validate()
    with pytest.raises(ConfigError, match="arrival.mean"):
        Dist("truncnorm", {"mean": "19", "std": 1, "lo": 0, "hi": 1}
             ).validate("arrival")
    with pytest.raises(ConfigError, match="std"):
        Dist("truncnorm", {"mean": 0, "std": float("nan"), "lo": 0, "hi": 1}
             ).validate()
    with pytest.raises(ConfigError, match="values"):
        Dist("choice", {"values": [1, "2"], "probs": [0.5, 0.5]}).validate()
    with pytest.raises(ConfigError, match="probs"):
        Dist("choice", {"values": [1, 2], "probs": 1.0}).validate()
    with pytest.raises(ConfigError, match="value"):
        Dist("point", {"value": True}).validate()
    with pytest.raises(ConfigError, match="unknown keys"):
        Dist("uniform", {"lo": 0, "hi": 1, "mean": 0.5}).validate()
    with pytest.raises(ConfigError, match="round_to"):
        Dist("point", {"value": 1.0}, round_to="1").validate()
    with pytest.raises(ConfigError, match="arrival: .* normal's mass"):
        Dist("truncnorm", {"mean": 0, "std": 1, "lo": 9, "hi": 10}
             ).validate("arrival")


def test_dist_sampling_is_deterministic():
    d = Dist("truncnorm", {"mean": 19.0, "std": 1.2, "lo": 15.0, "hi": 20.4})
    a = d.sample(np.random.default_rng(7), 200)
    b = d.sample(np.random.default_rng(7), 200)
    assert np.array_equal(a, b)


def test_truncnorm_respects_bounds():
    d = Dist("truncnorm", {"mean": 5.0, "std": 4.0, "lo": 3.0, "hi": 6.0})
    x = d.sample(np.random.default_rng(0), 500)
    assert x.min() >= 3.0 and x.max() <= 6.0


def test_round_to_snaps_to_grid():
    d = Dist("uniform", {"lo": 0.0, "hi": 10.0}, round_to=0.5)
    x = d.sample(np.random.default_rng(1), 300)
    assert np.allclose(np.round(x / 0.5), x / 0.5)


def test_point_and_choice_families():
    assert np.all(Dist("point", {"value": 4.2}).sample(
        np.random.default_rng(0), 10) == 4.2)
    d = Dist("choice", {"values": [0.2, 0.35, 0.5], "probs": [0.35, 0.4, 0.25]})
    x = d.sample(np.random.default_rng(2), 400)
    assert set(np.unique(x)) <= {0.2, 0.35, 0.5}


# ---------------------------------------------------------------------------
# fleet synthesis

def small_spec(**kw):
    base = dict(n_users=50, capacity_kwh=24.0, rate_kw=1.8,
                v2g_fraction=0.5, day_start_hour=12)
    base.update(kw)
    return FleetSpec(**base)


def test_sample_fleet_deterministic():
    spec = small_spec()
    assert sample_fleet(spec, 42) == sample_fleet(spec, 42)
    assert sample_fleet(spec, 42) != sample_fleet(spec, 43)


def test_sample_fleet_profiles_are_consistent():
    fleet = sample_fleet(small_spec(n_users=200), 3)
    assert len(fleet) == 200
    assert [p.user_id for p in fleet] == list(range(1, 201))
    for p in fleet:
        p.validate()
        assert p.required_energy <= p.capacity - p.initial_soc + 1e-9
        assert p.required_energy <= p.rate * p.window_length() + 1e-9


@pytest.mark.parametrize("frac,expect", [(0.0, False), (1.0, True)])
def test_v2g_fraction_extremes(frac, expect):
    fleet = sample_fleet(small_spec(v2g_fraction=frac), 5)
    assert all(p.v2g is expect for p in fleet)


def test_energy_grid_snaps_capped_needs():
    # long charging demands get capped by headroom/window and must land on
    # the grid; uncapped demands are left alone
    spec = small_spec(
        n_users=300,
        charging_time=Dist("uniform", {"lo": 0.0, "hi": 20.0}),
        energy_grid=0.1,
    )
    fleet = sample_fleet(spec, 11)
    for p in fleet:
        cap = min(p.capacity - p.initial_soc, p.rate * p.window_length())
        if p.required_energy < cap - 1e-9:
            continue  # possibly uncapped; no grid promise
        assert abs(round(p.required_energy / 0.1) - p.required_energy / 0.1) < 1e-6


def test_fleet_spec_validate_errors():
    with pytest.raises(ConfigError):
        small_spec(n_users=-1).validate()
    with pytest.raises(ConfigError):
        small_spec(v2g_fraction=1.5).validate()
    with pytest.raises(ConfigError):
        small_spec(day_start_hour=24).validate()
    with pytest.raises(ConfigError):
        small_spec(energy_grid=0.0).validate()
    with pytest.raises(ConfigError):
        small_spec(rate_kw=0.0).validate()


# ---------------------------------------------------------------------------
# household baseline

def test_base_shape_is_unit_mean():
    shape = HouseholdSpec().base_shape()
    assert shape.shape == (N_SLOTS,)
    assert shape.mean() == pytest.approx(1.0)
    assert np.all(shape > 0)


def test_household_validate_errors():
    with pytest.raises(ConfigError):
        HouseholdSpec(mean_daily_kwh=-1.0).validate()
    with pytest.raises(ConfigError):
        HouseholdSpec(evening_slot=0).validate()
    with pytest.raises(ConfigError):
        HouseholdSpec(morning_width=0.0).validate()
    with pytest.raises(ConfigError):
        HouseholdSpec(noise_sigma=-0.1).validate()


def test_baseline_household_shape_and_determinism():
    spec = HouseholdSpec(mean_daily_kwh=17.0)
    a = baseline_household(spec, 40, 9)
    b = baseline_household(spec, 40, 9)
    assert a.shape == (40, N_SLOTS)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, baseline_household(spec, 40, 10))


def test_baseline_household_noise_free_totals():
    spec = HouseholdSpec(mean_daily_kwh=17.0, noise_sigma=0.0)
    prof = baseline_household(spec, 5, 0)
    assert np.allclose(prof, prof[0])  # identical rows without noise
    assert np.allclose(prof.sum(axis=1), 17.0)


def test_baseline_household_mean_total_near_target():
    spec = HouseholdSpec(mean_daily_kwh=17.0, noise_sigma=0.25)
    prof = baseline_household(spec, 4000, 1)
    assert prof.sum(axis=1).mean() == pytest.approx(17.0, rel=0.03)


def test_baseline_household_zero_demand():
    prof = baseline_household(HouseholdSpec(mean_daily_kwh=0.0), 3, 0)
    assert np.all(prof == 0.0)


# ---------------------------------------------------------------------------
# plug-and-charge baseline

def test_greedy_schedule_fills_from_arrival():
    p = make_profile(arrival_slot=3, departure_slot=8, required_energy=5.0)
    x = greedy_schedule(p)
    assert np.allclose(x[[2, 3, 4]], [1.8, 1.8, 1.4])
    assert x.sum() == pytest.approx(5.0)
    assert np.all(x[~p.window_mask()] == 0.0)


def test_greedy_schedule_zero_energy():
    assert np.all(greedy_schedule(make_profile(required_energy=0.0)) == 0.0)


def test_greedy_schedule_properties_across_fleet():
    fleet = sample_fleet(small_spec(n_users=100), 17)
    for p in fleet:
        x = greedy_schedule(p)
        assert x.sum() == pytest.approx(p.required_energy, abs=1e-9)
        assert x.max() <= p.rate + 1e-12
        assert np.all(x[~p.window_mask()] == 0.0)


def test_uncoordinated_profile_is_sum_of_schedules():
    fleet = sample_fleet(small_spec(n_users=20), 8)
    agg = uncoordinated_profile(fleet)
    assert np.allclose(agg, sum(greedy_schedule(p) for p in fleet))
    assert agg.sum() == pytest.approx(sum(p.required_energy for p in fleet))


# ---------------------------------------------------------------------------
# CSV round trips

def grid_friendly_spec(n=30):
    # values that survive the 3-decimal CSV format exactly
    return FleetSpec(
        n_users=n, capacity_kwh=24.0, rate_kw=1.8, v2g_fraction=0.5,
        day_start_hour=12,
        charging_time=Dist("truncnorm",
                           {"mean": 5.0, "std": 2.0, "lo": 1.0, "hi": 7.0},
                           round_to=1.0),
        initial_soc=Dist("choice", {"values": [0.2, 0.35, 0.5],
                                    "probs": [0.35, 0.4, 0.25]}),
        energy_grid=1.8,
    )


def test_fleet_csv_round_trip(tmp_path):
    fleet = sample_fleet(grid_friendly_spec(), 21)
    path = tmp_path / "fleet.csv"
    write_fleet_csv(fleet, path)
    back = read_fleet_csv(path)
    assert len(back) == len(fleet)
    for a, b in zip(back, fleet):
        assert (a.user_id, a.arrival_slot, a.departure_slot, a.v2g) == \
               (b.user_id, b.arrival_slot, b.departure_slot, b.v2g)
        for name in ("required_energy", "capacity", "initial_soc", "rate"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), abs=5e-4)
    # once through the 3-decimal format, a second pass is exact
    path2 = tmp_path / "fleet2.csv"
    write_fleet_csv(back, path2)
    assert read_fleet_csv(path2) == back


def test_fleet_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_text("id,arrival\n1,2\n")
    with pytest.raises(DataError, match="header"):
        read_fleet_csv(path)


def test_fleet_csv_rejects_empty_file(tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_text("")
    with pytest.raises(DataError, match="empty"):
        read_fleet_csv(path)


def test_fleet_csv_rejects_short_row(tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_text(",".join(FLEET_CSV_HEADER) + "\n1,2,3\n")
    with pytest.raises(DataError, match="row 2"):
        read_fleet_csv(path)


def test_fleet_csv_rejects_bad_value_with_row_number(tmp_path):
    fleet = sample_fleet(grid_friendly_spec(3), 1)
    path = tmp_path / "fleet.csv"
    write_fleet_csv(fleet, path)
    lines = path.read_text().splitlines()
    for column, value, why in ((3, "not-a-number", "convert"),
                               (3, "nan", "finite"), (6, "inf", "finite"),
                               (1, "24", "wraps")):  # arrives after leaving
        row = lines[2].split(",")
        row[column] = value
        path.write_text("\n".join([*lines[:2], ",".join(row), *lines[3:]])
                        + "\n")
        with pytest.raises(DataError, match=f"row 3: .*{why}"):
            read_fleet_csv(path)


def test_fleet_csv_rejects_duplicate_ids(tmp_path):
    fleet = sample_fleet(grid_friendly_spec(2), 1)
    fleet[1].user_id = fleet[0].user_id
    path = tmp_path / "fleet.csv"
    write_fleet_csv(fleet, path)
    with pytest.raises(DataError, match="duplicate"):
        read_fleet_csv(path)
