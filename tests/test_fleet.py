import csv
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetdr.errors import ConfigError
from fleetdr.fleet import (
    N_SLOTS,
    Dist,
    FleetSpec,
    HouseholdSpec,
    PevProfile,
    as_profile,
    baseline_household,
    hour_to_slot,
    sample_fleet,
    uncoordinated_profile,
    write_fleet_csv,
)
from fleetdr.fleet import _fleet_columns, _range_test, check_ranges


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
    hours = np.array([12.0, 12.99, 21.0, 23.5, 0.0, 4.0, 11.0])
    assert hour_to_slot(hours, 12).tolist() == [1, 1, 10, 12, 13, 17, 24]


def test_hour_to_slot_midnight_start():
    assert hour_to_slot(np.array([0.0, 0.5, 23.9]), 0).tolist() == [1, 1, 24]


@given(st.floats(min_value=0.0, max_value=23.999),
       st.integers(min_value=0, max_value=23))
def test_hour_to_slot_always_in_range(hour, day_start):
    assert 1 <= hour_to_slot(hour, day_start) <= N_SLOTS


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                max_size=30),
       st.integers(min_value=0, max_value=23))
def test_hour_to_slot_matches_integer_formula(hours, day_start):
    # any finite hour, far outside one day too, maps as exact integer
    # arithmetic on its floor does
    slots = hour_to_slot(np.array(hours), day_start).tolist()
    assert slots == [(math.floor(h) - day_start) % 24 + 1 for h in hours]


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
    assert p.window == slice(4, 9)


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


@pytest.mark.parametrize("params, message", [
    ({"mean": "abc"}, "fleet.arrival.mean: expected a number, got 'abc'"),
    ({"mean": True}, "fleet.arrival.mean: expected a number, got True"),
    ({"mean": float("inf")},
     "fleet.arrival.mean: expected a finite number, got inf"),
    ({"std": float("nan")},
     "fleet.arrival.std: expected a finite number, got nan"),
])
def test_dist_names_a_bad_number_for_what_it_is(params, message):
    dist = Dist("truncnorm", {"mean": 19.0, "std": 1.0, "lo": 15.0,
                              "hi": 21.0, **params})
    with pytest.raises(ConfigError) as err:
        dist.validate("fleet.arrival")
    assert str(err.value) == message


@pytest.mark.parametrize("values, message", [
    ([1, "2"], "expected a number list, got [1, '2']"),
    ([1, float("nan")], "expected a finite number list, got [1, nan]"),
    (3.0, "expected a number list, got 3.0"),
])
def test_dist_names_a_bad_number_list_for_what_it_is(values, message):
    dist = Dist("choice", {"values": values, "probs": [0.5, 0.5]})
    with pytest.raises(ConfigError) as err:
        dist.validate("fleet.initial_soc")
    assert str(err.value) == f"fleet.initial_soc.values: {message}"


@pytest.mark.parametrize("dist", [
    Dist("point", {"value": 19.0}, round_to=1e-320),
    Dist("uniform", {"lo": -1e308, "hi": 0.0}, round_to=0.1),
    Dist("choice", {"values": [0.5, 1e308], "probs": [0.5, 0.5]},
         round_to=0.5),
    Dist("truncnorm", {"mean": 0.0, "std": 1e307, "lo": -1e307,
                       "hi": 1e307}, round_to=1e-2),
    Dist("point", {"value": np.float64(1e308)}, round_to=np.float64(0.1)),
])
def test_dist_rejects_a_round_to_that_overflows_its_samples(dist):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"fleet.arrival: round_to "
                           r"\S+ is too small"):
            dist.validate("fleet.arrival")


def test_a_tiny_round_to_that_fits_still_samples():
    dist = Dist("point", {"value": 19.0}, round_to=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dist.validate("fleet.arrival")
        x = dist.sample(np.random.default_rng(0), 5)
    assert np.all(np.isfinite(x))
    assert x == pytest.approx(19.0)


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


NAN = float("nan")


@pytest.mark.parametrize("rule, inside, outside", [
    ("positive", [1e-300, 2 ** 63, math.inf], [0, -1.0, NAN]),
    (">= 0", [0, 0.0, 1e308], [-1e-300, -1, NAN]),
    (">= 1", [1, 10], [0, NAN]),
    ("> 1", [1.0000001, math.inf], [1, 0.5, NAN]),
    ("in 1..24", [1, 24], [0, 25, 2 ** 63]),
    ("in 0..23", [0, 23], [-1, 24]),
    ("in (0, 1]", [1, 1e-300], [0, 1.5, NAN]),
    ("in [0, 1)", [0, 0.999], [1, -0.1, NAN]),
    ("in [0, 1]", [0, 1], [-1e-300, 2, NAN]),
])
def test_a_declared_range_holds_its_bounds(rule, inside, outside):
    test = _range_test(rule)
    assert [test(v) for v in inside] == [True] * len(inside)
    assert [test(v) for v in outside] == [False] * len(outside)


def test_check_ranges_names_the_first_field_out_of_range():
    check_ranges(small_spec(energy_grid=None), "fleet")  # unset passes
    with pytest.raises(ConfigError) as exc:
        check_ranges(small_spec(rate_kw=-1.0, energy_grid=0), "fleet")
    assert str(exc.value) == "fleet.rate_kw must be positive, got -1.0"
    with pytest.raises(ConfigError) as exc:
        check_ranges(HouseholdSpec(evening_slot=25), "households")
    assert str(exc.value) == "households.evening_slot must be in 1..24, " \
        "got 25"


def reference_sample_fleet(spec, seed):
    """``sample_fleet`` as one vehicle at a time: each profile built, capped
    with Python scalars and validated in turn. ``sample_fleet`` must match
    it bit for bit and type for type, errors included."""
    spec.validate()
    rng = np.random.default_rng(seed)
    arrivals = spec.arrival.sample(rng, spec.n_users)
    departures = spec.departure.sample(rng, spec.n_users)
    hours = spec.charging_time.sample(rng, spec.n_users)
    soc_frac = spec.initial_soc.sample(rng, spec.n_users)
    v2g_draw = rng.random(spec.n_users)

    columns = zip(hour_to_slot(arrivals, spec.day_start_hour).tolist(),
                  hour_to_slot(departures, spec.day_start_hour).tolist(),
                  (np.clip(soc_frac, 0.0, 1.0) * spec.capacity_kwh).tolist(),
                  (v2g_draw < spec.v2g_fraction).tolist(),
                  (spec.rate_kw * np.maximum(0.0, hours)).tolist())
    fleet = []
    for user_id, (a, b, soc0, v2g, e_raw) in enumerate(columns, start=1):
        prof = PevProfile(
            user_id=user_id,
            arrival_slot=a,
            departure_slot=b,
            required_energy=0.0,
            capacity=spec.capacity_kwh,
            initial_soc=soc0,
            rate=spec.rate_kw,
            v2g=v2g,
        )
        headroom = spec.capacity_kwh - soc0
        window_cap = spec.rate_kw * prof.window_length()
        e = min(e_raw, headroom, window_cap)
        if spec.energy_grid is not None and e < e_raw - 1e-12:
            e = math.floor(e / spec.energy_grid + 1e-9) * spec.energy_grid
        prof.required_energy = max(0.0, float(e))
        prof.validate()
        fleet.append(prof)
    return fleet


def uniform_choice(values):
    return Dist("choice", {"values": values,
                           "probs": [1 / len(values)] * len(values)})


# wall-clock hours: the defaults, or draws that often wrap past the day
HOUR_DISTS = st.one_of(
    st.none(),
    st.integers(0, 23).map(lambda h: Dist("point", {"value": float(h)})),
    st.lists(st.integers(0, 23).map(float), min_size=1, max_size=4
             ).map(uniform_choice),
)
CHARGING_TIMES = st.sampled_from([
    None,
    Dist("point", {"value": 0.0}),
    Dist("point", {"value": -0.0}),
    Dist("point", {"value": 12.0}),
    Dist("point", {"value": 30.0}),
    Dist("uniform", {"lo": -3.0, "hi": 0.4}, round_to=1.0),  # -0.0 too
    uniform_choice([0.0, 2.5, 12.0, 16.0]),
    Dist("truncnorm", {"mean": 5.0, "std": 2.0, "lo": 1.0, "hi": 7.0},
         round_to=1.0),
])
SOC_FRACTIONS = st.sampled_from([
    None,
    Dist("point", {"value": 0.0}),
    Dist("point", {"value": 1.0}),  # no head-room: a cap of +0.0
    uniform_choice([0.0, 0.95, 1.0]),  # 0.95: a snap that rounds to 0
])


@st.composite
def fleet_specs(draw):
    kw = dict(
        n_users=draw(st.integers(0, 60)),
        capacity_kwh=draw(st.sampled_from([24.0, 24, 7.5])),
        rate_kw=draw(st.sampled_from([1.8, 2, 3.3])),
        v2g_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        day_start_hour=draw(st.integers(0, 23)),
        energy_grid=draw(st.sampled_from([None, 0.1, 0.6, 2.5])),
        arrival=draw(HOUR_DISTS),
        departure=draw(HOUR_DISTS),
        charging_time=draw(CHARGING_TIMES),
        initial_soc=draw(SOC_FRACTIONS),
    )
    return FleetSpec(**{k: v for k, v in kw.items() if v is not None})


def outcome(build, spec, seed):
    """Each profile's repr and field types, or the ConfigError's message."""
    try:
        fleet = build(spec, seed)
    except ConfigError as exc:
        return str(exc)
    return [(repr(p), [type(v) for v in vars(p).values()]) for p in fleet]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(fleet_specs(), st.integers(0, 2**32))
def test_sample_fleet_matches_the_per_vehicle_loop(spec, seed):
    assert outcome(sample_fleet, spec, seed) == \
        outcome(reference_sample_fleet, spec, seed)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(fleet_specs(), st.integers(0, 2**32))
def test_fleet_mask_flags_the_rows_validate_rejects(spec, seed):
    spec.validate()
    columns, bad = _fleet_columns(spec, seed)
    rejected = []
    for prof in map(PevProfile, *columns):
        try:
            prof.validate()
        except ConfigError:
            rejected.append(True)
        else:
            rejected.append(False)
    assert bad.tolist() == rejected


def test_sample_fleet_names_the_first_wrapped_window():
    # departures before arrivals on the day's axis; the caps come out
    # negative and are floored to 0, and the window check still fires
    spec = small_spec(arrival=uniform_choice([20.0, 9.0]),
                      departure=Dist("point", {"value": 10.0}),
                      day_start_hour=0, energy_grid=0.6)
    _, bad = _fleet_columns(spec, 4)
    first = int(np.argmax(bad)) + 1
    assert bad.any() and not bad.all()
    with pytest.raises(ConfigError, match=rf"^user {first}: charging window "
                       "wraps"):
        sample_fleet(spec, 4)


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


def test_baseline_household_rejects_a_negative_user_count():
    with pytest.raises(ConfigError, match="n_users must be >= 0, got -1"):
        baseline_household(HouseholdSpec(), -1, 0)


def test_baseline_household_zero_demand():
    prof = baseline_household(HouseholdSpec(mean_daily_kwh=0.0), 3, 0)
    assert np.all(prof == 0.0)


# ---------------------------------------------------------------------------
# plug-and-charge baseline

def greedy_schedule(profile):
    """One vehicle's plug-and-charge schedule, charged on its own: full rate
    from arrival until its energy is delivered. ``uncoordinated_profile``
    must equal the sum of these in fleet order, bit for bit."""
    x = np.zeros(N_SLOTS)
    remaining = profile.required_energy
    window = profile.window
    for i in range(window.start, window.stop):
        if remaining <= 1e-12:
            break
        amount = min(profile.rate, remaining)
        x[i] = amount
        remaining -= amount
    return x


def test_greedy_schedule_fills_from_arrival():
    p = make_profile(arrival_slot=3, departure_slot=8, required_energy=5.0)
    x = greedy_schedule(p)
    assert np.allclose(x[[2, 3, 4]], [1.8, 1.8, 1.4])
    assert x.sum() == pytest.approx(5.0)
    assert np.count_nonzero(x[p.window]) == np.count_nonzero(x)


def test_greedy_schedule_zero_energy():
    assert np.all(greedy_schedule(make_profile(required_energy=0.0)) == 0.0)


def test_greedy_schedule_properties_across_fleet():
    fleet = sample_fleet(small_spec(n_users=100), 17)
    for p in fleet:
        x = greedy_schedule(p)
        assert x.sum() == pytest.approx(p.required_energy, abs=1e-9)
        assert x.max() <= p.rate + 1e-12
        assert np.count_nonzero(x[p.window]) == np.count_nonzero(x)


def test_uncoordinated_profile_is_sum_of_schedules(reference_scenario):
    fleet = sample_fleet(small_spec(n_users=20), 8)
    agg = uncoordinated_profile(fleet)
    assert agg.sum() == pytest.approx(sum(p.required_energy for p in fleet))
    edges = [  # windows at both ends of the day, mixed rates, and
        # energies whose last step leaves float dust under the 1e-12 stop
        make_profile(user_id=1, arrival_slot=1, departure_slot=1,
                     required_energy=1.8),
        make_profile(user_id=2, arrival_slot=24, departure_slot=24,
                     required_energy=0.7, rate=3.3),
        make_profile(user_id=3, required_energy=0.0),
        make_profile(user_id=4, arrival_slot=10, departure_slot=14,
                     required_energy=7.2),
        make_profile(user_id=5, arrival_slot=20, departure_slot=24,
                     required_energy=0.3, rate=0.1),
        make_profile(user_id=6, arrival_slot=1, departure_slot=24,
                     required_energy=15.6, rate=0.7),
        make_profile(user_id=7, arrival_slot=2, departure_slot=6,
                     required_energy=3.6 + 5e-13),  # stops with 5e-13 owed
    ]
    for fleet in ([], edges, fleet, reference_scenario.fleet):
        expected = np.zeros(N_SLOTS)
        for p in fleet:  # the per-vehicle sum, in fleet order
            expected += greedy_schedule(p)
        assert uncoordinated_profile(fleet).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# CSV export

def test_fleet_csv_round_trip(tmp_path):
    # gen-fleet's file, read back with csv: slots as integers, energies
    # with 3 decimals, one row per vehicle in fleet order
    fleet = sample_fleet(FleetSpec(n_users=30, v2g_fraction=0.5), 21)
    path = tmp_path / "fleet.csv"
    write_fleet_csv(fleet, path)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["user_id", "arrival", "departure", "energy_kwh",
                      "capacity_kwh", "soc0_kwh", "rate_kw", "v2g"]
    assert len(rows) == len(fleet)
    assert {p.v2g for p in fleet} == {False, True}
    for row, p in zip(rows, fleet):
        assert row[:3] + row[7:] == [
            str(v) for v in (p.user_id, p.arrival_slot, p.departure_slot,
                             int(p.v2g))]
        for field, v in zip(row[3:7], (p.required_energy, p.capacity,
                                       p.initial_soc, p.rate)):
            assert re.fullmatch(r"\d+\.\d{3}", field), field
            assert float(field) == pytest.approx(v, abs=5e-4)
