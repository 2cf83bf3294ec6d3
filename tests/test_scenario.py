import copy
import dataclasses
import functools
import hashlib

import numpy as np
import pytest
import yaml

from conftest import (FLAT_DAY_YAML, REFERENCE_YAML, save_config,
                      save_market_day, with_each_yaml_loader)

from fleetdr.coordinator import CaseConfig, ConvergenceSpec
from fleetdr.errors import ConfigError
from fleetdr.fleet import (N_SLOTS, FleetSpec, HouseholdSpec, PevProfile,
                           _declared_ranges, baseline_household)
from fleetdr.market import MarketSpec, SpikeSpec, synth_prices
from fleetdr.scenario import (
    HOUSEHOLD_SEED_OFFSET,
    PRICE_SEED_OFFSET,
    PurchaseSpec,
    ScenarioConfig,
    _fields,
    build_scenario,
    config_digest,
    config_from_dict,
    config_to_dict,
    connection_counts,
    load_config,
    purchase_profile,
)


def make_profile(uid, a, b, e=3.6):
    return PevProfile(user_id=uid, arrival_slot=a, departure_slot=b,
                      required_energy=e, capacity=24.0, initial_soc=8.4,
                      rate=1.8, v2g=False)


# ---------------------------------------------------------------------------
# purchase position

def test_purchase_spec_validation():
    PurchaseSpec().validate()
    with pytest.raises(ConfigError):
        PurchaseSpec(coverage=0.0).validate()
    with pytest.raises(ConfigError):
        PurchaseSpec(coverage=1.2).validate()
    with pytest.raises(ConfigError):
        PurchaseSpec(pad_kwh=-1.0).validate()
    with pytest.raises(ConfigError):
        PurchaseSpec(block_kwh=100.0).validate()  # needs a slot
    with pytest.raises(ConfigError):
        PurchaseSpec(block_kwh=100.0, block_slot=0).validate()


def test_connection_counts():
    fleet = [make_profile(1, 2, 5), make_profile(2, 4, 8)]
    counts = connection_counts(fleet)
    assert counts[0] == 0 and counts[1] == 1
    assert counts[3] == 2 and counts[4] == 2
    assert counts[7] == 1 and counts[8] == 0


def test_connection_counts_matches_per_vehicle_loop(reference_scenario):
    edges = [make_profile(1, 1, 1, e=1.8), make_profile(2, 24, 24, e=1.8),
             make_profile(3, 1, 24), make_profile(4, 20, 24),
             make_profile(5, 1, 3)]
    for fleet in ([], edges[:1], edges[1:2], edges,
                  reference_scenario.fleet):
        expected = np.zeros(N_SLOTS)
        for prof in fleet:
            expected[prof.window] += 1
        counts = connection_counts(fleet)
        assert counts.dtype == expected.dtype
        assert counts.tobytes() == expected.tobytes()


def test_purchase_profile_fills_covered_slots_only():
    # both vehicles share slots 4..6; only those qualify at full coverage
    fleet = [make_profile(1, 2, 6), make_profile(2, 4, 8)]
    hh = np.full(N_SLOTS, 5.0)
    bid = purchase_profile(fleet, hh, PurchaseSpec(coverage=1.0))
    added = bid - hh
    assert added.sum() == pytest.approx(7.2)
    assert np.all(added[[3, 4, 5]] > 0)
    outside = np.ones(N_SLOTS, dtype=bool)
    outside[[3, 4, 5]] = False
    assert np.all(added[outside] == 0.0)


def test_purchase_profile_block_and_pad():
    fleet = [make_profile(1, 2, 6)]
    hh = np.full(N_SLOTS, 5.0)
    spec = PurchaseSpec(coverage=1.0, pad_kwh=2.0, block_kwh=100.0,
                        block_slot=10)
    bid = purchase_profile(fleet, hh, spec)
    assert (bid - hh).sum() == pytest.approx(3.6 + 2.0 + 100.0)
    assert bid[9] >= 100.0


def test_purchase_profile_impossible_coverage():
    fleet = [make_profile(1, 2, 6), make_profile(2, 10, 14)]
    with pytest.raises(ConfigError, match="coverage"):
        purchase_profile(fleet, np.full(N_SLOTS, 5.0),
                         PurchaseSpec(coverage=1.0))


# ---------------------------------------------------------------------------
# config parsing

def test_reference_config_round_trips():
    cfg = load_config(REFERENCE_YAML)
    again = config_from_dict(config_to_dict(cfg))
    assert config_digest(again) == config_digest(cfg)
    assert again.seed == cfg.seed
    assert again.fleet == cfg.fleet
    assert again.households == cfg.households
    assert again.case == cfg.case


@pytest.mark.parametrize("path, digest", [
    (REFERENCE_YAML,
     "9af99de601b49f53ecc6945abd462f75aa0f3fccba46c08787f1b7b5813150df"),
    (FLAT_DAY_YAML,
     "61f933a7eee94fd7437def52e5641331299f15c03f224704cf6b8cb7ffc7ef85"),
])
def test_config_digest_is_pinned(path, digest):
    # summary.json carries this digest, so it must not drift with the code
    assert config_digest(load_config(path)) == digest


def test_save_load_round_trip(tmp_path):
    cfg = load_config(FLAT_DAY_YAML)
    path = tmp_path / "copy.yaml"
    save_config(cfg, path)
    assert config_digest(load_config(path)) == config_digest(cfg)


def test_digest_tracks_content_not_formatting(tmp_path):
    cfg = load_config(FLAT_DAY_YAML)
    d0 = config_digest(cfg)
    raw = config_to_dict(cfg)
    raw["seed"] = cfg.seed + 1
    assert config_digest(config_from_dict(raw)) != d0
    # rewriting the file with different key order keeps the digest
    shuffled = dict(reversed(list(config_to_dict(cfg).items())))
    path = tmp_path / "shuffled.yaml"
    path.write_text(yaml.safe_dump(shuffled, sort_keys=False))
    assert config_digest(load_config(path)) == d0


def minimal_raw(**kw):
    raw = {
        "seed": 5,
        "fleet": {"n_users": 4},
        "market": {"synthetic": {}},
    }
    raw.update(kw)
    return raw


def test_minimal_config_uses_defaults():
    cfg = config_from_dict(minimal_raw())
    assert cfg.seed == 5
    assert cfg.fleet.n_users == 4
    assert cfg.market_synth is not None
    assert cfg.purchase.coverage == pytest.approx(0.95)
    assert cfg.case.kappa is None


def test_config_to_dict_leaves_absent_sections_out():
    # the digest of a config without out_dir, files or spike depends on it
    raw = config_to_dict(config_from_dict(minimal_raw()))
    assert set(raw) == {"seed", "fleet", "households", "market", "run"}
    assert set(raw["market"]) == {"synthetic", "purchase"}
    assert "spike" not in raw["market"]["synthetic"]
    assert raw["run"]["kappa"] is None  # a None value is still written
    assert config_from_dict(raw) == config_from_dict(minimal_raw())


def test_config_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="fleet.*n_user "):
        config_from_dict(minimal_raw(fleet={"n_users": 4, "n_user ": 1}))
    with pytest.raises(ConfigError, match="run.*lambda"):
        config_from_dict(minimal_raw(run={"lambda": 0.5}))
    with pytest.raises(ConfigError, match="config"):
        config_from_dict(minimal_raw(extra=1))


def test_config_requires_seed_and_market_choice():
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"fleet": {"n_users": 1},
                          "market": {"synthetic": {}}})
    with pytest.raises(ConfigError, match="exactly one"):
        config_from_dict({"seed": 1, "fleet": {"n_users": 1}, "market": {}})
    with pytest.raises(ConfigError, match="exactly one"):
        config_from_dict(minimal_raw(
            market={"synthetic": {}, "files": "somewhere"}))


def test_config_rejects_bad_seed():
    with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
        config_from_dict(minimal_raw(seed=-1))
    with pytest.raises(ConfigError, match=r"^seed: expected int, got 'abc'$"):
        config_from_dict(minimal_raw(seed="abc"))


def test_load_config_reports_yaml_errors(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("seed: [unclosed\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(path)


@pytest.mark.parametrize("path", [REFERENCE_YAML, FLAT_DAY_YAML])
def test_both_yaml_loaders_give_equal_configs(monkeypatch, path):
    libyaml_cfg, python_cfg = with_each_yaml_loader(
        monkeypatch, lambda: load_config(path))
    assert libyaml_cfg == python_cfg
    assert config_digest(libyaml_cfg) == config_digest(python_cfg)


def test_yaml_12_exponent_floats_load_as_floats(tmp_path, monkeypatch):
    # YAML 1.1 wants a dot and a signed exponent, so both loaders used to
    # hand these over as strings, and load_config exited 2 on them
    with open(REFERENCE_YAML) as fh:
        text = fh.read()
    for old, new in [("mse_tol: 1.0e-6", "mse_tol: 1e-6"),
                     ("t0_term_scale: 1000.0", "t0_term_scale: 1e3"),
                     ("block_kwh: 500.0", "block_kwh: 5.0e2"),
                     ("base_level_mwh: 33.0", "base_level_mwh: .33e2"),
                     ("capacity_kwh: 24.0", "capacity_kwh: 24E0")]:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "exponents.yaml"
    path.write_text(text)
    reference = load_config(REFERENCE_YAML)
    for cfg in with_each_yaml_loader(monkeypatch, lambda: load_config(path)):
        assert cfg == reference
        # the digest dumps 1e3 and 1000 differently, so it checks the types
        assert config_digest(cfg) == config_digest(reference)


@pytest.mark.parametrize("value,message", [
    ("abc", "run.mse_tol: expected a number, got 'abc'"),
    ("yes", "run.mse_tol: expected a number, got True"),
    (".inf", "run.mse_tol: expected a finite number, got inf"),
    (".nan", "run.mse_tol: expected a finite number, got nan"),
])
def test_a_bad_number_is_named_for_what_it_is(tmp_path, monkeypatch, value,
                                              message):
    with open(REFERENCE_YAML) as fh:
        text = fh.read().replace("mse_tol: 1.0e-6", f"mse_tol: {value}")
    path = tmp_path / "bad_number.yaml"
    path.write_text(text)

    def error():
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        return str(exc.value)

    for got in with_each_yaml_loader(monkeypatch, error):
        assert got == f"{path}: {message}"


# one-key range edits of the reference config, at least one per range
# check of each section
RANGE_EDITS = [
    ("seed", -1),
    ("run.kappa", 0.5), ("run.lam_rt", 2), ("run.lam_rt", -0.5),
    ("run.trigger", 1.0), ("run.t0_term_scale", -1000.0),
    ("run.max_sweeps", 0), ("run.mse_tol", 0.0),
    ("market.synthetic.base_level_mwh", 0.0),
    ("market.synthetic.amplitude", 2), ("market.synthetic.peak_slot", 30),
    ("market.synthetic.rt_noise_sigma", -0.1),
    ("market.synthetic.spike.slot", 30),
    ("market.synthetic.spike.multiplier", 0.0),
    ("market.purchase.coverage", 0.0), ("market.purchase.coverage", 1.5),
    ("market.purchase.pad_kwh", -1.0), ("market.purchase.block_kwh", -1.0),
    ("market.purchase.block_slot", 30), ("market.purchase.block_slot", None),
    ("fleet.n_users", -1), ("fleet.n_users", 2 ** 63),
    ("fleet.capacity_kwh", 0.0), ("fleet.rate_kw", 0.0),
    ("fleet.rate_kw", 1.0e308), ("fleet.v2g_fraction", 2),
    ("fleet.day_start_hour", 24), ("fleet.energy_grid", 0),
    ("households.mean_daily_kwh", -1.0), ("households.valley", 0.0),
    ("households.evening_peak", 0.0), ("households.morning_peak", -1.0),
    ("households.evening_slot", 30), ("households.morning_slot", 0),
    ("households.evening_width", 0.0), ("households.morning_width", 0.0),
    ("households.noise_sigma", -0.1), ("households.noise_sigma", 1.0e200),
    ("fleet.arrival.std", 0), ("fleet.arrival.lo", 30.0),
    ("fleet.departure.round_to", 0.0), ("fleet.initial_soc.probs", [1, 1, 1]),
]


@pytest.mark.parametrize("key, value", RANGE_EDITS)
def test_a_value_out_of_range_is_named_by_its_key(key, value):
    with open(REFERENCE_YAML) as fh:
        raw = yaml.safe_load(fh)
    *parents, leaf = key.split(".")
    section = raw
    for name in parents:
        section = section[name]
    section[leaf] = value
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    # a distribution's parameters sit beside its family, not under a path
    names = [".".join(parents), leaf] if "family" in section else [key]
    for name in names:
        assert name in str(exc.value)


# the config section each spec's fields are read from
SPEC_SECTIONS = {FleetSpec: "fleet", HouseholdSpec: "households",
                 MarketSpec: "market.synthetic",
                 SpikeSpec: "market.synthetic.spike",
                 PurchaseSpec: "market.purchase", CaseConfig: "run",
                 ConvergenceSpec: "run"}


def spec_classes(cls):
    """``cls`` and every spec dataclass its fields hold, recursively."""
    yield cls
    for tp, _, _ in _fields(cls).values():
        if dataclasses.is_dataclass(tp):
            yield from spec_classes(tp)


def test_every_declared_range_has_an_out_of_range_edit():
    assert {cls for cls in spec_classes(ScenarioConfig)
            if _declared_ranges(cls)} == set(SPEC_SECTIONS)
    with open(REFERENCE_YAML) as fh:
        reference = yaml.safe_load(fh)
    for cls, section in SPEC_SECTIONS.items():
        for name, (rule, _) in _declared_ranges(cls).items():
            path = f"{section}.{name}"
            edits = [value for key, value in RANGE_EDITS if key == path]
            refused = []
            for value in edits:
                raw = copy.deepcopy(reference)
                *parents, leaf = path.split(".")
                functools.reduce(dict.get, parents, raw)[leaf] = value
                try:
                    config_from_dict(raw)
                except ConfigError as exc:
                    if str(exc) == f"{path} must be {rule}, got {value!r}":
                        refused.append(value)
            assert refused, f"RANGE_EDITS has no edit of {path} outside " \
                            f"its range, {rule}"


def test_load_config_prefixes_path(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("seed: 1\nfleet: {n_users: -2}\nmarket: {synthetic: {}}\n")
    with pytest.raises(ConfigError, match=str(path)):
        load_config(path)


def test_market_files_must_exist(tmp_path):
    raw = minimal_raw(market={"files": str(tmp_path / "nowhere")})
    with pytest.raises(ConfigError, match="missing"):
        config_from_dict(raw)


# ---------------------------------------------------------------------------
# scenario assembly

def test_build_scenario_is_deterministic(reference_config, reference_scenario):
    sc2 = build_scenario(reference_config)
    assert sc2.fleet == reference_scenario.fleet
    assert np.array_equal(sc2.household_total,
                          reference_scenario.household_total)
    assert np.array_equal(sc2.market.rt_prices.values,
                          reference_scenario.market.rt_prices.values)
    assert np.array_equal(sc2.market.da_profile,
                          reference_scenario.market.da_profile)


def test_build_scenario_stage_seeds(reference_config, reference_scenario):
    cfg = reference_config
    da, rt = synth_prices(cfg.market_synth, cfg.seed + PRICE_SEED_OFFSET)
    assert np.array_equal(rt.values,
                          reference_scenario.market.rt_prices.values)
    hh = baseline_household(cfg.households, cfg.fleet.n_users,
                            cfg.seed + HOUSEHOLD_SEED_OFFSET)
    assert np.array_equal(hh.sum(axis=0),
                          reference_scenario.household_total)


def test_build_scenario_from_market_files(tmp_path):
    cfg = load_config(FLAT_DAY_YAML)
    sc = build_scenario(cfg)
    save_market_day(sc.market, tmp_path)
    raw = config_to_dict(cfg)
    raw["market"] = {"files": str(tmp_path)}
    cfg_files = config_from_dict(raw)
    sc2 = build_scenario(cfg_files)
    assert np.allclose(sc2.market.da_profile, sc.market.da_profile, atol=1e-6)
    assert np.allclose(sc2.market.rt_prices.values,
                       sc.market.rt_prices.values, atol=1e-9)
    assert sc2.fleet == sc.fleet  # fleet still synthesized from the seed


def test_reference_scenario_shape(reference_scenario):
    sc = reference_scenario
    assert len(sc.fleet) == 1000
    assert sc.household_total.shape == (N_SLOTS,)
    assert connection_counts(sc.fleet).max() <= 1000
    # the purchase block sits at the spike slot
    spike_slot = sc.config.market_synth.spike.slot
    assert sc.market.da_profile[spike_slot - 1] > \
        sc.household_total[spike_slot - 1] + 400.0


def setup_digest(sc) -> str:
    """SHA-256 of a built scenario at full precision: every profile field
    by ``repr`` (so its type too), then the household total, both price
    series and the purchase as raw float64 bytes."""
    h = hashlib.sha256()
    for prof in sc.fleet:
        for f in dataclasses.fields(prof):
            h.update(repr(getattr(prof, f.name)).encode())
            h.update(b",")
        h.update(b"\n")
    for arr in (sc.household_total, sc.market.da_prices.values,
                sc.market.rt_prices.values, sc.market.da_profile):
        h.update(arr.tobytes())
    return h.hexdigest()


# the artifact digests round to 6 decimals; these see a last-bit change
@pytest.mark.parametrize("seed, v2g_fraction, digest", [
    (20250401, 0.0,
     "e6d899f5dbd07ee2ba49df7c09767d51bd31ed2e2a271d71e9ffa51579678052"),
    (20250401, 0.5,
     "7087df0a65aa09848ef7279205cf173a96c97d6753940096b74735f0d506d156"),
    (20250401, 1.0,
     "32578c162d0f038a103938c801c3bdebef833e774956cdf9929f1a92d232e060"),
    (7, 0.0,
     "0a6b1420e1bd9b461abd45976d6593b5dc5ce74a585197c5f2ce2d96e24f872e"),
    (7, 0.5,
     "c0f9ed8213e169a906c65772d92bd3d29fbab066e69dfb1d419222acb0eab43f"),
    (7, 1.0,
     "b763cb9c9e254d7dd56f78d66b7ff0064cac40e3b23dd02aafcc259a8f600a81"),
])
def test_build_scenario_is_pinned_bit_for_bit(seed, v2g_fraction, digest):
    cfg = load_config(REFERENCE_YAML)
    cfg.seed = seed
    cfg.fleet.v2g_fraction = v2g_fraction
    assert setup_digest(build_scenario(cfg)) == digest
