"""Scenario configuration: one YAML file describing a full simulated day.

A scenario bundles the fleet synthesis spec, the household baseline, the
market day (synthetic or loaded from CSV files), the retailer's purchase
construction and the run parameters. One top-level seed derives the
per-stage seeds (fleet, households, prices), so a config file plus its
seed reproduces every artifact bit-for-bit.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import re
import typing
from dataclasses import MISSING, dataclass, field
from typing import Annotated, List

import numpy as np
import yaml

from .coordinator import CaseConfig, ConvergenceSpec
from .errors import ConfigError
from .fleet import (Dist, FleetSpec, HouseholdSpec, N_SLOTS, PevProfile,
                    _dist_from_config, _dist_to_dict, _finite_number,
                    _number, as_profile, baseline_household, check_ranges,
                    sample_fleet)
from .market import MarketDay, MarketSpec, load_market_day, \
    synth_prices, water_fill

# offsets applied to the scenario seed for each synthesis stage, so the
# stages stay decoupled (changing fleet size never shifts the price draw)
FLEET_SEED_OFFSET = 0
HOUSEHOLD_SEED_OFFSET = 1
PRICE_SEED_OFFSET = 2


@dataclass
class PurchaseSpec:
    """How the retailer builds its day-ahead position from the forecast.

    The fleet's total energy (plus ``pad_kwh``) is valley-filled over the
    slots where at least ``coverage`` of the fleet is plugged in, and an
    optional fixed demand block is added at one slot (e.g. a grid-support
    commitment at an expected spike hour). Each field's range is declared
    beside its type.
    """

    coverage: Annotated[float, "in (0, 1]"] = 0.95
    pad_kwh: Annotated[float, ">= 0"] = 0.0
    block_kwh: Annotated[float, ">= 0"] = 0.0
    block_slot: Annotated[int | None, "in 1..24"] = None

    def validate(self) -> None:
        check_ranges(self, "market.purchase")
        if self.block_kwh > 0 and self.block_slot is None:
            raise ConfigError(
                "market.purchase.block_slot is required when block_kwh > 0")


@dataclass
class ScenarioConfig:
    """Everything one simulated day needs, as read from a config file."""

    seed: int
    fleet: FleetSpec
    households: HouseholdSpec = field(default_factory=HouseholdSpec)
    market_synth: MarketSpec | None = None
    market_files: str | None = None
    purchase: PurchaseSpec = field(default_factory=PurchaseSpec)
    case: CaseConfig = field(default_factory=CaseConfig)
    out_dir: str | None = None

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        self.fleet.validate()
        if self.fleet.n_users == 0:
            raise ConfigError("fleet.n_users is 0: a day needs at least one "
                              "vehicle to schedule and to buy for")
        self.households.validate()
        if (self.market_synth is None) == (self.market_files is None):
            raise ConfigError("market: exactly one of market.synthetic and "
                              "market.files must be given")
        if self.market_files is not None:
            for name in ("da_prices.csv", "rt_prices.csv", "da_profile.csv"):
                path = os.path.join(self.market_files, name)
                if not os.path.isfile(path):  # a directory is no file
                    raise ConfigError(f"market.files: missing file {path}")
        if self.market_synth is not None:
            self.market_synth.validate()
        self.purchase.validate()
        self.case.validate()


# ---------------------------------------------------------------------------
# YAML round-trip

# Each spec dataclass is the schema of its YAML section: its init fields
# are the allowed keys, a field without a default is a required key, and
# the field's annotation is the type its value must have. A range beside
# the type, ``Annotated[float, "positive"]``, is left to the spec's
# validate() (fleet.check_ranges): get_type_hints strips it here. The top
# level adds only its layout: ``market`` holds three ScenarioConfig fields
# under other names, and ``run`` is CaseConfig with ConvergenceSpec
# flattened in.
_MARKET_KEYS = {"synthetic": "market_synth", "files": "market_files",
                "purchase": "purchase"}


@functools.cache
def _fields(cls) -> dict:
    """``cls``'s init fields as {name: (type, optional, required)}, where
    ``optional`` says the annotation is ``type | None``."""
    hints, out = typing.get_type_hints(cls), {}
    for f in dataclasses.fields(cls):
        if f.init:
            tp = hints[f.name]
            args = typing.get_args(tp)
            out[f.name] = (args[0] if type(None) in args else tp,
                           type(None) in args,
                           f.default is MISSING and f.default_factory is MISSING)
    return out


def _expect_mapping(obj, where: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(obj).__name__}")
    return obj


def _section(fields: dict, obj, where: str) -> dict:
    """Type-checked keyword arguments from the YAML mapping at ``where``."""
    obj = _expect_mapping(obj, where)
    unknown = set(obj) - set(fields)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    prefix = "" if where == "config" else f"{where}."
    for name, (_, _, required) in fields.items():
        if required and name not in obj:
            raise ConfigError(f"{prefix}{name} is required")
    return {k: _value(*fields[k][:2], v, prefix + k) for k, v in obj.items()}


def _value(tp, optional: bool, v, path: str):
    """``v`` checked against the field type ``tp``; a spec section comes
    back built."""
    if v is None and optional:
        return None
    if tp is Dist:
        return _dist_from_config(v, path)
    if tp is dict:
        return _expect_mapping(v, path)
    if dataclasses.is_dataclass(tp):
        return tp(**_section(_fields(tp), v, path))
    if not (_finite_number(v) if tp is float
            else isinstance(v, tp) and not isinstance(v, bool)):
        want = tp.__name__
        if tp is float:
            want = "a finite number" if _number(v) else "a number"
        raise ConfigError(f"{path}: expected {want}, got {v!r}")
    return v


def config_from_dict(raw: dict) -> ScenarioConfig:
    top = _fields(ScenarioConfig)
    laid_out = (dict, False, False)  # a mapping unpacked below
    kwargs = _section({"seed": top["seed"], "out_dir": top["out_dir"],
                       "fleet": top["fleet"], "households": top["households"],
                       "market": laid_out, "run": laid_out}, raw, "config")
    market = _section({k: top[f] for k, f in _MARKET_KEYS.items()},
                      kwargs.pop("market", None), "market")
    kwargs.update({_MARKET_KEYS[k]: v for k, v in market.items()})
    conv = _fields(ConvergenceSpec)
    case = {k: t for k, t in _fields(CaseConfig).items() if k != "conv"}
    run = _section({**case, **conv}, kwargs.pop("run", None), "run")
    kwargs["case"] = CaseConfig(
        conv=ConvergenceSpec(**{k: run.pop(k) for k in conv if k in run}),
        **run)
    cfg = ScenarioConfig(**kwargs)
    cfg.validate()
    return cfg


def _dump(spec) -> dict:
    """``spec`` as the YAML mapping :func:`_section` reads it from. A
    missing sub-section (None where a spec dataclass may stand) is left
    out; any other None is written."""
    out = {}
    for name, (tp, optional, _) in _fields(type(spec)).items():
        v = getattr(spec, name)
        if isinstance(v, Dist):
            v = _dist_to_dict(v)
        elif dataclasses.is_dataclass(v):
            v = _dump(v)
        elif v is None and optional and dataclasses.is_dataclass(tp):
            continue
        out[name] = v
    return out


def config_to_dict(cfg: ScenarioConfig) -> dict:
    out = _dump(cfg)
    market = {k: v for k, f in _MARKET_KEYS.items()
              if (v := out.pop(f, None)) is not None}
    run = out.pop("case")
    run.update(run.pop("conv"))
    out.update(market=market, run=run)
    return {k: v for k, v in out.items() if v is not None}


def config_digest(cfg: ScenarioConfig) -> str:
    """Stable hash of the config content (not the file formatting)."""
    canonical = yaml.safe_dump(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


# YAML 1.2 floats with an exponent that YAML 1.1's resolver, which wants a
# dot and a signed exponent, leaves as strings: 1e-6, 1e9, 1.0e9, .5e3
_EXPONENT_FLOAT = re.compile(
    r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$")


@functools.cache
def _yaml12_floats(base: type) -> type:
    """``base`` with the exponent floats of YAML 1.2 resolved as floats."""
    loader = type(base.__name__, (base,), {})
    loader.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT,
                                 list("-+.0123456789"))
    return loader


def load_config(path) -> ScenarioConfig:
    """Parse and validate a scenario YAML file.

    Parsing uses libyaml's safe loader when PyYAML was built with it, and
    PyYAML's pure-Python safe loader otherwise; both resolve and construct
    values the same way, so they give the same config. Either reads
    exponent forms such as ``1e-6`` as floats, as YAML 1.2 does. Text that
    is not UTF-8, and a value that PyYAML's constructors cannot build (an
    int past Python's digit limit for int/str conversion, a date with
    month 13), is invalid YAML too.
    """
    loader = _yaml12_floats(getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    with open(path) as fh:
        try:
            raw = yaml.load(fh, Loader=loader)
        except (yaml.YAMLError, ValueError) as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    try:
        return config_from_dict(raw)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# scenario assembly

@dataclass
class Scenario:
    """A fully materialized day: fleet, baseline, market and parameters."""

    config: ScenarioConfig
    fleet: List[PevProfile]
    household_total: np.ndarray
    market: MarketDay


def connection_counts(fleet: List[PevProfile]) -> np.ndarray:
    """Number of vehicles plugged in at each slot, shape (24,).

    A window adds one at its arrival index and takes one off just past its
    departure (index 24 for a window that ends the day); the running sum of
    these markers is the count.
    """
    n = len(fleet)
    marks = (np.bincount(np.fromiter((p.arrival_slot - 1 for p in fleet),
                                     int, n), minlength=N_SLOTS + 1)
             - np.bincount(np.fromiter((p.departure_slot for p in fleet),
                                       int, n), minlength=N_SLOTS + 1))
    return np.cumsum(marks[:N_SLOTS]).astype(float)


def purchase_profile(fleet: List[PevProfile], household_total,
                     spec: PurchaseSpec) -> np.ndarray:
    """The retailer's day-ahead position for a known fleet.

    Valley-fills the fleet's total energy (plus pad) over the slots where
    the connected share reaches ``coverage``, then adds the fixed block.
    Filling only well-covered slots keeps the position absorbable: energy
    bid into slots the fleet cannot reach would be a guaranteed miss.
    """
    spec.validate()
    hh = as_profile(household_total)
    counts = connection_counts(fleet)
    mask = counts >= spec.coverage * len(fleet)
    if not mask.any():
        raise ConfigError(
            f"no slot reaches {spec.coverage:.0%} fleet connectivity; "
            "lower market.purchase.coverage")
    energy = sum(p.required_energy for p in fleet) + spec.pad_kwh
    bid = water_fill(hh, energy, mask=mask)
    if spec.block_kwh > 0:
        bid[spec.block_slot - 1] += spec.block_kwh
    return bid


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    """Materialize a config: sample the fleet, households and prices."""
    cfg.validate()
    fleet = sample_fleet(cfg.fleet, cfg.seed + FLEET_SEED_OFFSET)
    per_user = baseline_household(cfg.households, cfg.fleet.n_users,
                                  cfg.seed + HOUSEHOLD_SEED_OFFSET)
    with np.errstate(over="ignore"):
        household_total = per_user.sum(axis=0)
        day_total = household_total.sum()
    if not np.isfinite(day_total):
        raise ConfigError(
            f"households.mean_daily_kwh {cfg.households.mean_daily_kwh!r} is "
            f"too large: the day's total over {cfg.fleet.n_users} households "
            "overflows")
    if cfg.market_files is not None:
        market = load_market_day(cfg.market_files)
    else:
        da, rt = synth_prices(cfg.market_synth,
                              cfg.seed + PRICE_SEED_OFFSET)
        bid = purchase_profile(fleet, household_total, cfg.purchase)
        market = MarketDay(da_prices=da, rt_prices=rt, da_profile=bid)
    return Scenario(config=cfg, fleet=fleet, household_total=household_total,
                    market=market)
