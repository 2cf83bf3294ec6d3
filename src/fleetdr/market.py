"""Two-settlement market data: prices, procurement cost, synthetic days.

Internally all loads are kWh and all prices are $/kWh. Price CSV files use
the market-native $/MWh convention and are converted on ingest.

The retailer buys a day-ahead profile at DA prices; the deviation of actual
consumption from that profile settles at real-time prices, symmetrically
(negative deviations earn revenue at the RT price).
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .errors import ConfigError, DataError
from .fleet import N_SLOTS, as_profile, check_ranges

PRICE_CSV_HEADER = ["slot", "price_per_mwh"]
PROFILE_CSV_HEADER = ["slot", "kwh"]


@dataclass
class PriceSeries:
    """24 hourly prices in $/kWh with a market-leg tag ("da" or "rt")."""

    values: np.ndarray
    kind: str = "da"

    def __post_init__(self):
        self.values = as_profile(self.values)
        if self.kind not in ("da", "rt"):
            raise ConfigError(f"price kind must be 'da' or 'rt', got {self.kind!r}")
        if np.any(self.values < 0):
            raise ConfigError("prices must be non-negative")

    def __getitem__(self, slot: int) -> float:
        """Price at a 1-based slot index."""
        if not 1 <= slot <= N_SLOTS:
            raise ConfigError(f"slot must be in 1..{N_SLOTS}, got {slot}")
        return float(self.values[slot - 1])


@dataclass
class MarketDay:
    """One scheduling day: DA and RT price series plus the cleared DA profile."""

    da_prices: PriceSeries
    rt_prices: PriceSeries
    da_profile: np.ndarray

    def __post_init__(self):
        self.da_profile = as_profile(self.da_profile)
        if np.any(self.da_profile < 0):
            raise ConfigError("da_profile must be non-negative")
        if self.da_prices.kind != "da" or self.rt_prices.kind != "rt":
            raise ConfigError("MarketDay needs a 'da'-kind and an 'rt'-kind series")


@dataclass
class CostBreakdown:
    """Procurement cost split into its two settlement legs."""

    da_cost: float
    rt_cost: float

    @property
    def total(self) -> float:
        return self.da_cost + self.rt_cost


def procurement_cost(day: MarketDay, actual) -> CostBreakdown:
    """Retailer cost of serving ``actual``: DA leg plus RT imbalance leg.

    Negative imbalance slots (consuming less than purchased) earn revenue at
    the RT price, symmetrically with purchases.
    """
    actual = as_profile(actual)
    da_cost = float(np.dot(day.da_profile, day.da_prices.values))
    rt_cost = float(np.dot(actual - day.da_profile, day.rt_prices.values))
    return CostBreakdown(da_cost=da_cost, rt_cost=rt_cost)


# ---------------------------------------------------------------------------
# synthetic price days

@dataclass
class SpikeSpec:
    """A price excursion: RT price at ``slot`` forced to multiplier x DA."""

    slot: Annotated[int, "in 1..24"]
    multiplier: Annotated[float, "positive"] = 10.0

    def validate(self) -> None:
        check_ranges(self, "market.synthetic.spike")


@dataclass
class MarketSpec:
    """Generator settings for a synthetic DA/RT price day.

    The DA curve is a smooth daily shape around ``base_level_mwh``; the RT
    curve is DA times lognormal-free multiplicative noise (sigma
    ``rt_noise_sigma``), with an optional spike slot pinned to exactly
    ``multiplier`` x DA. RT dispersion therefore dominates DA dispersion,
    as real two-settlement data shows.
    """

    base_level_mwh: Annotated[float, "positive"] = 33.0
    amplitude: Annotated[float, "in [0, 1)"] = 0.35
    peak_slot: Annotated[int, "in 1..24"] = 8
    rt_noise_sigma: Annotated[float, ">= 0"] = 0.03
    spike: SpikeSpec | None = None

    def validate(self) -> None:
        check_ranges(self, "market.synthetic")
        if self.spike is not None:
            self.spike.validate()


def synth_prices(spec: MarketSpec, seed: int) -> tuple[PriceSeries, PriceSeries]:
    """Generate a (da, rt) price pair, deterministic in (spec, seed)."""
    spec.validate()
    rng = np.random.default_rng(seed)
    t = np.arange(1, N_SLOTS + 1, dtype=float)
    shape = np.cos(2.0 * np.pi * (t - spec.peak_slot) / N_SLOTS)
    # a price that overflows is refused below, naming the key that sent it
    with np.errstate(over="ignore"):
        da_mwh = spec.base_level_mwh * (1.0 + spec.amplitude * shape)
        noise = rng.normal(0.0, spec.rt_noise_sigma, N_SLOTS) if spec.rt_noise_sigma else np.zeros(N_SLOTS)
        rt_mwh = np.maximum(da_mwh * (1.0 + noise), 0.0)
        if spec.spike is not None:
            rt_mwh[spec.spike.slot - 1] = spec.spike.multiplier * da_mwh[spec.spike.slot - 1]
    if not np.isfinite(da_mwh).all():
        raise ConfigError(f"market.synthetic.base_level_mwh "
                          f"{spec.base_level_mwh!r} is too large: the "
                          "day-ahead prices overflow")
    if not np.isfinite(rt_mwh).all():
        # the day-ahead level scales both products, so name it too
        level = f"(market.synthetic.base_level_mwh {spec.base_level_mwh!r})"
        slot = None if spec.spike is None else spec.spike.slot
        if slot is not None and not np.isfinite(rt_mwh[slot - 1]):
            raise ConfigError(
                f"market.synthetic.spike.multiplier "
                f"{spec.spike.multiplier!r} times the day-ahead price "
                f"{da_mwh[slot - 1]:.6g} $/MWh at slot {slot} {level} "
                "overflows")
        raise ConfigError(f"market.synthetic.rt_noise_sigma "
                          f"{spec.rt_noise_sigma!r} is too large for "
                          f"day-ahead prices up to {da_mwh.max():.6g} $/MWh "
                          f"{level}: the real-time prices overflow")
    return (PriceSeries(da_mwh / 1000.0, kind="da"),
            PriceSeries(rt_mwh / 1000.0, kind="rt"))


# ---------------------------------------------------------------------------
# day-ahead profile construction

def water_fill(household_agg, energy: float, mask=None) -> np.ndarray:
    """Spread ``energy`` kWh over the valleys of a household aggregate.

    Returns the filled profile max(households, L) where the water level L is
    chosen so the added energy equals ``energy`` exactly. This is the ideal
    flat-bottomed demand a retailer would bid for a flexible fleet.

    ``mask`` (boolean, 24) restricts the fill to the slots where the fleet
    is actually expected to be plugged in; unmasked slots keep the bare
    household value.
    """
    hh = as_profile(household_agg)
    if energy < 0:
        raise ConfigError(f"energy must be >= 0, got {energy}")
    if mask is None:
        mask = np.ones(N_SLOTS, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (N_SLOTS,):
            raise ConfigError(f"mask must have shape ({N_SLOTS},)")
    if energy == 0:
        return hh.copy()
    if not mask.any():
        raise ConfigError("water_fill mask excludes every slot")
    vals = hh[mask]
    order = np.sort(vals)
    width_max = len(order)
    # find the level at which cumulative fill reaches `energy`
    filled = 0.0
    level = order[0]
    for k in range(1, width_max + 1):
        nxt = order[k] if k < width_max else np.inf
        step = (nxt - level) * k
        if filled + step >= energy or k == width_max:
            level = level + (energy - filled) / k
            break
        filled += step
        level = nxt
    out = hh.copy()
    out[mask] = np.maximum(hh[mask], level)
    return out


# ---------------------------------------------------------------------------
# CSV ingest

def _read_slot_csv(directory, name: str, header) -> np.ndarray:
    """Read the 24-row CSV ``name`` in ``directory`` into its values in
    slot order. The file starts with ``header``, blank rows are skipped,
    and each slot 1..24 appears once with a finite value >= 0; else
    DataError names the path, and the row (numbered from 2) at fault."""
    path = os.path.join(directory, name)
    seen: dict[int, float] = {}
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            head = next(reader, None)
            if head is None:
                raise DataError(f"{path}: empty file")
            if head != header:
                raise DataError(f"{path}: bad header {head!r}; expected "
                                f"{header!r}")
            for row_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                where = f"{path}: row {row_no}"
                if len(row) != len(header):
                    raise DataError(f"{where}: expected {len(header)} "
                                    f"fields, got {len(row)}")
                try:
                    slot = int(row[0])
                    value = float(row[1])
                except ValueError:
                    raise DataError(f"{where}: non-numeric value") from None
                if not 1 <= slot <= N_SLOTS:
                    raise DataError(f"{where}: slot {slot} out of "
                                    f"1..{N_SLOTS}")
                if slot in seen:
                    raise DataError(f"{where}: duplicate slot {slot}")
                if not (math.isfinite(value) and value >= 0):
                    raise DataError(f"{where}: {header[1]} must be finite "
                                    f"and >= 0, got {row[1]}")
                seen[slot] = value
    except (UnicodeDecodeError, csv.Error) as exc:
        # bytes the text encoding cannot decode, or a field past csv's limit
        raise DataError(f"{path}: {exc}") from None
    missing = sorted(set(range(1, N_SLOTS + 1)) - set(seen))
    if missing:
        raise DataError(f"{path}: missing slots {missing}")
    return np.array([seen[s] for s in range(1, N_SLOTS + 1)])


def load_market_day(directory) -> MarketDay:
    """Read a da_prices.csv / rt_prices.csv / da_profile.csv bundle."""
    da = _read_slot_csv(directory, "da_prices.csv", PRICE_CSV_HEADER)
    rt = _read_slot_csv(directory, "rt_prices.csv", PRICE_CSV_HEADER)
    profile = _read_slot_csv(directory, "da_profile.csv", PROFILE_CSV_HEADER)
    return MarketDay(da_prices=PriceSeries(da / 1000.0, kind="da"),
                     rt_prices=PriceSeries(rt / 1000.0, kind="rt"),
                     da_profile=profile)
