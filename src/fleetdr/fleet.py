"""Plug-in EV fleet synthesis and per-user demand primitives.

A scheduling day is 24 one-hour slots indexed 1..24. The day does not have
to start at midnight: ``day_start_hour`` re-indexes the axis (default noon)
so that the common arrive-in-the-evening / depart-next-morning connection
window is contiguous within a single day. Slot ``s`` covers wall-clock hours
``[day_start + s - 1, day_start + s) mod 24``.

Load profiles are plain numpy arrays of shape (24,), in kWh per slot.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence

import numpy as np

from .errors import ConfigError, DataError

N_SLOTS = 24

FLEET_CSV_HEADER = ["user_id", "arrival", "departure", "energy_kwh",
                    "capacity_kwh", "soc0_kwh", "rate_kw", "v2g"]


def as_profile(values) -> np.ndarray:
    """Coerce ``values`` to a float64 load profile of shape (24,)."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (N_SLOTS,):
        raise ConfigError(f"load profile must have shape ({N_SLOTS},), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ConfigError("load profile contains non-finite values")
    return arr


def _finite_number(v) -> bool:
    """A finite real that is not a bool (YAML reads ``yes`` as True)."""
    return (isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, bool) and math.isfinite(v))


def hour_to_slot(hour: float, day_start_hour: int = 0) -> int:
    """Map a wall-clock hour (0 <= hour < 24 accepted modulo 24) to a slot index.

    Slot s covers wall hours [day_start + s - 1, day_start + s) mod 24, so the
    instant ``hour`` lands in the slot whose interval contains it.
    """
    return int((math.floor(hour) - day_start_hour) % 24) + 1


@dataclass
class PevProfile:
    """One plug-in EV user: connection window, energy need and battery data.

    Attributes:
        user_id: positive integer label, unique within a fleet.
        arrival_slot: first connected slot (1..24).
        departure_slot: last connected slot (arrival_slot..24): a window is
            contiguous and never wraps past the end of the scheduling day.
        required_energy: net energy to deliver over the window, kWh.
        capacity: battery capacity, kWh.
        initial_soc: state of charge at arrival, kWh.
        rate: outlet power limit, kW (per-slot energy bound for 1 h slots).
        v2g: whether the user may discharge to the grid.
    """

    user_id: int
    arrival_slot: int
    departure_slot: int
    required_energy: float
    capacity: float
    initial_soc: float
    rate: float
    v2g: bool = True

    def validate(self) -> None:
        if self.user_id < 1:
            raise ConfigError(f"user_id must be >= 1, got {self.user_id}")
        for name in ("arrival_slot", "departure_slot"):
            v = getattr(self, name)
            if not 1 <= v <= N_SLOTS:
                raise ConfigError(f"{name} must be in 1..{N_SLOTS}, got {v} "
                                  f"(user {self.user_id})")
        if self.departure_slot < self.arrival_slot:
            raise ConfigError(
                f"user {self.user_id}: charging window wraps past the end of "
                "the scheduling day; shift day_start_hour so every window "
                "fits inside one day")
        # one sum is non-finite exactly when a term is (or it overflows)
        if not math.isfinite(self.required_energy + self.capacity
                             + self.initial_soc + self.rate):
            raise ConfigError(f"required_energy, capacity, initial_soc and "
                              f"rate must be finite (user {self.user_id})")
        if self.capacity <= 0:
            raise ConfigError(f"capacity must be positive (user {self.user_id})")
        if self.rate <= 0:
            raise ConfigError(f"rate must be positive (user {self.user_id})")
        if not 0 <= self.initial_soc <= self.capacity:
            raise ConfigError(f"initial_soc must be in [0, capacity] "
                              f"(user {self.user_id})")
        if self.required_energy < 0:
            raise ConfigError(f"required_energy must be >= 0 (user {self.user_id})")
        if self.required_energy > self.capacity - self.initial_soc + 1e-9:
            raise ConfigError(f"required_energy exceeds battery headroom "
                              f"(user {self.user_id})")
        max_window = self.rate * self.window_length()
        if self.required_energy > max_window + 1e-9:
            raise ConfigError(f"required_energy {self.required_energy:.3f} kWh "
                              f"exceeds window capacity {max_window:.3f} kWh "
                              f"(user {self.user_id})")

    @property
    def window(self) -> slice:
        """The connected slots as a slice of a (24,) profile."""
        return slice(self.arrival_slot - 1, self.departure_slot)

    def window_length(self) -> int:
        """Number of connected slots."""
        return self.departure_slot - self.arrival_slot + 1

    def window_slots(self) -> List[int]:
        """Connected slots in causal order (arrival first), 1-based."""
        return list(range(self.arrival_slot, self.departure_slot + 1))

    def window_mask(self) -> np.ndarray:
        """Boolean (24,) mask of connected slots."""
        mask = np.zeros(N_SLOTS, dtype=bool)
        mask[self.window] = True
        return mask


def required_energy(rate: float, charging_hours: float) -> float:
    """Energy demand implied by an outlet rate and a nominal charging time.

    Args:
        rate: outlet power, kW (must be > 0).
        charging_hours: nominal time-to-charge, hours (must be >= 0).

    Returns:
        rate * charging_hours, in kWh.
    """
    if rate <= 0:
        raise ConfigError(f"rate must be positive, got {rate}")
    if charging_hours < 0:
        raise ConfigError(f"charging_hours must be >= 0, got {charging_hours}")
    return rate * charging_hours


# ---------------------------------------------------------------------------
# distributions

_DIST_FAMILIES = ("truncnorm", "uniform", "point", "choice")

# least share of its normal's mass a truncnorm's [lo, hi] must hold
MIN_TRUNCNORM_MASS = 1e-3


@dataclass
class Dist:
    """A one-dimensional sampling distribution used by fleet synthesis.

    Families:
        truncnorm: params mean, std, lo, hi (rejection-sampled normal).
        uniform:   params lo, hi.
        point:     params value (degenerate).
        choice:    params values, probs (finite histogram).

    ``round_to`` optionally snaps samples to the nearest multiple (used e.g.
    to round charging times to whole hours, matching histogram-binned survey
    data).
    """

    family: str
    params: dict = field(default_factory=dict)
    round_to: float | None = None

    def validate(self, name: str = "dist") -> None:
        if self.family not in _DIST_FAMILIES:
            raise ConfigError(f"{name}: unknown family {self.family!r}; "
                              f"expected one of {_DIST_FAMILIES}")
        p = self.params
        need = {"truncnorm": ("mean", "std", "lo", "hi"),
                "uniform": ("lo", "hi"),
                "point": ("value",),
                "choice": ("values", "probs")}[self.family]
        unknown = set(p) - set(need)
        if unknown:
            raise ConfigError(f"{name}: unknown keys {sorted(unknown)}")
        many = self.family == "choice"
        for key in need:
            if key not in p:
                raise ConfigError(f"{name}: family {self.family!r} needs "
                                  f"parameter {key!r}")
            v = p[key]
            if not (isinstance(v, (list, tuple)) and all(map(_finite_number, v))
                    if many else _finite_number(v)):
                raise ConfigError(f"{name}.{key}: expected a finite "
                                  f"{'number list' if many else 'number'}, "
                                  f"got {v!r}")
        if self.family == "truncnorm":
            if p["std"] <= 0:
                raise ConfigError(f"{name}: std must be positive")
            if p["lo"] >= p["hi"]:
                raise ConfigError(f"{name}: need lo < hi")
            z_lo, z_hi = ((p[k] - p["mean"]) / (p["std"] * math.sqrt(2))
                          for k in ("lo", "hi"))
            mass = 0.5 * (math.erfc(-z_hi) - math.erfc(-z_lo))
            if mass < MIN_TRUNCNORM_MASS:
                raise ConfigError(
                    f"{name}: [lo, hi] holds less than "
                    f"{MIN_TRUNCNORM_MASS:g} of the normal's mass; move it "
                    "toward the mean or widen std")
        if self.family == "uniform" and p["lo"] > p["hi"]:
            raise ConfigError(f"{name}: need lo <= hi")
        if self.family == "choice":
            if len(p["values"]) != len(p["probs"]) or not p["values"]:
                raise ConfigError(f"{name}: values/probs must be same nonzero length")
            if abs(sum(p["probs"]) - 1.0) > 1e-9:
                raise ConfigError(f"{name}: probs must sum to 1")
        if self.round_to is not None and not (_finite_number(self.round_to)
                                              and self.round_to > 0):
            raise ConfigError(f"{name}: round_to must be a positive number")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        p = self.params
        if self.family == "point":
            out = np.full(size, float(p["value"]))
        elif self.family == "uniform":
            out = rng.uniform(p["lo"], p["hi"], size)
        elif self.family == "choice":
            out = rng.choice(np.asarray(p["values"], dtype=float), size=size,
                             p=np.asarray(p["probs"], dtype=float))
        else:  # truncnorm by rejection: at most 1 / MIN_TRUNCNORM_MASS
            # expected draws per sample, since validate checks the mass
            out = np.empty(size)
            remaining = np.arange(size)
            while remaining.size:
                draw = rng.normal(p["mean"], p["std"], remaining.size)
                ok = (draw >= p["lo"]) & (draw <= p["hi"])
                out[remaining[ok]] = draw[ok]
                remaining = remaining[~ok]
        if self.round_to is not None:
            out = np.round(out / self.round_to) * self.round_to
        return out


def _dist_from_config(obj, name: str) -> Dist:
    """Read a ``Dist`` from its YAML mapping: ``family``, the family's
    parameters and an optional ``round_to``, all at one level."""
    if not isinstance(obj, dict) or "family" not in obj:
        raise ConfigError(f"{name}: expected a distribution mapping with a "
                          f"'family' key")
    params = {k: v for k, v in obj.items() if k not in ("family", "round_to")}
    d = Dist(family=obj["family"], params=params, round_to=obj.get("round_to"))
    d.validate(name)
    return d


def _dist_to_dict(d: Dist) -> dict:
    """The YAML mapping that :func:`_dist_from_config` reads back as ``d``."""
    out = {"family": d.family, **d.params}
    if d.round_to is not None:
        out["round_to"] = d.round_to
    return out


# ---------------------------------------------------------------------------
# fleet synthesis

def _default_arrival() -> Dist:
    return Dist("truncnorm", {"mean": 18.0, "std": 2.0, "lo": 13.0, "hi": 23.0})


def _default_departure() -> Dist:
    return Dist("truncnorm", {"mean": 7.0, "std": 1.5, "lo": 1.0, "hi": 11.0})


def _default_charging_time() -> Dist:
    return Dist("truncnorm", {"mean": 4.0, "std": 2.0, "lo": 0.0, "hi": 12.0})


def _default_initial_soc() -> Dist:
    # fraction of battery capacity at arrival
    return Dist("uniform", {"lo": 0.2, "hi": 0.8})


@dataclass
class FleetSpec:
    """Generative description of a fleet.

    Arrival/departure distributions sample wall-clock hours; charging time
    samples hours; initial SOC samples a *fraction* of capacity. Energy needs
    are ``rate * charging_time`` capped to battery headroom and to what the
    connection window can physically absorb. ``energy_grid`` optionally
    floors a capped energy need to a multiple of that grid (never raising
    it), which keeps all LP bounds on one lattice.
    """

    n_users: int
    capacity_kwh: float = 24.0
    rate_kw: float = 1.8
    v2g_fraction: float = 1.0
    day_start_hour: int = 12
    arrival: Dist = field(default_factory=_default_arrival)
    departure: Dist = field(default_factory=_default_departure)
    charging_time: Dist = field(default_factory=_default_charging_time)
    initial_soc: Dist = field(default_factory=_default_initial_soc)
    energy_grid: float | None = None

    def validate(self) -> None:
        if self.n_users < 0:
            raise ConfigError(f"fleet.n_users must be >= 0, got {self.n_users}")
        if self.capacity_kwh <= 0:
            raise ConfigError("fleet.capacity_kwh must be positive")
        if self.rate_kw <= 0:
            raise ConfigError("fleet.rate_kw must be positive")
        if not 0.0 <= self.v2g_fraction <= 1.0:
            raise ConfigError("fleet.v2g_fraction must be in [0, 1]")
        if not 0 <= self.day_start_hour <= 23:
            raise ConfigError("fleet.day_start_hour must be in 0..23")
        if self.energy_grid is not None and self.energy_grid <= 0:
            raise ConfigError("fleet.energy_grid must be positive when set")
        self.arrival.validate("fleet.arrival")
        self.departure.validate("fleet.departure")
        self.charging_time.validate("fleet.charging_time")
        self.initial_soc.validate("fleet.initial_soc")


def sample_fleet(spec: FleetSpec, seed: int) -> List[PevProfile]:
    """Draw a fleet of ``spec.n_users`` PEV profiles.

    Deterministic: the same spec and seed reproduce the identical fleet.
    Windows are emitted on the re-indexed scheduling axis; with the default
    distributions (evening arrivals, morning departures, noon day start)
    every window fits inside the day; one that wraps raises ConfigError.
    """
    spec.validate()
    rng = np.random.default_rng(seed)
    arrivals = spec.arrival.sample(rng, spec.n_users)
    departures = spec.departure.sample(rng, spec.n_users)
    hours = spec.charging_time.sample(rng, spec.n_users)
    soc_frac = spec.initial_soc.sample(rng, spec.n_users)
    v2g_draw = rng.random(spec.n_users)

    fleet = []
    for i in range(spec.n_users):
        a = hour_to_slot(arrivals[i], spec.day_start_hour)
        b = hour_to_slot(departures[i], spec.day_start_hour)
        soc0 = float(np.clip(soc_frac[i], 0.0, 1.0) * spec.capacity_kwh)
        prof = PevProfile(
            user_id=i + 1,
            arrival_slot=a,
            departure_slot=b,
            required_energy=0.0,
            capacity=spec.capacity_kwh,
            initial_soc=soc0,
            rate=spec.rate_kw,
            v2g=bool(v2g_draw[i] < spec.v2g_fraction),
        )
        e_raw = required_energy(spec.rate_kw, max(0.0, float(hours[i])))
        headroom = spec.capacity_kwh - soc0
        window_cap = spec.rate_kw * prof.window_length()
        e = min(e_raw, headroom, window_cap)
        if spec.energy_grid is not None and e < e_raw - 1e-12:
            # capped: snap down to the grid so the cap is never exceeded
            e = math.floor(e / spec.energy_grid + 1e-9) * spec.energy_grid
        prof.required_energy = max(0.0, float(e))
        prof.validate()
        fleet.append(prof)
    return fleet


# ---------------------------------------------------------------------------
# household baseline

@dataclass
class HouseholdSpec:
    """Parametric double-peak residential load shape with per-user scaling.

    The base shape is a valley level plus gaussian morning and evening
    bumps, normalized so each user's expected daily total equals
    ``mean_daily_kwh``. Per-user variation is a lognormal scalar with unit
    mean (sigma ``noise_sigma``).
    """

    mean_daily_kwh: float = 20.0
    valley: float = 0.55
    evening_peak: float = 2.0
    evening_slot: int = 8
    evening_width: float = 2.0
    morning_peak: float = 1.3
    morning_slot: int = 20
    morning_width: float = 1.6
    noise_sigma: float = 0.25

    def validate(self) -> None:
        if self.mean_daily_kwh < 0:
            raise ConfigError("households.mean_daily_kwh must be >= 0")
        for name in ("valley", "evening_peak", "morning_peak"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"households.{name} must be positive")
        for name in ("evening_slot", "morning_slot"):
            if not 1 <= getattr(self, name) <= N_SLOTS:
                raise ConfigError(f"households.{name} must be in 1..{N_SLOTS}")
        for name in ("evening_width", "morning_width"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"households.{name} must be positive")
        if self.noise_sigma < 0:
            raise ConfigError("households.noise_sigma must be >= 0")

    def base_shape(self) -> np.ndarray:
        """Unit-mean hourly shape (24,)."""
        t = np.arange(1, N_SLOTS + 1, dtype=float)
        # circular distance so bumps near the axis edges stay symmetric
        def bump(center, width, height):
            d = np.minimum(np.abs(t - center), N_SLOTS - np.abs(t - center))
            return (height - self.valley) * np.exp(-0.5 * (d / width) ** 2)

        shape = (np.full(N_SLOTS, self.valley)
                 + bump(self.evening_slot, self.evening_width, self.evening_peak)
                 + bump(self.morning_slot, self.morning_width, self.morning_peak))
        return shape / shape.mean()


def baseline_household(spec: HouseholdSpec, n_users: int, seed: int) -> np.ndarray:
    """Per-user household profiles, shape (n_users, 24), kWh per slot.

    Deterministic in (spec, n_users, seed). A zero ``mean_daily_kwh`` yields
    all-zero profiles.
    """
    spec.validate()
    if n_users < 0:
        raise ConfigError(f"n_users must be >= 0, got {n_users}")
    rng = np.random.default_rng(seed)
    base = spec.base_shape() * (spec.mean_daily_kwh / N_SLOTS)
    if spec.noise_sigma > 0:
        # unit-mean lognormal scalars
        scale = rng.lognormal(-0.5 * spec.noise_sigma ** 2, spec.noise_sigma,
                              n_users)
    else:
        scale = np.ones(n_users)
    return np.outer(scale, base)


# ---------------------------------------------------------------------------
# uncoordinated (plug-and-charge) baseline

def greedy_schedule(profile: PevProfile) -> np.ndarray:
    """Plug-and-charge schedule: full rate from arrival until E is delivered."""
    x = np.zeros(N_SLOTS)
    remaining = profile.required_energy
    for s in profile.window_slots():
        if remaining <= 1e-12:
            break
        amount = min(profile.rate, remaining)
        x[s - 1] = amount
        remaining -= amount
    return x


def uncoordinated_profile(fleet: Sequence[PevProfile]) -> np.ndarray:
    """Aggregate PEV load (24,) when every user plug-and-charges greedily."""
    agg = np.zeros(N_SLOTS)
    for prof in fleet:
        agg += greedy_schedule(prof)
    return agg


# ---------------------------------------------------------------------------
# CSV import/export

def write_fleet_csv(fleet: Iterable[PevProfile], path) -> None:
    """Write a fleet to CSV (slots as integers, energies with 3 decimals)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FLEET_CSV_HEADER)
        for p in fleet:
            writer.writerow([p.user_id, p.arrival_slot, p.departure_slot,
                             f"{p.required_energy:.3f}", f"{p.capacity:.3f}",
                             f"{p.initial_soc:.3f}", f"{p.rate:.3f}",
                             int(p.v2g)])


def read_fleet_csv(path) -> List[PevProfile]:
    """Read a fleet from CSV, validating every row.

    Raises DataError naming the offending row on malformed input.
    """
    fleet = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty fleet file") from None
        if header != FLEET_CSV_HEADER:
            raise DataError(f"{path}: bad header {header!r}; expected "
                            f"{FLEET_CSV_HEADER!r}")
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(FLEET_CSV_HEADER):
                raise DataError(f"{path}: row {row_no}: expected "
                                f"{len(FLEET_CSV_HEADER)} fields, got {len(row)}")
            try:
                prof = PevProfile(
                    user_id=int(row[0]),
                    arrival_slot=int(row[1]),
                    departure_slot=int(row[2]),
                    required_energy=float(row[3]),
                    capacity=float(row[4]),
                    initial_soc=float(row[5]),
                    rate=float(row[6]),
                    v2g=bool(int(row[7])),
                )
                prof.validate()
            except (ValueError, ConfigError) as exc:
                raise DataError(f"{path}: row {row_no}: {exc}") from None
            fleet.append(prof)
    ids = [p.user_id for p in fleet]
    if len(set(ids)) != len(ids):
        raise DataError(f"{path}: duplicate user_id values")
    return fleet
