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
import functools
import math
import operator
import typing
from dataclasses import dataclass, field
from typing import Annotated, Callable, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import ConfigError

N_SLOTS = 24
# the most rows numpy can give a (n, N_SLOTS) float array, such as the
# households' per-user profiles
MAX_USERS = np.iinfo(np.intp).max // (N_SLOTS * np.dtype(float).itemsize)

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


def _number(v) -> bool:
    """A real that is not a bool (YAML reads ``yes`` as True)."""
    return (isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, bool))


def _finite_number(v) -> bool:
    """A :func:`_number` that is finite as a float, which an int too large
    for a float is not."""
    try:
        return _number(v) and math.isfinite(v)
    except OverflowError:
        return False


# each PevProfile field: what it holds, its Fleet column's dtype, and a test
# of its Python type, as numpy reads 2.5 as 2, True as 1 and "no" as True
_INT = "an int", np.int64, lambda t: (issubclass(t, (int, np.integer))
                                      and t is not bool)
_NUMBER = "a number", float, lambda t: (issubclass(
    t, (int, float, np.integer, np.floating)) and t is not bool)
_FIELD_TYPES = {"user_id": _INT, "arrival_slot": _INT, "departure_slot": _INT,
                "required_energy": _NUMBER, "capacity": _NUMBER,
                "initial_soc": _NUMBER, "rate": _NUMBER,
                "v2g": ("a bool", bool, lambda t: t in (bool, np.bool_))}


def _range_test(rule: str) -> Callable[[object], bool]:
    """The test a declared range names: ``positive``, ``>= a``, ``> a``,
    ``in a..b`` (whole numbers) or an interval such as ``in (0, 1]``.
    Every comparison is false on NaN, and exact on an int."""
    if rule == "positive":
        rule = "> 0"
    if rule[0] == ">":
        op, low = rule.split()
        rule = f"in {'[' if op == '>=' else '('}{low}, inf]"
    elif ".." in rule:
        rule = "in [{}, {}]".format(*rule[3:].split(".."))
    low, high = map(float, rule[4:-1].split(", "))
    above = operator.ge if rule[3] == "[" else operator.gt
    below = operator.le if rule[-1] == "]" else operator.lt
    return lambda v: above(v, low) and below(v, high)


@functools.cache
def _declared_ranges(cls) -> dict:
    """``{field: (range, test)}`` for each field of the spec dataclass
    ``cls`` whose type hint declares a range: ``Annotated[float,
    "positive"]``."""
    return {name: (hint.__metadata__[0], _range_test(hint.__metadata__[0]))
            for name, hint in typing.get_type_hints(
                cls, include_extras=True).items()
            if typing.get_origin(hint) is Annotated}


def check_ranges(spec, section: str) -> None:
    """Raise ConfigError for the first field of ``spec`` outside its
    declared range, naming it ``section.field``. An unset optional field
    (None) passes."""
    for name, (rule, test) in _declared_ranges(type(spec)).items():
        v = getattr(spec, name)
        if v is not None and not test(v):
            raise ConfigError(f"{section}.{name} must be {rule}, got {v!r}")


def hour_to_slot(hours, day_start_hour: int = 0) -> np.ndarray:
    """Map wall-clock hours (taken modulo 24) to slot indices, elementwise.

    Slot s covers wall hours [day_start + s - 1, day_start + s) mod 24, so
    each instant lands in the slot whose interval contains it. The floored
    hour is reduced modulo 24 before the day start is taken off: a float
    remainder of a whole number is exact, so any finite hour maps as the
    integer formula ``(floor(hour) - day_start) % 24 + 1`` would map it.
    """
    wrapped = np.floor(np.asarray(hours, dtype=float)) % 24
    return ((wrapped - day_start_hour) % 24).astype(int) + 1


@dataclass
class PevProfile:
    """One plug-in EV user: connection window, energy need and battery data.

    Attributes:
        user_id: positive integer label, unique within a fleet (as_fleet).
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
        for name, (kind, _, test) in _FIELD_TYPES.items():
            if not test(type(v := getattr(self, name))):
                raise ConfigError(f"{name} must be {kind}, got {v!r} "
                                  f"(user {self.user_id!r})")
        if not 1 <= self.user_id < 2**63:  # a Fleet's ids are int64
            raise ConfigError(f"user_id must be in 1..2**63-1, got "
                              f"{self.user_id}")
        for name in ("arrival_slot", "departure_slot"):
            v = getattr(self, name)
            if not 1 <= v <= N_SLOTS:
                raise ConfigError(f"{name} must be in 1..{N_SLOTS}, got {v} "
                                  f"(user {self.user_id})")
        if self.departure_slot < self.arrival_slot:
            raise ConfigError(
                f"user {self.user_id}: charging window wraps past the end of "
                "the scheduling day; shift fleet.day_start_hour so every "
                "window fits inside one day")
        for name in ("required_energy", "capacity", "initial_soc", "rate"):
            if not _finite_number(getattr(self, name)):
                raise ConfigError(f"{name} must be finite (user "
                                  f"{self.user_id})")
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


class Fleet(tuple):
    """A fleet's profiles as :func:`as_fleet` checks and lays them out: each
    field is also a column, int64 ``user_id``, ``arrival`` and
    ``departure``, float ``required``, ``capacity``, ``soc0`` and ``rate``,
    and bool ``v2g``."""

    def take(self, rows: List[int]) -> Fleet:
        """The fleet of the profiles at ``rows``, distinct indices."""
        part = Fleet(map(self.__getitem__, rows))
        part.__dict__.update((k, v[rows]) for k, v in vars(self).items())
        return part


def as_fleet(profiles: Sequence[PevProfile]) -> Fleet:
    """``profiles`` as a :class:`Fleet`; a fleet comes back as it is.

    Anything else is checked once. numpy's columns are trusted only when
    every field's Python type passes, and then :func:`invalid_rows` checks
    them; else the first profile in fleet order that ``validate()`` rejects
    raises its error. Then a repeated user id is named.
    """
    if isinstance(profiles, Fleet):
        return profiles
    fleet, kinds = Fleet(profiles), _FIELD_TYPES.values()
    columns = list(zip(*[(p.user_id, p.arrival_slot, p.departure_slot,
                          p.required_energy, p.capacity, p.initial_soc,
                          p.rate, p.v2g) for p in fleet])) or [()] * 8
    try:
        arrays = [np.array(c, dtype)
                  for c, (_, dtype, _) in zip(columns, kinds)]
        typed = all(test(t) for c, (*_, test) in zip(columns, kinds)
                    for t in set(map(type, c)))
    except (TypeError, ValueError, OverflowError):  # numpy refused a value
        typed = False
    if not typed or invalid_rows(*arrays[:7]).any():
        for prof in fleet:  # validate() rejects whatever failed above
            prof.validate()
    order = arrays[0].argsort(kind="stable")
    repeats = order[1:][np.diff(arrays[0][order]) == 0]  # each after its first
    if repeats.size:
        raise ConfigError(f"user {arrays[0][repeats.min()]}: user_id taken "
                          "by an earlier profile; ids must be unique")
    fleet.__dict__.update(zip("user_id arrival departure required capacity "
                              "soc0 rate v2g".split(), arrays))
    return fleet


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
            listed = isinstance(v, (list, tuple))
            bad = [x for x in (v if many and listed else [v])
                   if not _finite_number(x)]
            if bad or many and not listed:
                finite = listed == many and all(map(_number, bad))
                raise ConfigError(f"{name}.{key}: expected a "
                                  f"{'finite ' if finite else ''}number"
                                  f"{' list' if many else ''}, got {v!r}")
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
        if self.round_to is not None:
            if not (_finite_number(self.round_to) and self.round_to > 0):
                raise ConfigError(f"{name}: round_to must be a positive "
                                  "number")
            # sample() divides every sample by round_to
            widest = max(map(abs, p["values"] if many else [p["value"]]
                             if self.family == "point" else [p["lo"], p["hi"]]))
            if not math.isfinite(float(widest) / float(self.round_to)):
                raise ConfigError(
                    f"{name}: round_to {self.round_to!r} is too small: a "
                    f"sample of {widest!r} divided by it overflows")

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

    n_users: Annotated[int, ">= 0"]
    capacity_kwh: Annotated[float, "positive"] = 24.0
    rate_kw: Annotated[float, "positive"] = 1.8
    v2g_fraction: Annotated[float, "in [0, 1]"] = 1.0
    day_start_hour: Annotated[int, "in 0..23"] = 12
    arrival: Dist = field(default_factory=_default_arrival)
    departure: Dist = field(default_factory=_default_departure)
    charging_time: Dist = field(default_factory=_default_charging_time)
    initial_soc: Dist = field(default_factory=_default_initial_soc)
    energy_grid: Annotated[float | None, "positive"] = None

    def validate(self) -> None:
        check_ranges(self, "fleet")
        if self.n_users > MAX_USERS:
            raise ConfigError(
                f"fleet.n_users must be at most {MAX_USERS}, the most rows "
                f"a (n_users, {N_SLOTS}) float array can have, got "
                f"{self.n_users}")
        if not math.isfinite(N_SLOTS * self.rate_kw):
            raise ConfigError(
                f"fleet.rate_kw {self.rate_kw!r} is too large: a day of "
                f"{N_SLOTS} slots at that rate overflows")
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

    Energy needs are capped, and every check of :meth:`PevProfile.validate`
    is taken, as array expressions over the whole draw. Only when a row
    fails are the profiles validated one by one, in fleet order, so the
    error and the first user it names are ``validate()``'s.
    """
    spec.validate()
    columns, bad = _fleet_columns(spec, seed)
    fleet = list(map(PevProfile, *columns))
    if bad.any():
        for prof in fleet:
            prof.validate()
    return fleet


def _fleet_columns(spec: FleetSpec, seed: int) -> Tuple[list, np.ndarray]:
    """The fleet's :class:`PevProfile` fields as sequences, in field order,
    and a mask of the rows whose profile :meth:`PevProfile.validate`
    rejects.

    The whole draw is capped and checked at once, with the bits and types
    that the same arithmetic on one vehicle's Python scalars gives.
    """
    n = spec.n_users
    rng = np.random.default_rng(seed)
    arrivals = spec.arrival.sample(rng, n)
    departures = spec.departure.sample(rng, n)
    hours = spec.charging_time.sample(rng, n)
    soc_frac = spec.initial_soc.sample(rng, n)
    v2g_draw = rng.random(n)

    cap, rate, grid = spec.capacity_kwh, spec.rate_kw, spec.energy_grid
    a = hour_to_slot(arrivals, spec.day_start_hour)
    b = hour_to_slot(departures, spec.day_start_hour)
    soc0 = np.clip(soc_frac, 0.0, 1.0) * cap
    # Python floats overflow to inf without a warning; so do these
    with np.errstate(over="ignore", invalid="ignore"):
        e_raw = rate * np.maximum(0.0, hours)
        headroom = cap - soc0
        # float slot counts: an int rate past int64 cannot scale int64s
        window_cap = rate * (b - a + 1.0)
        e = np.minimum(np.minimum(e_raw, headroom), window_cap)
        if grid is not None:
            # capped: snap down to the grid so the cap is never exceeded
            e = np.where(e < e_raw - 1e-12,
                         np.floor(e / grid + 1e-9) * grid, e)
        # Python's max(0.0, e): np.maximum would keep a -0.0 here
        e = np.where(e > 0.0, e, 0.0)
    bad = invalid_rows(1, a, b, e, cap, soc0, rate)  # ids start at 1
    return [range(1, n + 1), a.tolist(), b.tolist(), e.tolist(), [cap] * n,
            soc0.tolist(), [rate] * n,
            (v2g_draw < spec.v2g_fraction).tolist()], bad


def invalid_rows(user_id, arrival, departure, energy, capacity, soc0,
                 rate) -> np.ndarray:
    """A mask of the rows whose :class:`PevProfile` ``validate()`` rejects,
    from its fields as arrays (or scalars that broadcast), with the bits
    of ``validate()``'s arithmetic on one vehicle's Python scalars."""
    with np.errstate(over="ignore", invalid="ignore"):
        # float slot counts: an int rate past int64 cannot scale int64s
        window_cap = rate * (departure - arrival + 1.0)
        return ((user_id < 1) | (arrival < 1) | (arrival > N_SLOTS)
                | (departure < 1) | (departure > N_SLOTS)
                | (departure < arrival)
                | ~np.isfinite(energy + capacity + soc0 + rate)
                | (capacity <= 0) | (rate <= 0)
                | ~((0 <= soc0) & (soc0 <= capacity)) | (energy < 0)
                | (energy > capacity - soc0 + 1e-9)
                | (energy > window_cap + 1e-9))


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

    mean_daily_kwh: Annotated[float, ">= 0"] = 20.0
    valley: Annotated[float, "positive"] = 0.55
    evening_peak: Annotated[float, "positive"] = 2.0
    evening_slot: Annotated[int, "in 1..24"] = 8
    evening_width: Annotated[float, "positive"] = 2.0
    morning_peak: Annotated[float, "positive"] = 1.3
    morning_slot: Annotated[int, "in 1..24"] = 20
    morning_width: Annotated[float, "positive"] = 1.6
    noise_sigma: Annotated[float, ">= 0"] = 0.25

    def validate(self) -> None:
        check_ranges(self, "households")
        # baseline_household squares it; a float's ** raises on overflow
        if not math.isfinite(self.noise_sigma * self.noise_sigma):
            raise ConfigError(
                f"households.noise_sigma {self.noise_sigma!r} is too large: "
                "its square overflows")

    def base_shape(self) -> np.ndarray:
        """Unit-mean hourly shape (24,)."""
        t = np.arange(1, N_SLOTS + 1, dtype=float)
        # circular distance so bumps near the axis edges stay symmetric
        def bump(center, width, height):
            d = np.minimum(np.abs(t - center), N_SLOTS - np.abs(t - center))
            return (height - self.valley) * np.exp(-0.5 * (d / width) ** 2)

        # a tiny width sends d / width to inf, and the bump's tail to its
        # limit 0. The shape lies between the valley and the peaks, so it
        # can only overflow or, where a huge level cancels, round below 0
        with np.errstate(over="ignore"):
            shape = (np.full(N_SLOTS, self.valley)
                     + bump(self.evening_slot, self.evening_width,
                            self.evening_peak)
                     + bump(self.morning_slot, self.morning_width,
                            self.morning_peak))
            mean = shape.mean()
        if not (math.isfinite(mean) and shape.min() >= 0):
            raise ConfigError(
                f"households.valley {self.valley!r}, households.evening_peak "
                f"{self.evening_peak!r} and households.morning_peak "
                f"{self.morning_peak!r} give a load shape that overflows or "
                "rounds below 0")
        return shape / mean


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

def uncoordinated_profile(fleet: Sequence[PevProfile]) -> np.ndarray:
    """Aggregate PEV load (24,) when every user plug-and-charges greedily:
    full rate from arrival until its energy is delivered.

    The fleet charges together, one slot at a time. Each slot's loads are
    added in fleet order by a running sum, so the total has the bits of
    adding the vehicles' schedules one after another. ``fleet`` is read
    through :func:`as_fleet`.
    """
    fleet = as_fleet(fleet)
    start, stop = fleet.arrival - 1, fleet.departure
    remaining = fleet.required.copy()
    agg = np.zeros(N_SLOTS)
    for t in range(N_SLOTS):
        live = (start <= t) & (t < stop) & (remaining > 1e-12)
        amount = np.minimum(fleet.rate[live], remaining[live])
        remaining[live] -= amount
        if amount.size:
            agg[t] = np.cumsum(amount)[-1]
    return agg


# ---------------------------------------------------------------------------
# CSV export

def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV file: the ``header`` row, then ``rows``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_slot_csv(path, header: Sequence[str], *columns) -> None:
    """Write a 24-row table: each slot, then every column's value at that
    slot with 6 decimals."""
    write_csv(path, header, ([s, *(f"{c[s - 1]:.6f}" for c in columns)]
                             for s in range(1, N_SLOTS + 1)))


def write_fleet_csv(fleet: Iterable[PevProfile], path) -> None:
    """Write a fleet to CSV (slots as integers, energies with 3 decimals)."""
    write_csv(path, FLEET_CSV_HEADER, (
        [p.user_id, p.arrival_slot, p.departure_slot,
         *(f"{v:.3f}" for v in (p.required_energy, p.capacity,
                                p.initial_soc, p.rate)),
         int(p.v2g)] for p in fleet))
