"""Cash-flow construction and levelized cost of electricity.

The levelized cost is the discounted sum of fuel, O&M, and capital flows
divided by the discounted energy produced over the plant life.  Flows are
built from design-derived masses and a per-scenario price ledger; three
preset ledgers ship with the package (expensive reflectors everywhere,
cheap axial reflector, cheap axial and drum reflectors).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .constraints import constraints_from_config, default_constraints
from .errors import ConfigError, ContractError, _is_integer, _is_number

CATEGORIES = ("fuel", "o_and_m", "capital", "reflector", "reactivity_control")

PRESET_NAMES = ("scenario-1", "scenario-2", "scenario-3")


def default_annual_energy_mwh(thermal_power_mw: float = 2.0,
                              efficiency: float = 0.35,
                              capacity_factor: float = 0.95) -> float:
    """Electrical MWh per year.  Conversion efficiency and capacity factor
    are package defaults with no anchor in the calibration data; override
    them through the scenario file when better numbers exist."""
    return thermal_power_mw * 8766.0 * efficiency * capacity_factor


@dataclass(frozen=True)
class EconParams:
    discount_rate: float = 0.06
    plant_life_years: int = 60
    replacement_period_years: int = 10
    annual_energy_mwh: float = field(default_factory=default_annual_energy_mwh)

    def __post_init__(self):
        if not (_is_number(self.discount_rate) and 0.0 <= self.discount_rate < 1.0):
            raise ConfigError(f"discount_rate must be a number in [0, 1), "
                              f"got {self.discount_rate!r}")
        for name in ("plant_life_years", "replacement_period_years"):
            value = getattr(self, name)
            if not (_is_integer(value) and value >= 1):
                raise ConfigError(f"{name} must be an integer of at least 1, got {value!r}")
        if not (_is_number(self.annual_energy_mwh) and self.annual_energy_mwh > 0):
            raise ConfigError("annual_energy_mwh must be a finite positive number, "
                              f"got {self.annual_energy_mwh!r}")

    def discount_factors(self) -> np.ndarray:
        return self._discount.copy()

    # computed once per instance on first use; cached_property writes the
    # instance __dict__ directly, so it works on the frozen dataclass
    @cached_property
    def _years(self) -> np.ndarray:
        return _read_only(np.arange(self.plant_life_years + 1))

    @cached_property
    def _discount(self) -> np.ndarray:
        return _read_only((1.0 + self.discount_rate) ** -self._years)

    @cached_property
    def _discounted_energy(self) -> float:
        return float(self.annual_energy_mwh * self._discount.sum())


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class CostScenario:
    """Price ledger plus the mass models mapping a design to kilograms.

    The axial reflector fills the vessel height not occupied by fuel; the
    drum surface splits between absorber coating (arc fraction x_ca/360)
    and reflector material; absorber price carries a linear enrichment
    premium in x_b10.
    """

    name: str
    axial_reflector_price_per_kg: float
    drum_reflector_price_per_kg: float
    absorber_price_per_kg: float
    fuel_price_per_kgu: float
    fixed_direct_capital: float
    annual_om: float
    vessel_height_cm: float = 230.0
    axial_reflector_kg_per_cm: float = 18.5
    drum_reflector_total_kg: float = 1200.0
    absorber_total_kg: float = 320.0
    b10_premium_slope: float = 1.5
    replacement_fraction: float = 1.0
    description: str = ""
    econ: EconParams = field(default_factory=EconParams)
    constraints: tuple = field(default_factory=lambda: tuple(default_constraints()))
    proxy: dict | None = None  # optional surrogate-model overrides

    def __post_init__(self):
        for name in ("axial_reflector_price_per_kg", "drum_reflector_price_per_kg",
                     "absorber_price_per_kg", "fuel_price_per_kgu",
                     "fixed_direct_capital", "annual_om"):
            value = getattr(self, name)
            if not (_is_number(value) and value >= 0):
                raise ConfigError(f"{self.name}: {name} must be a finite non-negative "
                                  f"number, got {value!r}")
        for name in ("vessel_height_cm", "axial_reflector_kg_per_cm",
                     "drum_reflector_total_kg", "absorber_total_kg",
                     "b10_premium_slope", "replacement_fraction"):
            value = getattr(self, name)
            if not _is_number(value):
                raise ConfigError(f"{self.name}: {name} must be a finite number, "
                                  f"got {value!r}")

    def axial_reflector_mass(self, x_fh: float) -> float:
        return self.axial_reflector_kg_per_cm * max(self.vessel_height_cm - x_fh, 0.0)

    def drum_reflector_mass(self, x_ca: float) -> float:
        return self.drum_reflector_total_kg * (1.0 - x_ca / 360.0)

    def absorber_mass(self, x_ca: float) -> float:
        return self.absorber_total_kg * (x_ca / 360.0)

    def absorber_unit_price(self, x_b10: float) -> float:
        return self.absorber_price_per_kg * (1.0 + self.b10_premium_slope * x_b10)


@dataclass
class CashFlowSchedule:
    """Yearly flows by category, years 0..n inclusive.

    ``ledger`` holds one row per category and ``flows`` maps each category
    to its row, a view into the ledger.  Given ``flows`` alone, the schedule
    stacks them into a new ledger.  ``build_cash_flows`` returns the
    ``_DesignSchedule`` subclass instead, which builds both only when read.
    """

    years: np.ndarray
    flows: dict
    ledger: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.ledger is None:
            if any(len(values) != len(self.years) for values in self.flows.values()):
                _scan(self.flows, self.years)
            self.ledger = np.array(list(self.flows.values()))
            self.flows = dict(zip(self.flows, self.ledger))
        _check(self.ledger, self.flows, self.years)

    @property
    def total_by_year(self) -> np.ndarray:
        # the reduction ledger.sum(axis=0) runs, without the method's wrapper:
        # row by row, in category order
        return np.add.reduce(self.ledger, axis=0)


def _check(ledger: np.ndarray, flows: dict, years) -> None:
    # `not >= 0` is also true for a NaN minimum; the scan then raises only
    # for a negative flow, so NaN flows alone pass
    if not np.minimum.reduce(ledger, axis=None, initial=0) >= 0:
        _scan(flows, years)


def _scan(flows: dict, years) -> None:
    """Raise for the first category of the wrong length or with a negative
    flow."""
    for category, values in flows.items():
        if len(values) != len(years):
            raise ContractError(f"category {category}: length mismatch")
        if np.any(np.asarray(values) < 0):
            raise ContractError(f"category {category}: negative flow")


class _DesignSchedule(CashFlowSchedule):
    """One design's schedule, kept as its yearly totals and the amounts
    they were summed from.

    ``lcoe`` reads only the totals.  The ledger and its rows are built from
    the same amounts on first read (``cost_breakdown``, ``hpmropt
    evaluate``), and checked then.
    """

    def __init__(self, years, totals: np.ndarray, amounts: tuple):
        self.years = years
        self._totals = totals
        self._amounts = amounts

    @cached_property
    def ledger(self) -> np.ndarray:
        interval, batch_cost, om, capital, axial, control, fraction, period = \
            self._amounts
        n = len(self.years) - 1
        ledger = np.zeros((len(CATEGORIES), n + 1))
        flows = dict(zip(CATEGORIES, ledger))   # row views
        _buy_fuel(flows["fuel"], interval, n, batch_cost)
        flows["o_and_m"][1:] = om
        flows["capital"][0] = capital
        flows["reflector"][0] = axial
        flows["reactivity_control"][0] = control
        flows["reflector"][period:n:period] = fraction * axial
        flows["reactivity_control"][period:n:period] = fraction * control
        _check(ledger, flows, self.years)
        return ledger

    @cached_property
    def flows(self) -> dict:
        return dict(zip(CATEGORIES, self.ledger))

    @property
    def total_by_year(self) -> np.ndarray:
        # the schedule's own array, not a copy: read it, do not write it
        return self._totals


def _buy_fuel(row, interval: float, n: int, batch_cost: float) -> None:
    """Add the cost of every fuel batch to ``row`` (years 0..n).

    Batch k is bought in year ceil(k * interval) while k * interval < n.  A
    year buying several batches adds their count times the batch cost; that
    count comes from a floor(t / interval) candidate corrected against the
    same float product k * interval, so the work is O(n) for any interval.
    A year buying one batch adds the batch cost itself, the same float as
    1 * batch_cost.
    """
    k, product = 0, 0.0   # product is k * interval
    while product < n:
        year = math.ceil(product)
        k += 1
        product = k * interval
        if product <= year:
            # batches up to the last one whose product is <= t buy this year
            first = k - 1
            t = year if year < n else math.nextafter(n, 0.0)
            k = math.floor(t / interval) + 1
            while (k - 1) * interval > t:
                k -= 1
            while k * interval <= t:
                k += 1
            product = k * interval
            row[year] = (k - first) * batch_cost + row[year]
        else:
            row[year] = batch_cost + row[year]


def build_cash_flows(design, qoi, scenario: CostScenario,
                     econ: EconParams | None = None) -> CashFlowSchedule:
    """The yearly flows of one design.

    Fuel batches are purchased at t=0 and then at the ceiling of every
    batch-interval multiple, where the interval is min(fuel lifetime,
    replacement period): fuel lasting past a replacement is never bought
    for the years beyond it.  A year buying several batches pays their
    count times the batch cost.  Equipment (reflector, drums, absorber) is
    bought at t=0 and re-bought at the replacement fraction on every
    replacement year.  O&M is constant over the operating years.

    Each year's total is summed here, in Python floats, and the ledger
    waits until it is read.  A year adds its flows in category order, as
    the ledger's reduction adds its rows, but skips the ledger's structural
    zeros (capital after year 0, fuel and equipment outside their purchase
    years).  Adding +0.0 changes a sum only in the sign of a zero, which
    ``lcoe``'s dot product cannot see, as its sum starts at +0.0; so LCOE
    keeps its bits.
    """
    econ = econ or scenario.econ
    # `not >` also rejects NaN, which would buy no fuel at all
    if qoi.lifetime is None or not qoi.lifetime > 0:
        raise ContractError(f"fuel lifetime must be positive, got {qoi.lifetime}")
    n = econ.plant_life_years
    batch_cost = qoi.uranium_mass * scenario.fuel_price_per_kgu
    interval = min(qoi.lifetime, float(econ.replacement_period_years))
    # batch indices stay exact floats up to 2**53; past that, k * interval
    # stops moving with k and the count overflows or never settles
    if not n / interval <= 2.0**53:
        raise ContractError(f"fuel lifetime {qoi.lifetime} is too small: over "
                            f"{n} years its batch count exceeds 2**53")
    axial = scenario.axial_reflector_mass(design.x_fh) * scenario.axial_reflector_price_per_kg
    drums = scenario.drum_reflector_mass(design.x_ca) * scenario.drum_reflector_price_per_kg
    absorber = scenario.absorber_mass(design.x_ca) * scenario.absorber_unit_price(design.x_b10)
    control = drums + absorber
    om, capital, fraction = (scenario.annual_om, scenario.fixed_direct_capital,
                             scenario.replacement_fraction)
    period = econ.replacement_period_years

    # Python floats go in and out of the array through a memoryview at
    # list speed, with no numpy scalar on the way
    yearly = np.empty(n + 1)
    yearly.fill(om)
    totals = memoryview(yearly)
    totals[0] = 0.0
    _buy_fuel(totals, interval, n, batch_cost)
    totals[0] = totals[0] + capital + axial + control
    replaced_axial, replaced_control = fraction * axial, fraction * control
    for year in range(period, n, period):
        totals[year] = totals[year] + replaced_axial + replaced_control

    schedule = _DesignSchedule(econ._years, yearly, (
        interval, batch_cost, om, capital, axial, control, fraction, period))
    # a fuel year pays a positive multiple of batch_cost; a negative or NaN
    # amount builds the ledger, whose check names a negative flow's category
    if not min(batch_cost, om, capital, axial, control,
               replaced_axial, replaced_control) >= 0:
        schedule.ledger
    return schedule


def lcoe(schedule: CashFlowSchedule, econ: EconParams) -> float:
    """Discounted total cost over discounted energy, both summed over years
    0..n with constant annual energy."""
    if econ.annual_energy_mwh == 0:
        raise ZeroDivisionError("annual energy is zero")
    disc = econ._discount
    if len(disc) != len(schedule.years):
        raise ContractError("schedule span does not match plant life")
    # ndarray.dot: the same BLAS ddot as `@`, without the matmul dispatch
    numerator = float(schedule.total_by_year.dot(disc))
    return numerator / econ._discounted_energy


def cost_breakdown(schedule: CashFlowSchedule, econ: EconParams) -> dict:
    """Discounted share of total cost per category (shares sum to 1)."""
    disc = econ._discount
    discounted = {c: float(np.asarray(v) @ disc) for c, v in schedule.flows.items()}
    total = sum(discounted.values())
    if total == 0:
        raise ContractError("cannot break down an all-zero schedule")
    return {c: v / total for c, v in discounted.items()}


def _scenario_from_config(config: dict) -> CostScenario:
    try:
        econ = EconParams(**config.get("econ", {}))
        constraint_records = config.get("constraints")
        constraints = (
            tuple(constraints_from_config(constraint_records))
            if constraint_records
            else tuple(default_constraints())
        )
        return CostScenario(
            name=config["name"],
            description=config.get("description", ""),
            econ=econ,
            constraints=constraints,
            proxy=config.get("proxy"),
            **config["costs"],
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad scenario configuration: {exc}") from exc


def load_scenario(name_or_path) -> CostScenario:
    """Load a preset by name ('scenario-1'..'scenario-3') or a JSON file."""
    name = str(name_or_path)
    if name in PRESET_NAMES:
        text = resources.files("hpmropt.data").joinpath(f"{name}.json").read_text()
    else:
        path = Path(name_or_path)
        if not path.exists():
            raise ConfigError(f"no such scenario preset or file: {name}")
        text = path.read_text()
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{name}: invalid JSON: {exc}") from exc
    return _scenario_from_config(config)


def list_scenarios(extra_dir=None) -> list[CostScenario]:
    """Shipped presets, plus any *.json scenario files in ``extra_dir`` or
    in $HPMROPT_SCENARIO_DIR."""
    scenarios = [load_scenario(name) for name in PRESET_NAMES]
    directory = extra_dir or os.environ.get("HPMROPT_SCENARIO_DIR")
    if directory:
        for path in sorted(Path(directory).glob("*.json")):
            scenarios.append(load_scenario(path))
    return scenarios
