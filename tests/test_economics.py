import dataclasses
import importlib
import json
import math
import shutil
import struct
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hpmropt import economics
from hpmropt.anchors import NOMINAL_ANCHOR
from hpmropt.design_space import NOMINAL_DESIGN, from_unit_cube
from hpmropt.economics import (
    CashFlowSchedule,
    CostScenario,
    EconParams,
    _buy_fuel,
    build_cash_flows,
    cost_breakdown,
    lcoe,
    list_scenarios,
    load_scenario,
)
from hpmropt.environment import DesignEvaluator
from hpmropt.errors import ConfigError, ContractError

from oracles import fuel_counts_oracle, fuel_row_oracle, ledger_lcoe_oracle, ledger_oracle


def flat_schedule(costs, category="capital"):
    costs = np.asarray(costs, dtype=float)
    return CashFlowSchedule(years=np.arange(len(costs)), flows={category: costs})


@dataclasses.dataclass
class FakeQoI:
    lifetime: float
    uranium_mass: float


def scenario_with(**overrides):
    base = load_scenario("scenario-1")
    return dataclasses.replace(base, **overrides)


class TestLcoe:
    def test_undiscounted_ratio(self):
        econ = EconParams(discount_rate=0.0, plant_life_years=2,
                          annual_energy_mwh=100.0)
        # total cost 600 against total energy 300 MWh
        assert lcoe(flat_schedule([300.0, 200.0, 100.0]), econ) == pytest.approx(2.0)

    def test_hand_discounted_case(self):
        econ = EconParams(discount_rate=0.06, plant_life_years=2,
                          annual_energy_mwh=10.0)
        value = lcoe(flat_schedule([100.0, 50.0, 50.0]), econ)
        assert value == pytest.approx(6.7647, abs=1e-4)

    @pytest.mark.parametrize("rate", [0.0, 0.06, 0.2])
    def test_annuity_invariance(self, rate):
        econ = EconParams(discount_rate=rate, plant_life_years=40,
                          annual_energy_mwh=250.0)
        schedule = flat_schedule(np.full(41, 1000.0))
        assert lcoe(schedule, econ) == pytest.approx(4.0, rel=1e-12)

    def test_price_scaling_homogeneity(self):
        econ = EconParams(plant_life_years=30, annual_energy_mwh=123.0)
        rng = np.random.default_rng(3)
        costs = rng.random(31) * 1e6
        base = lcoe(flat_schedule(costs), econ)
        scaled = lcoe(flat_schedule(costs * 7.3), econ)
        assert scaled == pytest.approx(7.3 * base, rel=1e-12)

    def test_zero_energy_rejected(self):
        with pytest.raises(ConfigError, match="annual_energy_mwh"):
            EconParams(annual_energy_mwh=0.0)

    @pytest.mark.parametrize("key, value", [
        # float() of the period overflowed in every build_cash_flows
        pytest.param("replacement_period_years", 10**400,
                     id="replacement_period_years-10**400"),
        # the discounted energy overflowed, so every lcoe read 0
        ("annual_energy_mwh", 1e308),
        # its reciprocal overflowed, so every lcoe read inf
        ("annual_energy_mwh", 1e-320),
    ])
    def test_econ_value_that_breaks_every_lcoe_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            EconParams(**{key: value})

    def test_extreme_accepted_energy_gives_a_finite_lcoe(self):
        econ = EconParams(annual_energy_mwh=1e300, replacement_period_years=1000)
        value = lcoe(flat_schedule(np.full(61, 1e6)), econ)
        assert 0 < value < math.inf

    def test_span_mismatch_rejected(self):
        econ = EconParams(plant_life_years=60)
        with pytest.raises(ContractError):
            lcoe(flat_schedule([1.0, 2.0]), econ)


class TestBuildCashFlows:
    def test_long_lifetime_batches_every_replacement(self):
        scenario = load_scenario("scenario-1")
        qoi = FakeQoI(lifetime=14.03, uranium_mass=586.66)
        schedule = build_cash_flows(NOMINAL_DESIGN, qoi, scenario)
        fuel_years = np.flatnonzero(schedule.flows["fuel"]).tolist()
        assert fuel_years == [0, 10, 20, 30, 40, 50]

    def test_short_lifetime_batches_on_ceiling_boundaries(self):
        scenario = load_scenario("scenario-1")
        qoi = FakeQoI(lifetime=6.99, uranium_mass=525.06)
        schedule = build_cash_flows(NOMINAL_DESIGN, qoi, scenario)
        fuel_years = np.flatnonzero(schedule.flows["fuel"]).tolist()
        assert fuel_years == [0, 7, 14, 21, 28, 35, 42, 49, 56]

    def test_zero_prices_zero_schedule(self):
        scenario = scenario_with(
            axial_reflector_price_per_kg=0.0, drum_reflector_price_per_kg=0.0,
            absorber_price_per_kg=0.0, fuel_price_per_kgu=0.0,
            fixed_direct_capital=0.0, annual_om=0.0)
        qoi = FakeQoI(lifetime=8.0, uranium_mass=500.0)
        schedule = build_cash_flows(NOMINAL_DESIGN, qoi, scenario)
        assert schedule.total_by_year.sum() == 0.0

    def test_nonpositive_lifetime_rejected(self):
        scenario = load_scenario("scenario-1")
        with pytest.raises(ContractError):
            build_cash_flows(NOMINAL_DESIGN, FakeQoI(0.0, 500.0), scenario)

    def test_nan_lifetime_rejected(self):
        # NaN fails every comparison, so a `<= 0` test let it through and it
        # bought no fuel at all: a cheaper LCOE from a broken QoI
        scenario = load_scenario("scenario-1")
        with pytest.raises(ContractError, match="positive"):
            build_cash_flows(NOMINAL_DESIGN, FakeQoI(float("nan"), 500.0), scenario)

    @pytest.mark.parametrize("lifetime", [5e-324, 1e-300, 1e-15])
    def test_overflowing_batch_count_rejected(self, lifetime):
        # at 5e-324 the batch count is not a finite float and math.floor
        # raised a raw OverflowError; at the others it is finite but past
        # 2**53, where a step of one batch no longer moves k * interval
        scenario = load_scenario("scenario-1")
        with pytest.raises(ContractError, match="too small"):
            build_cash_flows(NOMINAL_DESIGN, FakeQoI(lifetime, 500.0), scenario)

    def test_largest_countable_batch_count_is_bounded(self):
        start = time.perf_counter()
        fuel, interval, cost = fuel_row(60.0 / 2.0**53)
        assert time.perf_counter() - start < 1.0
        assert fuel.sum() == pytest.approx(2.0**53 * cost, rel=1e-9)

    def test_lcoe_non_increasing_in_lifetime(self):
        scenario = load_scenario("scenario-1")
        values = []
        for lifetime in np.linspace(1.0, 10.4, 40):
            qoi = FakeQoI(lifetime=float(lifetime), uranium_mass=525.06)
            schedule = build_cash_flows(NOMINAL_DESIGN, qoi, scenario)
            values.append(lcoe(schedule, scenario.econ))
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def fuel_row(lifetime, uranium_mass=525.06):
    scenario = load_scenario("scenario-1")
    schedule = build_cash_flows(NOMINAL_DESIGN, FakeQoI(lifetime, uranium_mass), scenario)
    batch_cost = uranium_mass * scenario.fuel_price_per_kgu
    interval = min(lifetime, float(scenario.econ.replacement_period_years))
    return schedule.flows["fuel"], interval, batch_cost


class TestFuelPurchases:
    """The per-year count of fuel batches against the batch-by-batch walk
    in ``oracles``.  Up to five batches a year, count times cost is the
    same float as adding the cost once per batch."""

    @pytest.mark.parametrize("lifetime", [2.5, 5.0, 6.0, 10.0, 0.3038])
    def test_equals_batch_walk_exactly(self, lifetime):
        fuel, interval, cost = fuel_row(lifetime)
        assert np.array_equal(fuel, fuel_row_oracle(interval, 60, cost))

    def test_random_lifetimes_equal_batch_walk_exactly(self):
        rng = np.random.default_rng(8)
        for lifetime in rng.uniform(0.3, 20.0, 300):
            mass = float(rng.uniform(300.0, 900.0))
            fuel, interval, cost = fuel_row(float(lifetime), mass)
            assert np.array_equal(fuel, fuel_row_oracle(interval, 60, cost)), lifetime

    @pytest.mark.parametrize("lifetime", [1e-3, 1 / 3, 1 / 7, 0.55, 0.17, 0.07])
    def test_counts_equal_batch_walk(self, lifetime):
        # at all but 1e-3, floor(t / interval) is off by one against the
        # walk's float products for some year, and the correction fixes it;
        # with many batches a year the walk's additions drift from
        # count * cost by rounding (~150 ulps seen at 1e-3)
        fuel, interval, cost = fuel_row(lifetime)
        counts = np.array(fuel_counts_oracle(interval, 60), dtype=float)
        assert np.array_equal(fuel, counts * cost)
        np.testing.assert_allclose(fuel, fuel_row_oracle(interval, 60, cost), rtol=1e-12)

    def test_divisor_lifetimes_and_their_neighbours_equal_batch_walk(self):
        # at 60 / k a batch product can land exactly on a year or on the
        # plant life; one ulp either side moves it across
        for k in range(6, 300):
            for lifetime in (60 / k, math.nextafter(60 / k, 0.0), math.nextafter(60 / k, 99.0)):
                fuel, interval, cost = fuel_row(lifetime, 1.0)
                counts = np.array(fuel_counts_oracle(interval, 60), dtype=float)
                assert np.array_equal(fuel, counts * cost), lifetime

    @pytest.mark.parametrize("n", [1, 7, 60, 1000])
    def test_intervals_near_one_year_equal_batch_walk(self, n):
        # just above one year, k * interval can round onto the year of
        # the next batch, so a year may buy one batch or two
        steps = {*range(21), *range(n - 2, n + 3), 2 * n}
        for interval in sorted(1.0 + i * 2.0**-52 for i in steps if i >= 0):
            row = np.zeros(n + 1)
            _buy_fuel(memoryview(row), interval, n, 1.0)
            assert row.tolist() == fuel_counts_oracle(interval, n), interval

    def test_clamped_lifetime_is_bounded(self):
        # 1e-6 y is the tabular evaluator's lifetime clamp: 6e7 batches,
        # which a batch-by-batch walk takes about half a minute to place
        start = time.perf_counter()
        fuel, interval, cost = fuel_row(1e-6)
        assert time.perf_counter() - start < 1.0
        assert fuel[0] == cost
        # a million batches a year, give or take the one on the boundary
        assert np.all(np.abs(fuel[1:] / cost - 1e6) <= 1.0)
        assert fuel.sum() == pytest.approx(6e7 * cost, rel=1e-9)


class TestSchedule:
    def test_flows_are_rows_of_one_ledger(self):
        scenario = load_scenario("scenario-1")
        schedule = build_cash_flows(NOMINAL_DESIGN, FakeQoI(6.99, 525.06), scenario)
        assert schedule.ledger.shape == (5, 61)
        for row, category in zip(schedule.ledger, schedule.flows):
            assert np.shares_memory(schedule.flows[category], row)
        assert np.array_equal(schedule.total_by_year, schedule.ledger.sum(axis=0))

    def test_negative_flow_names_its_category(self):
        with pytest.raises(ContractError, match="capital: negative flow"):
            CashFlowSchedule(years=np.arange(3),
                             flows={"fuel": [1.0, 2.0, 3.0], "capital": [0.0, -1.0, 0.0]})

    def test_nan_flows_pass_and_do_not_hide_a_negative_one(self):
        CashFlowSchedule(years=np.arange(2), flows={"fuel": [np.nan, 1.0]})
        CashFlowSchedule(years=np.arange(2), flows={})
        CashFlowSchedule(years=np.arange(2), flows={"fuel": [-0.0, 0]})
        with pytest.raises(ContractError, match="o_and_m: negative flow"):
            CashFlowSchedule(years=np.arange(2),
                             flows={"fuel": [np.nan, 1.0], "o_and_m": [1.0, -1e-300]})
        with pytest.raises(ContractError, match="capital: negative flow"):
            CashFlowSchedule(years=np.arange(2),
                             flows={"fuel": [0.0, 0.0], "capital": [-np.inf, 0.0]})

    def test_length_mismatch_names_its_category(self):
        with pytest.raises(ContractError, match="o_and_m: length mismatch"):
            CashFlowSchedule(years=np.arange(3),
                             flows={"fuel": [1.0, 2.0, 3.0], "o_and_m": [1.0, 2.0]})

    def test_discount_factors_are_a_fresh_copy(self):
        econ = EconParams(plant_life_years=2, annual_energy_mwh=10.0)
        schedule = flat_schedule([100.0, 50.0, 50.0])
        before = lcoe(schedule, econ)
        factors = econ.discount_factors()
        factors[:] = 0.0
        assert econ.discount_factors()[0] == 1.0
        assert lcoe(schedule, econ) == before


def _bytes(value):
    return struct.pack("<d", value)


def _outcome(function, *args):
    """The LCOE bytes, or the ContractError message, of one computation."""
    try:
        return _bytes(function(*args))
    except ContractError as exc:
        return str(exc)


def package_lcoe(design, qoi, scenario):
    return lcoe(build_cash_flows(design, qoi, scenario), scenario.econ)


def _random_cases(scenario, count, seed):
    """(design, QoI) pairs of random designs under the proxy."""
    evaluator = DesignEvaluator(scenario)
    rng = np.random.default_rng(seed)
    designs = [from_unit_cube(rng.random(7)) for _ in range(count)]
    return [(design, evaluator.qoi(design)) for design in designs]


class TestLcoeMatchesLedgerOracle:
    """``build_cash_flows`` sums each year directly and builds no ledger;
    its LCOE must equal the ledger-filling oracle's byte for byte, and a
    negative flow must name the oracle's category."""

    def assert_same(self, cases, scenario, econ=None):
        if econ is not None:
            scenario = dataclasses.replace(scenario, econ=econ)
        for design, qoi in cases:
            want = _outcome(ledger_lcoe_oracle, design, qoi, scenario)
            got = _outcome(package_lcoe, design, qoi, scenario)
            assert got == want, (design, qoi.lifetime)

    @pytest.mark.parametrize("name", ["scenario-1", "scenario-2", "scenario-3"])
    def test_random_designs_on_each_preset(self, name):
        scenario = load_scenario(name)
        self.assert_same(_random_cases(scenario, 400, seed=11), scenario)

    def test_lifetimes_from_a_thousandth_to_twenty_years(self):
        scenario = load_scenario("scenario-3")
        rng = np.random.default_rng(12)
        lifetimes = [float(x) for x in 10.0 ** rng.uniform(-3.0, math.log10(20.0), 300)]
        lifetimes += [1e-3, 20.0, 10.0, 10.4, 1.0, 60 / 7, 6.0, 6.99]
        cases = [(design, dataclasses.replace(qoi, lifetime=lifetime))
                 for (design, qoi), lifetime in zip(
                     _random_cases(scenario, len(lifetimes), seed=13), lifetimes)]
        self.assert_same(cases, scenario)

    @pytest.mark.parametrize("overrides", [
        {"fuel_price_per_kgu": 0.0},
        {"fuel_price_per_kgu": -0.0, "annual_om": -0.0},
        {"annual_om": 0.0, "fixed_direct_capital": 0.0},
        {"axial_reflector_price_per_kg": 0.0, "drum_reflector_price_per_kg": 0.0,
         "absorber_price_per_kg": 0.0, "fuel_price_per_kgu": 0.0,
         "fixed_direct_capital": 0.0, "annual_om": 0.0},
        {"axial_reflector_price_per_kg": -0.0, "drum_reflector_price_per_kg": -0.0,
         "absorber_price_per_kg": -0.0, "fuel_price_per_kgu": -0.0,
         "fixed_direct_capital": -0.0, "annual_om": -0.0},
        {"replacement_fraction": 0.0},
        {"replacement_fraction": -0.0},
        {"replacement_fraction": 0.35},
    ])
    def test_zero_prices_and_replacement_fractions(self, overrides):
        scenario = dataclasses.replace(load_scenario("scenario-2"), **overrides)
        self.assert_same(_random_cases(scenario, 150, seed=14), scenario)

    @pytest.mark.parametrize("econ", [
        EconParams(plant_life_years=1, replacement_period_years=1),
        EconParams(plant_life_years=7, replacement_period_years=10),
        EconParams(plant_life_years=30, replacement_period_years=3, discount_rate=0.0),
    ])
    def test_other_plant_lives(self, econ):
        scenario = load_scenario("scenario-1")
        self.assert_same(_random_cases(scenario, 100, seed=15), scenario, econ)

    def test_nan_flows_pass(self):
        scenario = load_scenario("scenario-3")
        design, qoi = _random_cases(scenario, 1, seed=16)[0]
        qoi = dataclasses.replace(qoi, uranium_mass=float("nan"))
        want = ledger_lcoe_oracle(design, qoi, scenario)
        got = package_lcoe(design, qoi, scenario)
        assert math.isnan(got) and _bytes(got) == _bytes(want)
        schedule = build_cash_flows(design, qoi, scenario)
        assert np.isnan(schedule.flows["fuel"][0])

    @pytest.mark.parametrize("overrides, qoi_overrides, category", [
        ({}, {"uranium_mass": -1.0}, "fuel"),
        ({"axial_reflector_kg_per_cm": -1.0}, {}, "reflector"),
        ({"replacement_fraction": -0.5}, {}, "reflector"),
        ({"b10_premium_slope": -1e6}, {}, "reactivity_control"),
        ({"drum_reflector_total_kg": -5000.0}, {"uranium_mass": float("nan")},
         "reactivity_control"),
        ({"axial_reflector_kg_per_cm": -1.0}, {"uranium_mass": -1.0}, "fuel"),
        ({"replacement_fraction": -0.5}, {"uranium_mass": float("nan")}, "reflector"),
    ])
    def test_negative_flows_name_the_same_first_category(self, overrides,
                                                         qoi_overrides, category):
        scenario = dataclasses.replace(load_scenario("scenario-1"), **overrides)
        design, qoi = _random_cases(scenario, 1, seed=17)[0]
        qoi = dataclasses.replace(qoi, **qoi_overrides)
        message = f"category {category}: negative flow"
        with pytest.raises(ContractError, match=message):
            ledger_lcoe_oracle(design, qoi, scenario)
        with pytest.raises(ContractError, match=message):
            build_cash_flows(design, qoi, scenario)

    def test_negative_fraction_without_a_replacement_year_passes(self):
        # a plant life within one replacement period re-buys no equipment
        scenario = dataclasses.replace(load_scenario("scenario-1"), replacement_fraction=-1.0)
        econ = EconParams(plant_life_years=10, replacement_period_years=10)
        self.assert_same(_random_cases(scenario, 20, seed=18), scenario, econ)

    def test_lazy_ledger_equals_the_oracle_ledger(self):
        for name in ("scenario-1", "scenario-3"):
            scenario = load_scenario(name)
            for design, qoi in _random_cases(scenario, 100, seed=19):
                schedule = build_cash_flows(design, qoi, scenario)
                want = ledger_oracle(design, qoi, scenario)
                assert np.array_equal(schedule.ledger, want)
                assert np.array_equal(schedule.total_by_year, want.sum(axis=0))


class TestCostBreakdown:
    def test_single_category(self):
        econ = EconParams(plant_life_years=5, annual_energy_mwh=10.0)
        shares = cost_breakdown(flat_schedule(np.ones(6), category="fuel"), econ)
        assert shares["fuel"] == pytest.approx(1.0)

    def test_two_equal_categories_at_t0(self):
        econ = EconParams(plant_life_years=1, annual_energy_mwh=10.0)
        schedule = CashFlowSchedule(
            years=np.arange(2),
            flows={"fuel": np.array([5.0, 0.0]), "capital": np.array([5.0, 0.0])})
        shares = cost_breakdown(schedule, econ)
        assert shares["fuel"] == pytest.approx(0.5)
        assert shares["capital"] == pytest.approx(0.5)

    def test_shares_sum_to_one(self):
        scenario = load_scenario("scenario-2")
        qoi = FakeQoI(lifetime=9.0, uranium_mass=600.0)
        schedule = build_cash_flows(NOMINAL_DESIGN, qoi, scenario)
        shares = cost_breakdown(schedule, scenario.econ)
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)

    def test_cheap_reflectors_still_pay_for_absorber(self):
        # scenario 3 keeps a visible reactivity-control share: the boron
        # carbide coating stays expensive even when reflectors are graphite
        evaluator = DesignEvaluator(load_scenario("scenario-3"))
        _, _, qoi = evaluator.evaluate(NOMINAL_DESIGN)
        schedule = build_cash_flows(NOMINAL_DESIGN, qoi, evaluator.scenario)
        shares = cost_breakdown(schedule, evaluator.scenario.econ)
        assert shares["reactivity_control"] > 0.01
        assert shares["reflector"] < shares["reactivity_control"]


class TestScenarios:
    def test_three_presets(self):
        scenarios = list_scenarios()
        assert [s.name for s in scenarios] == ["scenario-1", "scenario-2", "scenario-3"]

    def test_preset_prices(self):
        s1, s2, s3 = (load_scenario(f"scenario-{i}") for i in (1, 2, 3))
        assert s1.axial_reflector_price_per_kg == 45000.0
        assert s1.drum_reflector_price_per_kg == 45000.0
        assert s2.axial_reflector_price_per_kg == 80.0
        assert s2.drum_reflector_price_per_kg == 45000.0
        assert s3.axial_reflector_price_per_kg == 80.0
        assert s3.drum_reflector_price_per_kg == 80.0
        for s in (s1, s2, s3):
            assert s.absorber_price_per_kg == 14268.0

    def test_scenario_cost_ordering_on_nominal_design(self):
        lcoes = []
        for name in ("scenario-1", "scenario-2", "scenario-3"):
            evaluator = DesignEvaluator(load_scenario(name))
            objectives, _, _ = evaluator.evaluate(NOMINAL_DESIGN)
            lcoes.append(objectives[0])
        assert lcoes[0] > lcoes[1] > lcoes[2]

    def test_user_file_appears_in_listing(self, tmp_path):
        config = {
            "name": "my-scenario",
            "costs": {
                "axial_reflector_price_per_kg": 1.0,
                "drum_reflector_price_per_kg": 2.0,
                "absorber_price_per_kg": 3.0,
                "fuel_price_per_kgu": 4.0,
                "fixed_direct_capital": 5.0,
                "annual_om": 6.0,
            },
        }
        (tmp_path / "custom.json").write_text(json.dumps(config))
        names = [s.name for s in list_scenarios(extra_dir=tmp_path)]
        assert names == ["scenario-1", "scenario-2", "scenario-3", "my-scenario"]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            load_scenario("scenario-9")

    def test_a_relocated_package_reads_its_own_presets(self, tmp_path, monkeypatch):
        # a copy of the package imported under another name, as a benchmark
        # of two source trees imports them, reads the presets beside it
        copy = tmp_path / "hpmropt_relocated"
        shutil.copytree(Path(economics.__file__).parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        preset = copy / "data" / "scenario-3.json"
        config = json.loads(preset.read_text())
        config["description"] = "the relocated copy's scenario-3"
        preset.write_text(json.dumps(config))
        monkeypatch.syspath_prepend(str(tmp_path))
        try:
            relocated = importlib.import_module("hpmropt_relocated.economics")
            assert relocated.load_scenario("scenario-3").description == \
                "the relocated copy's scenario-3"
        finally:
            for name in [name for name in sys.modules
                         if name.partition(".")[0] == "hpmropt_relocated"]:
                del sys.modules[name]
        assert load_scenario("scenario-3").description != "the relocated copy's scenario-3"

    def test_bad_econ_params(self):
        with pytest.raises(ConfigError):
            EconParams(discount_rate=1.5)
        with pytest.raises(ConfigError):
            EconParams(plant_life_years=0)
        with pytest.raises(ConfigError):
            CostScenario(name="x", axial_reflector_price_per_kg=-1.0,
                         drum_reflector_price_per_kg=0.0, absorber_price_per_kg=0.0,
                         fuel_price_per_kgu=0.0, fixed_direct_capital=0.0,
                         annual_om=0.0)


def test_nominal_anchor_lifetime_matches_proxy_usage():
    # the anchor record carries the same nominal numbers the proxy anchors use
    assert NOMINAL_ANCHOR.lifetime == 6.99
    assert NOMINAL_ANCHOR.design == NOMINAL_DESIGN
