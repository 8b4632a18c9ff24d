import math

import numpy as np
import pytest

from hpmropt.design_space import is_valid
from hpmropt.errors import ConfigError
from hpmropt.metrics import hypervolume_2d, nondominated_filter
from hpmropt.nsga2 import GaConfig, _polynomial_mutation, _sbx_pair, run_nsga2

from conftest import ToyEvaluator, Zdt1Evaluator
from oracles import polynomial_mutation_oracle, sbx_pair_oracle


def analytic_convex_front_hypervolume(reference=(1.1, 1.1)):
    # optimal front f2 = 1 - sqrt(f1), f1 in [0, 1]:
    # integral of (ref_y - f2) plus the strip beyond f1 = 1
    rx, ry = reference
    area = (ry - 1.0) * 1.0 + 2.0 / 3.0        # over f1 in [0, 1]
    area += (rx - 1.0) * ry                    # f1 in [1, rx] dominated to f2 = 0
    return area


class TestConvexBenchmark:
    def test_hypervolume_reaches_95_percent_of_optimum(self):
        config = GaConfig(population=64, generations=100, seed=4)
        result = run_nsga2(Zdt1Evaluator(), config)
        # duplicate genomes are skipped, so the budget is an upper bound
        assert 64 * 50 <= result.evaluations <= 64 * 101
        objs = np.vstack([p.objectives for p in result.front])
        reference = np.array([1.1, 1.1])
        objs = objs[np.all(objs <= reference, axis=1)]
        hv = hypervolume_2d(nondominated_filter(objs), reference)
        assert hv >= 0.95 * analytic_convex_front_hypervolume()


class TestMechanics:
    def test_zero_variation_keeps_population_static(self):
        config = GaConfig(population=16, generations=5, crossover_prob=0.0,
                          mutation_prob=0.0, seed=1)
        env = ToyEvaluator()
        result = run_nsga2(env, config)
        genomes = {tuple(ind.genome) for ind in result.population}
        first = run_nsga2(env, GaConfig(population=16, generations=0,
                                        crossover_prob=0.0, mutation_prob=0.0, seed=1))
        assert genomes == {tuple(ind.genome) for ind in first.population}

    def test_same_seed_identical_populations(self):
        config = GaConfig(population=16, generations=8, seed=12)
        env = ToyEvaluator()
        a = run_nsga2(env, config)
        b = run_nsga2(env, config)
        assert [tuple(i.genome) for i in a.population] == \
            [tuple(i.genome) for i in b.population]

    def test_every_evaluated_design_in_bounds(self):
        seen = []

        class Spy(ToyEvaluator):
            def evaluate(self, design):
                seen.append(design)
                return super().evaluate(design)

        run_nsga2(Spy(), GaConfig(population=12, generations=6, seed=3))
        assert seen and all(is_valid(d) for d in seen)

    def test_feasible_front_one_survives_over_infeasible(self):
        # crowd the population with infeasible points; the feasible
        # non-dominated ones must all survive selection
        class MostlyInfeasible(ToyEvaluator):
            def __init__(self):
                super().__init__(limit=0.05)  # z[0] <= 0.05 rarely holds

        config = GaConfig(population=16, generations=10, seed=6)
        result = run_nsga2(MostlyInfeasible(), config)
        population = result.population
        feasible = [ind for ind in population if ind.point.feasible]
        if feasible:
            worst_feasible_rank = max(ind.rank for ind in feasible)
            infeasible = [ind for ind in population if not ind.point.feasible]
            assert all(ind.rank > worst_feasible_rank or not feasible
                       for ind in infeasible)

    def test_history_records_per_generation(self):
        config = GaConfig(population=8, generations=4, seed=0)
        result = run_nsga2(ToyEvaluator(), config)
        assert [row["generation"] for row in result.history] == [1, 2, 3, 4]

    def test_front_report_round_trip(self, tmp_path):
        from hpmropt.metrics import export_front, load_front

        config = GaConfig(population=8, generations=3, seed=0)
        result = run_nsga2(ToyEvaluator(), config)
        report = result.front_report()
        export_front(report, tmp_path / "front.tsv")
        loaded = load_front(tmp_path / "front.tsv")
        assert len(loaded.points) == len(report.points)


def test_config_validation():
    with pytest.raises(ConfigError):
        GaConfig(population=15)  # odd
    with pytest.raises(ConfigError):
        GaConfig(crossover_prob=1.5)


# the command-line test in test_cli.py covers the values a JSON file can hold
@pytest.mark.parametrize("key, value", [
    ("crossover_eta", math.inf),
    ("mutation_eta", math.nan),
    ("mutation_prob", math.nan),
    ("population", True),
    ("seed", 1.0),
])
def test_bad_value_is_config_error_naming_the_key(key, value):
    with pytest.raises(ConfigError, match=key):
        GaConfig(**{key: value})


def test_boundary_values_are_accepted():
    config = GaConfig(population=2, generations=0, crossover_eta=0, mutation_eta=0.0,
                      crossover_prob=1, mutation_prob=0, seed=0)
    assert config.evaluations() == 2


def _parent_stream(seed, count):
    """Parent pairs of four kinds in turn: independent; identical; genes at
    the bounds 0 and 1 (and -0.0); gaps on both sides of the 1e-14 below
    which a gene is not crossed."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        a, b = rng.random(7), rng.random(7)
        kind = k % 4
        if kind == 1:
            b = a.copy()
        elif kind == 2:
            bounds = np.array([0.0, 1.0, -0.0])
            a = np.where(rng.random(7) < 0.6, rng.choice(bounds, 7), a)
            b = np.where(rng.random(7) < 0.6, rng.choice(bounds, 7), b)
        elif kind == 3:
            gaps = np.array([-2e-14, -1e-14, -5e-15, 0.0, 5e-15, 1e-14, 2e-14, 1e-3])
            b = np.clip(a + rng.choice(gaps, 7), 0.0, 1.0)
        yield a, b


class TestOperatorsMatchOracles:
    """The float operators against the numpy-scalar operators NSGA-II first
    ran, kept in ``tests/oracles.py``: the same children, byte for byte, and
    the generator left in the same state after every call, on genomes in
    [0, 1], the only ones NSGA-II makes."""

    @pytest.mark.parametrize("eta", [0.0, 0.5, 2, 15.0, 20.0, 300.0])
    def test_sbx_pair(self, eta):
        new, old = np.random.default_rng(7), np.random.default_rng(7)
        for a, b in _parent_stream(int(eta * 10) + 1, 1200):
            before = a.tobytes(), b.tobytes()
            got, want = _sbx_pair(a, b, eta, new), sbx_pair_oracle(a, b, eta, old)
            for child, reference in zip(got, want):
                assert child.dtype == np.float64 and child.shape == (7,)
                assert child.tobytes() == reference.tobytes(), (a, b, eta)
                assert not np.shares_memory(child, a) and not np.shares_memory(child, b)
            assert (a.tobytes(), b.tobytes()) == before
            assert new.bit_generator.state == old.bit_generator.state

    @pytest.mark.parametrize("prob, eta", [(1.0 / 7, 20.0), (0.5, 0.0), (1.0, 20),
                                           (1.0, 0.5), (1.0, 300.0), (0.0, 20.0)])
    def test_polynomial_mutation(self, prob, eta):
        new, old = np.random.default_rng(11), np.random.default_rng(11)
        for a, b in _parent_stream(int(prob * 100 + eta), 1200):
            for genome in (a, b):
                before = genome.tobytes()
                got = _polynomial_mutation(genome, prob, eta, new)
                want = polynomial_mutation_oracle(genome, prob, eta, old)
                assert got.dtype == np.float64 and got.shape == (7,)
                assert got.tobytes() == want.tobytes(), (genome, prob, eta)
                assert not np.shares_memory(got, genome)
                assert genome.tobytes() == before
            assert new.bit_generator.state == old.bit_generator.state

    @pytest.mark.parametrize("x", [-0.0, 0.0, math.nan, -math.inf, math.inf, -1e-300,
                                   1.0 + 2**-52, 0.5, 5e-324])
    def test_float_clamp_is_np_clip(self, x):
        clamped = min(max(x, 0.0), 1.0)
        assert np.float64(clamped).tobytes() == \
            np.clip(np.float64(x), 0.0, 1.0).tobytes()
