import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from hpmropt import nsga2
from hpmropt.design_space import is_valid
from hpmropt.economics import load_scenario
from hpmropt.environment import DesignEvaluator
from hpmropt.errors import ConfigError, ContractError
from hpmropt.metrics import hypervolume_2d, nondominated_filter
from hpmropt.nsga2 import DrawStream, GaConfig, _polynomial_mutation, _sbx_pair, run_nsga2

from conftest import ToyEvaluator, Zdt1Evaluator
from oracles import nsga2_oracle, polynomial_mutation_oracle, sbx_pair_oracle


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

    def test_a_deadline_stops_between_generations(self, monkeypatch):
        # the run reads the clock once per generation, the initial population
        # being generation 0: generations 0-2 run, and generation 3 stops
        clock = itertools.count()
        monkeypatch.setattr(nsga2.time, "monotonic", lambda: next(clock))
        stopped = run_nsga2(ToyEvaluator(), GaConfig(population=8, generations=6, seed=0),
                            deadline=2)
        monkeypatch.undo()
        whole = run_nsga2(ToyEvaluator(), GaConfig(population=8, generations=2, seed=0))
        assert stopped.truncated and not whole.truncated
        assert stopped.history == whole.history
        assert stopped.evaluations == whole.evaluations
        assert [p.payload.id for p in stopped.front] == [p.payload.id for p in whole.front]
        assert [p.objectives.tolist() for p in stopped.front] == \
            [p.objectives.tolist() for p in whole.front]

    def test_an_expired_deadline_evaluates_nothing(self):
        result = run_nsga2(ToyEvaluator(), GaConfig(population=8, generations=3, seed=0),
                           deadline=time.monotonic() - 1.0)
        assert result.truncated
        assert result.evaluations == 0
        assert result.front == [] and result.history == [] and result.population == []

    def test_front_report_round_trip(self, tmp_path):
        from hpmropt.metrics import FrontReport, export_front, load_front

        config = GaConfig(population=8, generations=3, seed=0)
        result = run_nsga2(ToyEvaluator(), config)
        report = FrontReport(points=result.front)
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
    values = dict(population=2, generations=0, crossover_eta=0, mutation_eta=0.0,
                  crossover_prob=1, mutation_prob=0, seed=0)
    assert dataclasses.asdict(GaConfig(**values)) == values


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


def _assert_in_step(stream, rng):
    """The stream's next double and next 32-bit-range integer are the
    generator's: the first reads the next 64-bit word, the second the
    buffered half-word, so both positions must agree."""
    assert stream.random() == rng.random()
    assert stream.integers(2**32 - 5) == rng.integers(2**32 - 5)


class TestOperatorsMatchOracles:
    """The float operators against the numpy-scalar operators NSGA-II first
    ran, kept in ``tests/oracles.py``: the same children, byte for byte, and
    after every call the draw stream in step with the oracle's generator,
    on genomes in [0, 1], the only ones NSGA-II makes."""

    @pytest.mark.parametrize("eta", [0.0, 0.5, 2, 15.0, 20.0, 300.0])
    def test_sbx_pair(self, eta):
        new, old = DrawStream(np.random.default_rng(7)), np.random.default_rng(7)
        for a, b in _parent_stream(int(eta * 10) + 1, 1200):
            before = a.tobytes(), b.tobytes()
            got, want = _sbx_pair(a, b, eta, new), sbx_pair_oracle(a, b, eta, old)
            for child, reference in zip(got, want):
                assert child.dtype == np.float64 and child.shape == (7,)
                assert child.tobytes() == reference.tobytes(), (a, b, eta)
                assert not np.shares_memory(child, a) and not np.shares_memory(child, b)
            assert (a.tobytes(), b.tobytes()) == before
            _assert_in_step(new, old)

    @pytest.mark.parametrize("prob, eta", [(1.0 / 7, 20.0), (0.5, 0.0), (1.0, 20),
                                           (1.0, 0.5), (1.0, 300.0), (0.0, 20.0)])
    def test_polynomial_mutation(self, prob, eta):
        new, old = DrawStream(np.random.default_rng(11)), np.random.default_rng(11)
        for a, b in _parent_stream(int(prob * 100 + eta), 1200):
            for genome in (a, b):
                before = genome.tobytes()
                got = _polynomial_mutation(genome, prob, eta, new)
                want = polynomial_mutation_oracle(genome, prob, eta, old)
                assert got.dtype == np.float64 and got.shape == (7,)
                assert got.tobytes() == want.tobytes(), (genome, prob, eta)
                assert not np.shares_memory(got, genome)
                assert genome.tobytes() == before
                _assert_in_step(new, old)

    @pytest.mark.parametrize("x", [-0.0, 0.0, math.nan, -math.inf, math.inf, -1e-300,
                                   1.0 + 2**-52, 0.5, 5e-324])
    def test_float_clamp_is_np_clip(self, x):
        clamped = min(max(x, 0.0), 1.0)
        assert np.float64(clamped).tobytes() == \
            np.clip(np.float64(x), 0.0, 1.0).tobytes()


# n = 3e9 rejects about 30% of its 32-bit draws; 2**31 - 1 and 2**32 - 5
# reject almost never but enter the threshold test when the low half of
# the product is below n
RANGES = [2, 3, 7, 10, 64, 100, 2**31 - 1, 2**32 - 5, 3 * 10**9]


class _CountingStream(DrawStream):
    """Counts the 32-bit draws, to show the rejection loop ran."""

    def __init__(self, rng):
        super().__init__(rng)
        self.halves = 0

    def _uint32(self):
        self.halves += 1
        return super()._uint32()


class TestDrawStream:
    """``DrawStream`` against the ``Generator`` it reads ahead of: the same
    doubles and integers, in any mix, across block refills."""

    @pytest.mark.parametrize("block", [1, 3, nsga2._RAW_BLOCK])
    @pytest.mark.parametrize("seed", range(24))
    def test_mixed_draws_equal_generator(self, seed, block, monkeypatch):
        monkeypatch.setattr(nsga2, "_RAW_BLOCK", block)
        rng = np.random.default_rng(seed)
        stream = _CountingStream(np.random.default_rng(seed))
        pick = np.random.default_rng(10_000 + seed)
        kinds = pick.integers(len(RANGES) + 1, size=2000)
        integer_draws = 0
        for k, kind in enumerate(kinds.tolist()):
            if kind == len(RANGES):
                got, want = stream.random(), rng.random()
                assert type(got) is float
            else:
                n = RANGES[kind]
                got, want = stream.integers(n), int(rng.integers(n))
                assert type(got) is int and 0 <= got < n
                integer_draws += 1
            assert got == want, (seed, block, k, kind)
        # 2000 draws span several blocks of every size here, and n = 3e9 took
        # the rejection loop
        assert stream.halves > integer_draws
        assert stream.random() == rng.random()

    @pytest.mark.parametrize("n", RANGES + [2**32])
    def test_one_range_equals_generator(self, n, monkeypatch):
        monkeypatch.setattr(nsga2, "_RAW_BLOCK", 5)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            stream = DrawStream(np.random.default_rng(seed))
            for _ in range(300):
                assert stream.integers(n) == rng.integers(n)
            assert stream.random() == rng.random()

    def test_rejection_loop_runs_for_three_billion(self):
        stream = _CountingStream(np.random.default_rng(0))
        rng = np.random.default_rng(0)
        for _ in range(1000):
            assert stream.integers(3 * 10**9) == rng.integers(3 * 10**9)
        assert stream.halves > 1300

    def test_takes_over_a_buffered_half_word(self):
        # a generator that made one 32-bit draw keeps the other half
        for seed in range(20):
            rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            rng.integers(10), oracle.integers(10)
            assert rng.bit_generator.state["has_uint32"] == 1
            stream = DrawStream(rng)
            for _ in range(5):
                assert stream.integers(1000) == oracle.integers(1000)
            assert stream.random() == oracle.random()

    @pytest.mark.parametrize("bits", [np.random.MT19937, np.random.Philox,
                                      np.random.SFC64, np.random.PCG64DXSM])
    def test_other_bit_generators_are_refused(self, bits):
        with pytest.raises(ContractError, match=bits.__name__):
            DrawStream(np.random.Generator(bits(1)))

    @pytest.mark.parametrize("n", [1, 0, -1, 2**32 + 1])
    def test_range_out_of_bounds_is_refused(self, n):
        with pytest.raises(ContractError, match="integers"):
            DrawStream(np.random.default_rng(0)).integers(n)


def _record_run(evaluator, config, monkeypatch):
    """``run_nsga2``'s genomes by generation, in ``nsga2_oracle``'s form."""
    evaluated, survivors = [[]], []
    decode, survive = nsga2.from_unit_cube, nsga2._survival

    def recording_decode(genome):
        evaluated[-1].append(genome.tobytes())
        return decode(genome)

    def recording_survival(candidates, size):
        population = survive(candidates, size)
        survivors.append([ind.genome.tobytes() for ind in population])
        evaluated.append([])
        return population

    monkeypatch.setattr(nsga2, "from_unit_cube", recording_decode)
    monkeypatch.setattr(nsga2, "_survival", recording_survival)
    try:
        result = run_nsga2(evaluator, config)
    finally:
        monkeypatch.undo()
    return {"genomes": evaluated[:-1], "survivors": survivors,
            "evaluations": result.evaluations, "front": result.front}


def _front_key(front):
    return [(p.objectives.tobytes(), p.feasible, p.penalty, p.payload.id,
             p.payload.design) for p in front]


@pytest.mark.parametrize("population", [10, 64])
@pytest.mark.parametrize("seed", [2, 17])
def test_run_matches_generator_loop_oracle(population, seed, monkeypatch):
    evaluator = DesignEvaluator(load_scenario("scenario-3"))
    config = GaConfig(population=population, generations=3, seed=seed)
    got = _record_run(evaluator, config, monkeypatch)
    want = nsga2_oracle(evaluator, config)
    assert len(got["genomes"]) == len(want["genomes"]) == 4
    for gen in range(4):
        assert got["genomes"][gen] == want["genomes"][gen], gen
        assert got["survivors"][gen] == want["survivors"][gen], gen
    assert got["evaluations"] == want["evaluations"]
    assert _front_key(got["front"]) == _front_key(want["front"])
