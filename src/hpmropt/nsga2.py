"""Elitist non-dominated-sorting genetic algorithm baseline.

Operates on the same unit-cube genome and decode as the RL optimizer so the
two search identical spaces; survival and tournaments use the same
constraint-aware dominance as the Pareto buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .design_space import from_unit_cube
from .errors import ConfigError
from .metrics import FrontReport
from .pareto import DesignPayload, ObjectivePoint, crowding_distance, nondominated_sort
from .pearl import merge_fronts

GENOME_DIM = 7


@dataclass
class GaConfig:
    population: int = 64
    generations: int = 100
    crossover_prob: float = 0.9
    crossover_eta: float = 15.0
    mutation_prob: float = 1.0 / GENOME_DIM
    mutation_eta: float = 20.0
    seed: int = 0

    def __post_init__(self):
        if self.population < 2 or self.population % 2 != 0:
            raise ConfigError("population must be even and at least 2")
        for name in ("crossover_prob", "mutation_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")

    def evaluations(self) -> int:
        return self.population * (self.generations + 1)


@dataclass
class Individual:
    genome: np.ndarray
    point: ObjectivePoint
    rank: int = 0
    crowding: float = 0.0


@dataclass
class GaResult:
    population: list
    history: list
    evaluations: int
    front: list = field(default_factory=list)

    def front_report(self, label: str = "nsga2") -> FrontReport:
        return FrontReport(points=list(self.front), label=label)


def _sbx_pair(a, b, eta, rng):
    """Simulated binary crossover on [0, 1] genomes (bounded form)."""
    child1, child2 = a.copy(), b.copy()
    for i in range(len(a)):
        if rng.random() > 0.5 or abs(a[i] - b[i]) < 1e-14:
            continue
        y1, y2 = min(a[i], b[i]), max(a[i], b[i])
        span = y2 - y1
        u = rng.random()
        beta = 1.0 + 2.0 * y1 / span
        alpha = 2.0 - beta ** -(eta + 1.0)
        if u <= 1.0 / alpha:
            beta_q = (u * alpha) ** (1.0 / (eta + 1.0))
        else:
            beta_q = (1.0 / (2.0 - u * alpha)) ** (1.0 / (eta + 1.0))
        c1 = 0.5 * (y1 + y2 - beta_q * span)
        beta = 1.0 + 2.0 * (1.0 - y2) / span
        alpha = 2.0 - beta ** -(eta + 1.0)
        if u <= 1.0 / alpha:
            beta_q = (u * alpha) ** (1.0 / (eta + 1.0))
        else:
            beta_q = (1.0 / (2.0 - u * alpha)) ** (1.0 / (eta + 1.0))
        c2 = 0.5 * (y1 + y2 + beta_q * span)
        c1, c2 = np.clip(c1, 0.0, 1.0), np.clip(c2, 0.0, 1.0)
        if rng.random() < 0.5:
            c1, c2 = c2, c1
        child1[i], child2[i] = c1, c2
    return child1, child2


def _polynomial_mutation(genome, prob, eta, rng):
    mutant = genome.copy()
    for i in range(len(genome)):
        if rng.random() >= prob:
            continue
        y = mutant[i]
        u = rng.random()
        if u < 0.5:
            delta = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - y) ** (eta + 1.0)) \
                ** (1.0 / (eta + 1.0)) - 1.0
        else:
            delta = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * y ** (eta + 1.0)) \
                ** (1.0 / (eta + 1.0))
        mutant[i] = np.clip(y + delta, 0.0, 1.0)
    return mutant


def _tournament(pop, rng) -> Individual:
    i, j = rng.integers(len(pop)), rng.integers(len(pop))
    a, b = pop[i], pop[j]
    if a.point.feasible != b.point.feasible:
        return a if a.point.feasible else b
    if not a.point.feasible:
        return a if a.point.penalty <= b.point.penalty else b
    if a.rank != b.rank:
        return a if a.rank < b.rank else b
    return a if a.crowding >= b.crowding else b


def _survival(candidates, size):
    """Elitist (front, crowding) truncation; assigns rank and crowding."""
    fronts = nondominated_sort([ind.point for ind in candidates])
    survivors = []
    for rank, front in enumerate(fronts):
        members = [candidates[i] for i in front]
        distances = crowding_distance([ind.point for ind in members])
        for ind, dist in zip(members, distances):
            ind.rank, ind.crowding = rank, float(dist)
        if len(survivors) + len(members) <= size:
            survivors.extend(members)
        else:
            members.sort(key=lambda ind: -ind.crowding)
            survivors.extend(members[: size - len(survivors)])
            break
    return survivors


def run_nsga2(evaluator, config: GaConfig) -> GaResult:
    """Standard generational loop: binary tournaments under constraint
    domination, simulated binary crossover, polynomial mutation, elitist
    survival.  Deterministic for a fixed seed."""
    rng = np.random.default_rng(config.seed)
    evaluations = 0

    def make(genome, tag):
        nonlocal evaluations
        design = from_unit_cube(genome)
        objectives, report, _qoi = evaluator.evaluate(design)
        evaluations += 1
        point = ObjectivePoint(
            objectives=objectives,
            feasible=report.feasible,
            penalty=0.0 if report.feasible else report.penalty,
            payload=DesignPayload(id=tag, design=design),
        )
        return Individual(genome=genome, point=point)

    population = [make(rng.random(GENOME_DIM), f"g0-{i}")
                  for i in range(config.population)]
    population = _survival(population, config.population)
    history = []

    for gen in range(1, config.generations + 1):
        genomes = []
        while len(genomes) < config.population:
            p1, p2 = _tournament(population, rng), _tournament(population, rng)
            if rng.random() < config.crossover_prob:
                g1, g2 = _sbx_pair(p1.genome, p2.genome, config.crossover_eta, rng)
            else:
                g1, g2 = p1.genome.copy(), p2.genome.copy()
            genomes.append(_polynomial_mutation(
                g1, config.mutation_prob, config.mutation_eta, rng))
            genomes.append(_polynomial_mutation(
                g2, config.mutation_prob, config.mutation_eta, rng))
        # exact-duplicate genomes add nothing and can flood out distinct
        # elites at front boundaries; drop them before evaluation
        seen = {tuple(ind.genome) for ind in population}
        offspring = []
        for genome in genomes:
            key = tuple(genome)
            if key not in seen:
                seen.add(key)
                offspring.append(make(genome, f"g{gen}-{len(offspring)}"))
        population = _survival(population + offspring, config.population)
        history.append({
            "generation": gen,
            "feasible": sum(ind.point.feasible for ind in population),
            "front_size": sum(ind.rank == 0 for ind in population),
        })

    front = merge_fronts([[ind.point for ind in population if ind.rank == 0]])
    return GaResult(population=population, history=history,
                    evaluations=evaluations, front=front)
