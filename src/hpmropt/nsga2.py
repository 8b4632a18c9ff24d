"""Elitist non-dominated-sorting genetic algorithm baseline.

Operates on the same unit-cube genome and decode as the RL optimizer so the
two search identical spaces; survival and tournaments use the same
constraint-aware dominance as the Pareto buffer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .design_space import from_unit_cube
from .errors import NON_NEGATIVE, ConfigError, ContractError, check, integer, within
from .pareto import (
    DesignPayload,
    ObjectivePoint,
    crowding_distance,
    merge_fronts,
    nondominated_sort,
)

GENOME_DIM = 7

GA_RULES = {"population": integer(2), "generations": integer(0), "seed": integer(0),
            **dict.fromkeys(("crossover_prob", "mutation_prob"), within(0, 1)),
            **dict.fromkeys(("crossover_eta", "mutation_eta"), NON_NEGATIVE)}


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
        check(self, GA_RULES)
        if self.population % 2:
            raise ConfigError(f"population must be even, got {self.population}")


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
    truncated: bool = False


# An 8,000-evaluation run makes about 130k scalar draws, and numpy spends
# about 0.7 us on each ``Generator.random()`` and 2.2 us on each
# ``integers(n)`` (2-core Xeon, numpy 2.4).  Drawing ahead with
# ``Generator.random(size)`` cannot keep the stream: how many draws a child
# takes depends on the data (one per gene SBX skips, three per gene it
# crosses; one or two per gene in mutation), and an integer draw takes a
# 32-bit half of a word that ``random()`` would take whole.  So
# ``DrawStream`` reads PCG64's raw 64-bit words in blocks and turns each
# into whatever the next call asks for, as numpy's C code does with the
# same words.

_DOUBLE_UNIT = 2.0 ** -53
_RAW_BLOCK = 512        # raw words read per bit-generator call


class DrawStream:
    """The draws of a ``Generator`` on a ``PCG64`` bit generator, bit for
    bit, read from its raw output ``_RAW_BLOCK`` words at a time.

    ``random()`` is numpy's ``next_double``: the top 53 bits of one word
    times 2**-53.  ``integers(n)`` is numpy's path for a scalar draw from
    ``range(n)``, ``2 <= n <= 2**32``: Lemire's bounded method on PCG64's
    32-bit draws, which take the low half of a word first and keep the high
    half for the next 32-bit draw (the bit generator's ``has_uint32``
    buffer).
    The stream owns the bit generator: it reads ahead, so the bit
    generator's state is ahead of the draws handed out.
    """

    __slots__ = ("_next_word", "_half")

    def __init__(self, rng):
        bits = rng.bit_generator
        if type(bits) is not np.random.PCG64:
            raise ContractError(f"DrawStream reads PCG64 output only, got "
                                f"{type(bits).__name__}")
        state = bits.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        self._next_word = chain.from_iterable(
            map(np.ndarray.tolist, map(bits.random_raw, repeat(_RAW_BLOCK)))).__next__

    def random(self) -> float:
        return (self._next_word() >> 11) * _DOUBLE_UNIT

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            word = self._next_word()
            self._half = word >> 32
            return word & 0xFFFFFFFF
        self._half = None
        return half

    def integers(self, n: int) -> int:
        if not 1 < n <= 0x100000000:
            raise ContractError(f"integers(n) needs 2 <= n <= 2**32, got {n!r}")
        m = self._uint32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (0x100000000 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * n
        return m >> 32


# The operators run on Python floats and build one array per child.  Each
# step is the IEEE double operation numpy's float64 scalars perform (``**``
# is libm's pow in both), so on genomes in [0, 1], the only ones NSGA-II
# makes, the children are bit for bit those of ``tests/oracles.py``'s
# numpy-scalar operators, from the same draws in the same order.  (A NaN
# gene could divide by a zero span, which raises here and gives inf in
# numpy.)  ``min(max(x, 0.0), 1.0)`` is ``np.clip(x, 0.0, 1.0)`` exactly,
# NaN and -0.0 included.

def _sbx_pair(a, b, eta, stream):
    """Simulated binary crossover on [0, 1] genomes (bounded form)."""
    random = stream.random
    parent1, parent2 = a.tolist(), b.tolist()
    child1, child2 = parent1[:], parent2[:]
    power, inverse = -(eta + 1.0), 1.0 / (eta + 1.0)
    for i, (x1, x2) in enumerate(zip(parent1, parent2)):
        if random() > 0.5 or abs(x1 - x2) < 1e-14:
            continue
        y1, y2 = min(x1, x2), max(x1, x2)
        span = y2 - y1
        u = random()
        c1 = 0.5 * (y1 + y2 - _sbx_spread(1.0 + 2.0 * y1 / span, u, power, inverse) * span)
        c2 = 0.5 * (y1 + y2
                    + _sbx_spread(1.0 + 2.0 * (1.0 - y2) / span, u, power, inverse) * span)
        c1, c2 = min(max(c1, 0.0), 1.0), min(max(c2, 0.0), 1.0)
        if random() < 0.5:
            c1, c2 = c2, c1
        child1[i], child2[i] = c1, c2
    return np.array(child1), np.array(child2)


def _sbx_spread(beta, u, power, inverse):
    """The spread factor beta_q of one child, from the distance ``beta`` of
    the parents to the bound on its side."""
    alpha = 2.0 - beta ** power
    if u <= 1.0 / alpha:
        return (u * alpha) ** inverse
    return (1.0 / (2.0 - u * alpha)) ** inverse


def _polynomial_mutation(genome, prob, eta, stream):
    random = stream.random
    mutant = genome.tolist()
    power, inverse = eta + 1.0, 1.0 / (eta + 1.0)
    for i, y in enumerate(mutant):
        if random() >= prob:
            continue
        u = random()
        if u < 0.5:
            delta = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - y) ** power) ** inverse - 1.0
        else:
            delta = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * y ** power) ** inverse
        mutant[i] = min(max(y + delta, 0.0), 1.0)
    return np.array(mutant)


def _tournament(pop, stream) -> Individual:
    n = len(pop)
    i, j = stream.integers(n), stream.integers(n)
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


def run_nsga2(evaluator, config: GaConfig, deadline: float | None = None) -> GaResult:
    """Standard generational loop: binary tournaments under constraint
    domination, simulated binary crossover, polynomial mutation, elitist
    survival.  Deterministic for a fixed seed.  An expired deadline, a
    ``time.monotonic()`` value, stops the run between generations (the
    initial population is generation 0) and marks the result truncated."""
    stream = DrawStream(np.random.default_rng(config.seed))
    random = stream.random
    evaluations = 0

    def make(genome, tag):
        nonlocal evaluations
        design = from_unit_cube(genome)
        objectives, report, _qoi = evaluator.evaluate(design)
        evaluations += 1
        feasible = report.feasible
        point = ObjectivePoint(
            objectives=objectives,
            feasible=feasible,
            penalty=0.0 if feasible else report.penalty,
            payload=DesignPayload(id=tag, design=design),
        )
        return Individual(genome=genome, point=point)

    population, history, truncated = [], [], False
    for gen in range(config.generations + 1):
        if deadline is not None and time.monotonic() > deadline:
            truncated = True
            break
        if gen == 0:
            population = _survival(
                [make(np.array([random() for _ in range(GENOME_DIM)]), f"g0-{i}")
                 for i in range(config.population)], config.population)
            continue
        genomes = []
        while len(genomes) < config.population:
            p1, p2 = _tournament(population, stream), _tournament(population, stream)
            if random() < config.crossover_prob:
                g1, g2 = _sbx_pair(p1.genome, p2.genome, config.crossover_eta, stream)
            else:
                g1, g2 = p1.genome, p2.genome   # mutation returns a new array
            genomes.append(_polynomial_mutation(
                g1, config.mutation_prob, config.mutation_eta, stream))
            genomes.append(_polynomial_mutation(
                g2, config.mutation_prob, config.mutation_eta, stream))
        # exact-duplicate genomes add nothing and can flood out distinct
        # elites at front boundaries; drop them before evaluation
        seen = {tuple(ind.genome.tolist()) for ind in population}
        offspring = []
        for genome in genomes:
            key = tuple(genome.tolist())
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
                    evaluations=evaluations, front=front, truncated=truncated)
