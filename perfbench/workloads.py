"""The three desk-scale workloads: one optimizer run on scenario-3 with the
proxy evaluator at a fixed evaluation budget, driven through the public API.

PEARL and NSGA-II go through ``runio.run_optimize`` with the settings that
``hpmropt optimize --agents 8 --steps N --seed S`` would give.  Random search
has no command-line path, so it calls ``pearl.random_search`` and writes its
front with ``metrics.export_front``, which stands in for the run directory.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# module-qualified calls, so a probe that patches the package's
# namespaces also sees the calls made from here
from hpmropt import metrics, pearl, runio
from hpmropt.economics import load_scenario
from hpmropt.environment import DesignEvaluator
from hpmropt.metrics import FrontPoint, FrontReport
from hpmropt.runio import STATUS_CLEAN, RunConfig

SCENARIO = "scenario-3"
PEARL_AGENTS = 8
PEARL_BUDGET = 2400
GA_POPULATION = 64
GA_BUDGET = 8000
RANDOM_BUDGET = 8000


@dataclass(frozen=True)
class Workload:
    name: str
    budget: int              # evaluations one trial may perform
    quality_seeds: int       # distinct optimizer seeds per benchmark run
    trial: Callable[[int, Path], str]   # (optimizer seed, run dir) -> status


def _pearl(seed: int, out: Path) -> str:
    # agent i uses base_seed + i; spacing base seeds by the agent count keeps
    # the agent seeds of distinct optimizer seeds disjoint
    config = RunConfig(scenario=SCENARIO, optimizer="pearl", out_dir=str(out),
                       pearl={"agents": PEARL_AGENTS, "total_steps": PEARL_BUDGET,
                              "base_seed": PEARL_AGENTS * seed})
    return runio.run_optimize(config)["status"]


def _nsga2(seed: int, out: Path) -> str:
    # what `optimize --steps GA_BUDGET` resolves to: budget = population
    # * (generations + 1)
    generations = GA_BUDGET // GA_POPULATION - 1
    config = RunConfig(scenario=SCENARIO, optimizer="nsga2", out_dir=str(out),
                       nsga2={"seed": seed, "generations": generations})
    return runio.run_optimize(config)["status"]


def _random(seed: int, out: Path) -> str:
    evaluator = DesignEvaluator(load_scenario(SCENARIO))
    front = pearl.random_search(evaluator, RANDOM_BUDGET, seed=seed)
    report = FrontReport(label=f"random:{SCENARIO}", points=[
        FrontPoint(objectives=p.objectives, feasible=p.feasible, penalty=p.penalty,
                   point_id=p.payload.id, design=p.payload.design)
        for p in front])
    out.mkdir(parents=True, exist_ok=True)
    metrics.export_front(report, out / "front.tsv")
    return STATUS_CLEAN


WORKLOADS = {w.name: w for w in (
    Workload("pearl-desk", PEARL_BUDGET, 3, _pearl),
    Workload("nsga2-desk", GA_BUDGET, 10, _nsga2),
    Workload("random-desk", RANDOM_BUDGET, 12, _random),
)}


def optimizer_seeds(workload: Workload, seed: int) -> list[int]:
    """The distinct optimizer seeds of one benchmark run, drawn from its
    workload seed."""
    draws = np.random.SeedSequence(seed).generate_state(workload.quality_seeds)
    return [int(d) for d in draws]
