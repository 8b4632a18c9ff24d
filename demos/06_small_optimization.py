#!/usr/bin/env python3
"""A desk-scale optimization: the rank-rewarded RL optimizer against the
evolutionary baseline and a same-budget random search on scenario 3.

Writes front-rl.svg / front-ga.svg next to this script.  Takes a couple of
minutes; shrink BUDGET for a quicker look.
"""

from pathlib import Path

import numpy as np

from hpmropt import (
    DesignEvaluator,
    FrontReport,
    GaConfig,
    PearlConfig,
    default_reference,
    hypervolume_2d,
    load_scenario,
    random_search,
    render_scatter,
    run_multi,
    run_nsga2,
)
from hpmropt.metrics import nondominated_filter

BUDGET = 4000
HERE = Path(__file__).resolve().parent

evaluator = DesignEvaluator(load_scenario("scenario-3"))

print(f"RL optimizer: 8 agents x {BUDGET // 8} steps")
rl = run_multi(evaluator, PearlConfig(agents=8, total_steps=BUDGET, base_seed=0))
rl_report = FrontReport(points=rl.merged_front, label="rank-reward RL")

print(f"evolutionary baseline: population 64, same {BUDGET}-evaluation budget")
ga = run_nsga2(evaluator, GaConfig(population=64,
                                   generations=BUDGET // 64 - 1, seed=0))
ga_report = FrontReport(points=ga.front, label="nsga2")

print(f"random search: {BUDGET} uniform samples")
rs_front = random_search(evaluator, BUDGET, seed=123)

fronts = {
    "rank-reward RL": rl_report.objectives(),
    "nsga2": ga_report.objectives(),
    "random": np.vstack([p.objectives for p in rs_front]) if rs_front else np.empty((0, 2)),
}
reference = default_reference([f for f in fronts.values() if len(f)])
print(f"\nreference point: {np.round(reference, 3)}")
for name, objectives in fronts.items():
    if len(objectives) == 0:
        print(f"  {name:<16} no feasible points")
        continue
    hv = hypervolume_2d(nondominated_filter(objectives), reference)
    lo = objectives.min(axis=0)
    print(f"  {name:<16} front={len(objectives):>3}  hypervolume={hv:8.2f}  "
          f"best lcoe={lo[0]:7.1f}  best f_dh={lo[1]:.3f}")

render_scatter(rl_report, HERE / "front-rl.svg")
render_scatter(ga_report, HERE / "front-ga.svg")
print(f"\nplots: {HERE / 'front-rl.svg'}, {HERE / 'front-ga.svg'}")
