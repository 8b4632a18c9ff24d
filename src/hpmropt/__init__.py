"""Constrained two-objective design optimization for heat-pipe microreactors.

Library layout:

- ``design_space``  decision variables, coupled bounds, unit-cube decode
- ``constraints``   limit set and quadratic relative-violation penalty
- ``environment``   surrogate physics: proxy model, sample tables, evaluator
- ``economics``     cash-flow schedules, levelized cost, scenario presets
- ``pareto``        dominance, sorting, diversity ranking, rank-reward buffer
- ``learner``       the policy network, its sampling and its clipped-surrogate learner
- ``pearl``         rank-rewarded reinforcement-learning optimizer and its agent loop
- ``baseline``      uniform random search
- ``nsga2``         evolutionary baseline on the same genome
- ``metrics``       hypervolume, front exports, SVG scatter plots
- ``runio``/``cli`` experiment orchestration and command-line interface
"""

__version__ = "0.1.0"

import importlib

# Each exported name and the module that defines it.  A name's module is
# imported at its first use (PEP 562), so ``import hpmropt`` loads no
# submodule and evaluating a design never loads an optimizer.  Nothing is
# cached here: ``hpmropt.X`` always reads ``hpmropt.<module>.X``, so a name
# rebound in its module (an instrument, a test's monkeypatch) is seen here.
_EXPORTS = {
    "anchors": ("ANCHOR_RECORDS", "NOMINAL_ANCHOR"),
    "constraints": ("ConstraintReport", "ConstraintSpec", "default_constraints",
                    "evaluate_constraints", "phi"),
    "design_space": ("MODERATOR_GAP_CM", "NOMINAL_DESIGN", "DesignVector", "from_unit_cube",
                     "is_valid", "resolve_bounds", "to_unit_cube", "validate"),
    "economics": ("CashFlowSchedule", "CostScenario", "EconParams", "build_cash_flows",
                  "cost_breakdown", "lcoe", "list_scenarios", "load_scenario"),
    "environment": ("DesignEvaluator", "ProxyModelConfig", "QoIVector", "SampleTable",
                    "avg_heat_flux", "burnup", "power_density", "proxy_eval",
                    "u235_mass", "uranium_mass"),
    "metrics": ("FrontPoint", "FrontReport", "default_reference", "export_front",
                "hypervolume_2d", "load_front", "render_scatter"),
    "nsga2": ("GaConfig", "run_nsga2"),
    "pareto": ("ObjectivePoint", "ParetoBuffer", "crowding_distance", "dominates",
               "merge_fronts", "niching_rank", "nondominated_sort", "reference_directions"),
    "learner": ("PolicyState", "ppo_update", "sample_action"),
    "pearl": ("PearlConfig", "run_agent", "run_multi", "step_reward"),
    "baseline": ("random_search",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
