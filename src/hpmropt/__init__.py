"""Constrained two-objective design optimization for heat-pipe microreactors.

Library layout:

- ``design_space``  decision variables, coupled bounds, unit-cube decode
- ``constraints``   limit set and quadratic relative-violation penalty
- ``environment``   surrogate physics: proxy model, sample tables, evaluator
- ``economics``     cash-flow schedules, levelized cost, scenario presets
- ``pareto``        dominance, sorting, diversity ranking, rank-reward buffer
- ``pearl``         rank-rewarded reinforcement-learning optimizer
- ``nsga2``         evolutionary baseline on the same genome
- ``metrics``       hypervolume, front exports, SVG scatter plots
- ``runio``/``cli`` experiment orchestration and command-line interface
"""

__version__ = "0.1.0"

from .anchors import ANCHOR_RECORDS, NOMINAL_ANCHOR
from .constraints import (
    ConstraintReport,
    ConstraintSpec,
    default_constraints,
    evaluate_constraints,
    phi,
)
from .design_space import (
    MODERATOR_GAP_CM,
    NOMINAL_DESIGN,
    DesignVector,
    from_unit_cube,
    is_valid,
    resolve_bounds,
    to_unit_cube,
    validate,
)
from .economics import (
    CashFlowSchedule,
    CostScenario,
    EconParams,
    build_cash_flows,
    cost_breakdown,
    lcoe,
    list_scenarios,
    load_scenario,
)
from .environment import (
    DesignEvaluator,
    ProxyModelConfig,
    QoIVector,
    SampleTable,
    avg_heat_flux,
    burnup,
    power_density,
    proxy_eval,
    u235_mass,
    uranium_mass,
)
from .metrics import (
    FrontPoint,
    FrontReport,
    default_reference,
    export_front,
    hypervolume_2d,
    load_front,
    render_scatter,
)
from .nsga2 import GaConfig, run_nsga2
from .pareto import (
    ObjectivePoint,
    ParetoBuffer,
    crowding_distance,
    dominates,
    niching_rank,
    nondominated_sort,
    reference_directions,
)
from .pearl import (
    PearlConfig,
    PolicyState,
    merge_fronts,
    ppo_update,
    random_search,
    run_agent,
    run_multi,
    sample_action,
    step_reward,
)
