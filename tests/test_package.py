"""The package's import contract: ``import hpmropt`` loads no submodule, each
exported name resolves to its module's object at first use, and evaluating a
design, from the library or the command line, loads no optimizer and no
scipy; nor does any command but ``optimize``."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hpmropt
from hpmropt import design_space

# today's exported names, by the module that defines each
EXPORTS = {
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
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]

# what evaluating a design may load: the evaluator and what it imports
EVALUATION_MODULES = {"hpmropt", "hpmropt.data", "hpmropt.errors", "hpmropt.design_space",
                      "hpmropt.constraints", "hpmropt.economics", "hpmropt.environment"}
OPTIMIZER_MODULES = ("hpmropt.pearl", "hpmropt.learner", "hpmropt.baseline", "hpmropt.pareto",
                     "hpmropt.nsga2", "hpmropt.metrics", "hpmropt.runio")


def test_every_name_is_its_modules_object():
    assert len(NAMES) == 58
    assert sorted(hpmropt.__all__) == sorted(name for _, name in NAMES)
    listed = dir(hpmropt)
    for module, name in NAMES:
        owner = importlib.import_module(f"hpmropt.{module}")
        assert getattr(hpmropt, name) is getattr(owner, name), name
        assert name in listed, name
    assert "__version__" in listed
    # read through, never cached in the package
    assert not set(vars(hpmropt)) & set(hpmropt.__all__)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from hpmropt import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(name for _, name in NAMES)
    for module, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module(f"hpmropt.{module}"), name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hpmropt.no_such_name
    with pytest.raises(ImportError):
        from hpmropt import no_such_name  # noqa: F401


def test_a_probe_cycle_leaves_the_original_name():
    import hpmropt.runio  # noqa: F401 - the probe wraps names in every traced module

    probe_path = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"
    namespace = {"__name__": "perfbench_probe"}
    exec(compile(probe_path.read_text(), str(probe_path), "exec"), namespace)
    from hpmropt import baseline, learner, pearl

    # each name, with every module that binds it
    bound = {"from_unit_cube": (design_space, hpmropt),
             "random_search": (pearl, baseline, hpmropt),
             "ppo_update": (pearl, learner, hpmropt),
             "sample_action": (pearl, learner, hpmropt)}
    original = {name: getattr(owners[0], name) for name, owners in bound.items()}
    probe = namespace["Probe"](namespace["TRACED"]).install()
    try:
        for name, owners in bound.items():
            wrapper = getattr(owners[0], name)
            assert wrapper is not original[name], name
            assert all(getattr(owner, name) is wrapper for owner in owners), name
    finally:
        probe.remove()
    for name, owners in bound.items():
        assert all(getattr(owner, name) is original[name] for owner in owners), name


def run_child(code, *args):
    """The last stdout line of ``code`` run by a fresh interpreter, which
    imports ``hpmropt`` from this tree, as JSON."""
    # a fresh interpreter: this one already holds every module
    src = str(Path(hpmropt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                           capture_output=True, text=True, timeout=300, check=True)
    return json.loads(child.stdout.splitlines()[-1])


_LOADED = ("sorted(m for m in sys.modules "
           "if m == 'scipy' or m.startswith(('hpmropt', 'scipy.')))")

_EVALUATE = f"""
import json, sys
import hpmropt
loaded = {_LOADED}
evaluator = hpmropt.DesignEvaluator(hpmropt.load_scenario("scenario-3"))
objectives, report, qoi = evaluator.evaluate(hpmropt.NOMINAL_DESIGN)
print(json.dumps({{"import": loaded, "evaluate": {_LOADED},
                  "feasible": report.feasible}}))
"""


def test_evaluating_a_design_loads_no_optimizer_and_no_scipy():
    seen = run_child(_EVALUATE)
    assert seen["import"] == ["hpmropt"]
    assert seen["feasible"] is True
    assert set(seen["evaluate"]) <= EVALUATION_MODULES
    assert not set(seen["evaluate"]) & {*OPTIMIZER_MODULES, "hpmropt.cli", "scipy"}


_COMMAND = f"""
import contextlib, io, json, sys
from hpmropt.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({{"code": code, "loaded": {_LOADED}}}))
"""


@pytest.mark.parametrize("command, reads", [
    ("scenarios", EVALUATION_MODULES),
    ("evaluate", EVALUATION_MODULES),
    # report reads a front through metrics, whose points are pareto's
    ("report", ("hpmropt.errors", "hpmropt.design_space", "hpmropt.metrics",
                "hpmropt.pareto")),
])
def test_commands_load_only_what_they_use(tmp_path, command, reads):
    args = [command]
    if command == "evaluate":
        design = tmp_path / "nominal.txt"
        design_space.write_design_file(design_space.NOMINAL_DESIGN, design)
        args += [design, "--scenario", "scenario-3"]
    elif command == "report":
        from hpmropt.runio import RunConfig, run_optimize
        run_optimize(RunConfig(optimizer="nsga2", out_dir=str(tmp_path / "run"),
                               nsga2={"population": 8, "generations": 1}))
        args += [tmp_path / "run"]
    seen = run_child(_COMMAND, *args)
    assert seen["code"] == 0
    assert set(seen["loaded"]) <= {"hpmropt", "hpmropt.cli", *reads}
    assert not set(seen["loaded"]) & {"hpmropt.pearl", "hpmropt.nsga2", "hpmropt.runio",
                                      "scipy"}


def test_the_nsga2_baseline_loads_no_rl_module():
    seen = run_child(f"import json, sys\nimport hpmropt.nsga2\nprint(json.dumps({_LOADED}))")
    assert "hpmropt.nsga2" in seen
    assert not set(seen) & {"hpmropt.pearl", "hpmropt.learner"}
    # optimizers return points: only run orchestration builds their reports
    assert "hpmropt.metrics" not in seen
    seen = run_child(f"import json, sys\nimport hpmropt.pearl\nprint(json.dumps({_LOADED}))")
    assert "hpmropt.pearl" in seen
    assert "hpmropt.metrics" not in seen


@pytest.mark.parametrize("load", ["import hpmropt.baseline", "hpmropt.random_search"])
def test_the_random_search_baseline_loads_no_rl_module(load):
    seen = run_child(f"import json, sys\nimport hpmropt\n{load}\nprint(json.dumps({_LOADED}))")
    assert "hpmropt.baseline" in seen
    assert not set(seen) & {"hpmropt.pearl", "hpmropt.learner", "hpmropt.metrics"}
