"""What the benchmark in ``perfbench/`` needs from the package: the names its
probe wraps, and sees called once per design, report points built through
``metrics.FrontPoint``, and the payload fields of random-search points.  A
rename that would break the benchmark, or a fused path that would hide a
layer from its trace, fails here instead."""

import csv
import importlib
from pathlib import Path

import hpmropt.runio  # noqa: F401 - the probe wraps names in every traced module
from hpmropt.design_space import FIELD_NAMES, NOMINAL_DESIGN
from hpmropt.economics import load_scenario
from hpmropt.environment import DesignEvaluator
from hpmropt.metrics import FrontPoint, FrontReport, export_front
from hpmropt.pearl import PearlConfig, random_search, run_multi

from conftest import ToyEvaluator

PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


def probe_namespace() -> dict:
    # executed from its source, so nothing is written next to it
    namespace = {"__name__": "perfbench_probe"}
    exec(compile(PROBE.read_text(), str(PROBE), "exec"), namespace)
    return namespace


def test_traced_names_resolve():
    for layer, module_name, attr in probe_namespace()["TRACED"]:
        owner = importlib.import_module(f"hpmropt.{module_name}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"{layer}: hpmropt.{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), layer


def test_probe_sees_each_evaluation_layer_once_per_design():
    namespace = probe_namespace()
    evaluator = DesignEvaluator(load_scenario("scenario-3"))
    with namespace["Probe"](namespace["TRACED"]) as probe:
        random_search(evaluator, 200, seed=1)
    for layer in ("environment.evaluate", "design_space.from_unit_cube",
                  "economics.build_cash_flows", "economics.lcoe",
                  "constraints.evaluate_constraints"):
        assert probe.count(layer) == 200, layer
        assert probe.failures(layer) == 0, layer


def test_probe_sees_every_agent_of_a_serial_run():
    # the agents of a run step in lockstep, not one run_agent call each: the
    # probe sees one group draw per lockstep step, and every step of every
    # agent in the layers each agent calls
    namespace = probe_namespace()
    config = PearlConfig(agents=2, total_steps=32, kappa=8, base_seed=3)
    with namespace["Probe"](namespace["TRACED"]) as probe:
        result = run_multi(ToyEvaluator(), config)
    assert len(result.agents) == 2
    for layer, calls in (("pearl.sample_action", 16), ("design_space.from_unit_cube", 32),
                         ("pareto.insert", 32)):
        assert probe.count(layer) == calls, layer
        assert probe.failures(layer) == 0, layer


def test_front_point_exports(tmp_path):
    point = FrontPoint(objectives=[1500.0, 1.3], feasible=True, penalty=0.0,
                       point_id="rs-7", design=NOMINAL_DESIGN)
    export_front(FrontReport(points=[point], label="random"), tmp_path / "front.tsv")
    with open(tmp_path / "front.tsv", newline="") as fh:
        (row,) = csv.DictReader(fh, delimiter="\t")
    assert row["point_id"] == "rs-7"
    assert float(row["objective_0"]) == 1500.0
    assert {f: float(row[f]) for f in FIELD_NAMES} == NOMINAL_DESIGN.to_record()


def test_random_search_points_carry_id_and_design():
    front = random_search(ToyEvaluator(), 50, seed=3)
    assert front
    for point in front:
        assert point.payload.id.startswith("rs-")
        assert set(point.payload.design.to_record()) == set(FIELD_NAMES)
