"""Run orchestration: layered configuration, run directories, manifests,
history logs, and report files.

Every optimization run writes a self-describing directory; re-running from
its manifest reproduces byte-identical front exports.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .environment import build_evaluator, check_evaluator
from .errors import POSITIVE, STRING, ConfigError, check, one_of, optional, reject_unknown
from .metrics import (FrontReport, default_reference, export_buffer, export_front,
                      render_scatter, write_table)
from .nsga2 import GaConfig, run_nsga2
from .pearl import PearlConfig, run_multi

STATUS_CLEAN = "clean"
STATUS_PARTIAL = "partial"
STATUS_FAILED = "failed"

# the pearl.Incident kinds that stand for a failed evaluation
_FAILED_EVALUATION = ("evaluation_failed", "non_finite_objectives")


RUN_RULES = {"scenario": STRING, "evaluator": STRING, "optimizer": one_of("pearl", "nsga2"),
             "out_dir": STRING, "max_seconds": optional(POSITIVE)}


@dataclass
class RunConfig:
    """One optimization experiment, fully describing its own rerun."""

    scenario: str = "scenario-3"
    evaluator: str = "proxy"          # "proxy" or "tabular:<path>"
    optimizer: str = "pearl"          # "pearl" or "nsga2"
    pearl: dict = field(default_factory=dict)
    nsga2: dict = field(default_factory=dict)
    out_dir: str = "run"
    max_seconds: float | None = None

    def __post_init__(self):
        check(self, RUN_RULES)
        check_evaluator(self.evaluator)
        for section, cls in (("pearl", PearlConfig), ("nsga2", GaConfig)):
            reject_unknown(getattr(self, section),
                           [f.name for f in dataclasses.fields(cls)], f"{section}: ")

    def to_manifest(self) -> dict:
        record = dataclasses.asdict(self)
        # ambient, not part of the experiment: the run directory, and the
        # worker count, which splits the agents into groups without
        # changing a bit of the run
        record.pop("out_dir")
        record["pearl"].pop("workers", None)
        return {
            "config": record,
            "versions": {
                "hpmropt": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
        }

    @classmethod
    def from_manifest(cls, manifest: dict, out_dir: str) -> "RunConfig":
        config = manifest.get("config", manifest) if isinstance(manifest, dict) else manifest
        reject_unknown(config, [f.name for f in dataclasses.fields(cls)], "manifest: ")
        return cls(**{**config, "out_dir": out_dir})


def write_history(path, rows) -> None:
    write_table(path, ["step", "reward", "feasible", "objective_0",
                       "objective_1", "penalty"],
                ([row.step, repr(float(row.reward)), int(row.feasible),
                  repr(float(row.objective_0)), repr(float(row.objective_1)),
                  repr(float(row.penalty))] for row in rows))


def write_updates(path, update_log) -> None:
    """One row per policy update of one agent (``pearl.UpdateStats``)."""
    write_table(path, ["update", "loss", "grad_norm", "entropy", "approx_kl",
                       "clip_frac", "skipped"],
                ([index, repr(float(stats.loss)), repr(float(stats.grad_norm)),
                  repr(float(stats.entropy)), repr(float(stats.approx_kl)),
                  repr(float(stats.clip_frac)), int(stats.skipped)]
                 for index, stats in enumerate(update_log)))


def write_incidents(path, agents) -> None:
    """One JSON object per line for each agent's incidents
    (``pearl.Incident``), agent by agent; an empty file when none occurred."""
    with open(path, "w") as fh:
        for agent in agents:
            for incident in agent.incidents:
                fh.write(json.dumps(dataclasses.asdict(incident), sort_keys=True) + "\n")


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_optimize(config: RunConfig) -> dict:
    """Execute one experiment and populate its run directory.

    Returns a summary dict with a status of clean / partial / failed.  A
    run fails when every evaluation failed, or when it made none and lost
    agents; it is partial when it lost agents or met its deadline.
    """
    # everything that can reject the config runs before the directory exists
    evaluator = build_evaluator(config)
    manifest = config.to_manifest()
    if config.optimizer == "pearl":
        pearl_config = PearlConfig(**config.pearl)
        # manifests carry the resolved per-agent seeds explicitly; the
        # caller's config keeps its own layers
        manifest["config"]["pearl"]["seeds"] = pearl_config.agent_seeds()
    else:
        ga_config = GaConfig(**config.nsga2)
    out = Path(config.out_dir)
    # another run's files would be left beside this run's manifest
    if (out / "manifest.json").exists():
        raise ConfigError(f"{out / 'manifest.json'} exists: {out} already holds a run")
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json", manifest)
    deadline = (None if config.max_seconds is None
                else time.monotonic() + config.max_seconds)

    if config.optimizer == "pearl":
        # run_multi checkpoints only when checkpoint_interval is set
        result = run_multi(evaluator, pearl_config, deadline=deadline,
                           checkpoint_dir=out)
        for agent in result.agents:
            # named by seed, plus the agent's position when seeds repeat
            write_history(out / f"history-agent{agent.name}.tsv", agent.history)
            write_updates(out / f"updates-agent{agent.name}.tsv", agent.update_log)
            export_buffer(agent.buffer, out / f"buffer-agent{agent.name}.tsv")
        write_incidents(out / "incidents.jsonl", result.agents)
        points, failures = result.merged_front, result.failures
        evaluations = sum(len(agent.history) for agent in result.agents)
        # every evaluation that failed left an incident; the rest succeeded
        failed_evaluations = sum(
            incident.kind in _FAILED_EVALUATION for agent in result.agents
            for incident in agent.incidents)
        truncated = any(agent.truncated for agent in result.agents)
    else:
        ga = run_nsga2(evaluator, ga_config, deadline)
        # each history row is a dict of these columns, in this order
        write_table(out / "history-generations.tsv", ["generation", "feasible", "front_size"],
                    map(dict.values, ga.history))
        points, failures = ga.front, []
        evaluations, failed_evaluations, truncated = ga.evaluations, 0, ga.truncated
    # a run in which no agent finished made no evaluation and lost agents
    status = (
        STATUS_FAILED if evaluations == failed_evaluations and (evaluations or failures)
        else STATUS_PARTIAL if failures or truncated
        else STATUS_CLEAN
    )

    report = FrontReport(points=points, label=f"{config.optimizer}:{config.scenario}")
    summary = {"status": status, "failures": failures, "evaluations": evaluations,
               "front_size": len(report.points),
               "feasible_count": len(report.feasible_points)}
    if report.points:
        export_front(report, out / "front.tsv")
        objectives = report.objectives(feasible_only=True)
        if len(objectives):
            reference = default_reference([objectives])
            summary["reference_point"] = reference.tolist()
            summary["hypervolume"] = report.hypervolume(reference)
        render_scatter(report, out / "front.svg")
    _write_json(out / "report.json", summary)
    return summary
