"""Command-line interface: evaluate, optimize, scenarios, report.

Exit codes: 0 success, 1 infeasible design (evaluate), a front with no
feasible point or a run with no front (report) or unexpected error,
2 configuration error, 3 evaluation/model error, 4 partial optimizer failure.

Each command imports what it uses when it runs: ``evaluate`` and
``scenarios`` load no optimizer, no run orchestration and no scipy, and
``report`` loads no evaluator.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .errors import (
    ConfigError,
    ContractError,
    DecodeError,
    EvaluationError,
    HpmroptError,
    TableLoadError,
    read_lines,
)

EXIT_OK = 0
EXIT_INFEASIBLE_OR_ERROR = 1
EXIT_CONFIG = 2
EXIT_EVALUATION = 3
EXIT_PARTIAL = 4


def _output_root() -> Path:
    return Path(os.environ.get("HPMROPT_OUTPUT_ROOT", "."))


def cmd_evaluate(args) -> int:
    from .design_space import read_design_file
    from .economics import build_cash_flows, cost_breakdown
    from .environment import build_evaluator

    design = read_design_file(args.design)
    evaluator = build_evaluator(args)
    objectives, report, qoi = evaluator.evaluate(design)

    print(f"design file : {args.design}")
    print(f"scenario    : {args.scenario}")
    print("\nquantities of interest")
    for name in ("lifetime", "sdm", "f_dh", "q_max", "q_avg", "uranium_mass",
                 "u235_mass", "burnup", "power_density", "lcoe"):
        print(f"  {name:<14} {getattr(qoi, name):.6g}")
    if qoi.itc is not None:
        print(f"  {'itc':<14} {qoi.itc:.6g}")
    if evaluator.table is not None:
        print(f"  nearest sample site at unit-cube distance "
              f"{evaluator.table.nearest_site_distance(design):.6g}")

    print("\nconstraints")
    for row in report.rows:
        flag = "ok " if row.satisfied else "VIOLATED"
        print(f"  {row.name:<16} value={row.value:<12.6g} phi={row.phi:.6g} "
              f"penalty={row.weighted_penalty:.6g}  {flag}")
    print(f"  aggregate penalty: {report.penalty:.6g}")
    print(f"  feasible: {report.feasible}")

    schedule = build_cash_flows(design, qoi, evaluator.scenario)
    print("\ndiscounted cost shares")
    for category, share in sorted(cost_breakdown(schedule, evaluator.scenario.econ).items()):
        print(f"  {category:<20} {share:8.3%}")
    print(f"\nobjectives: lcoe={objectives[0]:.6g}  f_dh={objectives[1]:.6g}")
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE_OR_ERROR


def cmd_optimize(args) -> int:
    from .nsga2 import GaConfig
    from .runio import RunConfig, run_optimize

    if args.config:
        text = "".join(read_lines(args.config, "--config"))
        try:
            manifest = json.loads(text)
        except ValueError as exc:   # also an integer past Python's digit limit
            raise ConfigError(f"cannot read --config {args.config}: {exc}") from exc
        config = RunConfig.from_manifest(manifest, out_dir=args.out or "run")
    else:
        config = RunConfig(out_dir=args.out or "run")
    # command-line flags override the file layer, and are checked as it is
    flags = {key: getattr(args, key) for key in ("scenario", "evaluator", "optimizer")
             if getattr(args, key)}
    if args.max_seconds is not None:
        flags["max_seconds"] = args.max_seconds
    config = dataclasses.replace(config, **flags)
    if config.optimizer == "pearl":
        overrides = config.pearl
        if args.agents is not None:
            overrides["agents"] = args.agents
        if args.steps is not None:
            overrides["total_steps"] = args.steps
        if args.seed is not None:
            overrides["base_seed"] = args.seed
        if args.workers is not None:
            overrides["workers"] = args.workers
        if args.seed is not None or args.agents is not None:
            # the agents resolve from base_seed and agents, as on a fresh
            # run: a rerun's recorded seeds would override either flag
            overrides.pop("seeds", None)
    else:
        for flag in ("agents", "workers"):
            if getattr(args, flag) is not None:
                raise ConfigError(f"--{flag} applies to PEARL only; NSGA-II runs one "
                                  f"population in one process")
        overrides = config.nsga2
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.steps is not None:
            # the population as GaConfig resolves and checks it
            population = GaConfig(**overrides).population
            if args.steps < 2 * population:
                raise ConfigError(
                    f"--steps {args.steps} is below the NSGA-II minimum of "
                    f"{2 * population}: the initial population of {population} "
                    f"plus one generation")
            overrides["generations"] = args.steps // population - 1

    out_dir = Path(config.out_dir)
    if not out_dir.is_absolute():
        out_dir = _output_root() / out_dir
    config.out_dir = str(out_dir)

    summary = run_optimize(config)
    print(f"run directory : {config.out_dir}")
    print(f"status        : {summary['status']}")
    print(f"evaluations   : {summary['evaluations']}")
    print(f"front size    : {summary['front_size']} "
          f"({summary['feasible_count']} feasible)")
    if "hypervolume" in summary:
        print(f"hypervolume   : {summary['hypervolume']:.6g} "
              f"(reference {summary['reference_point']})")
    for failure in summary["failures"]:
        print(f"agent failure : {failure}")
    if summary["status"] == "clean":
        return EXIT_OK
    if summary["status"] == "partial":
        return EXIT_PARTIAL
    return EXIT_INFEASIBLE_OR_ERROR


def cmd_scenarios(args) -> int:
    from .economics import load_scenario, scenario_names

    # each listed by what --scenario takes: a user file by its path
    for name in scenario_names(extra_dir=args.dir):
        scenario = load_scenario(name)
        print(f"{name}: {scenario.description}")
        if scenario.name != name:
            print(f"  name            : {scenario.name}")
        print(f"  axial reflector : {scenario.axial_reflector_price_per_kg:>12,.2f} $/kg")
        print(f"  drum reflector  : {scenario.drum_reflector_price_per_kg:>12,.2f} $/kg")
        print(f"  absorber        : {scenario.absorber_price_per_kg:>12,.2f} $/kg")
        print(f"  fuel            : {scenario.fuel_price_per_kgu:>12,.2f} $/kgU")
        print(f"  fixed capital   : {scenario.fixed_direct_capital:>12,.2f} $")
        print(f"  annual O&M      : {scenario.annual_om:>12,.2f} $/yr")
    return EXIT_OK


def _load_run_front(run_dir: Path):
    """The front a run directory exported, named by its label or the
    directory; a run that exported none raises ``HpmroptError`` (exit 1)."""
    from .metrics import load_front

    front_path, report_path = run_dir / "front.tsv", run_dir / "report.json"
    if front_path.exists():
        report = load_front(front_path)
        return report.label or run_dir, report
    if report_path.exists():
        text = "".join(read_lines(report_path, "run report"))
        try:
            summary = json.loads(text)
            status, count = summary["status"], summary["evaluations"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot read {report_path}: {exc!r}") from exc
        raise HpmroptError(f"{run_dir}: {status} run, {count} evaluations, no front exported")
    if (run_dir / "manifest.json").exists():
        raise HpmroptError(f"{run_dir}: the run did not finish (no report.json)")
    raise ConfigError(f"no front export in {run_dir}")


def cmd_report(args) -> int:
    from .metrics import default_reference, render_scatter

    run_dir = Path(args.run_dir)
    named = [_load_run_front(run_dir)]
    if args.compare:
        named.append(_load_run_front(Path(args.compare)))
    report = named[0][1]
    fronts = [r.objectives(feasible_only=True) for _, r in named]
    # a hypervolume needs a reference, derived from the feasible points
    reference = default_reference(fronts) if any(len(f) for f in fronts) else None
    for name, r in named:
        summary = f"{name}: {len(r.points)} points, {len(r.feasible_points)} feasible, "
        if reference is None:
            print(summary + "no hypervolume (no feasible point to define one)")
        else:
            print(summary + f"hypervolume {r.hypervolume(reference):.6g}")
    if args.plot:
        render_scatter(report, run_dir / "front.svg")
        print(f"plot written to {run_dir / 'front.svg'}")
    return EXIT_OK if reference is not None else EXIT_INFEASIBLE_OR_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpmropt",
        description="Two-objective core design optimization "
                    "(cost vs. peaking factor) with operational constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="evaluate one design file")
    p_eval.add_argument("design", help="flat key=value design file")
    p_eval.add_argument("--scenario", default="scenario-1")
    p_eval.add_argument("--evaluator", default="proxy",
                        help="'proxy' or 'tabular:<samples.csv>'")
    p_eval.set_defaults(func=cmd_evaluate)

    p_opt = sub.add_parser("optimize", help="run an optimization experiment")
    p_opt.add_argument("--config", help="run configuration or manifest JSON")
    p_opt.add_argument("--scenario", help="preset name or scenario JSON file")
    p_opt.add_argument("--evaluator", help="'proxy' or 'tabular:<samples.csv>'")
    p_opt.add_argument("--optimizer", choices=("pearl", "nsga2"))
    p_opt.add_argument("--agents", type=int)
    p_opt.add_argument("--steps", type=int, help="total evaluation budget")
    p_opt.add_argument("--seed", type=int)
    p_opt.add_argument("--workers", type=int)
    p_opt.add_argument("--out", help="run directory (under $HPMROPT_OUTPUT_ROOT)")
    p_opt.add_argument("--max-seconds", type=float, dest="max_seconds")
    p_opt.set_defaults(func=cmd_optimize)

    p_scen = sub.add_parser("scenarios", help="list cost scenario presets")
    p_scen.add_argument("--dir", help="extra directory of scenario JSON files")
    p_scen.set_defaults(func=cmd_scenarios)

    p_rep = sub.add_parser("report", help="summarize a run directory")
    p_rep.add_argument("run_dir")
    p_rep.add_argument("--compare", help="second run directory")
    p_rep.add_argument("--plot", action="store_true", help="re-render the SVG")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EvaluationError, TableLoadError, DecodeError, ContractError) as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVALUATION
    except HpmroptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE_OR_ERROR


if __name__ == "__main__":
    sys.exit(main())
