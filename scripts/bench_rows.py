#!/usr/bin/env python3
"""Collect before/after rows from two sets of ``perfbench/run.py`` records
into one ``BENCH_*.json`` file.

    python3 scripts/bench_rows.py --before OLD_CHECKOUT/.perfbench \
        --after .perfbench --out BENCH_3.json \
        --note criterion_04_insert_s 13.9 5.1 s

Each ``result-<workload>-seed<N>-trace<T>.json`` record in a directory is one
benchmark run.  For every workload and metric, the file gets the per-run
values of both sides, their medians, the after/before ratio of the medians,
the before side's quartile spread, and how many same-seed pairs the after
side won in the metric's "better" direction from BENCHMARK.json.  Timed
runs (``--trace 0``) give a row for each end-to-end metric BENCHMARK.json
declares, traced runs (``--trace 1``) one for each in ``PER_LAYER``.  ``--note`` adds a figure
measured outside the benchmark (name, before, after, unit).

It is also the one harness for two source trees.  ``run_tree`` runs a
script's ``--child`` mode in a fresh interpreter that imports ``hpmropt``
from one tree, and refuses a child whose ``hpmropt`` came from elsewhere.
``direct_main`` is the command line of the direct timing scripts
(``scripts/time_*.py``), which hold only their ``measure()``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

PER_LAYER = ("pareto.insert.us", "pareto.insert.calls", "pearl.ppo_update.us",
             "pearl.ppo_update.calls", "pearl.ppo_update.self_s",
             "pearl.run_agent.self_s",
             "pearl.sample_action.self_s", "pareto.nondominated_sort.self_s",
             "pareto.niching_rank.self_s", "pareto.crowding_distance.self_s",
             "environment.evaluate.us", "design_space.from_unit_cube.self_s",
             "economics.build_cash_flows.self_s", "economics.lcoe.self_s",
             "constraints.evaluate_constraints.self_s",
             "nsga2.run_nsga2.self_s", "pearl.random_search.self_s",
             "setup.import_s", "setup.evaluator_s",
             "trace.evals_per_s_untraced", "trace.overhead_pct")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
STDERR_LINES = 20
RECORD = re.compile(r"result-(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")


def load(directory: Path) -> dict:
    """{(workload, trace): [record, ...]} in seed order."""
    runs: dict = {}
    for path in sorted(directory.glob("result-*.json")):
        match = RECORD.fullmatch(path.name)
        if match is None:
            continue
        key = (match["workload"], int(match["trace"]))
        runs.setdefault(key, []).append((int(match["seed"]),
                                         json.loads(path.read_text())))
    return {key: [r for _, r in sorted(records, key=lambda sr: sr[0])]
            for key, records in runs.items()}


def better_directions() -> dict:
    """{metric: "higher" or "lower"} from the benchmark's declaration."""
    declared = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["better"]
            for m in declared.get("end_to_end", []) + declared.get("per_layer", [])}


def end_to_end_names() -> list[str]:
    """The benchmark's end-to-end metrics, in declared order."""
    return [m["name"] for m in json.loads(BENCHMARK.read_text()).get("end_to_end", [])]


def side(records, name) -> dict:
    values = [r["all_values"][name] for r in records if name in r["all_values"]]
    return {"runs": values, "median": statistics.median(values) if values else None,
            "seeds": [r["machine"]["seed"] for r in records]}


def quartile_spread(values) -> float | None:
    """Third minus first quartile, or None below two values."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def run_python(args, env: dict, timeout: float = 600) -> str:
    """The stdout of a fresh interpreter run with ``args`` and ``env``.  A
    child that exits non-zero raises ``RuntimeError`` with the command, its
    ``PYTHONPATH`` and the last lines of its stderr."""
    done = subprocess.run([sys.executable, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=timeout)
    if done.returncode:
        command = " ".join(map(str, [Path(sys.executable).name, *args]))
        if "PYTHONPATH" in env:
            command = f"PYTHONPATH={env['PYTHONPATH']} {command}"
        tail = "\n".join(done.stderr.splitlines()[-STDERR_LINES:])
        raise RuntimeError(f"{command} exited {done.returncode}; its stderr ends:\n{tail}")
    return done.stdout


def run_tree(script: Path, src: Path, *args: str) -> dict:
    """The figures that ``script --child ARGS`` prints with ``child_line``,
    run by a fresh interpreter that imports ``hpmropt`` from ``src`` with
    one BLAS thread.  A child whose ``hpmropt`` came from another directory
    is refused with ``RuntimeError``."""
    tree = (src / "hpmropt").resolve()
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    record = json.loads(run_python([script, "--child", *args], env).splitlines()[-1])
    if Path(record["hpmropt"]) != tree:
        raise RuntimeError(f"{script} imported hpmropt from {record['hpmropt']}, "
                           f"not from {tree}")
    return record["figures"]


def child_line(figures: dict) -> str:
    """The line a ``--child`` run prints last for ``run_tree``: its figures
    and the directory of the ``hpmropt`` it imported."""
    import hpmropt

    return json.dumps({"hpmropt": str(Path(hpmropt.__file__).resolve().parent),
                       "figures": figures})


def alternating_runs(script: Path, before: Path, after: Path, pairs: int) -> dict:
    """{"before": [figures, ...], "after": [...]}: ``pairs`` runs of
    ``script`` on each tree, the first side alternating every pair.  One
    run of each tree comes first and is discarded, so that no pair's first
    side pays for cold file caches."""
    trees = {"before": before, "after": after}
    for tree in trees.values():
        run_tree(script, tree)
    runs = {"before": [], "after": []}
    for pair in range(pairs):
        for name in ("before", "after") if pair % 2 == 0 else ("after", "before"):
            runs[name].append(run_tree(script, trees[name]))
    return runs


def direct_rows(runs: dict) -> list[dict]:
    """One row per figure of ``alternating_runs``, lower being better: both
    sides' runs and medians, the after/before ratio, the before side's
    quartile spread and the pairs the after side won.  A figure's unit is
    the last ``_`` part of its name (``…_us``)."""
    rows = []
    for metric in runs["after"][0]:
        old = [r[metric] for r in runs["before"]]
        new = [r[metric] for r in runs["after"]]
        rows.append({
            "workload": "direct", "traced": False, "metric": metric,
            "unit": metric.rsplit("_", 1)[1],
            "before": {"runs": old, "median": statistics.median(old)},
            "after": {"runs": new, "median": statistics.median(new)},
            "ratio": statistics.median(new) / statistics.median(old),
            "before_quartile_spread": quartile_spread(old),
            "pairs": len(old), "won": sum(b < a for a, b in zip(old, new)),
            "better": "lower",
        })
    return rows


def this_machine() -> dict:
    """The host a direct timing ran on."""
    import numpy as np

    return {"nproc": os.cpu_count(), "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__}


def pairs_won(before, after, name, better) -> dict:
    """How many same-seed pairs the after side won, in direction ``better``."""
    old = {r["machine"]["seed"]: r["all_values"][name]
           for r in before if name in r["all_values"]}
    new = {r["machine"]["seed"]: r["all_values"][name]
           for r in after if name in r["all_values"]}
    seeds = sorted(set(old) & set(new))
    sign = 1 if better == "higher" else -1
    return {"pairs": len(seeds), "won": sum(sign * (new[s] - old[s]) > 0 for s in seeds),
            "better": better}


def rows(before: dict, after: dict, directions: dict) -> list[dict]:
    out, end_to_end = [], end_to_end_names()
    for (workload, trace) in sorted(set(before) & set(after)):
        old_records, new_records = before[(workload, trace)], after[(workload, trace)]
        for name in (PER_LAYER if trace else end_to_end):
            old, new = side(old_records, name), side(new_records, name)
            if old["median"] is None or new["median"] is None:
                continue
            unit = new_records[0]["metrics"].get(name, {}).get("unit")
            out.append({
                "workload": workload, "traced": bool(trace), "metric": name,
                "unit": unit, "before": old, "after": new,
                "ratio": new["median"] / old["median"] if old["median"] else None,
                "before_quartile_spread": quartile_spread(old["runs"]),
                **pairs_won(old_records, new_records, name, directions[name]),
            })
    return out


def direct_main(measure, doc: str, argv=None) -> int:
    """The command line of a direct timing script, ``doc`` its help.
    ``--child`` prints ``measure()``'s figures for ``run_tree``.  Otherwise
    ``--pairs`` alternating pairs of runs on the ``--before`` and ``--after``
    source trees (``src/`` directories) print a line per ``direct_rows``
    row and the ``--note`` arguments that carry the medians into ``main``,
    and ``--out`` writes the rows."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--before", type=Path)
    parser.add_argument("--after", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.child:
        print(child_line(measure()))
        return 0
    if not (args.before and args.after):
        parser.error("--before and --after are required")

    script = Path(measure.__code__.co_filename)
    table = direct_rows(alternating_runs(script, args.before, args.after, args.pairs))
    if args.out:
        args.out.write_text(json.dumps({"machine": this_machine(), "rows": table}, indent=1)
                            + "\n")
    width = max(len(row["metric"]) for row in table)
    for row in table:
        spread = row["before_quartile_spread"]
        print(f"{row['metric']:{width}s} {row['before']['median']:11.4g} -> "
              f"{row['after']['median']:11.4g} {row['unit']}  "
              f"x{1 / row['ratio']:.3f} faster  won {row['won']}/{row['pairs']}"
              + ("" if spread is None else f"  spread {spread:.3g}"))
    print(" ".join(f"--note {row['metric']} {row['before']['median']:.6g} "
                   f"{row['after']['median']:.6g} {row['unit']}" for row in table))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--note", nargs=4, action="append", default=[],
                        metavar=("NAME", "BEFORE", "AFTER", "UNIT"))
    args = parser.parse_args(argv)
    before, after = load(args.before), load(args.after)
    if not before or not after:
        raise SystemExit("no benchmark records found")
    machine = next(iter(after.values()))[0]["machine"]
    machine = {k: v for k, v in machine.items() if k != "seed"}
    payload = {
        "machine": machine,
        "rows": rows(before, after, better_directions()),
        "notes": [{"name": name, "before": float(b), "after": float(a), "unit": unit}
                  for name, b, a, unit in args.note],
    }
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    for row in payload["rows"]:
        ratio = "" if row["ratio"] is None else f"  x{row['ratio']:.3f}"
        won = f"  won {row['won']}/{row['pairs']}"
        spread = row["before_quartile_spread"]
        spread = "" if spread is None else f"  spread {spread:.4g}"
        print(f"{row['workload']:12s} {row['metric']:34s} "
              f"{row['before']['median']:>12.6g} -> {row['after']['median']:>12.6g}"
              f"{ratio}{won}{spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
