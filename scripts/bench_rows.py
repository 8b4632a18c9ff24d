#!/usr/bin/env python3
"""Collect before/after rows from two sets of ``perfbench/run.py`` records
into one ``BENCH_*.json`` file.

    python3 scripts/bench_rows.py --before OLD_CHECKOUT/.perfbench \
        --after .perfbench --out BENCH_3.json \
        --note criterion_04_insert_s 13.9 5.1 s

Each ``result-<workload>-seed<N>-trace<T>.json`` record in a directory is one
benchmark run.  For every workload and every metric listed below, the file
gets the per-run values of both sides, their medians, the after/before
ratio of the medians, the before side's quartile spread, and how many
same-seed pairs the after side won in the metric's "better" direction from
BENCHMARK.json.  Timed runs (``--trace 0``) give the end-to-end rows,
traced runs (``--trace 1``) the per-layer rows.  ``--note`` adds a figure
measured outside the benchmark (name, before, after, unit).

It also holds the harness of the direct timing scripts
(``scripts/time_*.py``): ``alternating_runs`` runs a script's ``--child``
mode on two source trees in alternating pairs, ``direct_rows`` turns its
runs into rows of this file's layout, and ``this_machine`` describes the host.
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

END_TO_END = ("evals_per_s", "hv", "evaluations", "success_frac", "setup_s",
              "peak_rss_mb")
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


def run_tree(script: Path, src: Path) -> dict:
    """The figures ``script --child`` prints, as JSON, run by a fresh
    interpreter that imports ``hpmropt`` from ``src`` with one BLAS
    thread."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), OPENBLAS_NUM_THREADS="1")
    child = subprocess.run([sys.executable, str(script), "--child"], env=env,
                           capture_output=True, text=True, check=True, timeout=600)
    return json.loads(child.stdout)


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
    out = []
    for (workload, trace) in sorted(set(before) & set(after)):
        old_records, new_records = before[(workload, trace)], after[(workload, trace)]
        for name in (PER_LAYER if trace else END_TO_END):
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
