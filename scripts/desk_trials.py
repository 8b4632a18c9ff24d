#!/usr/bin/env python3
"""Run the desk-scale trials of acceptance criteria 8 and 9 on two source
trees and write the paired results to one JSON file.

    python3 scripts/desk_trials.py --before OLD_CHECKOUT/src --after src \
        --out TRIALS_6.json

A trial is what the criteria 8-9 fixture in ``tests/test_acceptance.py``
runs: PEARL with 8 agents and 8000 steps from base seed ``B + 97 * trial``,
and random search over 8000 designs from seed ``base + 50_000``.  ``B`` is
``--seed-base``; its default, 1000, gives the fixture's own trials.  Each trial
runs in a fresh interpreter that imports ``hpmropt`` from the given tree
only (``bench_rows.run_tree``).  Per trial the file records both criteria's
verdicts, the PEARL and random-search hypervolumes at the criterion's shared
reference and their ratio (HV/random), and the PEARL hypervolume at the
fixed reference (1400, 1.47).  Per scenario it records the pass counts of
each tree and the paired after-minus-before differences: mean, standard
error, range and how many trials went up.  A behaviour change argues from
these numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from bench_rows import child_line, run_tree

TRIALS = 10
AGENTS = 8
STEPS = 8000
RANDOM_OFFSET = 50_000
FIXED_REFERENCE = (1400.0, 1.47)
F_DH_LIMIT = 1.47
SCENARIOS = ("scenario-3", "scenario-1", "scenario-2")
SEED_BASE = 1000     # the criteria 8-9 fixture's


def base_seed(trial: int, seed_base: int = SEED_BASE) -> int:
    return seed_base + 97 * trial


def run_trial(scenario: str, trial: int, seed_base: int = SEED_BASE) -> dict:
    """One criteria 8-9 trial with whatever ``hpmropt`` is importable."""
    import numpy as np

    import hpmropt as h
    from hpmropt.metrics import default_reference, hypervolume_2d, nondominated_filter
    from hpmropt.pearl import PearlConfig, random_search, run_multi

    def feasible_objectives(points):
        feasible = [p for p in points if p.feasible]
        objectives = (np.vstack([p.objectives for p in feasible])
                      if feasible else np.empty((0, 2)))
        return feasible, objectives

    start = time.perf_counter()
    evaluator = h.DesignEvaluator(h.load_scenario(scenario))
    seed = base_seed(trial, seed_base)
    result = run_multi(evaluator, PearlConfig(agents=AGENTS, total_steps=STEPS,
                                              base_seed=seed))
    rs_front = random_search(evaluator, STEPS, seed=seed + RANDOM_OFFSET)
    feasible, pearl_obj = feasible_objectives(result.merged_front)
    _, rs_obj = feasible_objectives(rs_front)

    # criterion 8: the same reference for both fronts, PEARL at least as good
    reference = default_reference([o for o in (pearl_obj, rs_obj) if len(o)])
    hv_pearl = (hypervolume_2d(nondominated_filter(pearl_obj), reference)
                if len(pearl_obj) else 0.0)
    hv_random = (hypervolume_2d(nondominated_filter(rs_obj), reference)
                 if len(rs_obj) else 0.0)
    within_limit = all(p.objectives[1] <= F_DH_LIMIT + 1e-9 for p in feasible)
    criterion_8 = bool(feasible) and within_limit and hv_pearl >= hv_random

    # criterion 9: a low drum angle at minimum peaking, a conflicting front
    criterion_9 = False
    if len(feasible) >= 2:
        min_peaking = min(feasible, key=lambda p: p.objectives[1])
        angle_ok = min_peaking.payload.design.x_ca <= 35.0 + 0.10 * (180.0 - 35.0)
        ordered = pearl_obj[np.argsort(pearl_obj[:, 0])]
        criterion_9 = bool(angle_ok and np.all(np.diff(ordered[:, 0]) > 0)
                           and np.all(np.diff(ordered[:, 1]) < 0))

    # points beyond the fixed reference add nothing and are dropped first;
    # with none inside (scenarios 1-2 cost more than 1400) there is no figure
    fixed = np.array(FIXED_REFERENCE)
    inside = pearl_obj[np.all(pearl_obj <= fixed, axis=1)]
    hv_fixed = hypervolume_2d(nondominated_filter(inside), fixed) if len(inside) else None
    return {
        "scenario": scenario, "trial": trial, "base_seed": seed,
        "criterion_8": criterion_8, "criterion_9": criterion_9,
        "hv_pearl": float(hv_pearl), "hv_random": float(hv_random),
        "hv_over_random": float(hv_pearl / hv_random) if hv_random else None,
        "hv_fixed": hv_fixed, "front_feasible": len(feasible),
        "seconds": time.perf_counter() - start,
    }


def paired(before: list, after: list, key: str) -> dict | None:
    both = [(b[key], a[key]) for b, a in zip(before, after)
            if a[key] is not None and b[key] is not None]
    if not both:
        return None
    diffs = [a - b for b, a in both]
    mean = statistics.fmean(diffs)
    stderr = statistics.stdev(diffs) / len(diffs) ** 0.5 if len(diffs) > 1 else None
    return {"mean": mean, "stderr": stderr, "min": min(diffs), "max": max(diffs),
            "up": sum(d > 0 for d in diffs), "down": sum(d < 0 for d in diffs),
            "n": len(diffs),
            "before_median": statistics.median(b for b, _ in both),
            "after_median": statistics.median(a for _, a in both)}


def summarize(scenario: str, before: list, after: list) -> dict:
    return {
        "scenario": scenario,
        "criterion_8_passed": {"before": sum(t["criterion_8"] for t in before),
                               "after": sum(t["criterion_8"] for t in after)},
        "criterion_9_passed": {"before": sum(t["criterion_9"] for t in before),
                               "after": sum(t["criterion_9"] for t in after)},
        "failing_trials": {side: [t["trial"] for t in trials
                                  if not (t["criterion_8"] and t["criterion_9"])]
                           for side, trials in (("before", before), ("after", after))},
        "hv_fixed": paired(before, after, "hv_fixed"),
        "hv_over_random": paired(before, after, "hv_over_random"),
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        print(child_line(run_trial(argv[1], int(argv[2]), int(argv[3]))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path, required=True, help="source tree (src/)")
    parser.add_argument("--after", type=Path, required=True, help="source tree (src/)")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--scenarios", nargs="+", default=list(SCENARIOS))
    parser.add_argument("--trials", type=int, default=TRIALS)
    parser.add_argument("--seed-base", type=int, default=SEED_BASE,
                        help="trial t runs from base seed SEED_BASE + 97 * t")
    parser.add_argument("--jobs", type=int, default=2,
                        help="trials run at once (each is one process)")
    args = parser.parse_args(argv)
    if not 1 <= args.jobs <= 8:
        parser.error("--jobs must be between 1 and 8")
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    jobs = [(side, scenario, trial) for scenario in args.scenarios
            for trial in range(args.trials) for side in sides]
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        records = list(pool.map(
            lambda job: run_tree(Path(__file__), sides[job[0]], job[1], str(job[2]),
                                 str(args.seed_base)), jobs))
    by_side = {side: [r for (s, _, _), r in zip(jobs, records) if s == side]
               for side in sides}
    payload = {
        "trial": {"agents": AGENTS, "steps": STEPS,
                  "base_seed": f"{args.seed_base} + 97 * trial",
                  "random_seed": f"base_seed + {RANDOM_OFFSET}",
                  "fixed_reference": list(FIXED_REFERENCE)},
        "summary": [summarize(scenario,
                              [r for r in by_side["before"] if r["scenario"] == scenario],
                              [r for r in by_side["after"] if r["scenario"] == scenario])
                    for scenario in args.scenarios],
        "trials": by_side,
    }
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    for block in payload["summary"]:
        line = (f"{block['scenario']}: criterion 8 {block['criterion_8_passed']}, "
                f"criterion 9 {block['criterion_9_passed']}")
        for key, digits in (("hv_fixed", 3), ("hv_over_random", 4)):
            diff = block[key]
            if diff is not None:
                line += (f"; {key} diff {diff['mean']:+.{digits}f} "
                         f"+- {diff['stderr'] or 0:.{digits}f} "
                         f"[{diff['min']:+.{digits}f}, {diff['max']:+.{digits}f}]")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
