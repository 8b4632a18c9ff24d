"""Run the benchmark command from BENCHMARK.json for several workloads and
seeds, and print every metric with its unit: each run's own report, then
one row per metric across the seeds.

    python3 perfbench/table.py                      # every workload, seed 1
    python3 perfbench/table.py --workloads nsga2-desk --seeds 1 2 3 4 5

With more than one seed it also prints each end-to-end metric's median and
its spread: the distance between the first and third quartile as a share of
the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec, workload, seed, seconds, trace) -> dict:
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    *report, result = done.stdout.strip().splitlines()
    print("\n".join(report), flush=True)   # includes the ungated front_feasible
    return json.loads(result)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            results.append(run(spec, workload, seed, args.seconds, args.trace))
            r = results[-1]
            print(f"correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}\n", flush=True)
        names = list(results[0]["metrics"])
        print(f"\n{workload}")
        for name in names:
            unit = results[0]["metrics"][name]["unit"]
            values = [r["metrics"][name]["value"] for r in results]
            line = f"  {name:42s} {unit:8s}" + "".join(f" {v:11.5g}" for v in values)
            if len(values) >= 2:
                median = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else float("nan")
                bound = bounds.get(name)
                line += f"  | median {median:.5g} spread {spread:.3f}"
                if bound is not None:
                    line += f" (bound {bound})"
            print(line)
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
