#!/usr/bin/env python3
"""Time start-up, the benchmark's set-up probe and ``hpmropt evaluate``, in
alternating pairs of two source trees.

    python3 scripts/time_setup.py --before OLD_CHECKOUT/src \
        --after src --pairs 10 --out BENCH_23_setup.json

Each run is a fresh interpreter that copies one tree's ``hpmropt`` to a
scratch directory without its bytecode caches, then times two figures, each
the median of 5 fresh interpreters:

- ``setup_probe_s``: ``perfbench/setup_probe.py`` (this checkout's, for
  both trees) read as the benchmark reads it, ``import_s + evaluator_s``;
- ``cli_evaluate_s``: the wall time of ``python -m hpmropt.cli evaluate``
  on the nominal design and scenario-3.

Both are timed first with ``PYTHONDONTWRITEBYTECODE=1``, so that every
interpreter compiles the package as on a fresh checkout, and then, as
``setup_probe_cached_s`` and ``cli_evaluate_cached_s``, once both paths
have written their bytecode caches.

Pairs alternate which tree runs first.  It prints, per figure, both sides'
medians, the after/before ratio, the before side's quartile spread and the
pairs the after side won (lower is better), and the ``--note`` arguments
that carry the medians into ``scripts/bench_rows.py``.  ``--out`` writes
every run, in the layout of ``bench_rows.py``'s rows.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_rows import alternating_runs, direct_rows, this_machine

PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "setup_probe.py"
REPEATS = 5


def probe_seconds(samples) -> float:
    """The benchmark's ``setup_s`` from the probe's JSON lines: the median
    of ``import_s + evaluator_s``."""
    return statistics.median(s["import_s"] + s["evaluator_s"] for s in samples)


def measure(repeats: int = REPEATS) -> dict:
    """One run's figures, for the ``hpmropt`` on the import path."""
    import hpmropt
    from hpmropt.design_space import NOMINAL_DESIGN, write_design_file

    package = Path(hpmropt.__file__).parent
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    with tempfile.TemporaryDirectory() as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(package, src / "hpmropt",
                        ignore=shutil.ignore_patterns("__pycache__"))
        design = Path(scratch) / "nominal.txt"
        write_design_file(NOMINAL_DESIGN, design)

        def probe(extra):
            done = subprocess.run([sys.executable, str(PROBE), str(src)],
                                  env={**env, **extra}, capture_output=True,
                                  text=True, check=True, timeout=120)
            return json.loads(done.stdout.splitlines()[-1])

        def evaluate_s(extra):
            tick = time.perf_counter()
            subprocess.run([sys.executable, "-m", "hpmropt.cli", "evaluate", str(design),
                            "--scenario", "scenario-3"],
                           env={**env, **extra, "PYTHONPATH": str(src)},
                           capture_output=True, check=True, timeout=120)
            return time.perf_counter() - tick

        def timed(extra):
            probes = [probe(extra) for _ in range(repeats)]
            runs = [evaluate_s(extra) for _ in range(repeats)]
            return probe_seconds(probes), statistics.median(runs)

        figures = dict(zip(("setup_probe_s", "cli_evaluate_s"),
                           timed({"PYTHONDONTWRITEBYTECODE": "1"})))
        probe({})   # write the caches that the next runs read
        evaluate_s({})
        figures.update(zip(("setup_probe_cached_s", "cli_evaluate_cached_s"), timed({})))
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--before", type=Path)
    parser.add_argument("--after", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure()))
        return 0
    if not (args.before and args.after):
        parser.error("--before and --after are required")

    rows = direct_rows(alternating_runs(Path(__file__), args.before, args.after, args.pairs))
    if args.out:
        args.out.write_text(json.dumps({"machine": this_machine(), "rows": rows}, indent=1)
                            + "\n")
    for row in rows:
        spread = row["before_quartile_spread"]
        print(f"{row['metric']:22s} {row['before']['median']:11.4g} -> "
              f"{row['after']['median']:11.4g} {row['unit']}  "
              f"x{1 / row['ratio']:.3f} faster  won {row['won']}/{row['pairs']}"
              + ("" if spread is None else f"  spread {spread:.3g}"))
    print(" ".join(f"--note {row['metric']} {row['before']['median']:.6g} "
                   f"{row['after']['median']:.6g} {row['unit']}" for row in rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
