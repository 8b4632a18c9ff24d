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

Pairs alternate which tree runs first.  ``bench_rows.direct_main`` prints
and, with ``--out``, writes the rows (lower is better).
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from bench_rows import direct_main, run_python

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
            done = run_python([PROBE, src], {**env, **extra}, timeout=120)
            return json.loads(done.splitlines()[-1])

        def evaluate_s(extra):
            tick = time.perf_counter()
            run_python(["-m", "hpmropt.cli", "evaluate", design, "--scenario",
                        "scenario-3"], {**env, **extra, "PYTHONPATH": str(src)},
                       timeout=120)
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


if __name__ == "__main__":
    raise SystemExit(direct_main(measure, __doc__))
