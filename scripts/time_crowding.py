#!/usr/bin/env python3
"""Time ``pareto.crowding_distance`` per call and archive inserts on two
kinds of traffic, in alternating pairs of two source trees.

    python3 scripts/time_crowding.py --before OLD_CHECKOUT/src \
        --after src --pairs 10 --out BENCH_22_insert.json

Each run is a fresh interpreter importing ``hpmropt`` from one tree.  It
times ``crowding_distance`` on a mutually non-dominated two-objective front
of n = 8, 16, 32, 64 and 128 rows (best of five repeats, microseconds a
call), and ``ParetoBuffer.insert`` (microseconds an insert, the points
drawn before the clock starts) over two sets of ten streams of 1000 points
into a capacity-64 archive:

- criterion 4's crowding streams (seed 40404), 70% feasible;
- PEARL's traffic into a niching archive (seed 2222): 10.7% feasible, the
  share of ``pearl-desk``'s inserts, with penalties drawn as criterion 4
  draws them.

Pairs alternate which tree runs first.  The file holds, per figure, both
sides' runs, their medians, the after/before ratio, the before side's
quartile spread and the pairs the after side won (lower is better), in the
layout of ``bench_rows.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench_rows import alternating_runs, direct_rows, this_machine

SIZES = (8, 16, 32, 64, 128)


def measure() -> dict:
    """One run's figures, from the ``hpmropt`` on the import path."""
    import timeit

    import numpy as np

    from hpmropt.pareto import ObjectivePoint, ParetoBuffer, crowding_distance

    figures = {}
    rng = np.random.default_rng(7)
    for n in SIZES:
        lcoe = np.sort(rng.random(n)) * 5000.0 + 1000.0
        f_dh = np.sort(rng.random(n))[::-1] * 0.5 + 1.0
        front = np.column_stack([lcoe, f_dh])[rng.permutation(n)]
        number = 2000
        best = min(timeit.repeat(lambda: crowding_distance(front), number=number, repeat=5))
        figures[f"crowding_distance_n{n}_us"] = best / number * 1e6

    def streams(seed, feasible_share):
        # drawn as criterion 4 draws its points
        rng = np.random.default_rng(seed)
        for _ in range(10):
            points = []
            for _ in range(1000):
                objectives = rng.random(2) * [5000.0, 0.5] + [1000.0, 1.0]
                if rng.random() < feasible_share:
                    points.append(ObjectivePoint(objectives, True))
                else:
                    points.append(ObjectivePoint(objectives, False,
                                                 penalty=float(rng.integers(1, 40000))))
            yield points

    for name, seed, share, metric in (("criterion_04_crowding", 40404, 0.7, "crowding"),
                                      ("pearl_traffic_niching", 2222, 0.107, "niching")):
        seconds = 0.0
        for points in streams(seed, share):
            buffer = ParetoBuffer(capacity=64, metric=metric)
            tick = timeit.default_timer()
            for point in points:
                buffer.insert(point)
            seconds += timeit.default_timer() - tick
        figures[f"{name}_insert_us"] = seconds / 10_000 * 1e6
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
    if not (args.before and args.after and args.out):
        parser.error("--before, --after and --out are required")

    rows = direct_rows(alternating_runs(Path(__file__), args.before, args.after, args.pairs))
    args.out.write_text(json.dumps({"machine": this_machine(), "rows": rows}, indent=1)
                        + "\n")
    for row in rows:
        spread = row["before_quartile_spread"]
        print(f"{row['metric']:34s} {row['before']['median']:9.2f} -> "
              f"{row['after']['median']:9.2f} us  x{row['ratio']:.3f}  "
              f"won {row['won']}/{row['pairs']}"
              + ("" if spread is None else f"  spread {spread:.3g}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
