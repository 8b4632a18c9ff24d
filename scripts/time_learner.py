#!/usr/bin/env python3
"""Time PEARL's learner, one update round of eight agents, in alternating
pairs of two source trees.

    python3 scripts/time_learner.py --before OLD_CHECKOUT/src \
        --after src --pairs 10 --out BENCH_18_learner.json

Each run is a fresh interpreter importing ``hpmropt`` from one tree.  It
times three figures:

- ``update_round_8x8_us``: the learner's work at one batch boundary of an
  8-agent run, each agent holding an 8-sample batch, 20 epochs: one group
  update (``pearl._update``), as the agents' lockstep ``run_multi`` makes
  it.  The median of 40 rounds after 3 warm-up rounds, microseconds;
- ``ppo_update_1x8_us``: one agent's ``ppo_update`` on the same batch,
  measured the same way;
- ``pearl_8x2400_s``: one ``run_multi`` of 8 agents on 2,400 proxy
  evaluations of scenario-3 (the ``pearl-desk`` trial's optimizer run,
  base seed 8, no run directory), the best of 3, seconds.

Pairs alternate which tree runs first.  It prints, per figure, both sides'
medians, the after/before ratio, the before side's quartile spread and the
pairs the after side won (lower is better), and the ``--note`` arguments
that carry the medians into ``scripts/bench_rows.py``.  ``--out`` writes
every run, in the layout of ``bench_rows.py``'s rows.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench_rows import alternating_runs, direct_rows, this_machine

AGENTS, BATCH, ROUNDS, WARM_UP = 8, 8, 40, 3


def measure() -> dict:
    """One run's figures, from the ``hpmropt`` on the import path."""
    import time

    import numpy as np

    from hpmropt import pearl
    from hpmropt.economics import load_scenario
    from hpmropt.environment import DesignEvaluator

    config = pearl.PearlConfig(agents=AGENTS, total_steps=2400, base_seed=8)
    rng = np.random.default_rng(11)
    policies = [pearl.PolicyState.initialize(np.random.default_rng(seed), 0.4, 0.8)
                for seed in range(AGENTS)]
    rollouts = []
    for policy in policies:
        samples = [pearl.sample_action(policy, rng) for _ in range(BATCH)]
        rollouts.append(pearl.Rollout(np.vstack([s.pre_squash for s in samples]),
                                      np.array([s.log_prob for s in samples]),
                                      rng.normal(size=BATCH) * 30.0 - 40.0))

    theta = np.empty((AGENTS, len(policies[0].theta())))
    optimizer = pearl.AdamOptimizer(config.learning_rate)
    stacked = pearl.Rollout.stack(rollouts)
    buffers = np.empty_like(theta), np.empty_like(theta)

    def update_round():
        pearl._update(policies, theta, stacked, config, optimizer, buffers)

    one = pearl.PolicyState.initialize(np.random.default_rng(99), 0.4, 0.8)
    one_optimizer = pearl.AdamOptimizer(config.learning_rate)

    def one_update():
        pearl.ppo_update(one, rollouts[0], config, one_optimizer)

    def median_us(work) -> float:
        times = []
        for round_ in range(WARM_UP + ROUNDS):
            tick = time.perf_counter()
            work()
            if round_ >= WARM_UP:
                times.append(time.perf_counter() - tick)
        return statistics.median(times) * 1e6

    figures = {"update_round_8x8_us": median_us(update_round),
               "ppo_update_1x8_us": median_us(one_update)}
    evaluator = DesignEvaluator(load_scenario("scenario-3"))
    runs = []
    for _ in range(3):
        tick = time.perf_counter()
        pearl.run_multi(evaluator, config)
        runs.append(time.perf_counter() - tick)
    figures["pearl_8x2400_s"] = min(runs)
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
