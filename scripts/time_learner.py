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

Pairs alternate which tree runs first.  ``bench_rows.direct_main`` prints
and, with ``--out``, writes the rows (lower is better).
"""

from __future__ import annotations

import statistics

from bench_rows import direct_main

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

    # the policies view the rows of one stack, as a lockstep group's do;
    # the rows are filled first because _bind in older trees only views
    theta = np.stack([policy.theta() for policy in policies])
    for policy, row in zip(policies, theta):
        policy._bind(row)
    optimizer = pearl.AdamOptimizer(config.learning_rate)
    stacked = pearl.Rollout(np.stack([r.pre_squash for r in rollouts]),
                            np.stack([r.log_probs for r in rollouts]),
                            np.stack([r.rewards for r in rollouts]))
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


if __name__ == "__main__":
    raise SystemExit(direct_main(measure, __doc__))
