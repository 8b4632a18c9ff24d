#!/usr/bin/env python3
"""The rank-reward buffer in action: rewards are negative ranks, feasible
solutions always outrank infeasible ones, and the archive never exceeds its
capacity."""

import numpy as np

from hpmropt import ObjectivePoint, ParetoBuffer

rng = np.random.default_rng(7)
buffer = ParetoBuffer(capacity=8, metric="niching")

print("inserting a mixed stream (capacity 8):")
for step in range(14):
    if rng.random() < 0.3:
        point = ObjectivePoint(rng.random(2) * 10, feasible=False,
                               penalty=float(rng.integers(10, 500)))
    else:
        point = ObjectivePoint(rng.random(2) * 10, feasible=True)
    reward = buffer.insert(point)
    kind = "feasible  " if point.feasible else f"penalty={point.penalty:<5.0f}"
    print(f"  step {step:>2}  {kind}  objectives={np.round(point.objectives, 2)}"
          f"  reward={reward:>3}  |buffer|={len(buffer)}")

print("\nfinal archive (rank order):")
for slot_rank, point in enumerate(buffer.entries, start=1):
    tag = "feasible" if point.feasible else f"infeasible({point.penalty:.0f})"
    print(f"  rank {slot_rank}: {np.round(point.objectives, 3)} {tag}")

print("\na dominating insertion lands at rank 1 and earns reward -1:")
print("  reward =", buffer.insert(ObjectivePoint([-1.0, -1.0], True)))
