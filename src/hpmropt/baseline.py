"""Uniform random search, the baseline of criteria 8-9; it loads no RL module."""

from __future__ import annotations

import numpy as np

from .design_space import FIELD_NAMES, from_unit_cube
from .pareto import DesignPayload, ObjectivePoint, _checked_objectives, _first_front

_DRAW_BLOCK = 1024   # random-search designs drawn per generator call


def random_search(evaluator, evaluations: int, seed: int = 0) -> list[ObjectivePoint]:
    """Uniform sampling baseline under the same decode.

    Returns the non-dominated set over every evaluation (feasible points
    dominate infeasible ones, so the result is all-feasible whenever any
    feasible design was sampled).  A point is built only for a design the
    result may hold: every feasible one, and an infeasible one whose
    penalty beats the best so far.  Every other design is checked as its
    point would have been.
    """
    rng = np.random.default_rng(seed)
    feasible: list[ObjectivePoint] = []
    best_infeasible: ObjectivePoint | None = None
    for step in range(evaluations):
        if step % _DRAW_BLOCK == 0:
            # one call fills a block from the same stream, in the same
            # order, as one draw of a design's coordinates per design
            draws = rng.random((min(_DRAW_BLOCK, evaluations - step), len(FIELD_NAMES)))
        design = from_unit_cube(draws[step % _DRAW_BLOCK])
        objectives, report, _qoi = evaluator.evaluate(design)
        is_feasible = report.feasible
        penalty = 0.0 if is_feasible else report.penalty
        if is_feasible or best_infeasible is None or penalty < best_infeasible.penalty:
            point = ObjectivePoint(
                objectives=objectives,
                feasible=is_feasible,
                penalty=penalty,
                payload=DesignPayload(id=f"rs-{step}", design=design),
            )
            if is_feasible:
                feasible.append(point)
            else:
                best_infeasible = point
        else:
            _checked_objectives(objectives, is_feasible, penalty)
    if not feasible:
        return [] if best_infeasible is None else [best_infeasible]
    return [feasible[i] for i in _first_front(feasible)]
