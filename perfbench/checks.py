"""Output checks on an exported ``front.tsv`` and the fixed-reference
hypervolume.  The file is parsed here with ``csv`` rather than with the
package's own loader, so a loader defect cannot hide an export defect."""

from __future__ import annotations

import csv

import numpy as np

from hpmropt.design_space import FIELD_NAMES, DesignVector
from hpmropt.metrics import hypervolume_2d


def read_front(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh, delimiter="\t"))


def objectives(rows) -> tuple[np.ndarray, np.ndarray]:
    obj = np.array([[float(r["objective_0"]), float(r["objective_1"])] for r in rows])
    feasible = np.array([r["feasible"] == "1" for r in rows], dtype=bool)
    return obj.reshape(-1, 2), feasible


def front_problems(rows, evaluator) -> list[str]:
    """Everything wrong with one exported front: empty, not mutually
    non-dominated, or a design whose fresh re-evaluation does not reproduce
    its exported objectives and feasibility exactly."""
    if not rows:
        return ["front is empty"]
    problems = []
    obj, feasible = objectives(rows)
    if feasible.any() and not feasible.all():
        problems.append("front mixes feasible and infeasible points")
    pts = obj[feasible] if feasible.any() else obj
    le = np.all(pts[:, None, :] <= pts[None, :, :], axis=-1)
    lt = np.any(pts[:, None, :] < pts[None, :, :], axis=-1)
    if np.any(le & lt):
        i, j = np.argwhere(le & lt)[0]
        problems.append(f"front point {pts[i].tolist()} dominates {pts[j].tolist()}")
    for row in rows:
        design = DesignVector.from_record({f: float(row[f]) for f in FIELD_NAMES})
        values, report, _qoi = evaluator.evaluate(design)
        again = [repr(float(v)) for v in values]
        if again != [row["objective_0"], row["objective_1"]] \
                or str(int(report.feasible)) != row["feasible"]:
            problems.append(f"{row['point_id']} re-evaluates to {again}, "
                            f"feasible={report.feasible}")
    return problems


def hypervolume(rows, reference) -> float:
    """Area dominated by the feasible front points inside ``reference``;
    points beyond it are dropped first, because ``hypervolume_2d`` rejects
    them."""
    obj, feasible = objectives(rows)
    inside = obj[feasible & np.all(obj <= reference, axis=1)]
    return hypervolume_2d(inside, reference) if len(inside) else 0.0
