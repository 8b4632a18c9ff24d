"""Front quality indicators, columnar exports, and plot emission.

Hypervolume is computed exactly for two objectives with a sweep over the
front sorted by the first objective.  Plots are written as standalone SVG
files with the plotted records embedded as comments, so no plotting
runtime is required.

``write_table`` is the one writer of a run's tab-separated tables: the
archive snapshots, the front and the run logs all go through it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .design_space import FIELD_NAMES, DesignVector
from .errors import ConfigError, ContractError, HpmroptError, read_lines
from .pareto import DesignPayload, ObjectivePoint, _first_front


def FrontPoint(objectives, feasible: bool = True, penalty: float = 0.0,
               point_id: str = "", design: DesignVector | None = None) -> ObjectivePoint:
    """A report point: an ``ObjectivePoint`` whose payload carries
    ``point_id`` and ``design``."""
    return ObjectivePoint(objectives=objectives, feasible=feasible, penalty=penalty,
                          payload=DesignPayload(id=point_id, design=design))


@dataclass
class FrontReport:
    points: list = field(default_factory=list)
    label: str = ""

    @property
    def feasible_points(self) -> list:
        return [p for p in self.points if p.feasible]

    def objectives(self, feasible_only: bool = True) -> np.ndarray:
        points = self.feasible_points if feasible_only else self.points
        if not points:
            return np.empty((0, 2))
        return np.vstack([p.objectives for p in points])

    def hypervolume(self, reference) -> float:
        objectives = self.objectives(feasible_only=True)
        front = nondominated_filter(objectives)
        return hypervolume_2d(front, reference)


def nondominated_filter(objectives: np.ndarray) -> np.ndarray:
    """The mutually non-dominated rows, duplicates collapsed to one, in
    lexicographic order; ``objectives`` has two columns."""
    objectives = np.atleast_2d(np.asarray(objectives, dtype=float))
    return objectives[_first_front(objectives)]


def hypervolume_2d(front, reference) -> float:
    """Exact dominated area of a mutually non-dominated 2-objective front
    against a reference point that every front point weakly dominates."""
    front = np.atleast_2d(np.asarray(front, dtype=float))
    reference = np.asarray(reference, dtype=float)
    if front.shape[1] != 2 or reference.shape != (2,):
        raise ContractError("hypervolume_2d handles exactly two objectives")
    beyond = np.any(front > reference, axis=1)
    if np.any(beyond):
        raise ContractError(
            f"front point {front[np.argmax(beyond)].tolist()} lies beyond "
            f"reference {reference.tolist()}"
        )
    order = np.argsort(front[:, 0], kind="stable")
    area = 0.0
    for i, idx in enumerate(order):
        x, y = front[idx]
        next_x = front[order[i + 1], 0] if i + 1 < len(order) else reference[0]
        area += (next_x - x) * (reference[1] - y)
    return float(area)


def default_reference(fronts) -> np.ndarray:
    """Reference point for comparing fronts: per-objective max over
    all compared fronts, scaled out by 10%."""
    fronts = [np.atleast_2d(f) for f in fronts if len(f)]
    if not fronts:
        raise ContractError("no points to derive a reference from")
    stacked = np.vstack(fronts)
    top = stacked.max(axis=0)
    return np.where(top > 0, top * 1.1, top * 0.9)


def write_table(path, header, rows) -> None:
    """A tab-separated table: the header line, then one line per row."""
    # the csv writer writes a float as its repr, which round-trips
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t")
        writer.writerow(header)
        writer.writerows(rows)


def export_buffer(buffer, path) -> None:
    """Columnar snapshot of an archive (``pareto.ParetoBuffer``), best
    first: objectives, feasibility, penalty, front, distance, and the
    design payload of the points that carry one.  Columns come in
    first-seen order."""
    records = []
    for point, front, distance in buffer.ranked():
        record = {
            **{f"objective_{j}": v for j, v in enumerate(point.objectives.tolist())},
            "feasible": point.feasible,
            "penalty": point.penalty,
            "front": front,
            "distance": distance,
        }
        if point.payload is not None:
            record.update({"id": point.payload.id, **point.payload.design.to_record()})
        records.append(record)
    header = list(dict.fromkeys(key for record in records for key in record))
    write_table(path, header, ([record.get(key, "") for key in header]
                               for record in records))


_EXPORT_PREFIX = ("label", "point_id", "objective_0", "objective_1",
                  "feasible", "penalty")


def export_front(report: FrontReport, path) -> None:
    """Lossless columnar export (floats carry full round-trip precision)."""
    if not report.points:
        raise ContractError("cannot export an empty report")
    has_design = any(getattr(p.payload, "design", None) is not None
                     for p in report.points)

    def row(p):
        cells = [report.label, getattr(p.payload, "id", ""),
                 *p.objectives.tolist(), int(p.feasible), float(p.penalty)]
        design = getattr(p.payload, "design", None)
        if design is not None:
            cells += design.to_record().values()
        elif has_design:
            cells += [""] * len(FIELD_NAMES)
        return cells

    write_table(path, list(_EXPORT_PREFIX) + (list(FIELD_NAMES) if has_design else []),
                map(row, report.points))


def load_front(path) -> FrontReport:
    """Read an ``export_front`` file; a malformed one is a ``ConfigError``."""
    report = FrontReport()
    reader = csv.DictReader(read_lines(path, "front file", newline=""), delimiter="\t")
    missing = [c for c in ("objective_0", "objective_1", "feasible", "penalty")
               if c not in (reader.fieldnames or ())]
    if missing:
        raise ConfigError(f"{path}: missing columns {missing}")
    for line, row in enumerate(reader, start=2):
        try:
            # export_front writes a point's feasibility as 0 or 1
            if row["feasible"] not in ("0", "1"):
                raise ValueError(f"feasible must be 0 or 1, got {row['feasible']!r}")
            design = None
            if row.get("x_ca") not in (None, ""):
                design = DesignVector.from_record(
                    {f: float(row[f]) for f in FIELD_NAMES})
            report.points.append(FrontPoint(
                objectives=[float(row["objective_0"]), float(row["objective_1"])],
                feasible=row["feasible"] == "1",
                penalty=float(row["penalty"]),
                point_id=row.get("point_id", ""),
                design=design,
            ))
        except (KeyError, TypeError, ValueError, HpmroptError) as exc:
            raise ConfigError(f"{path}, line {line}: {exc}") from exc
        report.label = row.get("label", "")
    if not report.points:
        raise ConfigError(f"{path}: no points")
    return report


# the x and y axis labels of every scatter plot
AXIS_LABELS = ("LCOE [$/MWh]", "peaking factor")


def render_scatter(report: FrontReport, path, limit_line: float | None = 1.47) -> bool:
    """Objective-space scatter as a standalone SVG.

    Feasible points are filled, infeasible hollow; the minimum of each
    objective among feasible points is circled in blue; an optional
    horizontal line marks the second-objective limit.  Returns False when
    the feasible set is empty (plot still written with infeasible markers).
    """
    if not report.points:
        raise ContractError("cannot plot an empty report")
    objectives = report.objectives(feasible_only=False)
    width, height, margin = 640, 480, 60.0
    lo = objectives.min(axis=0)
    hi = objectives.max(axis=0)
    if limit_line is not None:
        lo[1] = min(lo[1], limit_line)
        hi[1] = max(hi[1], limit_line)
    span = np.where(hi > lo, hi - lo, 1.0)

    def sx(x):
        return margin + (x - lo[0]) / span[0] * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - lo[1]) / span[1] * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<!-- label: {report.label} -->",
        '<rect width="100%" height="100%" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        'stroke="black"/>',
        f'<text x="{width / 2}" y="{height - margin / 4}" text-anchor="middle" '
        f'font-size="14">{AXIS_LABELS[0]}</text>',
        f'<text x="{margin / 3}" y="{height / 2}" text-anchor="middle" '
        f'font-size="14" transform="rotate(-90 {margin / 3} {height / 2})">'
        f"{AXIS_LABELS[1]}</text>",
    ]
    for frac in (0.0, 0.5, 1.0):
        vx = lo[0] + frac * span[0]
        vy = lo[1] + frac * span[1]
        parts.append(
            f'<text x="{sx(vx):.1f}" y="{height - margin + 18:.1f}" '
            f'text-anchor="middle" font-size="11">{vx:.4g}</text>'
        )
        parts.append(
            f'<text x="{margin - 8:.1f}" y="{sy(vy):.1f}" text-anchor="end" '
            f'font-size="11">{vy:.4g}</text>'
        )
    if limit_line is not None:
        y = sy(limit_line)
        parts.append(
            f'<line x1="{margin}" y1="{y:.2f}" x2="{width - margin}" y2="{y:.2f}" '
            'stroke="red" stroke-dasharray="6 4"/>'
        )
    for p in report.points:
        parts.append(f"<!-- point {getattr(p.payload, 'id', '')}: {p.objectives.tolist()} "
                     f"feasible={p.feasible} -->")
        cx, cy = sx(p.objectives[0]), sy(p.objectives[1])
        if p.feasible:
            parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" fill="black"/>')
        else:
            parts.append(
                f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" fill="none" '
                'stroke="gray"/>'
            )
    feasible = report.feasible_points
    if feasible:
        best = (
            min(feasible, key=lambda p: p.objectives[0]),
            min(feasible, key=lambda p: p.objectives[1]),
        )
        for p in best:
            parts.append(
                f'<circle cx="{sx(p.objectives[0]):.2f}" '
                f'cy="{sy(p.objectives[1]):.2f}" r="9" fill="none" '
                'stroke="blue" stroke-width="2"/>'
            )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
    return bool(feasible)
