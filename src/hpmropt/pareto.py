"""Dominance relations, non-dominated sorting, diversity ranking, and the
bounded rank-reward buffer.

A candidate inserted into the buffer is ranked against every held solution
under (non-domination front, diversity metric) ordering; its reward is the
negative of that rank and the buffer keeps the best ``capacity`` solutions.
Feasible solutions always outrank infeasible ones; infeasible solutions
order by ascending penalty, giving the optimizer a gradient toward
feasibility.
"""

from __future__ import annotations

import csv
import heapq
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ContractError

METRICS = ("crowding", "niching")


@dataclass(eq=False)
class ObjectivePoint:
    """One evaluated solution in objective space (all objectives minimized).

    Instances compare by identity: distinct evaluations may coincide in
    objective space yet remain separate archive entries."""

    objectives: np.ndarray
    feasible: bool
    penalty: float = 0.0
    payload: Any = None

    def __post_init__(self):
        self.objectives = np.atleast_1d(np.asarray(self.objectives, dtype=float))
        if not np.all(np.isfinite(self.objectives)):
            raise ContractError(f"non-finite objectives: {self.objectives}")
        if not self.penalty >= 0:
            raise ContractError("penalty must be non-negative")
        if self.feasible != (self.penalty == 0.0):
            raise ContractError("penalty must be zero exactly for feasible points")


def dominates(a: ObjectivePoint, b: ObjectivePoint) -> bool:
    """Constraint-aware dominance.

    A feasible point dominates every infeasible one; between infeasible
    points the smaller penalty dominates; between feasible points the usual
    componentwise rule applies.
    """
    if a.objectives.shape != b.objectives.shape:
        raise ContractError(
            f"dimension mismatch: {a.objectives.shape} vs {b.objectives.shape}"
        )
    if a.feasible and not b.feasible:
        return True
    if not a.feasible:
        if b.feasible:
            return False
        return a.penalty < b.penalty
    return bool(
        np.all(a.objectives <= b.objectives) and np.any(a.objectives < b.objectives)
    )


def _point_arrays(points):
    obj = np.array([p.objectives for p in points])
    feas = np.array([p.feasible for p in points], dtype=bool)
    pen = np.array([p.penalty for p in points], dtype=float)
    return obj, feas, pen


def _sweep_fronts(obj) -> list[list[int]]:
    """Dominance fronts of points in one or two objectives, feasibility
    aside.

    One lexicographic sort, then each point joins the first front whose
    latest member does not dominate it (Jensen 2003).  The latest members'
    second objectives never decrease from one front to the next, so that
    front is found by bisection; exact duplicates share a front.
    """
    f0 = obj[:, 0].tolist()
    f1 = obj[:, 1].tolist() if obj.shape[1] == 2 else [0.0] * len(f0)
    last0: list[float] = []
    last1: list[float] = []
    fronts: list[list[int]] = []
    for i in np.lexsort(obj.T[::-1]).tolist():
        a, b = f0[i], f1[i]
        k = bisect_left(last1, b)
        while k < len(last1) and last1[k] == b and last0[k] < a:
            k += 1
        if k == len(fronts):
            fronts.append([i])
            last0.append(a)
            last1.append(b)
        else:
            fronts[k].append(i)
            last0[k], last1[k] = a, b
    return fronts


def _feasible_fronts(obj, feas) -> list[list[int]]:
    """Fronts of the feasible points by objective dominance, each in
    ascending index order."""
    if obj.shape[1] > 2:
        raise ContractError(
            f"non-dominated sorting supports one or two objectives, got {obj.shape[1]}")
    feasible = np.flatnonzero(feas)
    if len(feasible) == 0:
        return []
    return [sorted(feasible[front].tolist()) for front in _sweep_fronts(obj[feasible])]


def _penalty_runs(order, pen) -> list[list[int]]:
    """Split ``order``, infeasible indices sorted by penalty, into one front
    per distinct penalty: between infeasible points the smaller penalty
    dominates."""
    runs: list[list[int]] = []
    last = None
    for i, penalty in zip(order.tolist(), pen[order].tolist()):
        if penalty == last:
            runs[-1].append(i)
        else:
            runs.append([i])
            last = penalty
    return runs


def nondominated_sort(points) -> list[list[int]]:
    """Partition indices into fronts: front 0 is the maximal non-dominated
    set, each later front is the non-dominated set of the remainder.

    Supports one or two objectives; each front lists its indices in
    ascending order."""
    if len(points) == 0:
        raise ContractError("cannot sort an empty point set")
    shapes = {p.objectives.shape for p in points}
    if len(shapes) != 1:
        raise ContractError(f"mixed objective dimensions: {shapes}")
    obj, feas, pen = _point_arrays(points)
    infeasible = np.flatnonzero(~feas)
    by_penalty = infeasible[np.argsort(pen[infeasible], kind="stable")]
    # a feasible point dominates every infeasible one
    return _feasible_fronts(obj, feas) + _penalty_runs(by_penalty, pen)


def crowding_distance(front) -> np.ndarray:
    """NSGA-II crowding distance for one mutually non-dominated front.

    Boundary points get +inf; interior points accumulate span-normalized
    neighbor gaps per objective.  A zero-span objective contributes nothing.
    Fronts of one or two points are all-boundary.  ``front`` is a sequence
    of points or objective rows, or an (n, n_obj) array.
    """
    obj = front if isinstance(front, np.ndarray) and front.ndim == 2 else np.vstack([
        p.objectives if isinstance(p, ObjectivePoint) else np.atleast_1d(p)
        for p in front
    ])
    n, n_obj = obj.shape
    distances = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for j in range(n_obj):
        order = np.argsort(obj[:, j], kind="stable")
        distances[order[0]] = np.inf
        distances[order[-1]] = np.inf
        span = obj[order[-1], j] - obj[order[0], j]
        if span == 0:
            continue
        gaps = (obj[order[2:], j] - obj[order[:-2], j]) / span
        distances[order[1:-1]] += gaps
    return distances


def reference_directions(n_obj: int, divisions: int) -> np.ndarray:
    """Simplex-lattice directions with coordinates summing to 1.

    Produces C(divisions + n_obj - 1, n_obj - 1) points in deterministic
    lexicographic order.
    """
    if n_obj < 2 or divisions < 1:
        raise ContractError("need n_obj >= 2 and divisions >= 1")

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in compositions(total - head, parts - 1):
                yield (head, *tail)

    return np.array(list(compositions(divisions, n_obj)), dtype=float) / divisions


def _associate(normalized, directions):
    """Nearest reference direction by perpendicular distance to the ray."""
    unit = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    projection = normalized @ unit.T
    # |x - (x.u)u| summed over objectives in order, as np.linalg.norm sums
    # a short last axis, without the (points, directions, objectives) array
    squared = 0.0
    for j in range(normalized.shape[1]):
        residual = normalized[:, j:j + 1] - projection * unit[:, j]
        squared = squared + residual * residual
    perp = np.sqrt(squared)
    niche = np.argmin(perp, axis=1)
    return niche, perp[np.arange(len(normalized)), niche]


def niching_rank(normalized, directions, initial_counts=None, seq=None) -> list[int]:
    """Rank order (best first) of pre-normalized points under niche
    preservation.

    Selection repeatedly visits the least-occupied niche that still holds
    unranked points; within a niche the smaller perpendicular distance wins,
    then earlier insertion order (``seq``; list position when omitted).
    ``initial_counts`` carries occupancy from already-ranked points
    (earlier fronts).
    """
    directions = np.asarray(directions, dtype=float)
    if directions.size == 0:
        raise ContractError("empty reference direction set")
    normalized = np.asarray(normalized, dtype=float)
    if len(normalized) == 0:
        return []
    seq = np.arange(len(normalized)) if seq is None else np.asarray(seq)
    counts = (
        np.zeros(len(directions), dtype=int)
        if initial_counts is None
        else np.asarray(initial_counts, dtype=int).copy()
    )
    niche, perp = _associate(normalized, directions)
    order = _niche_order(niche, perp, seq, counts)
    if initial_counts is not None:
        initial_counts[:] = counts
    return order


def _niche_order(niche, perp, seq, counts) -> list[int]:
    """Niche-preserving selection from known associations; ``counts`` is
    updated in place.

    A heap keyed on (occupancy, niche index) yields the niche to visit, and
    each niche pops its members in (perp, seq) order, so every pick costs
    O(log n) instead of a rescan of the remaining points.
    """
    queues: dict[int, list[int]] = {}
    for i in np.lexsort((seq, perp))[::-1].tolist():
        queues.setdefault(int(niche[i]), []).append(i)   # best member last
    heap = [(int(counts[k]), k) for k in queues]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        count, k = heapq.heappop(heap)
        members = queues[k]
        order.append(members.pop())
        counts[k] = count + 1
        if members:
            heapq.heappush(heap, (count + 1, k))
    return order


@dataclass(eq=False)
class _Slot:
    point: ObjectivePoint
    seq: int
    front: int = -1
    distance: float = 0.0


class ParetoBuffer:
    """Bounded archive of ranked solutions with rank-based rewards.

    One buffer has exactly one owner; insertions are strictly sequential.
    ``metric`` selects the within-front diversity ordering.  For niching,
    the reference lattice defaults to one direction per buffer slot
    (capacity - 1 divisions) and is built lazily once the objective
    dimension is known.
    """

    def __init__(self, capacity: int = 64, metric: str = "crowding",
                 directions=None, divisions: int | None = None):
        if capacity < 1:
            raise ContractError("capacity must be at least 1")
        if metric not in METRICS:
            raise ContractError(f"unknown distance metric {metric!r}")
        self.capacity = capacity
        self.metric = metric
        self.directions = None if directions is None else np.asarray(directions, float)
        self.divisions = divisions
        self._slots: list[_Slot] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def entries(self) -> list[ObjectivePoint]:
        return [slot.point for slot in self._slots]

    def _ensure_directions(self, n_obj: int):
        if self.metric == "niching" and self.directions is None:
            divisions = self.divisions or max(self.capacity - 1, 1)
            self.directions = reference_directions(n_obj, divisions)

    def _rank_all(self, slots) -> list[_Slot]:
        obj, feas, pen = _point_arrays([s.point for s in slots])
        seq = np.array([s.seq for s in slots])
        fronts = _feasible_fronts(obj, feas)
        niching = self.metric == "niching"
        if niching and any(len(front) > 1 for front in fronts):
            # one normalization and one association over every feasible
            # slot (never a single row: that product takes another BLAS
            # path than the front-sized ones and can differ in the last bit)
            lo = obj[feas].min(axis=0)
            hi = obj[feas].max(axis=0)
            span = np.where(hi > lo, hi - lo, 1.0)
            normalized = (obj - lo) / span
            normalized[:, hi == lo] = 0.0
            niche = np.zeros(len(slots), dtype=int)
            perp = np.zeros(len(slots))
            niche[feas], perp[feas] = _associate(normalized[feas], self.directions)
            counts = np.zeros(len(self.directions), dtype=int)
        ranked: list[tuple[int, int, float]] = []     # (slot, front, distance)
        for front_index, front in enumerate(fronts):
            if not niching or len(front) == 1:
                dist = crowding_distance(obj[front]).tolist()
                ranked.extend((i, front_index, d) for i, d in sorted(
                    zip(front, dist), key=lambda fd: (-fd[1], seq[fd[0]])))
            else:
                order = _niche_order(niche[front], perp[front], seq[front], counts)
                ranked.extend((front[k], front_index, perp[front[k]]) for k in order)
        # infeasible slots follow, one front per penalty, in incumbency order
        infeasible = np.flatnonzero(~feas)
        by_rank = infeasible[np.lexsort((seq[infeasible], pen[infeasible]))]
        for front_index, run in enumerate(_penalty_runs(by_rank, pen), len(fronts)):
            ranked.extend((i, front_index, 0.0) for i in run)
        ordered: list[_Slot] = []
        for i, front_index, dist in ranked:
            slot = slots[i]
            slot.front = front_index
            slot.distance = float(dist)
            ordered.append(slot)
        return ordered

    def insert(self, point: ObjectivePoint) -> int:
        """Rank ``point`` against the held solutions, keep the best
        ``capacity`` of the union, and return ``-rank`` (rank is 1-based)."""
        if self._slots and point.objectives.shape != self._slots[0].point.objectives.shape:
            raise ContractError(
                f"mixed objective dimensions: {point.objectives.shape} vs "
                f"{self._slots[0].point.objectives.shape}")
        self._ensure_directions(len(point.objectives))
        candidate = _Slot(point=point, seq=self._seq)
        self._seq += 1
        ordered = self._rank_all(self._slots + [candidate])
        rank = next(i for i, slot in enumerate(ordered) if slot is candidate) + 1
        self._slots = ordered[: self.capacity]
        return -rank

    def front(self, index: int = 0) -> list[ObjectivePoint]:
        """Points of the given non-domination front (0 = best)."""
        return [s.point for s in self._slots if s.front == index]

    def snapshot(self) -> list[dict]:
        records = []
        for slot in self._slots:
            record = {
                **{f"objective_{j}": float(v)
                   for j, v in enumerate(slot.point.objectives)},
                "feasible": slot.point.feasible,
                "penalty": slot.point.penalty,
                "front": slot.front,
                "distance": slot.distance,
            }
            payload = slot.point.payload
            if payload is not None:
                record["payload"] = payload
            records.append(record)
        return records

    def export(self, path) -> None:
        """Columnar snapshot: objectives, feasibility, penalty, rank keys,
        and the design payload."""
        records = self.snapshot()
        fieldnames: list[str] = []
        rows = []
        for record in records:
            payload = record.pop("payload", None)
            row = dict(record)
            if payload is not None:
                row.update(_flatten_payload(payload))
            rows.append(row)
            for key in row:
                if key not in fieldnames:
                    fieldnames.append(key)
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames, delimiter="\t")
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _format_cell(row.get(k, "")) for k in fieldnames})


def _flatten_payload(payload) -> dict:
    if hasattr(payload, "design") and hasattr(payload.design, "to_record"):
        return {"id": getattr(payload, "id", ""), **payload.design.to_record()}
    if hasattr(payload, "to_record"):
        return payload.to_record()
    return {"payload": payload}


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)
