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
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import ContractError, _is_integer

METRICS = ("crowding", "niching")

_FLOAT64 = np.dtype(float)


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
        self.objectives = _checked_objectives(self.objectives, self.feasible,
                                              self.penalty)


def _checked_objectives(objectives, feasible, penalty) -> np.ndarray:
    """The objectives an ``ObjectivePoint`` of these fields keeps, after the
    checks it makes; a caller that builds no point can still check one."""
    # a 1-D float64 array is kept as it is, the same object; anything else
    # is converted as np.atleast_1d(np.asarray(x, dtype=float))
    if type(objectives) is not np.ndarray or objectives.dtype is not _FLOAT64 \
            or objectives.ndim != 1:
        objectives = np.atleast_1d(np.asarray(objectives, dtype=float))
    if not all(map(math.isfinite, objectives.ravel().tolist())):
        raise ContractError(f"non-finite objectives: {objectives}")
    if objectives.ndim != 1:
        raise ContractError(f"objectives must be 1-D, got shape {objectives.shape}")
    if not penalty >= 0:
        raise ContractError("penalty must be non-negative")
    if feasible != (penalty == 0.0):
        raise ContractError("penalty must be zero exactly for feasible points")
    return objectives


@dataclass(frozen=True)
class DesignPayload:
    """What a point carries besides its objectives: an identifier and the
    decoded design (``None`` when unknown)."""

    id: str
    design: Any


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
    """Objectives, feasibility and penalties of a non-empty sequence of
    points, or of an (n, n_obj) array of feasible objective rows.

    Sorting supports one or two objectives."""
    if isinstance(points, np.ndarray):
        obj = points
        feas, pen = np.ones(len(obj), dtype=bool), np.zeros(len(obj))
    else:
        obj = np.array([p.objectives for p in points])
        feas = np.array([p.feasible for p in points], dtype=bool)
        pen = np.array([p.penalty for p in points], dtype=float)
    if obj.shape[1] > 2:
        raise ContractError(
            f"non-dominated sorting supports one or two objectives, got {obj.shape[1]}")
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


def _first_front(points) -> list[int]:
    """Front 0 of ``points`` in lexicographic objective order, each exact
    duplicate (same objectives and feasibility) collapsed to its earliest
    occurrence.

    ``points`` is a sequence of points or an (n, n_obj) array of feasible
    objective rows.  With any feasible point, front 0 is the non-dominated
    feasible set; otherwise it is every point of the least penalty.
    """
    if len(points) == 0:
        return []
    obj, feas, pen = _point_arrays(points)
    if feas.any():
        members = np.flatnonzero(feas)
        front = _sweep_fronts(obj[members])[0]
    else:
        members = np.flatnonzero(pen == pen.min())
        front = np.lexsort(obj[members].T[::-1]).tolist()
    # both orders are stable: duplicates arrive adjacent, earliest first
    rows = obj[members].tolist()
    kept = front[:1] + [i for prev, i in zip(front, front[1:]) if rows[i] != rows[prev]]
    return members[kept].tolist()


def merge_fronts(agent_fronts) -> list[ObjectivePoint]:
    """Non-dominated union of per-agent first fronts.

    Exact duplicates in objective space collapse to the earliest occurrence
    so merged fronts stay strictly ordered along each objective.  The
    result keeps pool order: agent by agent, each front in its own order.
    """
    pool = [point for front in agent_fronts for point in front]
    kept = np.zeros(len(pool), dtype=bool)
    kept[_first_front(pool)] = True
    return [point for point, keep in zip(pool, kept) if keep]


def _feasible_fronts(obj, feas) -> list[list[int]]:
    """Fronts of the feasible points by objective dominance, each in
    ascending index order."""
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
    """NSGA-II crowding distance for one mutually non-dominated front, over
    its distinct rows (Fortin & Parizeau 2013).

    Exact duplicate rows ("twins") count once, and each twin gets its row's
    distance.  Over the distinct rows, boundary rows get +inf and interior
    rows accumulate span-normalized neighbor gaps per objective; rows tied
    in one objective are ordered lexicographically.  A zero-span objective
    contributes nothing, and two or fewer distinct rows are all boundary.
    The result depends only on the rows, not on their order.  ``front`` is
    a sequence of points or objective rows, or an (n, n_obj) array.
    """
    obj = front if isinstance(front, np.ndarray) and front.ndim == 2 else np.vstack([
        p.objectives if isinstance(p, ObjectivePoint) else np.atleast_1d(p)
        for p in front
    ])
    n, n_obj = obj.shape
    if n <= 2:
        return np.full(n, np.inf)
    # lexicographic order sorts objective 0 and puts twins side by side
    lex = np.lexsort(obj.T[::-1])
    rows = obj[lex]
    row_of = slice(None)                  # each row is distinct
    if (rows[1:, 0] == rows[:-1, 0]).any():
        # keep each distinct row once
        distinct = np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))
        rows = rows[distinct]
        row_of = np.cumsum(distinct) - 1
    distances = np.full(len(rows), np.inf)
    span = rows[-1, 0] - rows[0, 0]
    distances[1:-1] = (rows[2:, 0] - rows[:-2, 0]) / span if span > 0 else 0.0
    for j in range(1, n_obj):
        # a stable sort keeps the lexicographic order of rows tied in
        # objective j
        order = np.argsort(rows[:, j], kind="stable")
        column = rows[order, j]
        distances[order[0]] = distances[order[-1]] = np.inf
        span = column[-1] - column[0]
        if span > 0:
            distances[order[1:-1]] += (column[2:] - column[:-2]) / span
    out = np.empty(n)
    out[lex] = distances[row_of]
    return out


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


class _Ranking:
    """What one insert knows about the order of its union.

    The union is the buffer's rows ``0 .. size-1``, held in no particular
    order; the ranking keeps views of the buffer's arrays and its list of
    infeasible rows, not the buffer.  The feasible fronts come from one
    sweep; a front's ordering (best first) and the one normalization and
    association that niching orderings share are computed at most once,
    when first asked for.  A feasible insert asks for the candidate's front
    and the last one; the full order is assembled only when the buffer is
    read, by a new ranking of the same rows.
    """

    def __init__(self, buffer: "ParetoBuffer", size: int):
        self.metric, self.directions = buffer.metric, buffer.directions
        self.obj, self.feas = buffer._obj[:size], buffer._feas[:size]
        self.pen, self.seq = buffer._pen[:size], buffer._seq[:size]
        self.infeasible = buffer._infeasible
        members = np.flatnonzero(self.feas)
        self.fronts: list[list[int]] = []
        if len(members):
            rows = members.tolist()
            # each front in lexicographic objective order: exact duplicates
            # are adjacent
            self.fronts = [[rows[i] for i in front]
                           for front in _sweep_fronts(self.obj[members])]
        self._orders: dict[int, tuple[list[int], list[float]]] = {}
        self._association = None

    def _associate(self):
        if self._association is None:
            obj = self.obj[self.feas]
            # every feasible row of the union, the evicted one included, and
            # never a single row: that product takes another BLAS path than
            # the larger ones and can differ in the last bit
            lo, hi = obj.min(axis=0), obj.max(axis=0)
            span = np.where(hi > lo, hi - lo, 1.0)
            normalized = (obj - lo) / span
            normalized[:, hi == lo] = 0.0
            niche = np.zeros(len(self.obj), dtype=int)
            perp = np.zeros(len(self.obj))
            niche[self.feas], perp[self.feas] = _associate(normalized, self.directions)
            self._association = niche, perp
        return self._association

    def order(self, k: int) -> tuple[list[int], list[float]]:
        """Rows of feasible front ``k``, best first, and their distances."""
        if k in self._orders:
            return self._orders[k]
        front = self.fronts[k]
        if self.metric == "crowding" or len(front) == 1:
            rows = np.array(front)
            dist = crowding_distance(self.obj[rows])
            # twins share their distance and follow by age
            best = np.lexsort((self.seq[rows], -dist))
            ordered = rows[best].tolist(), dist[best].tolist()
        else:
            niche, perp = self._associate()
            # every member of an earlier niching front was picked before
            # this front starts; single-member fronts were crowding-ranked
            earlier = [r for f in self.fronts[:k] if len(f) > 1 for r in f]
            counts = np.bincount(niche[earlier], minlength=len(self.directions))
            picks = _niche_order(niche[front], perp[front], self.seq[front], counts)
            rows = [front[i] for i in picks]
            ordered = rows, perp[rows].tolist()
        self._orders[k] = ordered
        return ordered

    def rank(self, row: int) -> int:
        """1-based rank of feasible ``row`` in the union."""
        k = next(k for k, front in enumerate(self.fronts) if row in front)
        return sum(map(len, self.fronts[:k])) + self.order(k)[0].index(row) + 1

    def last(self) -> int:
        """The last row of the last feasible front."""
        return self.order(len(self.fronts) - 1)[0][-1]

    def full(self) -> list[tuple[int, int, float]]:
        """(row, front, distance) for every row of the union, best first."""
        ranked = []
        for k in range(len(self.fronts)):
            rows, dist = self.order(k)
            ranked.extend(zip(rows, [k] * len(rows), dist))
        # infeasible rows follow in the buffer's rank order, one front per
        # penalty
        by_rank = np.array([row for _, _, row in self.infeasible], dtype=int)
        for k, run in enumerate(_penalty_runs(by_rank, self.pen), len(self.fronts)):
            ranked.extend((row, k, 0.0) for row in run)
        return ranked


class ParetoBuffer:
    """Bounded archive of ranked solutions with rank-based rewards.

    One buffer has exactly one owner; insertions are strictly sequential.
    ``metric`` selects the within-front diversity ordering.  For niching,
    the reference lattice has ``divisions`` divisions, by default one
    direction per buffer slot (capacity - 1), and is built lazily once the
    objective dimension is known.

    The solutions live in columnar arrays of ``capacity + 1`` rows in no
    particular order; the row an insert evicts takes the next candidate.
    An insert computes only the candidate's rank and the row that drops
    out.  The ranked order of the held solutions, their fronts and their
    distances are built from that insert's state when first read.

    The union's infeasible rows are also kept as a ``(penalty, seq, row)``
    list in rank order, next to a count of its feasible rows.  An
    infeasible candidate ranks behind every feasible row, by bisection in
    that list, and the row it evicts is the list's last: it needs no
    ranking of the feasible rows at all.
    """

    def __init__(self, capacity: int = 64, metric: str = "crowding",
                 divisions: int | None = None):
        if not _is_integer(capacity):
            raise ContractError(f"capacity must be an integer, got {capacity!r}")
        if capacity < 1:
            raise ContractError("capacity must be at least 1")
        if metric not in METRICS:
            raise ContractError(f"unknown distance metric {metric!r}")
        if divisions is not None and not (_is_integer(divisions) and divisions >= 1):
            raise ContractError(f"divisions must be an integer >= 1, got {divisions!r}")
        self.capacity = capacity
        self.metric = metric
        self.directions: np.ndarray | None = None
        self.divisions = divisions
        self._obj: np.ndarray | None = None
        self._feas = np.zeros(capacity + 1, dtype=bool)
        self._pen = np.zeros(capacity + 1)
        self._seq = np.zeros(capacity + 1, dtype=np.int64)
        self._points: list[ObjectivePoint | None] = [None] * (capacity + 1)
        self._infeasible: list[tuple[float, int, int]] = []   # (penalty, seq, row)
        self._n_feasible = 0              # feasible rows in the last insert's union
        self._size = 0                    # rows in the last insert's union
        self._evicted: int | None = None  # the row that union dropped
        self._ranked: list[tuple[int, int, float]] | None = None
        self._next_seq = 0

    def __len__(self) -> int:
        return self._size - (self._evicted is not None)

    def _start(self, n_obj: int):
        """Check the first point's dimension and allocate the objectives."""
        if not 1 <= n_obj <= 2:
            raise ContractError(
                f"non-dominated sorting supports one or two objectives, got {n_obj}")
        if self.metric == "niching":
            divisions = self.divisions if self.divisions is not None \
                else max(self.capacity - 1, 1)
            self.directions = reference_directions(n_obj, divisions)
        self._obj = np.zeros((self.capacity + 1, n_obj))

    def insert(self, point: ObjectivePoint) -> int:
        """Rank ``point`` against the held solutions, keep the best
        ``capacity`` of the union, and return ``-rank`` (rank is 1-based)."""
        if self._obj is None:
            self._start(len(point.objectives))
        elif point.objectives.shape != self._obj.shape[1:]:
            raise ContractError(
                f"mixed objective dimensions: {point.objectives.shape} vs "
                f"{self._obj.shape[1:]}")
        infeasible = self._infeasible
        if self._evicted is None:
            row = self._size
            self._size += 1
        else:
            row = self._evicted
            # an evicted infeasible row was the list's last
            if infeasible and infeasible[-1][2] == row:
                infeasible.pop()
            else:
                self._n_feasible -= 1
        seq = self._next_seq
        self._obj[row] = point.objectives
        self._feas[row] = point.feasible
        self._pen[row] = point.penalty
        self._seq[row] = seq
        self._points[row] = point
        self._next_seq += 1

        if point.feasible:
            self._n_feasible += 1
            ranking = _Ranking(self, self._size)
            rank = ranking.rank(row)
        else:
            # behind every feasible row and every held row of its penalty
            # or less; as the newest, it goes after them in the list
            penalty = float(point.penalty)
            k = bisect_right(infeasible, (penalty, math.inf))
            infeasible.insert(k, (penalty, seq, row))
            rank = self._n_feasible + k + 1
        if self._size <= self.capacity:
            self._evicted = None
        elif infeasible:
            self._evicted = infeasible[-1][2]
        else:
            self._evicted = ranking.last()
        self._ranked = None
        return -rank

    def _order(self) -> list[tuple[int, int, float]]:
        """(row, front, distance) of every held solution, best first."""
        if self._ranked is None:
            # a ranking held from insert to insert would keep small objects
            # alive across evaluations and fragment the allocator's heap
            self._ranked = [] if not self._size else [
                entry for entry in _Ranking(self, self._size).full()
                if entry[0] != self._evicted]
        return self._ranked

    @property
    def entries(self) -> list[ObjectivePoint]:
        return [self._points[row] for row, _, _ in self._order()]

    def front(self, index: int = 0) -> list[ObjectivePoint]:
        """Points of the given non-domination front (0 = best)."""
        return [self._points[row] for row, front, _ in self._order() if front == index]

    def export(self, path) -> None:
        """Columnar snapshot: objectives, feasibility, penalty, rank keys,
        and the design payload."""
        rows = []
        for row, front, distance in self._order():
            point = self._points[row]
            record = {
                **{f"objective_{j}": float(v) for j, v in enumerate(point.objectives)},
                "feasible": point.feasible,
                "penalty": point.penalty,
                "front": front,
                "distance": distance,
            }
            if point.payload is not None:
                record.update({"id": point.payload.id, **point.payload.design.to_record()})
            rows.append(record)
        fieldnames = list(dict.fromkeys(key for row in rows for key in row))
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames, delimiter="\t")
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _format_cell(row.get(k, "")) for k in fieldnames})


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)
