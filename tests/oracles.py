"""Independent brute-force oracles used to verify the production code.

Everything here is written from scratch against the same mathematical
definitions, favoring obviousness over speed: fronts are peeled by
repeatedly scanning for points not dominated by any survivor, and the
buffer rank is recomputed from whole cloth for every insertion.
"""

import numpy as np


def dominates_oracle(obj_a, feas_a, pen_a, obj_b, feas_b, pen_b):
    if feas_a and not feas_b:
        return True
    if not feas_a and feas_b:
        return False
    if not feas_a and not feas_b:
        return pen_a < pen_b
    no_worse = all(x <= y for x, y in zip(obj_a, obj_b))
    better = any(x < y for x, y in zip(obj_a, obj_b))
    return no_worse and better


def fronts_oracle(objectives, feasible=None, penalty=None):
    """O(n^3) front peeling: repeatedly keep points no survivor dominates.

    The dominance checks inside each peel are recomputed from scratch over
    the survivors (that is the brute force); the pairwise comparisons
    themselves use array arithmetic for speed.
    """
    n = len(objectives)
    obj = np.asarray(objectives, dtype=float)
    feas = np.ones(n, dtype=bool) if feasible is None else np.asarray(feasible, bool)
    pen = np.zeros(n) if penalty is None else np.asarray(penalty, dtype=float)
    remaining = list(range(n))
    fronts = []
    while remaining:
        idx = np.array(remaining)
        o, f, q = obj[idx], feas[idx], pen[idx]
        le = np.all(o[:, None, :] <= o[None, :, :], axis=-1)
        lt = np.any(o[:, None, :] < o[None, :, :], axis=-1)
        dom = ((f[:, None] & f[None, :]) & le & lt) \
            | (f[:, None] & ~f[None, :]) \
            | ((~f[:, None] & ~f[None, :]) & (q[:, None] < q[None, :]))
        undominated = ~dom.any(axis=0)
        front = idx[undominated].tolist()
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


def nondominated_filter_oracle(objectives):
    """Pairwise filter: the unique rows no other row dominates, in
    lexicographic order."""
    objectives = np.unique(np.atleast_2d(np.asarray(objectives, dtype=float)), axis=0)
    keep = []
    for i, candidate in enumerate(objectives):
        dominated = np.any(
            np.all(objectives <= candidate, axis=1)
            & np.any(objectives < candidate, axis=1)
        )
        if not dominated:
            keep.append(i)
    return objectives[keep]


def crowding_oracle(objectives):
    """Textbook crowding distance with per-objective span normalization."""
    obj = np.asarray(objectives, dtype=float)
    n, n_obj = obj.shape
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    for j in range(n_obj):
        order = sorted(range(n), key=lambda i: (obj[i, j], i))
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        span = obj[order[-1], j] - obj[order[0], j]
        if span == 0:
            continue
        for pos in range(1, n - 1):
            dist[order[pos]] += (obj[order[pos + 1], j] - obj[order[pos - 1], j]) / span
    return dist


def niching_oracle(normalized, directions, counts=None, seq=None):
    """Niche-preserving selection order, recomputing the niche census after
    every single pick."""
    normalized = np.asarray(normalized, dtype=float)
    directions = np.asarray(directions, dtype=float)
    counts = [0] * len(directions) if counts is None else list(counts)
    seq = list(range(len(normalized))) if seq is None else list(seq)

    # association is plain formula evaluation; only the census loop below
    # carries the niche-preservation semantics
    unit = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    proj = normalized @ unit.T
    dists = np.linalg.norm(
        normalized[:, None, :] - proj[:, :, None] * unit[None, :, :], axis=-1)
    assoc = []
    for row in dists:
        best = min(range(len(directions)), key=lambda k: (row[k], k))
        assoc.append((best, float(row[best])))

    unpicked = list(range(len(normalized)))
    order = []
    while unpicked:
        live = sorted({assoc[i][0] for i in unpicked})
        target = min(live, key=lambda nj: (counts[nj], nj))
        pool = [i for i in unpicked if assoc[i][0] == target]
        choice = min(pool, key=lambda i: (assoc[i][1], seq[i]))
        order.append(choice)
        unpicked.remove(choice)
        counts[target] += 1
    return order, counts


def buffer_rank_oracle(history, new_point, metric, directions=None):
    """Full re-ranking of ``history + [new_point]``; returns the 1-based
    rank of the new point and the ranked order of indices.

    Each element is (objectives, feasible, penalty, seq) where ``seq`` is
    the true insertion sequence number, the tie-break key (older first).
    """
    points = list(history) + [new_point]
    objectives = [p[0] for p in points]
    feasible = [p[1] for p in points]
    penalty = [p[2] for p in points]
    seq = [p[3] for p in points]
    fronts = fronts_oracle(objectives, feasible, penalty)

    feas_obj = np.array([objectives[i] for i in range(len(points)) if feasible[i]])
    if len(feas_obj):
        lo, hi = feas_obj.min(axis=0), feas_obj.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)

    counts = None if directions is None else [0] * len(directions)
    order = []
    for front in fronts:
        if not feasible[front[0]]:
            order.extend(sorted(front, key=lambda i: seq[i]))
            continue
        if metric == "crowding" or len(front) == 1:
            dist = crowding_oracle([objectives[i] for i in front])
            ranked = sorted(zip(front, dist), key=lambda t: (-t[1], seq[t[0]]))
            order.extend(i for i, _ in ranked)
        else:
            normalized = np.array(
                [(np.asarray(objectives[i]) - lo) / span for i in front]
            )
            normalized[:, hi == lo] = 0.0
            sub_order, counts = niching_oracle(
                normalized, directions, counts, seq=[seq[i] for i in front])
            order.extend(front[k] for k in sub_order)
    rank = order.index(len(points) - 1) + 1
    return rank, order


def hypervolume_mc(front, reference, samples, rng):
    """Monte Carlo estimate of the dominated area, with its std error."""
    front = np.asarray(front, dtype=float)
    reference = np.asarray(reference, dtype=float)
    lower = front.min(axis=0)
    box = np.prod(reference - lower)
    pts = lower + rng.random((samples, 2)) * (reference - lower)
    hit = np.zeros(samples, dtype=bool)
    for p in front:
        hit |= np.all(pts >= p, axis=1)
    frac = hit.mean()
    stderr = box * np.sqrt(frac * (1 - frac) / samples)
    return box * frac, stderr
