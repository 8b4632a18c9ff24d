"""Independent brute-force oracles used to verify the production code.

Everything here is written from scratch against the same mathematical
definitions, favoring obviousness over speed: fronts are peeled by
repeatedly scanning for points not dominated by any survivor, and the
buffer rank is recomputed from whole cloth for every insertion.  The
evaluation oracles spell a proxy evaluation out step by step: one fuel
batch at a time, a dict of yearly arrays, discount factors recomputed per
call; the package must match them bit for bit.  NSGA-II's variation
operators are kept as they first ran, on numpy float64 scalars clamped
with ``np.clip``; the package's float versions must match their children
and leave the generator in the same state.  The cost engine is kept as
it first ran too: a five-row ledger filled per design and reduced over its
rows before the discounting product; the package's direct yearly totals
must give the same LCOE bytes and reject the same first negative
category.  The constraint report is kept as it first ran: one row record
per constraint, the penalty summed over the rows and feasibility read from
them.  Random search is kept building a point for every design.
"""

import csv
import math
from dataclasses import replace

import numpy as np

from hpmropt.constraints import ConstraintRow
from hpmropt.design_space import (
    FIELD_NAMES,
    STATIC_BOUNDS,
    from_unit_cube,
    resolve_bounds,
    validate,
)
from hpmropt.economics import CATEGORIES
from hpmropt.environment import (
    ProxyModelConfig,
    QoIVector,
    avg_heat_flux,
    burnup,
    power_density,
    u235_mass,
    uranium_mass,
)
from hpmropt.errors import ContractError, EvaluationError
from hpmropt.pareto import (
    DesignPayload,
    ObjectivePoint,
    _associate,
    _feasible_fronts,
    _first_front,
    _niche_order,
    _penalty_runs,
    crowding_distance,
    reference_directions,
)


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


class EagerBuffer:
    """The archive as it was before ranking went lazy: every insert
    re-ranks the whole union, keeps it in ranked order, and stores each
    solution's front and distance.  ``ParetoBuffer`` must match its
    rewards, ``entries``, ``front(k)`` and ``export`` bytes after every
    insert."""

    def __init__(self, capacity=64, metric="crowding", divisions=None):
        self.capacity, self.metric, self.divisions = capacity, metric, divisions
        self.directions = None
        self.slots = []          # [point, seq, front, distance], ranked
        self.seq = 0

    def __len__(self):
        return len(self.slots)

    @property
    def entries(self):
        return [slot[0] for slot in self.slots]

    def front(self, index=0):
        return [slot[0] for slot in self.slots if slot[2] == index]

    def insert(self, point):
        if self.metric == "niching" and self.directions is None:
            self.directions = reference_directions(
                len(point.objectives), self.divisions or max(self.capacity - 1, 1))
        candidate = [point, self.seq, -1, 0.0]
        self.seq += 1
        ordered = self._rank_all(self.slots + [candidate])
        rank = next(i for i, slot in enumerate(ordered) if slot is candidate) + 1
        self.slots = ordered[:self.capacity]
        return -rank

    def _rank_all(self, slots):
        obj = np.array([s[0].objectives for s in slots])
        feas = np.array([s[0].feasible for s in slots], dtype=bool)
        pen = np.array([s[0].penalty for s in slots], dtype=float)
        seq = np.array([s[1] for s in slots])
        fronts = _feasible_fronts(obj, feas)
        niching = self.metric == "niching"
        if niching and any(len(front) > 1 for front in fronts):
            lo, hi = obj[feas].min(axis=0), obj[feas].max(axis=0)
            span = np.where(hi > lo, hi - lo, 1.0)
            normalized = (obj - lo) / span
            normalized[:, hi == lo] = 0.0
            niche = np.zeros(len(slots), dtype=int)
            perp = np.zeros(len(slots))
            niche[feas], perp[feas] = _associate(normalized[feas], self.directions)
            counts = np.zeros(len(self.directions), dtype=int)
        ranked = []
        for front_index, front in enumerate(fronts):
            if not niching or len(front) == 1:
                dist = crowding_distance(obj[front]).tolist()
                ranked.extend((i, front_index, d) for i, d in sorted(
                    zip(front, dist), key=lambda fd: (-fd[1], seq[fd[0]])))
            else:
                order = _niche_order(niche[front], perp[front], seq[front], counts)
                ranked.extend((front[k], front_index, perp[front[k]]) for k in order)
        infeasible = np.flatnonzero(~feas)
        by_rank = infeasible[np.lexsort((seq[infeasible], pen[infeasible]))]
        for front_index, run in enumerate(_penalty_runs(by_rank, pen), len(fronts)):
            ranked.extend((i, front_index, 0.0) for i in run)
        ordered = []
        for i, front_index, dist in ranked:
            slots[i][2], slots[i][3] = front_index, float(dist)
            ordered.append(slots[i])
        return ordered

    def export(self, path):
        rows = []
        for point, _seq, front, distance in self.slots:
            row = {
                **{f"objective_{j}": float(v) for j, v in enumerate(point.objectives)},
                "feasible": point.feasible,
                "penalty": point.penalty,
                "front": front,
                "distance": distance,
            }
            if point.payload is not None:
                row.update({"id": point.payload.id, **point.payload.design.to_record()})
            rows.append(row)
        fieldnames = list(dict.fromkeys(key for row in rows for key in row))
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames, delimiter="\t")
            writer.writeheader()
            for row in rows:
                writer.writerow({k: repr(v) if isinstance(v, float) else str(v)
                                 for k, v in ((k, row.get(k, "")) for k in fieldnames)})


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


def fuel_counts_oracle(interval, n):
    """Batches bought per year, walking batch k = 0, 1, ... to year
    ceil(k * interval) while k * interval < n."""
    counts = [0] * (n + 1)
    k = 0
    while k * interval < n:
        counts[math.ceil(k * interval)] += 1
        k += 1
    return counts


def fuel_row_oracle(interval, n, batch_cost):
    """The fuel row as one addition of ``batch_cost`` per batch."""
    fuel = np.zeros(n + 1)
    k = 0
    while k * interval < n:
        fuel[math.ceil(k * interval)] += batch_cost
        k += 1
    return fuel


def _unit_cube_oracle(design):
    z = np.empty(7)
    for i, name in enumerate(FIELD_NAMES[:5]):
        lo, hi = STATIC_BOUNDS[name]
        z[i] = (getattr(design, name) - lo) / (hi - lo)
    (cr_lo, cr_hi), (mr_lo, mr_hi) = resolve_bounds(design.x_pp)
    z[5] = (design.x_cr - cr_lo) / (cr_hi - cr_lo)
    z[6] = (design.x_mr - mr_lo) / (mr_hi - mr_lo)
    return z


def phi_oracle(spec, x):
    """((x - c) / c)^2 on the violating side of the limit c, else 0."""
    if not math.isfinite(x):
        raise ContractError(f"{spec.name}: non-finite value {x}")
    if spec.kind == "at_most":
        c = spec.limit
        return ((x - c) / c) ** 2 if x > c else 0.0
    if spec.kind == "at_least":
        c = spec.limit
        return ((x - c) / c) ** 2 if x < c else 0.0
    lo, hi = spec.limit
    if x < lo:
        return ((x - lo) / lo) ** 2
    if x > hi:
        return ((x - hi) / hi) ** 2
    return 0.0


class ReportOracle:
    """A constraint report as the package first kept it: its rows, with the
    penalty and feasibility computed from them on every read."""

    def __init__(self, rows):
        self.rows = rows

    @property
    def penalty(self):
        return sum(row.weighted_penalty for row in self.rows)

    @property
    def feasible(self):
        return all(row.satisfied for row in self.rows)


def constraints_oracle(specs, qoi):
    """One ``ConstraintRow`` per constraint, built as the value is read."""
    rows = []
    for spec in specs:
        value = getattr(qoi, spec.qoi)
        if value is None:
            raise ContractError(f"constraint {spec.name}: QoI {spec.qoi!r} not set")
        value = float(value)
        p = phi_oracle(spec, value)
        rows.append(ConstraintRow(spec.name, value, p, spec.weight * p, p == 0.0))
    return ReportOracle(rows)


def evaluate_oracle(design, scenario, config=None):
    """Proxy evaluation the long way: validate, check the calibration, the
    proxy from a dict of scales, a dict of five yearly arrays filled one
    fuel batch at a time, fresh discount factors, and ``replace`` for the
    cost.  Returns (objectives, ReportOracle, QoIVector)."""
    if config is None:
        config = (ProxyModelConfig.from_config(scenario.proxy)
                  if scenario.proxy else ProxyModelConfig())
    problems = validate(design)
    if problems:
        raise EvaluationError("invalid design: " + "; ".join(problems))
    config.require_calibrated()
    dz = _unit_cube_oracle(design) - config.nominal_z
    scale = {k: float(np.exp(config.betas[k] @ dz)) for k in config.betas}
    lifetime = config.anchors["lifetime"] * scale["lifetime"]
    sdm = -config.anchors["sdm_magnitude"] * scale["sdm_magnitude"]
    f_dh = config.anchors["f_dh"] * scale["f_dh"]
    q_avg = avg_heat_flux(design.x_cr, design.x_fh, config.heat_flux_k)
    q_max = q_avg * (1.0 + config.anchors["peaking"] * scale["peaking"])
    mass = uranium_mass(design.x_cr, design.x_fh, config.uranium_mass_coeff)
    qoi = QoIVector(
        lifetime=lifetime, sdm=sdm, f_dh=f_dh, q_max=q_max, q_avg=q_avg,
        uranium_mass=mass, u235_mass=u235_mass(mass, design.x_e),
        burnup=burnup(lifetime, mass, config.thermal_power_mw),
        power_density=power_density(q_avg, design.x_cr, config.power_density_scale),
    )

    econ = scenario.econ
    n = econ.plant_life_years
    flows = {c: np.zeros(n + 1) for c in CATEGORIES}
    interval = min(qoi.lifetime, float(econ.replacement_period_years))
    flows["fuel"] = fuel_row_oracle(interval, n,
                                    qoi.uranium_mass * scenario.fuel_price_per_kgu)
    axial = scenario.axial_reflector_mass(design.x_fh) * scenario.axial_reflector_price_per_kg
    drums = scenario.drum_reflector_mass(design.x_ca) * scenario.drum_reflector_price_per_kg
    absorber = scenario.absorber_mass(design.x_ca) * scenario.absorber_unit_price(design.x_b10)
    flows["reflector"][0] += axial
    flows["reactivity_control"][0] += drums + absorber
    flows["capital"][0] += scenario.fixed_direct_capital
    for t in range(econ.replacement_period_years, n, econ.replacement_period_years):
        flows["reflector"][t] += scenario.replacement_fraction * axial
        flows["reactivity_control"][t] += scenario.replacement_fraction * (drums + absorber)
    flows["o_and_m"][1:] = scenario.annual_om
    for values in flows.values():
        assert not np.any(values < 0)

    disc = (1.0 + econ.discount_rate) ** -np.arange(n + 1)
    total = np.sum([flows[c] for c in flows], axis=0)
    cost = float(total @ disc) / float(econ.annual_energy_mwh * disc.sum())
    qoi = replace(qoi, lcoe=cost)
    report = constraints_oracle(scenario.constraints, qoi)
    return np.array([qoi.lcoe, qoi.f_dh]), report, qoi


def sbx_pair_oracle(a, b, eta, rng):
    """Simulated binary crossover on numpy float64 scalars, clamped with
    ``np.clip``: the operator as NSGA-II first ran it."""
    child1, child2 = a.copy(), b.copy()
    for i in range(len(a)):
        if rng.random() > 0.5 or abs(a[i] - b[i]) < 1e-14:
            continue
        y1, y2 = min(a[i], b[i]), max(a[i], b[i])
        span = y2 - y1
        u = rng.random()
        beta = 1.0 + 2.0 * y1 / span
        alpha = 2.0 - beta ** -(eta + 1.0)
        if u <= 1.0 / alpha:
            beta_q = (u * alpha) ** (1.0 / (eta + 1.0))
        else:
            beta_q = (1.0 / (2.0 - u * alpha)) ** (1.0 / (eta + 1.0))
        c1 = 0.5 * (y1 + y2 - beta_q * span)
        beta = 1.0 + 2.0 * (1.0 - y2) / span
        alpha = 2.0 - beta ** -(eta + 1.0)
        if u <= 1.0 / alpha:
            beta_q = (u * alpha) ** (1.0 / (eta + 1.0))
        else:
            beta_q = (1.0 / (2.0 - u * alpha)) ** (1.0 / (eta + 1.0))
        c2 = 0.5 * (y1 + y2 + beta_q * span)
        c1, c2 = np.clip(c1, 0.0, 1.0), np.clip(c2, 0.0, 1.0)
        if rng.random() < 0.5:
            c1, c2 = c2, c1
        child1[i], child2[i] = c1, c2
    return child1, child2


def polynomial_mutation_oracle(genome, prob, eta, rng):
    """Polynomial mutation on numpy float64 scalars, clamped with
    ``np.clip``: the operator as NSGA-II first ran it."""
    mutant = genome.copy()
    for i in range(len(genome)):
        if rng.random() >= prob:
            continue
        y = mutant[i]
        u = rng.random()
        if u < 0.5:
            delta = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - y) ** (eta + 1.0)) \
                ** (1.0 / (eta + 1.0)) - 1.0
        else:
            delta = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * y ** (eta + 1.0)) \
                ** (1.0 / (eta + 1.0))
        mutant[i] = np.clip(y + delta, 0.0, 1.0)
    return mutant


def ledger_oracle(design, qoi, scenario, econ=None):
    """The yearly ledger as the cost engine first filled it for each design:
    a (5, n + 1) array of zeros, the fuel row written one purchase year at a
    time, the equipment and O&M rows by slices, then every row checked.
    Raises ``ContractError`` naming the first category with a negative
    flow; NaN flows pass."""
    econ = econ or scenario.econ
    if qoi.lifetime is None or not qoi.lifetime > 0:
        raise ContractError(f"fuel lifetime must be positive, got {qoi.lifetime}")
    n = econ.plant_life_years
    ledger = np.zeros((len(CATEGORIES), n + 1))
    flows = dict(zip(CATEGORIES, ledger))
    batch_cost = qoi.uranium_mass * scenario.fuel_price_per_kgu
    interval = min(qoi.lifetime, float(econ.replacement_period_years))
    if not n / interval <= 2.0**53:
        raise ContractError("fuel lifetime is too small")
    fuel, below_n, k = flows["fuel"], math.nextafter(n, 0.0), 0
    while k * interval < n:
        year = math.ceil(k * interval)
        t = year if year < n else below_n
        end = k + 1
        if end * interval <= t:
            end = math.floor(t / interval) + 1
            while (end - 1) * interval > t:
                end -= 1
            while end * interval <= t:
                end += 1
        fuel[year] = (end - k) * batch_cost
        k = end
    axial = scenario.axial_reflector_mass(design.x_fh) * scenario.axial_reflector_price_per_kg
    drums = scenario.drum_reflector_mass(design.x_ca) * scenario.drum_reflector_price_per_kg
    absorber = scenario.absorber_mass(design.x_ca) * scenario.absorber_unit_price(design.x_b10)
    flows["reflector"][0] = axial
    flows["reactivity_control"][0] = drums + absorber
    flows["capital"][0] = scenario.fixed_direct_capital
    period = econ.replacement_period_years
    flows["reflector"][period:n:period] = scenario.replacement_fraction * axial
    flows["reactivity_control"][period:n:period] = \
        scenario.replacement_fraction * (drums + absorber)
    flows["o_and_m"][1:] = scenario.annual_om
    for category, values in flows.items():
        if np.any(values < 0):
            raise ContractError(f"category {category}: negative flow")
    return ledger


def ledger_lcoe_oracle(design, qoi, scenario, econ=None):
    """LCOE from ``ledger_oracle``: the ledger summed over its rows, then
    one 61-term product with the discount factors."""
    econ = econ or scenario.econ
    ledger = ledger_oracle(design, qoi, scenario, econ)
    numerator = float(np.add.reduce(ledger, axis=0) @ econ._discount)
    return numerator / econ._discounted_energy


def random_search_oracle(evaluator, evaluations, seed=0):
    """Random search building an ``ObjectivePoint``, a payload and an id for
    every design, as it first ran."""
    rng = np.random.default_rng(seed)
    feasible, best_infeasible = [], None
    for step in range(evaluations):
        design = from_unit_cube(rng.random(7))
        objectives, report, _ = evaluator.evaluate(design)
        point = ObjectivePoint(
            objectives=objectives,
            feasible=report.feasible,
            penalty=0.0 if report.feasible else report.penalty,
            payload=DesignPayload(id=f"rs-{step}", design=design),
        )
        if point.feasible:
            feasible.append(point)
        elif best_infeasible is None or point.penalty < best_infeasible.penalty:
            best_infeasible = point
    if not feasible:
        return [] if best_infeasible is None else [best_infeasible]
    return [feasible[i] for i in _first_front(feasible)]
