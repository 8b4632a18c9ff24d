"""Operational constraint set and the quadratic relative-violation penalty.

Each constraint compares one quantity of interest against a limit.  The
penalty for a violated constraint is the squared relative excursion from the
limit, which is sign-safe for negative limits (the shutdown margin) and
continuous at the boundary.  Aggregate penalty is the weighted sum over all
constraints; a design is feasible exactly when the aggregate is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError, ContractError, NormalizationError, _is_number

DEFAULT_WEIGHT = 10_000.0

KINDS = ("at_most", "at_least", "range")

# The quantities a scenario file's constraint may name: the fields of
# ``environment.QoIVector``, which asserts that the two agree.
QOI_NAMES = ("lifetime", "sdm", "f_dh", "q_max", "q_avg", "uranium_mass",
             "u235_mass", "burnup", "power_density", "lcoe", "itc", "extrapolated")


@dataclass(frozen=True)
class ConstraintSpec:
    """A single limit on a quantity of interest.

    kind "at_most"  : satisfied when x <= limit
    kind "at_least" : satisfied when x >= limit
    kind "range"    : satisfied when limit[0] <= x <= limit[1]
    """

    name: str
    qoi: str
    kind: str
    limit: float | tuple
    weight: float = DEFAULT_WEIGHT

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractError(f"{self.name}: unknown constraint kind {self.kind!r}")
        # `not >` also rejects a NaN weight
        if not self.weight > 0:
            raise ContractError(f"{self.name}: weight must be positive")
        if self.kind == "range":
            lo, hi = self.limit
            if not lo < hi:
                raise ContractError(f"{self.name}: range limits must satisfy lo < hi")
            if lo == 0 or hi == 0:
                raise NormalizationError(f"{self.name}: range limit has a zero endpoint")
        elif self.limit == 0:
            raise NormalizationError(f"{self.name}: zero limit")


def phi(spec: ConstraintSpec, x: float) -> float:
    """Relative-violation measure: ((x - c) / c)^2 on the violating side, else 0.

    For a range constraint the violated endpoint plays the role of c.
    """
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


@dataclass
class ConstraintRow:
    name: str
    value: float
    phi: float
    weighted_penalty: float
    satisfied: bool


@dataclass
class ConstraintReport:
    """One row per constraint, and the aggregate penalty and feasibility.

    A report built from ``rows`` sums them on every read.  The report
    ``evaluate_constraints`` returns keeps the penalty and feasibility its
    loop computed, in the order the rows would sum them, and builds its
    rows from the same values on first read (``hpmropt evaluate``,
    ``repr``, ``==``): until then the instance has no ``rows`` and
    ``__getattr__`` builds them.
    """

    rows: list = field(default_factory=list)

    # (specs, values, phis) of a report from evaluate_constraints
    _loop = None

    @classmethod
    def _from_loop(cls, specs, values: list, phis: list, penalty: float,
                   feasible: bool) -> "ConstraintReport":
        report = object.__new__(cls)
        report._loop = (specs, values, phis)
        report._penalty = penalty
        report._feasible = feasible
        return report

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks
        if name != "rows" or self._loop is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        specs, values, phis = self._loop
        self.rows = [ConstraintRow(spec.name, value, p, spec.weight * p, p == 0.0)
                     for spec, value, p in zip(specs, values, phis)]
        return self.rows

    @property
    def penalty(self) -> float:
        if self._loop is None:
            return sum(row.weighted_penalty for row in self.rows)
        return self._penalty

    @property
    def feasible(self) -> bool:
        if self._loop is None:
            return all(row.satisfied for row in self.rows)
        return self._feasible


def evaluate_constraints(specs, qoi) -> ConstraintReport:
    """Evaluate every constraint against a QoI bundle.

    ``qoi`` may be any object exposing the constrained quantities as
    attributes (or a mapping).  A missing quantity is a contract error
    naming the constraint.  The penalty is summed in constraint order from
    0, as ``ConstraintReport.penalty`` sums its rows; the rows themselves
    are built only when read.
    """
    mapping = isinstance(qoi, dict)
    if type(specs) is not tuple:
        specs = tuple(specs)   # kept for the rows, so fixed now
    values, phis = [], []
    penalty, feasible = 0, True
    for spec in specs:
        if mapping:
            if spec.qoi not in qoi:
                raise ContractError(f"constraint {spec.name}: missing QoI {spec.qoi!r}")
            value = qoi[spec.qoi]
        else:
            try:
                value = getattr(qoi, spec.qoi)
            except AttributeError as exc:
                raise ContractError(
                    f"constraint {spec.name}: missing QoI {spec.qoi!r}"
                ) from exc
        if value is None:
            raise ContractError(f"constraint {spec.name}: QoI {spec.qoi!r} not set")
        value = float(value)
        p = phi(spec, value)
        values.append(value)
        phis.append(p)
        penalty += spec.weight * p
        feasible = feasible and p == 0.0
    return ConstraintReport._from_loop(specs, values, phis, penalty, feasible)


def default_constraints() -> list[ConstraintSpec]:
    """The shipped constraint set: peak heat flux, peaking factor, shutdown
    margin (negative limit, larger margin = more negative), fuel lifetime
    window tied to the 10-year equipment replacement cycle."""
    return [
        ConstraintSpec("peak-heat-flux", qoi="q_max", kind="at_most", limit=0.025),
        ConstraintSpec("peaking-factor", qoi="f_dh", kind="at_most", limit=1.47),
        ConstraintSpec("shutdown-margin", qoi="sdm", kind="at_most", limit=-6700.0),
        ConstraintSpec("fuel-lifetime", qoi="lifetime", kind="range", limit=(6.0, 10.40)),
    ]


def constraints_from_config(records) -> list[ConstraintSpec]:
    """Build a constraint set from scenario-file records.

    A ``qoi`` must be one of ``QOI_NAMES``, a ``limit`` a finite number, or
    a pair of finite numbers for a range, and a ``weight`` a finite positive
    number.  Those, and every record ``ConstraintSpec`` rejects, raise
    ``ConfigError`` naming the constraint and the key.
    """
    specs = []
    for rec in records:
        name, kind, limit = rec["name"], rec["kind"], rec["limit"]
        if rec["qoi"] not in QOI_NAMES:
            raise ConfigError(f"constraint {name}: qoi must be one of "
                              f"{', '.join(QOI_NAMES)}; got {rec['qoi']!r}")
        if kind == "range":
            if not (isinstance(limit, (list, tuple)) and len(limit) == 2
                    and all(map(_is_number, limit))):
                raise ConfigError(f"constraint {name}: limit must be a pair of finite "
                                  f"numbers for a range, got {limit!r}")
            limit = (float(limit[0]), float(limit[1]))
        else:
            if not _is_number(limit):
                raise ConfigError(f"constraint {name}: limit must be a finite number, "
                                  f"got {limit!r}")
            limit = float(limit)
        weight = rec.get("weight", DEFAULT_WEIGHT)
        if not (_is_number(weight) and weight > 0):
            raise ConfigError(f"constraint {name}: weight must be a finite positive "
                              f"number, got {weight!r}")
        try:
            specs.append(ConstraintSpec(name=name, qoi=rec["qoi"], kind=kind,
                                        limit=limit, weight=float(weight)))
        except (ContractError, NormalizationError) as exc:
            raise ConfigError(f"constraint {exc}") from exc
    return specs
