"""Operational constraint set and the quadratic relative-violation penalty.

Each constraint compares one quantity of interest against a limit.  The
penalty for a violated constraint is the squared relative excursion from the
limit, which is sign-safe for negative limits (the shutdown margin) and
continuous at the boundary.  Aggregate penalty is the weighted sum over all
constraints; a design is feasible exactly when the aggregate is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

from .errors import (NUMBER, POSITIVE, STRING, ConfigError, ContractError,
                     NormalizationError, check, list_of, one_of, reject_unknown)

DEFAULT_WEIGHT = 10_000.0

KINDS = ("at_most", "at_least", "range")

# The quantities a scenario file's constraint may name: the fields of
# ``environment.QoIVector``, which asserts that the two agree.
QOI_NAMES = ("lifetime", "sdm", "f_dh", "q_max", "q_avg", "uranium_mass",
             "u235_mass", "burnup", "power_density", "lcoe", "itc")


# The least weight whose penalty for the least violation does not round to
# 0.0, so that no infeasible design reads a zero penalty.  The least phi is
# 2**-106, one ulp short of an at_least limit of a power of two; 2**-969
# times it rounds to 0.0.
_MIN_WEIGHT = 2.0 ** -968

SPEC_RULES = {"name": STRING, "qoi": STRING, "kind": one_of(*KINDS),
              "weight": (f"a finite number of at least 2**-968 ({_MIN_WEIGHT:.4g})",
                         lambda v: POSITIVE[1](v) and v >= _MIN_WEIGHT)}


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
        where, pair = f"{self.name}: ", self.kind == "range"
        check(self, {**SPEC_RULES, "limit": list_of(NUMBER, 2) if pair else NUMBER}, where,
              ContractError)
        limit = tuple(map(float, self.limit)) if pair else float(self.limit)
        if pair and not limit[0] < limit[1]:
            raise ContractError(f"{where}range limits must satisfy lo < hi")
        if 0 in (limit if pair else (limit,)):
            raise NormalizationError(f"{where}zero limit {self.limit!r}")
        object.__setattr__(self, "limit", limit)   # floats, and a tuple for a range


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
    """What ``evaluate_constraints`` computed: the specs it was given, each
    constraint's value and phi, and the aggregate penalty and feasibility.
    The rows (``hpmropt evaluate``) are built from those on first read."""

    specs: tuple
    values: list
    phis: list
    penalty: float
    feasible: bool

    @cached_property
    def rows(self) -> list[ConstraintRow]:
        return [ConstraintRow(spec.name, value, p, spec.weight * p, p == 0.0)
                for spec, value, p in zip(self.specs, self.values, self.phis)]


def evaluate_constraints(specs, qoi) -> ConstraintReport:
    """Evaluate every constraint against a QoI bundle.

    ``qoi`` may be any object exposing the constrained quantities as
    attributes (or a mapping).  A missing quantity is a contract error
    naming the constraint.  The penalty is summed in constraint order from
    0, as ``sum`` over the rows' weighted penalties would sum it.
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
    return ConstraintReport(specs, values, phis, penalty, feasible)


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
    """Constraints from scenario-file records.  An unknown key, a ``qoi`` not in ``QOI_NAMES``
    or a value ``ConstraintSpec`` rejects is a ``ConfigError`` naming constraint and key."""
    for rec in records:
        where = f"constraint {rec['name']}: "
        reject_unknown(rec, [f.name for f in fields(ConstraintSpec)], where)
        check(rec, {"qoi": one_of(*QOI_NAMES)}, where)
    try:
        return [ConstraintSpec(**rec) for rec in records]
    except (ContractError, NormalizationError) as exc:
        raise ConfigError(f"constraint {exc}") from exc
