"""Decision variables of the core design problem.

Seven geometric/material parameters describe a candidate core.  Five carry
static bounds; the fuel compact radius and moderator radius are coupled to
the pin pitch so every decoded design is geometrically admissible.  All
operations here are pure functions over value types.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import BoundsDomainError, DecodeError

# Radial gap between pin channel and moderator sleeve, cm.  Appears in the
# coupled moderator-radius bounds and must not be inlined.
MODERATOR_GAP_CM = 0.095

FIELD_NAMES = ("x_ca", "x_b10", "x_fh", "x_pp", "x_e", "x_cr", "x_mr")

FIELD_UNITS = {
    "x_ca": "degrees",
    "x_b10": "fraction",
    "x_fh": "cm",
    "x_pp": "cm",
    "x_e": "fraction",
    "x_cr": "cm",
    "x_mr": "cm",
}

# Static (lower, upper) bounds for the five uncoupled variables.
STATIC_BOUNDS = {
    "x_ca": (35.0, 180.0),
    "x_b10": (0.20, 0.95),
    "x_fh": (130.0, 190.0),
    "x_pp": (1.94, 2.78),
    "x_e": (0.17, 0.20),
}

PIN_PITCH_BOUNDS = STATIC_BOUNDS["x_pp"]

# (lower bound, upper bound, width) of the five uncoupled variables, in
# field order, for the bound checks and the unit-cube maps
_STATIC_SPANS = tuple((lo, hi, hi - lo) for lo, hi in STATIC_BOUNDS.values())


@dataclass(frozen=True)
class DesignVector:
    """One candidate design.

    x_ca: control drum coating angle, degrees
    x_b10: drum absorber B-10 enrichment, fraction
    x_fh: active fuel height, cm
    x_pp: pin pitch, cm
    x_e: U-235 enrichment, fraction
    x_cr: fuel compact radius, cm (pitch-coupled bounds)
    x_mr: moderator radius, cm (pitch-coupled bounds)
    """

    x_ca: float
    x_b10: float
    x_fh: float
    x_pp: float
    x_e: float
    x_cr: float
    x_mr: float

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, f) for f in FIELD_NAMES], dtype=float)

    @classmethod
    def from_array(cls, values) -> "DesignVector":
        values = np.asarray(values, dtype=float)
        if values.shape != (7,):
            raise DecodeError(f"expected 7 design values, got shape {values.shape}")
        return cls(*(float(v) for v in values))

    def to_record(self) -> dict:
        """Flat key/value form used by run configuration and result files."""
        return {f: float(getattr(self, f)) for f in FIELD_NAMES}

    @classmethod
    def from_record(cls, record: dict) -> "DesignVector":
        missing = [f for f in FIELD_NAMES if f not in record]
        if missing:
            raise DecodeError(f"design record missing fields: {missing}")
        return cls(**{f: float(record[f]) for f in FIELD_NAMES})


NOMINAL_DESIGN = DesignVector(
    x_ca=90.0, x_b10=0.95, x_fh=160.0, x_pp=2.3, x_e=0.197, x_cr=1.0, x_mr=0.825
)


def _check_pitch(x_pp: float) -> None:
    lo, hi = PIN_PITCH_BOUNDS
    if not (lo <= x_pp <= hi):
        raise BoundsDomainError(f"x_pp={x_pp} outside [{lo}, {hi}]")


def _coupled_bounds(x_pp: float):
    """``(cr_lo, cr_hi, mr_lo, mr_hi)`` at pin pitch x_pp, unchecked."""
    span = x_pp - 2.0 * MODERATOR_GAP_CM
    return x_pp / 4.0, x_pp / 2.0, span / 5.0, span / 2.0


def resolve_bounds(x_pp: float):
    """Coupled (lower, upper) intervals for x_cr and x_mr at pin pitch x_pp.

    Returns ``((cr_lo, cr_hi), (mr_lo, mr_hi))``.  Raises BoundsDomainError
    when x_pp lies outside its static bounds.
    """
    _check_pitch(x_pp)
    cr_lo, cr_hi, mr_lo, mr_hi = _coupled_bounds(x_pp)
    return (cr_lo, cr_hi), (mr_lo, mr_hi)


def validate(design: DesignVector) -> list[str]:
    """Check every bound, including the pitch-coupled ones.

    Returns an empty list when the design is admissible, otherwise one
    message per violated bound.  Bounds are inclusive at both ends.
    """
    if _admissible_bounds(design) is not None:
        return []
    violations = []
    statics = (design.x_ca, design.x_b10, design.x_fh, design.x_pp, design.x_e)
    for value, (name, (lo, hi)) in zip(statics, STATIC_BOUNDS.items()):
        if not (lo <= value <= hi):
            violations.append(f"{name}={value} outside [{lo}, {hi}]")
    lo, hi = PIN_PITCH_BOUNDS
    if not (lo <= design.x_pp <= hi):
        # Coupled bounds are undefined for an out-of-range pitch.
        return violations
    (cr_lo, cr_hi), (mr_lo, mr_hi) = resolve_bounds(design.x_pp)
    if not (cr_lo <= design.x_cr <= cr_hi):
        violations.append(
            f"x_cr={design.x_cr} outside [{cr_lo}, {cr_hi}] at x_pp={design.x_pp}"
        )
    if not (mr_lo <= design.x_mr <= mr_hi):
        violations.append(
            f"x_mr={design.x_mr} outside [{mr_lo}, {mr_hi}] at x_pp={design.x_pp}"
        )
    return violations


def is_valid(design: DesignVector) -> bool:
    return not validate(design)


_new = object.__new__
_set = object.__setattr__
_FLOAT64 = np.dtype(float)


def from_unit_cube(u) -> DesignVector:
    """Decode a point of [0, 1]^7 into an admissible design.

    The pin pitch is decoded before the two radii so their coupled bounds
    are always consistent; every decoded design passes ``validate``.
    """
    if type(u) is not np.ndarray or u.dtype is not _FLOAT64:
        u = np.asarray(u, dtype=float)
    if u.shape != (7,):
        raise DecodeError(f"expected 7 coordinates, got shape {u.shape}")
    values = u.tolist()
    v_ca, v_b10, v_fh, v_pp, v_e, v_cr, v_mr = values
    # a chained comparison is False for NaN, so this also rejects NaN and inf
    if not (0.0 <= v_ca <= 1.0 and 0.0 <= v_b10 <= 1.0 and 0.0 <= v_fh <= 1.0
            and 0.0 <= v_pp <= 1.0 and 0.0 <= v_e <= 1.0 and 0.0 <= v_cr <= 1.0
            and 0.0 <= v_mr <= 1.0):
        raise DecodeError(f"coordinates outside [0, 1]: {values}")
    ((ca, _, ca_span), (b10, _, b10_span), (fh, _, fh_span), (pp, _, pp_span),
     (e, _, e_span)) = _STATIC_SPANS
    # lo + v * span never leaves [lo, hi] (asserted at the end of the
    # module), so the pitch needs no domain check here
    x_pp = pp + v_pp * pp_span
    cr_lo, cr_hi, mr_lo, mr_hi = _coupled_bounds(x_pp)
    # the stores the frozen dataclass's __init__ makes, without its call;
    # filling design.__dict__ instead would be faster to build, but it
    # turns the instance's inline attribute values into a full dict: about
    # twice the memory per design and slower attribute reads
    design = _new(DesignVector)
    _set(design, "x_ca", ca + v_ca * ca_span)
    _set(design, "x_b10", b10 + v_b10 * b10_span)
    _set(design, "x_fh", fh + v_fh * fh_span)
    _set(design, "x_pp", x_pp)
    _set(design, "x_e", e + v_e * e_span)
    # lo + v * (hi - lo) can round past hi at v = 1 (at x_pp 1.9925,
    # 0.3605 + (0.90125 - 0.3605) is 0.9012500000000001), so the coupled
    # radii are clamped; a value at or below hi stays as it was
    _set(design, "x_cr", min(cr_lo + v_cr * (cr_hi - cr_lo), cr_hi))
    _set(design, "x_mr", min(mr_lo + v_mr * (mr_hi - mr_lo), mr_hi))
    return design


def _admissible_bounds(design: DesignVector):
    """The coupled bounds ``(cr_lo, cr_hi, mr_lo, mr_hi)`` of a design that
    meets every bound, else None.

    ``validate`` words its messages only when this returns None.  A chained
    comparison is False for NaN, so a NaN field fails it too.
    """
    x_pp = design.x_pp
    ((ca, ca_hi, _), (b10, b10_hi, _), (fh, fh_hi, _), (pp, pp_hi, _),
     (e, e_hi, _)) = _STATIC_SPANS
    if not (ca <= design.x_ca <= ca_hi and b10 <= design.x_b10 <= b10_hi
            and fh <= design.x_fh <= fh_hi and pp <= x_pp <= pp_hi
            and e <= design.x_e <= e_hi):
        return None
    coupled = cr_lo, cr_hi, mr_lo, mr_hi = _coupled_bounds(x_pp)
    if not (cr_lo <= design.x_cr <= cr_hi and mr_lo <= design.x_mr <= mr_hi):
        return None
    return coupled


def _unit_cube_image(design: DesignVector, coupled) -> list:
    """The unit-cube image of ``design`` as a list, given its coupled
    bounds ``(cr_lo, cr_hi, mr_lo, mr_hi)``."""
    ((ca, _, ca_span), (b10, _, b10_span), (fh, _, fh_span), (pp, _, pp_span),
     (e, _, e_span)) = _STATIC_SPANS
    cr_lo, cr_hi, mr_lo, mr_hi = coupled
    return [(design.x_ca - ca) / ca_span, (design.x_b10 - b10) / b10_span,
            (design.x_fh - fh) / fh_span, (design.x_pp - pp) / pp_span,
            (design.x_e - e) / e_span, (design.x_cr - cr_lo) / (cr_hi - cr_lo),
            (design.x_mr - mr_lo) / (mr_hi - mr_lo)]


def to_unit_cube(design: DesignVector) -> np.ndarray:
    """Inverse of ``from_unit_cube`` for an admissible design."""
    _check_pitch(design.x_pp)
    return np.array(_unit_cube_image(design, _coupled_bounds(design.x_pp)),
                    dtype=float)


def write_design_file(design: DesignVector, path) -> None:
    """Serialize to the flat key=value record consumed by the CLI."""
    lines = ["# design vector; units: " +
             ", ".join(f"{f} [{FIELD_UNITS[f]}]" for f in FIELD_NAMES)]
    lines += [f"{f} = {getattr(design, f)!r}" for f in FIELD_NAMES]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_design_file(path) -> DesignVector:
    record, first_line = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DecodeError(f"{path}:{lineno}: expected 'name = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in first_line:
                raise DecodeError(f"{path}:{lineno}: {key!r} repeats the value set "
                                  f"on line {first_line[key]}")
            first_line[key] = lineno
            try:
                record[key] = float(value)
            except ValueError as exc:
                raise DecodeError(f"{path}:{lineno}: bad value {value!r}") from exc
    unknown = set(record) - set(FIELD_NAMES)
    if unknown:
        raise DecodeError(f"{path}: unknown fields {sorted(unknown)}")
    return DesignVector.from_record(record)


# fields() is imported for introspection-based consumers (kept explicit so a
# stale FIELD_NAMES tuple cannot drift from the dataclass).
assert FIELD_NAMES == tuple(f.name for f in fields(DesignVector))
# the unit-cube maps walk STATIC_BOUNDS in field order
assert tuple(STATIC_BOUNDS) == FIELD_NAMES[:5]
# lo + v * width rounds monotonically in v, so for v in [0, 1] a decoded
# static variable stays within [lo, lo + width], and so within [lo, hi]
assert all(lo + width <= hi for lo, hi, width in _STATIC_SPANS)
