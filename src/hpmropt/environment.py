"""Surrogate physics environment: design vector in, QoI bundle out.

Four closed-form relations (average heat flux, uranium mass, burnup, power
density) were recovered by inverting the anchor table and hold across all
anchor designs within rounding.  The remaining neutronics quantities
(lifetime, shutdown margin, peaking factor, peak heat flux) come from a
log-linear proxy calibrated against the anchors, or from a user-supplied
sample table interpolated with radial basis functions.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .constraints import QOI_NAMES, ConstraintReport, evaluate_constraints
from .design_space import (
    FIELD_NAMES,
    NOMINAL_DESIGN,
    DesignVector,
    _admissible_bounds,
    _unit_cube_image,
    to_unit_cube,
    validate,
)
from .economics import THERMAL_POWER_MW, CostScenario, build_cash_flows, lcoe, load_scenario
from .errors import (NUMBER, POSITIVE, BoundsDomainError, ConfigError, ContractError,
                     EvaluationError, TableLoadError, check, list_of, read_lines,
                     reject_unknown)

# Constants recovered from the anchor table (see scripts/fit_proxy_coefficients.py
# and the cross-row consistency tests):
#   q_avg * x_cr * x_fh      constant to < 1%  -> HEAT_FLUX_K
#   mass / (x_cr^2 * x_fh)   constant to < 2%  -> URANIUM_MASS_COEFF
#   burnup * mass / (365.25 * lifetime) = 2.00 +/- 1% -> THERMAL_POWER_MW,
#   which economics defines, as its default annual energy is built on it
HEAT_FLUX_K = 1.68576            # heat-flux units * cm^2
URANIUM_MASS_COEFF = 3.2816      # kg / cm^3
POWER_DENSITY_SCALE = 200.0

QOI_KEYS = ("lifetime", "sdm", "f_dh", "q_max")


@dataclass
class QoIVector:
    """Per-design quantities of interest.

    ``lcoe`` is filled by the cost engine; ``itc`` is interpolated when a
    sample table with a complete itc column provides it.
    """

    lifetime: float
    sdm: float
    f_dh: float
    q_max: float
    q_avg: float
    uranium_mass: float
    u235_mass: float
    burnup: float
    power_density: float
    lcoe: float | None = None
    itc: float | None = None


# a scenario's constraints are checked against QOI_NAMES when it loads
assert QOI_NAMES == tuple(f.name for f in fields(QoIVector))


def avg_heat_flux(x_cr: float, x_fh: float, k: float = HEAT_FLUX_K) -> float:
    """Average heat flux at the fuel/heat-pipe interface: k / (x_cr * x_fh)."""
    if x_cr <= 0 or x_fh <= 0:
        raise EvaluationError(f"non-positive geometry: x_cr={x_cr}, x_fh={x_fh}")
    return k / (x_cr * x_fh)


def uranium_mass(x_cr: float, x_fh: float, coeff: float = URANIUM_MASS_COEFF) -> float:
    """Heavy-metal loading, kg: coeff * x_cr^2 * x_fh."""
    if x_cr <= 0 or x_fh <= 0:
        raise EvaluationError(f"non-positive geometry: x_cr={x_cr}, x_fh={x_fh}")
    return coeff * x_cr**2 * x_fh


def u235_mass(mass_kg: float, x_e: float) -> float:
    if not 0.0 < x_e < 1.0:
        raise EvaluationError(f"enrichment fraction out of (0, 1): {x_e}")
    return mass_kg * x_e


def burnup(lifetime_years: float, uranium_mass_kg: float,
           thermal_power_mw: float = THERMAL_POWER_MW) -> float:
    """Discharge burnup, MWd/kgU, at constant thermal power."""
    if lifetime_years <= 0 or uranium_mass_kg <= 0:
        raise EvaluationError("burnup requires positive lifetime and mass")
    return thermal_power_mw * 365.25 * lifetime_years / uranium_mass_kg


def power_density(q_avg: float, x_cr: float,
                  scale: float = POWER_DENSITY_SCALE) -> float:
    if q_avg <= 0 or x_cr <= 0:
        raise EvaluationError("power density requires positive inputs")
    return scale * q_avg / x_cr


# Log-linear proxy coefficients, one 7-vector per modeled quantity, in the
# variable order of design_space.FIELD_NAMES.  Produced by the bounded
# least-squares calibration in scripts/fit_proxy_coefficients.py; the
# drum-absorber enrichment column is pinned to zero (uncorrelated), the
# other bounds encode the observed correlation signs.  The shutdown margin
# is modeled through its magnitude; peak heat flux through the local
# peaking ratio q_max / q_avg - 1, which keeps q_max >= q_avg everywhere.
PROXY_BETA = {
    "lifetime": (
        1.6385778063055818, 0.0, 0.5551674672441552, 1.0300352177962517,
        0.2725713919779811, 2.0970845982097357, 0.0,
    ),
    "sdm_magnitude": (
        -0.2053298873328121, 0.0, -0.3198282447694937, -0.4435770489922785,
        -0.4586602253789508, -0.23997082562951574, -0.37931812886148286,
    ),
    "f_dh": (
        0.11134876129216056, 0.0, -0.04429368597219341, 0.2305147340985701,
        -0.06453060957814043, 0.08477261054235065, 0.20502647085270417,
    ),
    "peaking": (
        -0.2500651777123543, 0.0, 0.18787637524219822, 0.09825343986254738,
        -0.24731928135568007, 0.4632458384566731, -0.18274285802727128,
    ),
}

PROXY_ANCHORS = {
    "lifetime": 6.99,
    "sdm_magnitude": 6725.0,
    "f_dh": 1.469,
    "peaking": 0.0188 / (HEAT_FLUX_K / 160.0) - 1.0,
}

# Correlation signs the calibration must respect for the strongly coupled
# variables (anything weaker is left free by the fit).
_SIGN_RULES = {
    "lifetime": {"x_pp": 1, "x_cr": 1, "x_mr": 1},
    "sdm_magnitude": {"x_pp": -1, "x_cr": -1, "x_mr": -1},
    "f_dh": {"x_ca": 1, "x_pp": 1, "x_mr": 1},
}


PROXY_RULES = dict.fromkeys(("heat_flux_k", "uranium_mass_coeff", "thermal_power_mw",
                             "power_density_scale"), POSITIVE)


@dataclass
class ProxyModelConfig:
    """Constants and coefficients of the calibrated analytic proxy."""

    heat_flux_k: float = HEAT_FLUX_K
    uranium_mass_coeff: float = URANIUM_MASS_COEFF
    thermal_power_mw: float = THERMAL_POWER_MW
    power_density_scale: float = POWER_DENSITY_SCALE
    anchors: dict = field(default_factory=lambda: dict(PROXY_ANCHORS))
    betas: dict = field(default_factory=lambda: {k: np.array(v) for k, v in PROXY_BETA.items()})
    nominal_z: np.ndarray = field(default_factory=lambda: to_unit_cube(NOMINAL_DESIGN))

    def __post_init__(self):
        check(self, PROXY_RULES, error=EvaluationError)
        self.betas = {k: np.asarray(v, dtype=float) for k, v in self.betas.items()}

    def require_calibrated(self):
        needed = set(PROXY_BETA)
        if set(self.betas) != needed or set(self.anchors) != needed:
            raise EvaluationError(
                f"proxy config is not calibrated: need coefficients {sorted(needed)}"
            )
        for key, beta in self.betas.items():
            if beta.shape != (7,) or not np.all(np.isfinite(beta)):
                raise EvaluationError(f"proxy coefficients for {key} are unusable")
        for key, rules in _SIGN_RULES.items():
            for var, sign in rules.items():
                value = self.betas[key][FIELD_NAMES.index(var)]
                if value * sign < 0:
                    raise EvaluationError(
                        f"{key}: coefficient for {var} has the wrong sign ({value})"
                    )

    def to_config(self) -> dict:
        return {
            "heat_flux_k": self.heat_flux_k,
            "uranium_mass_coeff": self.uranium_mass_coeff,
            "thermal_power_mw": self.thermal_power_mw,
            "power_density_scale": self.power_density_scale,
            "anchors": dict(self.anchors),
            "betas": {k: list(map(float, v)) for k, v in self.betas.items()},
        }

    @classmethod
    def from_config(cls, section: dict) -> "ProxyModelConfig":
        """The config of a scenario file's ``proxy`` section; a key or value
        its rules reject is a ``ConfigError`` naming it.  An incomplete
        calibration is left to ``require_calibrated``."""
        reject_unknown(section, [*PROXY_RULES, "anchors", "betas"], "proxy: ")
        for name, known, rule in (("anchors", PROXY_ANCHORS, NUMBER),
                                  ("betas", PROXY_BETA, list_of(NUMBER))):
            values = section.get(name, {})
            reject_unknown(values, known, f"proxy: {name}: ")
            check(values, dict.fromkeys(values, rule), f"proxy: {name}.")
        try:
            return cls(**section)   # checks the constants
        except EvaluationError as exc:
            raise ConfigError(f"proxy: {exc}") from exc

    def snapshot(self) -> "ProxyModelConfig":
        """A copy of the current constants and coefficients whose arrays
        are read-only."""
        def frozen(values):
            array = np.array(values, dtype=float)
            array.flags.writeable = False
            return array

        return replace(self, anchors=dict(self.anchors),
                       betas={k: frozen(v) for k, v in self.betas.items()},
                       nominal_z=frozen(self.nominal_z))


def _proxy_terms(config) -> tuple:
    """The read-only (4, 1, 7) stack of a calibrated ProxyModelConfig's
    coefficients and the tuple of its four anchors, in PROXY_BETA's order."""
    stack = np.array([[config.betas[key]] for key in PROXY_BETA])
    stack.flags.writeable = False
    return stack, tuple(config.anchors[key] for key in PROXY_BETA)


def _proxy_values(dz: np.ndarray, q_avg: float, stack: np.ndarray, anchors: tuple):
    """(lifetime, sdm, f_dh, q_max) from a unit-cube offset to the nominal
    design; ``stack`` and ``anchors`` are ``_proxy_terms`` of the config."""
    # each (1, 7) row of the stack meets dz in one BLAS ddot, as ndarray.dot
    # does, where a (4, 7) @ (7,) product is a gemv that sums in another order
    [lifetime], [sdm], [f_dh], [peaking] = np.exp(np.matmul(stack, dz)).tolist()
    a_lifetime, a_sdm, a_f_dh, a_peaking = anchors
    return (a_lifetime * lifetime, -a_sdm * sdm, a_f_dh * f_dh,
            q_avg * (1.0 + a_peaking * peaking))


def _checked_image(design: DesignVector) -> list:
    """The unit-cube image of an admissible design, as a list; for any other
    design, an EvaluationError naming every violated bound."""
    coupled = _admissible_bounds(design)
    if coupled is None:
        raise EvaluationError("invalid design: " + "; ".join(validate(design)))
    return _unit_cube_image(design, coupled)


def proxy_eval(design: DesignVector, config: ProxyModelConfig | None = None):
    """Proxy prediction of (lifetime, sdm, f_dh, q_max) for a valid design.

    Each modeled quantity is its nominal anchor scaled by
    exp(beta . (z - z_nominal)) with z the unit-cube image of the design, so
    the nominal design reproduces its anchors exactly.
    """
    config = config or ProxyModelConfig()
    config.require_calibrated()
    z = _checked_image(design)
    q_avg = avg_heat_flux(design.x_cr, design.x_fh, config.heat_flux_k)
    return _proxy_values(np.array(z) - config.nominal_z, q_avg, *_proxy_terms(config))


class SampleTable:
    """Neutronics samples interpolated with a thin-plate spline RBF.

    Designs are normalized to the unit cube before interpolation; queries
    reproduce sample sites exactly and extrapolate, unflagged, away from
    them (``nearest_site_distance`` says how far).  An optional ``itc``
    column (NaN for a blank cell) is interpolated with the QoIs when it is
    complete; the data rows where it is blank, counted from 1, are
    ``itc_blank_rows``.
    """

    REQUIRED_COLUMNS = FIELD_NAMES + QOI_KEYS

    def __init__(self, designs, qois, itc=None):
        designs = [d if isinstance(d, DesignVector) else DesignVector.from_array(d)
                   for d in designs]
        qois = np.asarray(qois, dtype=float)
        if len(designs) < 2:
            raise TableLoadError("sample table needs at least 2 rows")
        if qois.shape != (len(designs), len(QOI_KEYS)):
            raise TableLoadError(
                f"QoI block must be {len(designs)}x{len(QOI_KEYS)}, got {qois.shape}"
            )
        if not np.all(np.isfinite(qois)):
            raise TableLoadError("sample table contains non-finite QoIs")
        finite = np.isfinite([d.as_array() for d in designs]).all(axis=1)
        if not finite.all():
            raise TableLoadError("sample table contains non-finite design values in rows "
                                 + ", ".join(map(str, np.flatnonzero(~finite) + 1)))
        self.designs = designs
        self.sites = np.vstack([to_unit_cube(d) for d in designs])
        if len(np.unique(self.sites.round(12), axis=0)) != len(designs):
            raise TableLoadError("duplicate sample sites")
        self.qois = qois
        self.itc = None if itc is None else np.asarray(itc, dtype=float)
        self.itc_blank_rows: list[int] = []
        values = qois
        if self.itc is not None:
            if self.itc.shape != (len(designs),):
                raise TableLoadError(f"itc column must have {len(designs)} values, "
                                     f"got shape {self.itc.shape}")
            if np.any(np.isinf(self.itc)):
                raise TableLoadError("sample table contains an infinite itc value")
            self.itc_blank_rows = (np.flatnonzero(np.isnan(self.itc)) + 1).tolist()
            if not self.itc_blank_rows:
                values = np.column_stack([qois, self.itc])
        # linear polynomial tail needs dims+1 points; fall back to a constant
        # tail so two-point tables stay well-posed (scipy warns about the
        # thin-plate spline's constant tail; deliberate here)
        degree = 1 if len(designs) >= self.sites.shape[1] + 1 else 0
        # scipy.interpolate (which itself imports scipy.optimize) is imported
        # on the first table, not with the package: the proxy path never needs it
        from scipy.interpolate import RBFInterpolator

        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*`degree` should not be below.*")
            try:
                self._rbf = RBFInterpolator(self.sites, values,
                                            kernel="thin_plate_spline", degree=degree)
            except np.linalg.LinAlgError as exc:
                # sites on a hyperplane leave the linear tail's monomial
                # matrix [1, sites] short of full column rank
                monomials = np.column_stack([np.ones(len(designs)), self.sites])
                raise TableLoadError(
                    f"sample sites are degenerate: [1, sites] has rank "
                    f"{np.linalg.matrix_rank(monomials)} of {monomials.shape[1]}, "
                    f"and the interpolation system is singular ({exc})") from exc

    @classmethod
    def from_file(cls, path) -> "SampleTable":
        reader = csv.DictReader(read_lines(path, "sample table", newline=""))
        if reader.fieldnames is None:
            raise TableLoadError(f"{path}: missing header row")
        # rows are read by the stripped names: a header written with ", "
        # separators names the same columns
        reader.fieldnames = [name.strip() for name in reader.fieldnames]
        missing = [c for c in cls.REQUIRED_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise TableLoadError(f"{path}: missing columns {missing}")
        designs, qois, itc = [], [], []
        for lineno, row in enumerate(reader, start=2):
            try:
                record = {f: float(row[f]) for f in FIELD_NAMES}
                designs.append(DesignVector.from_record(record))
                qois.append([float(row[k]) for k in QOI_KEYS])
                itc_cell = (row.get("itc") or "").strip()
                itc.append(float(itc_cell) if itc_cell else np.nan)
            except (TypeError, ValueError) as exc:
                raise TableLoadError(f"{path}:{lineno}: {exc}") from exc
            bad = [f for f, value in record.items() if not np.isfinite(value)]
            if bad:
                raise TableLoadError(f"{path}:{lineno}: design value {bad[0]} is "
                                     f"not finite: {row[bad[0]].strip()!r}")
            try:
                to_unit_cube(designs[-1])       # a pitch outside its domain
            except BoundsDomainError as exc:
                raise TableLoadError(f"{path}:{lineno}: {exc}") from exc
        if not designs:
            raise TableLoadError(f"{path}: no data rows")
        has_itc = "itc" in reader.fieldnames
        return cls(designs, np.asarray(qois), itc=itc if has_itc else None)

    def __call__(self, design: DesignVector):
        """(lifetime, sdm, f_dh, q_max) interpolated at a valid design."""
        return self._query(np.array(_checked_image(design)))[0]

    def _query(self, z: np.ndarray):
        """The four interpolated QoIs at unit-cube point ``z``, and the
        interpolated itc (``None`` without a complete itc column)."""
        values = self._rbf(z[None, :])[0].tolist()
        itc = values.pop() if len(values) > len(QOI_KEYS) else None
        return tuple(values), itc

    def nearest_site_distance(self, design: DesignVector) -> float:
        """Euclidean unit-cube distance from a valid design to the nearest
        sample site: 0.0 at a site; the interpolant's error tends to grow with it."""
        offsets = self.sites - np.array(_checked_image(design))
        return float(np.sqrt((offsets * offsets).sum(axis=1).min()))


class DesignEvaluator:
    """Complete design evaluation: neutronics model, closed-form relations,
    cost engine, and constraint report.

    Construction checks the proxy calibration (proxy model only), rejects
    with ``ConfigError`` a constraint on ``itc`` that the model cannot set
    (the proxy, or a table whose itc column is missing or has blank
    cells), and takes a read-only snapshot of ``proxy_config``, the proxy
    that the scenario's ``proxy`` section (or the shipped calibration)
    describes; evaluations use only the snapshot, so editing
    ``proxy_config`` afterwards changes nothing.
    Immutable after construction; safe to call from concurrent workers.
    """

    def __init__(self, scenario, model="proxy"):
        if not isinstance(scenario, CostScenario):
            raise ContractError("scenario must be a CostScenario")
        self.scenario = scenario
        # scenario files may carry a proxy section overriding the shipped
        # constants and coefficients
        proxy_config = (ProxyModelConfig.from_config(scenario.proxy)
                        if scenario.proxy else ProxyModelConfig())
        if model == "proxy":
            proxy_config.require_calibrated()
            self.table = None
        elif isinstance(model, SampleTable):
            self.table = model
        else:
            raise ContractError(f"unknown evaluator model {model!r}")
        missing = None
        if self.table is None:
            missing = "is never set by the proxy evaluator"
        elif self.table.itc is None:
            missing = "is never set by a sample table with no itc column"
        elif self.table.itc_blank_rows:
            missing = ("cannot be interpolated: the sample table's itc column is blank "
                       f"in data rows {', '.join(map(str, self.table.itc_blank_rows))} "
                       "(counted from 1 after the header)")
        for spec in scenario.constraints:
            if missing and spec.qoi == "itc":
                raise ConfigError(f"constraint {spec.name}: qoi 'itc' {missing}; only a "
                                  f"sample table with a complete itc column provides it")
        self.proxy_config = proxy_config
        self._proxy = proxy_config.snapshot()
        # a table's scenario may leave the proxy's calibration incomplete
        self._proxy_terms = _proxy_terms(self._proxy) if self.table is None else None
        self.constraints = scenario.constraints

    def qoi(self, design: DesignVector) -> QoIVector:
        return self._qoi(design, _checked_image(design))

    def _qoi(self, design: DesignVector, image: list) -> QoIVector:
        """QoI bundle of a valid design with unit-cube image ``image``."""
        cfg = self._proxy
        z = np.array(image)
        q_avg = avg_heat_flux(design.x_cr, design.x_fh, cfg.heat_flux_k)
        itc = None
        if self.table is None:
            lifetime_y, sdm, f_dh, q_max = _proxy_values(z - cfg.nominal_z, q_avg,
                                                         *self._proxy_terms)
        else:
            (lifetime_y, sdm, f_dh, q_max), itc = self.table._query(z)
            # extrapolated tables can leave the physical domain; clamp so the
            # bundle invariants (positive lifetime, peak >= average, negative
            # shutdown margin) survive far outside the sampled region
            lifetime_y = max(lifetime_y, 1e-6)
            f_dh = max(f_dh, 1.0)
            q_max = max(q_max, q_avg)
            sdm = min(sdm, -1e-9)
        mass = uranium_mass(design.x_cr, design.x_fh, cfg.uranium_mass_coeff)
        return QoIVector(
            lifetime=lifetime_y,
            sdm=sdm,
            f_dh=f_dh,
            q_max=q_max,
            q_avg=q_avg,
            uranium_mass=mass,
            u235_mass=u235_mass(mass, design.x_e),
            burnup=burnup(lifetime_y, mass, cfg.thermal_power_mw),
            power_density=power_density(q_avg, design.x_cr, cfg.power_density_scale),
            itc=itc,
        )

    def evaluate(self, design: DesignVector):
        """Returns (objectives [lcoe, f_dh], ConstraintReport, QoIVector)."""
        # build_cash_flows, lcoe and evaluate_constraints are looked up as
        # module globals on every call, so an instrument that rebinds them
        # here sees each call
        qoi = self._qoi(design, _checked_image(design))
        schedule = build_cash_flows(design, qoi, self.scenario)
        qoi.lcoe = lcoe(schedule, self.scenario.econ)
        report: ConstraintReport = evaluate_constraints(self.constraints, qoi)
        objectives = np.array([qoi.lcoe, qoi.f_dh])
        return objectives, report, qoi


def check_evaluator(spec: str) -> None:
    """``ConfigError`` unless ``spec`` names an evaluator: ``"proxy"`` or
    ``"tabular:<samples.csv>"``."""
    if spec != "proxy" and not spec.startswith("tabular:"):
        raise ConfigError(f"unknown evaluator {spec!r}")


def build_evaluator(config) -> DesignEvaluator:
    """The evaluator that ``config.scenario`` (a preset name or scenario
    file) and ``config.evaluator`` (see ``check_evaluator``) name, as a
    run's ``RunConfig`` or the ``evaluate`` command's arguments hold them."""
    check_evaluator(config.evaluator)
    scenario = load_scenario(config.scenario)
    if config.evaluator == "proxy":
        return DesignEvaluator(scenario, model="proxy")
    table_path = config.evaluator.split(":", 1)[1]
    return DesignEvaluator(scenario, model=SampleTable.from_file(table_path))
