import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpmropt.constraints import (
    ConstraintReport,
    ConstraintRow,
    ConstraintSpec,
    default_constraints,
    evaluate_constraints,
    phi,
)
from hpmropt.errors import ContractError, NormalizationError

SDM_SPEC = ConstraintSpec("shutdown-margin", qoi="sdm", kind="at_most", limit=-6700.0)
LIFETIME_SPEC = ConstraintSpec("fuel-lifetime", qoi="lifetime", kind="range",
                               limit=(6.0, 10.40))


def test_phi_sdm_violation_exact():
    # -4830 sits 1870 pcm on the wrong side of -6700
    assert phi(SDM_SPEC, -4830.0) == pytest.approx((1870.0 / 6700.0) ** 2, abs=1e-12)
    assert phi(SDM_SPEC, -4830.0) == pytest.approx(0.0778993, abs=1e-7)


def test_phi_zero_at_limit():
    for spec, x in ((SDM_SPEC, -6700.0), (LIFETIME_SPEC, 6.0), (LIFETIME_SPEC, 10.40)):
        assert phi(spec, x) == 0.0


def test_phi_satisfied_side():
    assert phi(SDM_SPEC, -8000.0) == 0.0
    assert phi(LIFETIME_SPEC, 8.0) == 0.0


def test_phi_lifetime_range_low_end():
    assert phi(LIFETIME_SPEC, 4.97) == pytest.approx(((4.97 - 6.0) / 6.0) ** 2, abs=1e-12)
    assert phi(LIFETIME_SPEC, 4.97) == pytest.approx(0.0294694, abs=1e-7)


def test_phi_lifetime_range_high_end():
    assert phi(LIFETIME_SPEC, 11.0) == pytest.approx(((11.0 - 10.40) / 10.40) ** 2)


def test_nominal_qoi_feasible():
    report = evaluate_constraints(default_constraints(), {
        "lifetime": 6.99, "sdm": -6725.0, "f_dh": 1.469, "q_max": 0.0188,
    })
    assert report.feasible
    assert report.penalty == 0.0


def test_single_sdm_violation_penalty():
    report = evaluate_constraints(default_constraints(), {
        "lifetime": 6.99, "sdm": -4830.0, "f_dh": 1.469, "q_max": 0.0188,
    })
    assert not report.feasible
    assert report.penalty == pytest.approx(1e4 * (1870.0 / 6700.0) ** 2, abs=1e-3)


def test_four_violations_ten_percent_each():
    specs = [
        ConstraintSpec("a", qoi="a", kind="at_most", limit=10.0),
        ConstraintSpec("b", qoi="b", kind="at_most", limit=-10.0),
        ConstraintSpec("c", qoi="c", kind="at_least", limit=5.0),
        ConstraintSpec("d", qoi="d", kind="range", limit=(1.0, 2.0)),
    ]
    report = evaluate_constraints(specs, {
        "a": 11.0,      # 10% above an upper limit
        "b": -9.0,      # 10% on the wrong side of a negative limit
        "c": 4.5,       # 10% below a lower limit
        "d": 2.2,       # 10% above the range top
    })
    assert report.penalty == pytest.approx(400.0, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(eps=st.floats(1e-6, 10.0), c=st.floats(0.1, 1e6))
def test_quadratic_scaling(eps, c):
    spec = ConstraintSpec("k", qoi="k", kind="at_most", limit=c)
    assert phi(spec, c * (1.0 + eps)) == pytest.approx(eps**2, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(x1=st.floats(-1e4, 1e4), x2=st.floats(-1e4, 1e4))
def test_monotone_in_violation(x1, x2):
    spec = ConstraintSpec("k", qoi="k", kind="at_most", limit=100.0)
    lo, hi = sorted((x1, x2))
    assert phi(spec, lo) <= phi(spec, hi)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats(-1e4, 1e4), min_size=4, max_size=4))
def test_feasible_iff_zero_penalty(values):
    qoi = dict(zip(("lifetime", "sdm", "f_dh", "q_max"), values))
    report = evaluate_constraints(default_constraints(), qoi)
    assert report.feasible == (report.penalty == 0.0)


@pytest.mark.parametrize("specs, qoi", [
    (default_constraints(), {"lifetime": 6.99, "sdm": -6725.0, "f_dh": 1.469,
                             "q_max": 0.0188}),
    (default_constraints(), {"lifetime": 11.0, "sdm": -4830.0, "f_dh": 1.6,
                             "q_max": 0.03}),
    ([], {}),
])
def test_report_reads_as_the_report_of_its_rows(specs, qoi):
    rows = [ConstraintRow(s.name, qoi[s.qoi], phi(s, qoi[s.qoi]),
                          s.weight * phi(s, qoi[s.qoi]), phi(s, qoi[s.qoi]) == 0.0)
            for s in specs]
    want = repr(sum(row.weighted_penalty for row in rows)), all(row.satisfied for row in rows)
    report = evaluate_constraints(specs, qoi)
    assert report == ConstraintReport(tuple(specs), [r.value for r in rows],
                                      [r.phi for r in rows], report.penalty, report.feasible)
    # read before and after the rows are built
    assert "rows" not in vars(report)
    assert (repr(report.penalty), report.feasible) == want
    assert report.rows == rows and report.rows is report.rows
    assert (repr(report.penalty), report.feasible) == want
    for read in (False, True):
        fresh = evaluate_constraints(specs, qoi)
        if read:
            assert fresh.rows == rows
        for other in (pickle.loads(pickle.dumps(fresh)), copy.copy(fresh),
                      dataclasses.replace(fresh)):
            assert other == report and repr(other) == repr(report)
            assert other.rows == rows
    assert report != dataclasses.replace(report, feasible=not report.feasible)
    with pytest.raises(TypeError):
        hash(report)
    with pytest.raises(AttributeError) as raised:
        report.row
    assert type(raised.value) is AttributeError
    assert str(raised.value) == "'ConstraintReport' object has no attribute 'row'"


def test_report_keeps_the_specs_it_was_given():
    specs = list(default_constraints())
    report = evaluate_constraints(iter(specs), {
        "lifetime": 6.99, "sdm": -6725.0, "f_dh": 1.469, "q_max": 0.0188})
    specs.clear()
    assert [row.name for row in report.rows] == [s.name for s in default_constraints()]


def test_zero_limit_rejected():
    with pytest.raises(NormalizationError):
        ConstraintSpec("z", qoi="z", kind="at_most", limit=0.0)
    with pytest.raises(NormalizationError):
        ConstraintSpec("z", qoi="z", kind="range", limit=(0.0, 2.0))


def test_missing_qoi_names_constraint():
    with pytest.raises(ContractError, match="shutdown-margin"):
        evaluate_constraints([SDM_SPEC], {"lifetime": 7.0})


def test_non_finite_value_rejected():
    with pytest.raises(ContractError):
        phi(SDM_SPEC, float("nan"))


def test_bad_kind_and_weight():
    with pytest.raises(ContractError):
        ConstraintSpec("k", qoi="k", kind="equals", limit=1.0)
    with pytest.raises(ContractError):
        ConstraintSpec("k", qoi="k", kind="at_most", limit=1.0, weight=0.0)
    with pytest.raises(ContractError):
        ConstraintSpec("k", qoi="k", kind="range", limit=(2.0, 1.0))
