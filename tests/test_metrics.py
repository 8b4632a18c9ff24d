import numpy as np
import pytest

from hpmropt.design_space import NOMINAL_DESIGN
from hpmropt.errors import ContractError
from hpmropt.metrics import (
    FrontPoint,
    FrontReport,
    default_reference,
    export_front,
    hypervolume_2d,
    load_front,
    nondominated_filter,
    render_scatter,
)

from oracles import hypervolume_mc


class TestHypervolume:
    def test_single_point_unit_square(self):
        assert hypervolume_2d([[0.0, 0.0]], [1.0, 1.0]) == pytest.approx(1.0)

    def test_two_point_inclusion_exclusion(self):
        assert hypervolume_2d([[0, 1], [1, 0]], [2, 2]) == pytest.approx(3.0)

    def test_point_beyond_reference_named(self):
        with pytest.raises(ContractError, match=r"\[3.0, 0.5\]"):
            hypervolume_2d([[0.0, 1.0], [3.0, 0.5]], [2.0, 2.0])

    def test_matches_monte_carlo(self, rng):
        for _ in range(3):
            raw = rng.random((15, 2)) * 4
            front = nondominated_filter(raw)
            reference = np.array([5.0, 5.0])
            exact = hypervolume_2d(front, reference)
            estimate, stderr = hypervolume_mc(front, reference, 10**6, rng)
            assert abs(exact - estimate) <= 3 * stderr + 1e-12

    def test_monotone_in_nondominated_additions(self, rng):
        front = np.array([[1.0, 3.0], [3.0, 1.0]])
        reference = np.array([5.0, 5.0])
        base = hypervolume_2d(front, reference)
        extended = np.vstack([front, [[1.5, 1.5]]])
        assert hypervolume_2d(nondominated_filter(extended), reference) >= base

    def test_translation_consistency(self, rng):
        raw = nondominated_filter(rng.random((10, 2)))
        reference = np.array([2.0, 2.0])
        shift = np.array([13.7, -4.2])
        base = hypervolume_2d(raw, reference)
        moved = hypervolume_2d(raw + shift, reference + shift)
        assert moved == pytest.approx(base, rel=1e-12)

    def test_wrong_dimensionality(self):
        with pytest.raises(ContractError):
            hypervolume_2d([[1.0, 2.0, 3.0]], [4.0, 4.0, 4.0])


def test_default_reference_scales_out():
    ref = default_reference([np.array([[1.0, 10.0], [2.0, 5.0]])])
    assert ref == pytest.approx([2.2, 11.0])


def make_report(n=6, with_designs=True, seed=0):
    rng = np.random.default_rng(seed)
    points = []
    for i in range(n):
        feasible = i % 3 != 0
        points.append(FrontPoint(
            objectives=rng.random(2) * [3000, 0.4] + [1000, 1.1],
            feasible=feasible,
            penalty=0.0 if feasible else float(rng.random() * 100),
            point_id=f"p{i}",
            design=NOMINAL_DESIGN if with_designs else None,
        ))
    return FrontReport(points=points, label="test-front")


class TestExport:
    def test_round_trip_is_lossless(self, tmp_path):
        report = make_report()
        path = tmp_path / "front.tsv"
        export_front(report, path)
        loaded = load_front(path)
        assert loaded.label == report.label
        for a, b in zip(report.points, loaded.points):
            assert a.objectives.tolist() == b.objectives.tolist()
            assert a.feasible == b.feasible
            assert a.penalty == b.penalty
            assert a.payload.id == b.payload.id
            assert a.payload.design == b.payload.design

    def test_reexport_is_byte_identical(self, tmp_path):
        report = make_report(seed=7)
        first = tmp_path / "a.tsv"
        second = tmp_path / "b.tsv"
        export_front(report, first)
        export_front(load_front(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_empty_report_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            export_front(FrontReport(), tmp_path / "x.tsv")


class TestScatter:
    def test_plot_contains_limit_line_and_highlights(self, tmp_path):
        report = make_report()
        path = tmp_path / "front.svg"
        assert render_scatter(report, path, limit_line=1.47) is True
        svg = path.read_text()
        assert "stroke-dasharray" in svg           # limit line
        assert svg.count('stroke="blue"') == 2     # best point per objective
        assert "LCOE" in svg
        assert "<!-- point p0:" in svg             # embedded data comments

    def test_all_infeasible_flagged(self, tmp_path):
        points = [FrontPoint(objectives=[1.0, 2.0], feasible=False, penalty=5.0)]
        report = FrontReport(points=points)
        assert render_scatter(report, tmp_path / "x.svg") is False
        assert 'fill="none"' in (tmp_path / "x.svg").read_text()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            render_scatter(FrontReport(), tmp_path / "x.svg")


def test_front_report_hypervolume_ignores_infeasible():
    report = make_report()
    reference = np.array([5000.0, 2.0])
    hv = report.hypervolume(reference)
    feasible_only = nondominated_filter(report.objectives(feasible_only=True))
    assert hv == pytest.approx(hypervolume_2d(feasible_only, reference))
