import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hpmropt
from hpmropt.anchors import ANCHOR_RECORDS, NOMINAL_ANCHOR
from hpmropt.design_space import (
    FIELD_NAMES,
    NOMINAL_DESIGN,
    STATIC_BOUNDS,
    DesignVector,
    from_unit_cube,
    resolve_bounds,
    to_unit_cube,
    validate,
)
from hpmropt.environment import (
    PROXY_BETA,
    DesignEvaluator,
    ProxyModelConfig,
    SampleTable,
    avg_heat_flux,
    burnup,
    power_density,
    proxy_eval,
    tabular_eval,
    u235_mass,
    uranium_mass,
)
from hpmropt.economics import load_scenario
from hpmropt.errors import EvaluationError, TableLoadError

from oracles import evaluate_oracle

# Maximum relative errors achieved by the calibration fit
# (scripts/proxy_fit_report.json); regression-tested here so the shipped
# coefficients cannot silently degrade.
FIT_TOLERANCES = {"lifetime": 0.289, "sdm": 0.261, "f_dh": 0.015, "q_max": 0.024}


class TestClosedFormRelations:
    def test_avg_heat_flux_nominal(self):
        assert avg_heat_flux(1.0, 160.0) == pytest.approx(0.010536, abs=1e-6)

    def test_avg_heat_flux_tall_core(self):
        assert avg_heat_flux(0.97, 190.0) == pytest.approx(0.0091, rel=1e-2)

    def test_heat_flux_constant_consistent_across_anchors(self):
        # q_avg * x_cr * x_fh recovers the same constant on every record
        for rec in ANCHOR_RECORDS:
            k = rec.q_avg * rec.design.x_cr * rec.design.x_fh
            assert k == pytest.approx(1.68576, rel=0.01), rec.name

    def test_uranium_mass_nominal(self):
        assert uranium_mass(1.0, 160.0) == pytest.approx(525.06, rel=1e-4)

    def test_uranium_mass_s2(self):
        assert uranium_mass(0.97, 178.2) == pytest.approx(550.2, rel=1e-3)

    def test_mass_coefficient_consistent_across_anchors(self):
        for rec in ANCHOR_RECORDS:
            c = rec.uranium_mass / (rec.design.x_cr**2 * rec.design.x_fh)
            assert c == pytest.approx(3.2816, rel=0.02), rec.name

    def test_u235_fraction_exact(self):
        assert u235_mass(525.06, 0.197) == pytest.approx(103.44, rel=1e-4)
        for rec in ANCHOR_RECORDS:
            assert u235_mass(rec.uranium_mass, rec.design.x_e) / rec.uranium_mass \
                == pytest.approx(rec.design.x_e)

    def test_burnup_nominal(self):
        assert burnup(6.99, 525.06) == pytest.approx(9.725, abs=2e-3)

    def test_burnup_long_life(self):
        assert burnup(14.03, 586.66) == pytest.approx(17.47, abs=5e-3)

    def test_thermal_power_recovered_across_anchors(self):
        for rec in ANCHOR_RECORDS:
            p = rec.burnup * rec.uranium_mass / (365.25 * rec.lifetime)
            assert p == pytest.approx(2.0, rel=0.01), rec.name

    def test_power_density_examples(self):
        assert power_density(0.010536, 1.0) == pytest.approx(2.105, rel=2e-3)
        assert power_density(0.0091, 0.97) == pytest.approx(1.876, rel=1e-3)
        assert power_density(0.0083, 1.07) == pytest.approx(1.551, rel=1e-3)

    def test_domain_errors(self):
        with pytest.raises(EvaluationError):
            avg_heat_flux(0.0, 160.0)
        with pytest.raises(EvaluationError):
            uranium_mass(-1.0, 160.0)
        with pytest.raises(EvaluationError):
            u235_mass(100.0, 1.5)
        with pytest.raises(EvaluationError):
            burnup(-1.0, 100.0)


class TestProxyModel:
    def test_nominal_anchors_exact(self):
        lifetime, sdm, f_dh, q_max = proxy_eval(NOMINAL_DESIGN)
        assert lifetime == pytest.approx(6.99, rel=1e-12)
        assert sdm == pytest.approx(-6725.0, rel=1e-12)
        assert f_dh == pytest.approx(1.469, rel=1e-12)
        assert q_max == pytest.approx(0.0188, rel=1e-12)

    def test_uncorrelated_variable_leaves_qois_unchanged(self):
        shifted = DesignVector(**{**NOMINAL_DESIGN.to_record(), "x_b10": 0.30})
        assert proxy_eval(shifted) == proxy_eval(NOMINAL_DESIGN)

    def test_anchor_regression_within_fit_tolerance(self):
        for rec in ANCHOR_RECORDS[1:]:
            lifetime, sdm, f_dh, q_max = proxy_eval(rec.design)
            assert lifetime == pytest.approx(rec.lifetime, rel=FIT_TOLERANCES["lifetime"]), rec.name
            assert abs(sdm) == pytest.approx(abs(rec.sdm), rel=FIT_TOLERANCES["sdm"]), rec.name
            assert f_dh == pytest.approx(rec.f_dh, rel=FIT_TOLERANCES["f_dh"]), rec.name
            assert q_max == pytest.approx(rec.q_max, rel=FIT_TOLERANCES["q_max"]), rec.name

    def test_sdm_always_negative_and_peak_above_average(self, rng):
        for _ in range(100):
            d = from_unit_cube(rng.random(7))
            _, sdm, _, q_max = proxy_eval(d)
            assert sdm < 0
            assert q_max >= avg_heat_flux(d.x_cr, d.x_fh)

    def test_q_avg_strictly_decreasing_in_geometry(self):
        base = avg_heat_flux(1.0, 160.0)
        assert avg_heat_flux(1.1, 160.0) < base
        assert avg_heat_flux(1.0, 170.0) < base

    def test_monotone_trends(self):
        base = NOMINAL_DESIGN.to_record()
        f0 = proxy_eval(NOMINAL_DESIGN)[2]
        assert proxy_eval(DesignVector(**{**base, "x_ca": 120.0}))[2] >= f0
        assert proxy_eval(DesignVector(**{**base, "x_mr": 0.9}))[2] >= f0
        life0 = proxy_eval(NOMINAL_DESIGN)[0]
        assert proxy_eval(DesignVector(**{**base, "x_cr": 1.1}))[0] >= life0

    def test_proxy_flags_min_cost_shutdown_margin_violation(self):
        # the lowest-cost anchor design truly violates the -6700 limit; the
        # proxy reproduces the violation even with its fit error
        from hpmropt.anchors import anchor_by_name

        _, sdm, _, _ = proxy_eval(anchor_by_name("s1-min-cost").design)
        assert sdm > -6700.0

    def test_uncalibrated_config_refuses(self):
        cfg = ProxyModelConfig(betas={"lifetime": np.zeros(7)},
                               anchors={"lifetime": 1.0})
        with pytest.raises(EvaluationError):
            proxy_eval(NOMINAL_DESIGN, cfg)

    def test_wrong_correlation_sign_rejected(self):
        betas = {k: np.array(v) for k, v in PROXY_BETA.items()}
        betas["f_dh"] = betas["f_dh"].copy()
        betas["f_dh"][0] = -0.5  # coating-angle coefficient must be positive
        cfg = ProxyModelConfig(betas=betas)
        with pytest.raises(EvaluationError):
            proxy_eval(NOMINAL_DESIGN, cfg)

    def test_invalid_design_rejected(self):
        bad = DesignVector(90, 0.95, 160, 2.3, 0.197, 1.2, 0.825)
        with pytest.raises(EvaluationError):
            proxy_eval(bad)

    def test_config_round_trip(self):
        cfg = ProxyModelConfig()
        clone = ProxyModelConfig.from_config(cfg.to_config())
        assert proxy_eval(NOMINAL_DESIGN, clone) == proxy_eval(NOMINAL_DESIGN, cfg)


def _table_from_anchors(kernel="thin_plate_spline"):
    designs = [rec.design for rec in ANCHOR_RECORDS]
    qois = np.array([[rec.lifetime, rec.sdm, rec.f_dh, rec.q_max]
                     for rec in ANCHOR_RECORDS])
    return SampleTable(designs, qois, kernel=kernel)


class TestSampleTable:
    def test_exact_at_sample_sites(self):
        table = _table_from_anchors()
        for rec in ANCHOR_RECORDS:
            values = tabular_eval(rec.design, table)
            assert values == pytest.approx(
                (rec.lifetime, rec.sdm, rec.f_dh, rec.q_max), rel=1e-6, abs=1e-9)

    def test_two_sample_midpoint_is_mean_with_linear_kernel(self):
        d1 = from_unit_cube(np.full(7, 0.2))
        d2 = from_unit_cube(np.full(7, 0.8))
        mid = from_unit_cube(np.full(7, 0.5))
        qois = np.array([[4.0, -6000.0, 1.2, 0.02], [8.0, -8000.0, 1.4, 0.01]])
        table = SampleTable([d1, d2], qois, kernel="linear")
        values = tabular_eval(mid, table)
        assert values == pytest.approx((6.0, -7000.0, 1.3, 0.015), rel=1e-9)

    def test_dense_proxy_table_self_consistency(self):
        # interpolating a dense low-discrepancy table generated by the proxy
        # tracks the proxy within 5% on interior queries (the lifetime
        # column spans two orders of magnitude and dominates the error)
        from scipy.stats import qmc

        sites = qmc.Sobol(7, scramble=True, seed=11).random(2048)
        designs = [from_unit_cube(u) for u in sites]
        qois = np.array([proxy_eval(d) for d in designs])
        table = SampleTable(designs, qois)
        queries = np.random.default_rng(2024)
        for _ in range(60):
            u = queries.random(7) * 0.7 + 0.15
            d = from_unit_cube(u)
            got = np.array(tabular_eval(d, table))
            want = np.array(proxy_eval(d))
            assert np.all(np.abs(got - want) <= 0.05 * np.abs(want) + 1e-9)

    def test_duplicate_sites_rejected(self):
        qois = np.array([[4.0, -6000.0, 1.2, 0.02], [8.0, -8000.0, 1.4, 0.01]])
        with pytest.raises(TableLoadError):
            SampleTable([NOMINAL_DESIGN, NOMINAL_DESIGN], qois)

    def test_sites_on_a_hyperplane_rejected_naming_the_rank(self):
        # twelve rows pick the linear tail, which needs [1, sites] of full
        # column rank 8; one coordinate fixed at 0.5 leaves rank 7, and the
        # RBF raised a raw LinAlgError
        rng = np.random.default_rng(21)
        sites = rng.random((12, 7))
        sites[:, 3] = 0.5
        qois = np.column_stack([rng.uniform(6, 10, 12), -rng.uniform(6000, 8000, 12),
                                rng.uniform(1.3, 1.6, 12), rng.uniform(0.015, 0.03, 12)])
        with pytest.raises(TableLoadError, match="rank 7 of 8"):
            SampleTable([from_unit_cube(u) for u in sites], qois)
        # off the hyperplane the same rows load
        sites[:, 3] = rng.random(12)
        SampleTable([from_unit_cube(u) for u in sites], qois)

    def test_single_row_rejected(self):
        with pytest.raises(TableLoadError):
            SampleTable([NOMINAL_DESIGN], np.array([[4.0, -6000.0, 1.2, 0.02]]))

    def test_hull_flag(self):
        table = _table_from_anchors()
        inside, extrapolated = table(NOMINAL_DESIGN)
        assert not extrapolated
        corner = from_unit_cube(np.zeros(7))
        _, extrapolated = table(corner)
        assert extrapolated

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "samples.csv"
        header = "x_ca,x_b10,x_fh,x_pp,x_e,x_cr,x_mr,lifetime,sdm,f_dh,q_max"
        rows = [header]
        for rec in ANCHOR_RECORDS[:5]:
            d = rec.design
            rows.append(",".join(map(str, [d.x_ca, d.x_b10, d.x_fh, d.x_pp, d.x_e,
                                           d.x_cr, d.x_mr, rec.lifetime, rec.sdm,
                                           rec.f_dh, rec.q_max])))
        path.write_text("\n".join(rows) + "\n")
        table = SampleTable.from_file(path)
        got = tabular_eval(ANCHOR_RECORDS[0].design, table)
        assert got[0] == pytest.approx(ANCHOR_RECORDS[0].lifetime, rel=1e-6)

    @staticmethod
    def _itc_table(path, itc_cells):
        """The first ``len(itc_cells)`` anchor records, with an itc column."""
        header = "x_ca,x_b10,x_fh,x_pp,x_e,x_cr,x_mr,lifetime,sdm,f_dh,q_max,itc"
        rows = [header]
        for rec, cell in zip(ANCHOR_RECORDS, itc_cells):
            d = rec.design
            rows.append(",".join(map(str, [d.x_ca, d.x_b10, d.x_fh, d.x_pp, d.x_e,
                                           d.x_cr, d.x_mr, rec.lifetime, rec.sdm,
                                           rec.f_dh, rec.q_max, cell])))
        path.write_text("\n".join(rows) + "\n")
        return SampleTable.from_file(path)

    def test_itc_is_interpolated_like_the_qois(self, tmp_path):
        from hpmropt.environment import DesignEvaluator
        from hpmropt.economics import load_scenario

        table = self._itc_table(tmp_path / "samples.csv", [-2.0 - i for i in range(4)])
        evaluator = DesignEvaluator(load_scenario("scenario-1"), model=table)
        assert evaluator.qoi(ANCHOR_RECORDS[1].design).itc == pytest.approx(-3.0, rel=1e-12)
        # away from the sites too (it used to be None there): the same
        # interpolation as a table whose lifetime column holds the itc values
        between = from_unit_cube(np.full(7, 0.41))
        qois = table.qois.copy()
        qois[:, 0] = table.itc
        alone = SampleTable(table.designs, qois)
        assert evaluator.qoi(between).itc == pytest.approx(
            tabular_eval(between, alone)[0], rel=1e-12)

    @pytest.mark.parametrize("itc_cells", [[-2.0, -3.0, -4.0, -5.0, -6.0],
                                           [-2.0, "", -4.0, "", -6.0]])
    def test_spaced_header_reads_the_same_columns(self, tmp_path, itc_cells):
        # rows were read by the unspaced names: a raw KeyError, and a
        # " itc" column was ignored
        from hpmropt.environment import DesignEvaluator
        from hpmropt.economics import load_scenario

        plain = self._itc_table(tmp_path / "plain.csv", itc_cells)
        spaced_path = tmp_path / "spaced.csv"
        spaced_path.write_text((tmp_path / "plain.csv").read_text().replace(",", ", "))
        spaced = SampleTable.from_file(spaced_path)
        assert np.array_equal(spaced.itc, plain.itc, equal_nan=True)
        assert spaced.itc_blank_rows == plain.itc_blank_rows
        scenario = load_scenario("scenario-1")
        for u in (0.41, 0.5):
            design = from_unit_cube(np.full(7, u))
            got = DesignEvaluator(scenario, model=spaced).evaluate(design)
            want = DesignEvaluator(scenario, model=plain).evaluate(design)
            assert got[0].tolist() == want[0].tolist()
            assert got[2].itc == want[2].itc
            assert (got[2].itc is None) == bool(plain.itc_blank_rows)

    def test_itc_column_with_blank_cells_is_not_interpolated(self, tmp_path):
        from hpmropt.environment import DesignEvaluator
        from hpmropt.economics import load_scenario

        table = self._itc_table(tmp_path / "blank.csv", [-2.0, "", -4.0, "", -6.0])
        assert table.itc_blank_rows == [2, 4]
        plain = SampleTable(table.designs, table.qois)
        evaluator = DesignEvaluator(load_scenario("scenario-1"), model=table)
        for u in (0.41, 0.5):
            design = from_unit_cube(np.full(7, u))
            assert table(design) == plain(design)
            assert evaluator.qoi(design).itc is None

    @pytest.mark.parametrize("itc", [[-2.0] * 3, [-2.0, math.inf, -2.0, -2.0]])
    def test_bad_itc_column_rejected(self, itc):
        designs = [rec.design for rec in ANCHOR_RECORDS[:4]]
        qois = [[rec.lifetime, rec.sdm, rec.f_dh, rec.q_max] for rec in ANCHOR_RECORDS[:4]]
        with pytest.raises(TableLoadError, match="itc"):
            SampleTable(designs, qois, itc=itc)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x_ca,x_b10\n1,2\n")
        with pytest.raises(TableLoadError):
            SampleTable.from_file(path)
        path.write_text("x_ca,x_b10,x_fh,x_pp,x_e,x_cr,x_mr,lifetime,sdm,f_dh,q_max\n"
                        "90,0.95,160,2.3,0.197,1.0,oops,7,-6725,1.47,0.0188\n")
        with pytest.raises(TableLoadError):
            SampleTable.from_file(path)


SCIPY_TABLE_MODULES = ("scipy.interpolate", "scipy.optimize", "scipy.special",
                       "scipy.sparse", "scipy.spatial")
# nor does a one-worker PEARL run start a process pool
POOL_MODULES = ("multiprocessing", "concurrent.futures.process")

_PROXY_PATH_THEN_TABLE = """
import json, sys
import numpy as np
import hpmropt
from hpmropt.design_space import NOMINAL_DESIGN, from_unit_cube
from hpmropt.economics import load_scenario
from hpmropt.environment import DesignEvaluator, SampleTable
from hpmropt.runio import RunConfig, run_optimize

out, watched = sys.argv[1], sys.argv[2:]
DesignEvaluator(load_scenario("scenario-3")).evaluate(NOMINAL_DESIGN)
run_optimize(RunConfig(optimizer="nsga2", out_dir=out + "/nsga2",
                       nsga2={"population": 8, "generations": 2}))
run_optimize(RunConfig(optimizer="pearl", out_dir=out + "/pearl",
                       pearl={"agents": 1, "total_steps": 16}))
proxy_path = [m for m in watched if m in sys.modules]
table = SampleTable([from_unit_cube(np.full(7, 0.2)), from_unit_cube(np.full(7, 0.8))],
                    [[4.0, -6000.0, 1.2, 0.02], [8.0, -8000.0, 1.4, 0.01]],
                    kernel="linear")
values, extrapolated = table(from_unit_cube(np.full(7, 0.5)))
print(json.dumps({"proxy_path": proxy_path, "values": values,
                  "extrapolated": extrapolated,
                  "after_table": [m for m in watched if m in sys.modules]}))
"""


def test_proxy_path_loads_no_scipy_table_module(tmp_path):
    # a fresh interpreter: this one already holds scipy through other tests
    src = str(Path(hpmropt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", _PROXY_PATH_THEN_TABLE, str(tmp_path),
         *SCIPY_TABLE_MODULES, *POOL_MODULES],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    seen = json.loads(child.stdout.splitlines()[-1])
    assert seen["proxy_path"] == []
    assert (tmp_path / "nsga2" / "front.tsv").exists()
    assert (tmp_path / "pearl" / "front.tsv").exists()
    # the first table loads interpolation and the LP, and answers
    assert seen["values"] == pytest.approx([6.0, -7000.0, 1.3, 0.015], rel=1e-9)
    assert seen["extrapolated"] is False
    assert {"scipy.interpolate", "scipy.optimize"} <= set(seen["after_table"])


class TestDesignEvaluator:
    def test_nominal_scenario3_feasible(self):
        evaluator = DesignEvaluator(load_scenario("scenario-3"))
        objectives, report, qoi = evaluator.evaluate(NOMINAL_DESIGN)
        assert report.feasible
        assert objectives[1] == pytest.approx(1.469, rel=1e-9)
        assert qoi.lcoe == objectives[0] > 0

    def test_batch_consistency_with_direct_phi(self, rng):
        from hpmropt.constraints import evaluate_constraints

        evaluator = DesignEvaluator(load_scenario("scenario-1"))
        for _ in range(100):
            d = from_unit_cube(rng.random(7))
            objectives, report, qoi = evaluator.evaluate(d)
            assert np.all(np.isfinite(objectives))
            again = evaluate_constraints(evaluator.constraints, qoi)
            assert again.penalty == report.penalty
            assert again.feasible == report.feasible

    def test_q_avg_maximal_at_small_geometry_slice(self, rng):
        # minimum radius and height maximize average flux over an x_pp slice
        evaluator = DesignEvaluator(load_scenario("scenario-1"))
        corner = from_unit_cube(np.array([0.5, 0.5, 0.0, 0.3, 0.5, 0.0, 0.5]))
        q_corner = evaluator.qoi(corner).q_avg
        for _ in range(50):
            u = rng.random(7)
            u[3] = 0.3
            q = evaluator.qoi(from_unit_cube(u)).q_avg
            assert q <= q_corner + 1e-12

    def test_tabular_evaluator_flags_extrapolation(self):
        table = _table_from_anchors()
        evaluator = DesignEvaluator(load_scenario("scenario-1"), model=table)
        qoi = evaluator.qoi(from_unit_cube(np.zeros(7)))
        assert qoi.extrapolated

    def test_scenario_file_proxy_section(self, tmp_path):
        import json

        from importlib import resources

        config = json.loads(
            resources.files("hpmropt.data").joinpath("scenario-1.json").read_text())
        config["name"] = "custom-proxy"
        proxy = ProxyModelConfig()
        config["proxy"] = {**proxy.to_config(), "thermal_power_mw": 4.0}
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(config))
        evaluator = DesignEvaluator(load_scenario(path))
        qoi = evaluator.qoi(NOMINAL_DESIGN)
        # doubled thermal power doubles burnup at fixed lifetime and mass
        assert qoi.burnup == pytest.approx(2 * burnup(qoi.lifetime, qoi.uranium_mass))


class TestEvaluationPath:
    """``DesignEvaluator.evaluate`` against ``oracles.evaluate_oracle``,
    which checks the calibration on every call, fills a dict of yearly
    arrays one fuel batch at a time and sums the penalty over row records."""

    @pytest.mark.parametrize("scenario", ["scenario-1", "scenario-2", "scenario-3"])
    def test_matches_oracle_bit_for_bit(self, scenario):
        evaluator = DesignEvaluator(load_scenario(scenario))
        corners = np.array(list(itertools.product((0.0, 1.0), repeat=7)))
        cube = np.vstack([np.random.default_rng(17).random((2000, 7)), corners])
        for u in cube:
            design = from_unit_cube(u)
            got = evaluator.evaluate(design)
            want = evaluate_oracle(design, evaluator.scenario)
            assert repr(got[0].tolist()) == repr(want[0].tolist()), u
            assert repr(got[1].penalty) == repr(want[1].penalty), u
            assert got[1].feasible is want[1].feasible, u
            assert repr(got[1].rows) == repr(want[1].rows), u
            assert repr(got[2]) == repr(want[2]), u

    def test_proxy_lifetime_floor_over_the_cube(self):
        # the log-linear proxy is extreme at a corner; above 0.3 y a year
        # holds at most four fuel batches, where count * cost is exact
        lifetimes = [proxy_eval(from_unit_cube(np.array(c)))[0]
                     for c in itertools.product((0.0, 1.0), repeat=7)]
        assert min(lifetimes) > 0.3

    def test_config_edits_after_construction_do_not_reach_evaluate(self):
        evaluator = DesignEvaluator(load_scenario("scenario-3"))
        design = from_unit_cube(np.full(7, 0.3))
        before = repr(evaluator.evaluate(design))
        evaluator.proxy_config.betas["lifetime"][:] = 0.0
        evaluator.proxy_config.betas["f_dh"] = np.ones(7)
        evaluator.proxy_config.anchors["f_dh"] = 9.0
        evaluator.proxy_config.heat_flux_k = 3.0
        assert repr(evaluator.evaluate(design)) == before

    def test_uncalibrated_config_rejected_at_construction(self):
        cfg = ProxyModelConfig(betas={"lifetime": np.zeros(7)}, anchors={"lifetime": 1.0})
        with pytest.raises(EvaluationError):
            DesignEvaluator(load_scenario("scenario-1"), proxy_config=cfg)

    def test_proxy_eval_checks_the_config_on_every_call(self):
        cfg = ProxyModelConfig()
        proxy_eval(NOMINAL_DESIGN, cfg)
        cfg.betas["f_dh"][0] = -0.5  # coating-angle coefficient must be positive
        with pytest.raises(EvaluationError):
            proxy_eval(NOMINAL_DESIGN, cfg)

    @staticmethod
    def bound_designs():
        """(on the bound, one ulp outside it) for each side of each of the
        seven bounds.  The other fields are nominal, but for a compact
        radius that stays within its coupled bounds at either end of the
        pitch range."""
        base = dataclasses.replace(NOMINAL_DESIGN, x_cr=0.8)
        (cr_lo, cr_hi), (mr_lo, mr_hi) = resolve_bounds(base.x_pp)
        bounds = {**STATIC_BOUNDS, "x_cr": (cr_lo, cr_hi), "x_mr": (mr_lo, mr_hi)}
        for name in FIELD_NAMES:
            for edge, outward in zip(bounds[name], (-np.inf, np.inf)):
                yield (dataclasses.replace(base, **{name: edge}),
                       dataclasses.replace(base, **{name: math.nextafter(edge, outward)}))

    def test_one_ulp_outside_a_bound_is_rejected_with_validates_message(self):
        evaluator = DesignEvaluator(load_scenario("scenario-3"))
        designs = list(self.bound_designs())
        assert len(designs) == 14
        for on_bound, outside in designs:
            assert validate(on_bound) == []
            evaluator.evaluate(on_bound)
            problems = validate(outside)
            assert len(problems) == 1
            for call in (evaluator.evaluate, evaluator.qoi, proxy_eval):
                with pytest.raises(EvaluationError) as info:
                    call(outside)
                assert str(info.value) == "invalid design: " + problems[0]

    @pytest.mark.parametrize("name", FIELD_NAMES + ("all",))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_are_rejected(self, name, value):
        evaluator = DesignEvaluator(load_scenario("scenario-3"))
        names = FIELD_NAMES if name == "all" else (name,)
        design = dataclasses.replace(NOMINAL_DESIGN, **dict.fromkeys(names, value))
        problems = validate(design)
        assert problems
        with pytest.raises(EvaluationError) as info:
            evaluator.evaluate(design)
        assert str(info.value) == "invalid design: " + "; ".join(problems)

    def test_public_qoi_still_validates(self):
        evaluator = DesignEvaluator(load_scenario("scenario-1"))
        bad = DesignVector(90, 0.95, 160, 2.3, 0.197, 1.2, 0.825)
        for call in (evaluator.qoi, evaluator.evaluate):
            with pytest.raises(EvaluationError):
                call(bad)

    def test_clamped_tabular_lifetime_evaluates_in_bounded_time(self):
        # a 60-row table made from the proxy extrapolates below zero
        # lifetime at the all-zero corner, so the lifetime clamps to 1e-6 y:
        # 6e7 fuel batches, about half a minute when placed one by one
        rng = np.random.default_rng(0)
        designs = [from_unit_cube(u) for u in rng.random((60, 7))]
        table = SampleTable(designs, np.array([proxy_eval(d) for d in designs]))
        evaluator = DesignEvaluator(load_scenario("scenario-3"), model=table)
        corner = from_unit_cube(np.zeros(7))
        start = time.perf_counter()
        objectives, _, qoi = evaluator.evaluate(corner)
        assert time.perf_counter() - start < 1.0
        assert qoi.lifetime == 1e-6
        assert np.all(np.isfinite(objectives))

    def test_pickled_evaluator_evaluates_identically(self):
        # worker processes receive the evaluator, snapshot included, by pickle
        import pickle

        evaluator = DesignEvaluator(load_scenario("scenario-2"))
        clone = pickle.loads(pickle.dumps(evaluator))
        design = from_unit_cube(np.full(7, 0.6))
        assert repr(clone.evaluate(design)) == repr(evaluator.evaluate(design))
