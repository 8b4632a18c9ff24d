import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from hpmropt.anchors import ANCHOR_RECORDS, anchor_by_name
from hpmropt.cli import main
from hpmropt.design_space import NOMINAL_DESIGN, from_unit_cube, write_design_file


@pytest.fixture
def nominal_file(tmp_path):
    path = tmp_path / "nominal.txt"
    write_design_file(NOMINAL_DESIGN, path)
    return str(path)


def write_anchor_table(path):
    header = "x_ca,x_b10,x_fh,x_pp,x_e,x_cr,x_mr,lifetime,sdm,f_dh,q_max"
    rows = [header]
    for rec in ANCHOR_RECORDS:
        d = rec.design
        rows.append(",".join(map(str, [
            d.x_ca, d.x_b10, d.x_fh, d.x_pp, d.x_e, d.x_cr, d.x_mr,
            rec.lifetime, rec.sdm, rec.f_dh, rec.q_max])))
    Path(path).write_text("\n".join(rows) + "\n")


def write_itc_table(path, cells):
    """The anchor table plus an ``itc`` column holding ``cells``."""
    write_anchor_table(path)
    lines = Path(path).read_text().splitlines()
    Path(path).write_text("\n".join([lines[0] + ",itc"]
                                    + [f"{line},{cell}" for line, cell
                                       in zip(lines[1:], cells)]) + "\n")


class TestEvaluate:
    def test_nominal_design_feasible(self, nominal_file, capsys):
        code = main(["evaluate", nominal_file, "--scenario", "scenario-1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "feasible: True" in out
        assert "1.469" in out       # peaking factor
        assert "9.72" in out        # burnup

    def test_sdm_violation_via_tabular_override(self, tmp_path, capsys):
        # the lowest-cost anchor design carries a true shutdown margin of
        # -4830, which violates the -6700 limit once real samples replace
        # the proxy
        table = tmp_path / "samples.csv"
        write_anchor_table(table)
        design_file = tmp_path / "design.txt"
        write_design_file(anchor_by_name("s1-min-cost").design, design_file)
        code = main(["evaluate", str(design_file), "--scenario", "scenario-1",
                     "--evaluator", f"tabular:{table}"])
        out = capsys.readouterr().out
        assert code == 1
        assert "shutdown-margin" in out
        assert "VIOLATED" in out
        assert "feasible: False" in out

    def test_malformed_design_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("x_ca = banana\n")
        code = main(["evaluate", str(bad), "--scenario", "scenario-1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""          # no partial output
        assert "error" in captured.err

    def test_missing_table_is_config_error(self, nominal_file, capsys):
        code = main(["evaluate", nominal_file, "--evaluator", "tabular:/nope.csv"])
        assert code == 2

    @pytest.mark.parametrize("section, key, value", [
        # the two periods must be integers of at least 1; these two raised
        # a raw TypeError (exit 1), and a bool is not an integer
        ("econ", "plant_life_years", 2.5),
        ("econ", "replacement_period_years", 2.5),
        ("econ", "plant_life_years", True),
        ("econ", "replacement_period_years", 0),
        # annual energy must be finite and positive: 0 divided by zero
        # (exit 1), -5 and NaN printed a negative or NaN lcoe (exit 0)
        ("econ", "annual_energy_mwh", 0),
        ("econ", "annual_energy_mwh", -5),
        ("econ", "annual_energy_mwh", float("nan")),
        ("econ", "discount_rate", "0.06"),
        # the six prices must be finite and non-negative: NaN printed
        # lcoe=nan (exit 0)
        ("costs", "fuel_price_per_kgu", float("nan")),
        ("costs", "annual_om", -1.0),
        ("costs", "absorber_price_per_kg", "cheap"),
        # every other numeric cost field must be finite
        ("costs", "vessel_height_cm", float("inf")),
        ("costs", "replacement_fraction", None),
        # the discount arrays grow with the plant life: 10**7 years took
        # 3.6 s and exited 0
        ("econ", "plant_life_years", 10**7),
        # an integer past the float range raised a raw OverflowError
        pytest.param("econ", "annual_energy_mwh", 10**400,
                     id="econ-annual_energy_mwh-10**400"),
    ])
    def test_bad_scenario_value_is_config_error(self, tmp_path, nominal_file, capsys,
                                                section, key, value):
        from importlib import resources

        config = json.loads(resources.files("hpmropt.data")
                            .joinpath("scenario-3.json").read_text())
        config[section][key] = value
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(config))
        code = main(["evaluate", nominal_file, "--scenario", str(scenario)])
        captured = capsys.readouterr()
        assert code == 2
        assert key in captured.err
        assert captured.out == ""

    @staticmethod
    def scenario_file(tmp_path, **sections):
        from importlib import resources

        config = json.loads(resources.files("hpmropt.data")
                            .joinpath("scenario-3.json").read_text())
        config.update(sections)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        return str(path)

    @pytest.mark.parametrize("changes, key", [
        # a NaN at_most limit was never violated (phi=0 ... ok, exit 0), and
        # infinite limits and a NaN weight passed unchecked too
        ({"limit": float("nan")}, "limit"),
        ({"limit": float("inf")}, "limit"),
        ({"limit": float("-inf")}, "limit"),
        ({"limit": "0.025"}, "limit"),
        ({"limit": True}, "limit"),
        ({"weight": float("nan")}, "weight"),
        ({"weight": float("inf")}, "weight"),
        ({"weight": 0}, "weight"),
        ({"weight": -1.0}, "weight"),
        ({"weight": None}, "weight"),
        # rejected before as an evaluation error (exit 3) or an error (exit 1)
        ({"kind": "equals"}, "kind"),
        ({"limit": 0.0}, "limit"),
        # loaded, then failed every evaluation (exit 3)
        ({"qoi": "f_dhh"}, "qoi"),
        ({"qoi": None}, "qoi"),
        # a misspelled key used to be ignored, so the weight took its default
        ({"wieght": 1.0}, "wieght"),
        # an integer past the float range raised a raw OverflowError
        ({"limit": 10**400}, "limit"),
        # the retired hull flag is no quantity of the bundle
        ({"qoi": "extrapolated"}, "qoi"),
    ])
    def test_bad_constraint_record_is_config_error(self, tmp_path, nominal_file, capsys,
                                                   changes, key):
        records = [{"name": "peak-heat-flux", "qoi": "q_max", "kind": "at_most",
                    "limit": 0.025, "weight": 10000.0, **changes}]
        scenario = self.scenario_file(tmp_path, constraints=records)
        code = main(["evaluate", nominal_file, "--scenario", scenario])
        captured = capsys.readouterr()
        assert code == 2
        assert key in captured.err and "peak-heat-flux" in captured.err
        assert captured.out == ""

    ITC_RECORD = {"name": "temperature-coefficient", "qoi": "itc", "kind": "at_most",
                  "limit": -1.0}

    @pytest.mark.parametrize("evaluator, source", [
        (None, "the proxy evaluator"),
        ("no-itc-column", "a sample table with no itc column"),
    ])
    def test_itc_constraint_without_itc_source_is_config_error(
            self, tmp_path, nominal_file, capsys, evaluator, source):
        # loaded, then failed the evaluation with "QoI 'itc' not set" (exit 3)
        records = [*json.loads(Path(self.scenario_file(tmp_path)).read_text())
                   ["constraints"], self.ITC_RECORD]
        scenario = self.scenario_file(tmp_path, constraints=records)
        flags = []
        if evaluator:
            table = tmp_path / "samples.csv"
            write_anchor_table(table)
            flags = ["--evaluator", f"tabular:{table}"]
        code = main(["evaluate", nominal_file, "--scenario", scenario, *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert "constraint temperature-coefficient" in captured.err
        assert "'itc'" in captured.err and source in captured.err
        assert captured.out == ""

    def test_itc_constraint_evaluates_on_a_table_with_itc(self, tmp_path, capsys):
        table = tmp_path / "samples.csv"
        write_itc_table(table, [-2.5] * len(ANCHOR_RECORDS))
        design_file = tmp_path / "design.txt"
        write_design_file(ANCHOR_RECORDS[0].design, design_file)
        scenario = self.scenario_file(tmp_path, constraints=[self.ITC_RECORD])
        code = main(["evaluate", str(design_file), "--scenario", scenario,
                     "--evaluator", f"tabular:{table}"])
        out = capsys.readouterr().out
        assert code == 0
        assert "temperature-coefficient" in out and "-2.5" in out

    def test_itc_constraint_evaluates_away_from_sample_sites(self, tmp_path, capsys):
        # the itc column was read at the sample sites only: this design
        # exited 3 ("constraint tc: QoI 'itc' not set")
        table = tmp_path / "samples.csv"
        write_itc_table(table, [-2.0 - 0.1 * i for i in range(len(ANCHOR_RECORDS))])
        design_file = tmp_path / "design.txt"
        write_design_file(from_unit_cube(np.full(7, 0.41)), design_file)
        records = [*json.loads(Path(self.scenario_file(tmp_path)).read_text())
                   ["constraints"], {**self.ITC_RECORD, "name": "tc"}]
        scenario = self.scenario_file(tmp_path, constraints=records)
        code = main(["evaluate", str(design_file), "--scenario", scenario,
                     "--evaluator", f"tabular:{table}"])
        captured = capsys.readouterr()
        # infeasible on the table's clamped lifetime, and the itc row is read
        assert code == 1
        assert captured.err == ""
        tc_row = next(line for line in captured.out.splitlines()
                      if line.strip().startswith("tc "))
        assert tc_row.split()[-1] == "ok"
        assert any(line.split()[0] == "itc" for line in captured.out.splitlines()
                   if line.strip())

    def test_spaced_table_header_evaluates_like_the_plain_one(self, tmp_path, capsys):
        # a header written with ", " separators died with a raw KeyError
        plain = tmp_path / "plain.csv"
        write_itc_table(plain, [-2.0 - 0.1 * i for i in range(len(ANCHOR_RECORDS))])
        spaced = tmp_path / "spaced.csv"
        spaced.write_text(plain.read_text().replace(",", ", "))
        design_file = tmp_path / "design.txt"
        write_design_file(from_unit_cube(np.full(7, 0.41)), design_file)
        scenario = self.scenario_file(tmp_path, constraints=[self.ITC_RECORD])
        runs = []
        for table in (plain, spaced):
            code = main(["evaluate", str(design_file), "--scenario", scenario,
                         "--evaluator", f"tabular:{table}"])
            runs.append((code, capsys.readouterr()))
        (plain_code, plain_out), (spaced_code, spaced_out) = runs
        assert spaced_code == plain_code == 0
        assert spaced_out.out == plain_out.out
        assert spaced_out.err == plain_out.err == ""
        assert "temperature-coefficient" in spaced_out.out

    def test_itc_column_with_blank_cells_is_config_error(self, tmp_path, nominal_file,
                                                         capsys):
        table = tmp_path / "samples.csv"
        cells = [-2.0] * len(ANCHOR_RECORDS)
        cells[1] = cells[4] = ""
        write_itc_table(table, cells)
        scenario = self.scenario_file(tmp_path, constraints=[self.ITC_RECORD])
        code = main(["evaluate", nominal_file, "--scenario", scenario,
                     "--evaluator", f"tabular:{table}"])
        captured = capsys.readouterr()
        assert code == 2
        assert "constraint temperature-coefficient" in captured.err
        assert "blank in data rows 2, 5" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("limit", [
        [6.0, float("nan")], [float("-inf"), 10.4], [6.0, 10.4, 12.0], [6.0], 6.0,
        [10.4, 6.0], [0.0, 10.4],
    ])
    def test_bad_range_limit_is_config_error(self, tmp_path, nominal_file, capsys, limit):
        records = [{"name": "fuel-lifetime", "qoi": "lifetime", "kind": "range",
                    "limit": limit}]
        scenario = self.scenario_file(tmp_path, constraints=records)
        code = main(["evaluate", nominal_file, "--scenario", scenario])
        captured = capsys.readouterr()
        assert code == 2
        assert "limit" in captured.err and "fuel-lifetime" in captured.err

    @pytest.mark.parametrize("proxy, key", [
        # a raw TypeError from ProxyModelConfig.__init__ (exit 1)
        ({"bogus": 1.0}, "bogus"),
        # printed burnup nan (exit 0)
        ({"thermal_power_mw": float("nan")}, "thermal_power_mw"),
        # an evaluation error (exit 3)
        ({"thermal_power_mw": -1}, "thermal_power_mw"),
        ({"heat_flux_k": 0}, "heat_flux_k"),
        ({"uranium_mass_coeff": float("inf")}, "uranium_mass_coeff"),
        ({"power_density_scale": "x"}, "power_density_scale"),
        ({"anchors": {"lifetime": float("nan")}}, "anchors.lifetime"),
        ({"betas": {"f_dh": [0.1, 0.0, 0.0, 0.2, 0.0, 0.1, float("inf")]}}, "betas.f_dh"),
        ({"betas": 3}, "betas"),
        # ignored (exit 0), and an unknown anchor failed the calibration (exit 3)
        ({"nominal_z": [0.5] * 7}, "nominal_z"),
        ({"anchors": {"lifetime_": 7.0}}, "lifetime_"),
    ])
    def test_bad_proxy_section_is_config_error(self, tmp_path, nominal_file, capsys,
                                               proxy, key):
        scenario = self.scenario_file(tmp_path, proxy=proxy)
        code = main(["evaluate", nominal_file, "--scenario", scenario])
        captured = capsys.readouterr()
        assert code == 2
        assert key in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("key", ["constriants", "ecn"])
    def test_unknown_scenario_key_is_config_error(self, tmp_path, nominal_file, capsys,
                                                  key):
        # a misspelled section used to be ignored: the default constraints
        # or economics applied, and evaluate exited 0
        scenario = self.scenario_file(tmp_path, **{key: {}})
        code = main(["evaluate", nominal_file, "--scenario", scenario])
        captured = capsys.readouterr()
        assert code == 2
        assert key in captured.err
        assert captured.out == ""

    def test_proxy_override_still_applies(self, tmp_path, nominal_file, capsys):
        scenario = self.scenario_file(tmp_path, proxy={"thermal_power_mw": 4.0})
        assert main(["evaluate", nominal_file, "--scenario", scenario]) == 0
        assert "19.4" in capsys.readouterr().out    # burnup doubled from 9.72

    def test_tabular_evaluate_prints_the_nearest_site_distance(self, tmp_path, capsys):
        from hpmropt.environment import SampleTable

        table = tmp_path / "samples.csv"
        write_anchor_table(table)
        for design, want in ((ANCHOR_RECORDS[2].design, "0"),
                             (from_unit_cube(np.full(7, 0.41)), None)):
            design_file = tmp_path / "design.txt"
            write_design_file(design, design_file)
            main(["evaluate", str(design_file), "--evaluator", f"tabular:{table}"])
            out = capsys.readouterr().out
            want = want or f"{SampleTable.from_file(table).nearest_site_distance(design):.6g}"
            assert f"nearest sample site at unit-cube distance {want}\n" in out

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_design_cell_is_table_error(self, tmp_path, nominal_file, capsys,
                                                   cell):
        # loaded, then died in linprog with a raw ValueError (exit 1)
        table = tmp_path / "samples.csv"
        write_anchor_table(table)
        lines = table.read_text().splitlines()
        lines[3] = cell + lines[3][lines[3].index(","):]
        table.write_text("\n".join(lines) + "\n")
        code = main(["evaluate", nominal_file, "--evaluator", f"tabular:{table}"])
        captured = capsys.readouterr()
        assert code == 3
        assert f"{table}:4: design value x_ca is not finite: '{cell}'" in captured.err
        assert captured.out == ""

    def test_pitch_outside_its_domain_is_table_error(self, tmp_path, nominal_file, capsys):
        # escaped as a raw BoundsDomainError: exit 1, no file or line
        table = tmp_path / "samples.csv"
        write_anchor_table(table)
        lines = table.read_text().splitlines()
        cells = lines[5].split(",")
        cells[3] = "9.5"                                  # x_pp
        lines[5] = ",".join(cells)
        table.write_text("\n".join(lines) + "\n")
        code = main(["evaluate", nominal_file, "--evaluator", f"tabular:{table}"])
        captured = capsys.readouterr()
        assert code == 3
        assert f"{table}:6: x_pp=9.5 outside [1.94, 2.78]" in captured.err
        assert captured.out == ""

    def test_degenerate_sample_table_is_table_error(self, tmp_path, nominal_file, capsys):
        # twelve sites with one unit-cube coordinate fixed lie on a
        # hyperplane; the RBF's linear tail raised a raw LinAlgError (exit 1)
        rng = np.random.default_rng(4)
        header = "x_ca,x_b10,x_fh,x_pp,x_e,x_cr,x_mr,lifetime,sdm,f_dh,q_max"
        rows = [header]
        for u in rng.random((12, 7)):
            u[2] = 0.5
            d = from_unit_cube(u)
            rows.append(",".join(map(repr, [
                d.x_ca, d.x_b10, d.x_fh, d.x_pp, d.x_e, d.x_cr, d.x_mr,
                rng.uniform(6, 10), -rng.uniform(6000, 8000), rng.uniform(1.3, 1.6),
                rng.uniform(0.015, 0.03)])))
        table = tmp_path / "samples.csv"
        table.write_text("\n".join(rows) + "\n")
        code = main(["evaluate", nominal_file, "--evaluator", f"tabular:{table}"])
        captured = capsys.readouterr()
        assert code == 3
        assert "rank 7 of 8" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("fault", ["missing", "directory", "not UTF-8"])
@pytest.mark.parametrize("argv", [
    ["evaluate", "{path}"],
    ["optimize", "--scenario", "{path}"],
    ["optimize", "--evaluator", "tabular:{path}"],
], ids=["design", "scenario", "table"])
def test_an_unreadable_input_file_is_config_error(tmp_path, capsys, argv, fault):
    # each raised a raw FileNotFoundError, IsADirectoryError or
    # UnicodeDecodeError (exit 1), but a missing table and a missing or
    # directory scenario, which exited 2
    path = tmp_path / "input"
    if fault == "directory":
        path.mkdir()
    elif fault == "not UTF-8":
        path.write_bytes(b"x_ca = 90\n\xff\xfe\n")
    argv = [arg.format(path=path) for arg in argv]
    if argv[0] == "optimize":
        argv += ["--agents", "1", "--steps", "8", "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert str(path) in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and not (tmp_path / "run").exists()


class TestScenarios:
    def test_exactly_three_presets(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert out.count("scenario-") == 3
        assert "45,000.00" in out
        assert "14,268.00" in out

    def test_user_scenario_appears(self, tmp_path, capsys):
        config = {
            "name": "cheap-everything",
            "costs": {
                "axial_reflector_price_per_kg": 1.0,
                "drum_reflector_price_per_kg": 1.0,
                "absorber_price_per_kg": 1.0,
                "fuel_price_per_kgu": 1.0,
                "fixed_direct_capital": 1.0,
                "annual_om": 1.0,
            },
        }
        (tmp_path / "cheap.json").write_text(json.dumps(config))
        assert main(["scenarios", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cheap-everything" in out

    @pytest.mark.parametrize("via", ["--dir", "HPMROPT_SCENARIO_DIR"])
    def test_a_user_scenario_is_listed_by_what_scenario_loads(self, tmp_path, capsys,
                                                               monkeypatch, via):
        # it was listed by its name, my-scn, which --scenario rejects (exit 2)
        (tmp_path / "scn").mkdir()
        (tmp_path / "scn" / "mine.json").write_text(json.dumps({
            "name": "my-scn", "costs": {
                "axial_reflector_price_per_kg": 80.0, "drum_reflector_price_per_kg": 80.0,
                "absorber_price_per_kg": 14268.0, "fuel_price_per_kgu": 80000.0,
                "fixed_direct_capital": 1.0e7, "annual_om": 1.0e6}}))
        monkeypatch.chdir(tmp_path)
        if via == "--dir":
            argv = ["scenarios", "--dir", "scn"]
        else:
            monkeypatch.setenv(via, "scn")
            argv = ["scenarios"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        tokens = [line.split(": ", 1)[0] for line in lines if not line.startswith(" ")]
        mine = os.path.join("scn", "mine.json")
        assert tokens == ["scenario-1", "scenario-2", "scenario-3", mine]
        assert "  name            : my-scn" in lines
        assert main(["optimize", "--scenario", mine, "--agents", "1", "--steps", "8",
                     "--out", str(tmp_path / "run")]) == 0


class TestOptimize:
    def test_minimal_end_to_end_run(self, tmp_path, capsys):
        out_dir = tmp_path / "run-min"
        code = main(["optimize", "--scenario", "scenario-3", "--optimizer", "pearl",
                     "--agents", "1", "--steps", "8", "--seed", "3",
                     "--out", str(out_dir)])
        assert code == 0
        for name in ("manifest.json", "report.json", "front.tsv", "front.svg",
                     "history-agent3.tsv", "buffer-agent3.tsv"):
            assert (out_dir / name).exists(), name

    def test_nsga2_run_and_report_compare(self, tmp_path, capsys):
        pearl_dir = tmp_path / "run-pearl"
        ga_dir = tmp_path / "run-ga"
        assert main(["optimize", "--scenario", "scenario-3", "--optimizer", "pearl",
                     "--agents", "2", "--steps", "128", "--seed", "0",
                     "--out", str(pearl_dir)]) == 0
        assert main(["optimize", "--scenario", "scenario-3", "--optimizer", "nsga2",
                     "--steps", "128", "--seed", "0", "--out", str(ga_dir)]) == 0
        assert (ga_dir / "history-generations.tsv").exists()
        capsys.readouterr()
        assert main(["report", str(pearl_dir), "--compare", str(ga_dir)]) == 0
        out = capsys.readouterr().out
        assert "hypervolume" in out

    def test_manifest_rerun_is_byte_identical(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["optimize", "--scenario", "scenario-3", "--optimizer", "pearl",
                     "--agents", "2", "--steps", "64", "--seed", "11",
                     "--out", str(first)]) == 0
        assert main(["optimize", "--config", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
        assert (first / "front.tsv").read_bytes() == (second / "front.tsv").read_bytes()
        assert (first / "manifest.json").read_bytes() == \
            (second / "manifest.json").read_bytes()

    def test_worker_count_changes_no_run_file(self, tmp_path):
        # the worker count only splits the agents into groups: a pooled run
        # writes the serial run's files, manifest included, byte for byte
        runs = {}
        for workers in (1, 2):
            out_dir = tmp_path / f"workers-{workers}"
            assert main(["optimize", "--scenario", "scenario-3", "--optimizer", "pearl",
                         "--agents", "2", "--steps", "256", "--seed", "5",
                         "--workers", str(workers), "--out", str(out_dir)]) == 0
            runs[workers] = {path.name: path.read_bytes()
                             for path in sorted(out_dir.iterdir())}
        serial, pooled = runs[1], runs[2]
        assert sorted(serial) == sorted(pooled)
        assert {"front.tsv", "report.json", "history-agent5.tsv", "history-agent6.tsv",
                "updates-agent5.tsv", "buffer-agent6.tsv"} <= set(serial)
        assert "workers" not in json.loads(serial["manifest.json"])["config"]["pearl"]
        for name in serial:
            assert hashlib.sha256(serial[name]).hexdigest() == \
                hashlib.sha256(pooled[name]).hexdigest(), name

    def test_manifest_with_a_worker_count_still_reruns(self, tmp_path):
        # manifests written before the count left them still carry it
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["optimize", "--scenario", "scenario-3", "--optimizer", "pearl",
                     "--agents", "2", "--steps", "64", "--seed", "11",
                     "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        manifest["config"]["pearl"]["workers"] = 2
        old = tmp_path / "old-manifest.json"
        old.write_text(json.dumps(manifest))
        assert main(["optimize", "--config", str(old), "--out", str(second)]) == 0
        for name in ("front.tsv", "manifest.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    @pytest.mark.parametrize("flags, fresh", [
        (["--seed", "11"], ["--agents", "2", "--steps", "32", "--seed", "11"]),
        (["--agents", "4", "--steps", "64"], ["--agents", "4", "--steps", "64", "--seed", "3"]),
    ], ids=["seed", "agents"])
    def test_a_seed_or_agents_flag_on_a_rerun_resolves_fresh_seeds(self, tmp_path, flags,
                                                                  fresh):
        # the manifest's recorded seeds would override either flag: the
        # rerun writes the files of the fresh run that the flags describe
        first, rerun, alone = tmp_path / "first", tmp_path / "rerun", tmp_path / "alone"
        assert main(["optimize", "--scenario", "scenario-3", "--agents", "2",
                     "--steps", "32", "--seed", "3", "--out", str(first)]) == 0
        assert main(["optimize", "--config", str(first / "manifest.json"), *flags,
                     "--out", str(rerun)]) == 0
        assert main(["optimize", "--scenario", "scenario-3", *fresh,
                     "--out", str(alone)]) == 0
        files = sorted(path.name for path in alone.iterdir())
        assert sorted(path.name for path in rerun.iterdir()) == files
        for name in files:
            assert (rerun / name).read_bytes() == (alone / name).read_bytes(), name

    def test_a_run_leaves_the_callers_config_as_it_was(self, tmp_path):
        # the resolved seeds go into the manifest only, so the same config
        # reruns with another agent count
        from hpmropt.runio import RunConfig, run_optimize

        config = RunConfig(out_dir=str(tmp_path / "first"),
                           pearl={"agents": 2, "total_steps": 16, "base_seed": 3})
        before = json.dumps(config.pearl, sort_keys=True)
        run_optimize(config)
        assert json.dumps(config.pearl, sort_keys=True) == before
        manifest = json.loads((tmp_path / "first" / "manifest.json").read_text())
        assert manifest["config"]["pearl"]["seeds"] == [3, 4]
        config.pearl["agents"], config.out_dir = 4, str(tmp_path / "second")
        assert run_optimize(config)["evaluations"] == 16

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HPMROPT_OUTPUT_ROOT", str(tmp_path))
        assert main(["optimize", "--scenario", "scenario-3", "--optimizer", "pearl",
                     "--agents", "1", "--steps", "8", "--seed", "0",
                     "--out", "nested/run"]) == 0
        assert (tmp_path / "nested" / "run" / "front.tsv").exists()

    def test_bad_config_exit_code(self, capsys):
        assert main(["optimize", "--scenario", "scenario-9"]) == 2

    @pytest.mark.parametrize("argv, name", [
        # each raised a raw exception (exit 1) from reading the file or a flag
        (["--config", "{tmp}/missing.json"], "missing.json"),
        (["--config", "{tmp}/invalid.json"], "invalid.json"),
        (["--config", "{tmp}/huge.json"], "huge.json"),
        (["--scenario", "{tmp}"], "{tmp}"),
        (["--scenario", "{tmp}/huge.json"], "huge.json"),
        (["--evaluator", "bogus"], "bogus"),
        # ran with no deadline and exited 0
        (["--max-seconds", "nan"], "max_seconds"),
    ])
    def test_unreadable_file_or_bad_flag_is_config_error(self, tmp_path, capsys,
                                                         argv, name):
        (tmp_path / "invalid.json").write_text("{bad")
        # past Python's limit on the digits of a decimal integer
        (tmp_path / "huge.json").write_text('{"max_seconds": ' + "9" * 5000 + "}")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        code = main(["optimize", *argv, "--agents", "2", "--steps", "16",
                     "--out", str(tmp_path / "r")])
        assert code == 2
        assert name.format(tmp=tmp_path) in capsys.readouterr().err
        assert not (tmp_path / "r" / "front.tsv").exists()

    @pytest.mark.parametrize("manifest, key", [
        ({"pearl": {"bogus": 1}}, "bogus"),
        ({"optimizer": "nsga2", "nsga2": {"popsize": 3}}, "popsize"),
        # keys of the retired value head: old manifests that carry them exit 2
        ({"pearl": {"value_coeff": 0.5}}, "value_coeff"),
        ({"pearl": {"normalize_advantage": True}}, "normalize_advantage"),
        # these six raised a raw AttributeError or TypeError
        ({"evaluator": 5}, "evaluator"),
        ({"scenario": None}, "scenario"),
        ({"scenario": 5}, "scenario"),
        ({"nsga2": None}, "nsga2"),
        ([1, 2], "manifest"),
        ({"max_seconds": "x"}, "max_seconds"),
        # ran the whole default budget with no deadline, and exited 0
        ({"max_seconds": float("nan")}, "max_seconds"),
    ])
    def test_unknown_optimizer_key_is_config_error(self, tmp_path, capsys,
                                                   manifest, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(manifest))
        code = main(["optimize", "--config", str(config), "--out", str(tmp_path / "r")])
        assert code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("argv, manifest, name", [
        # each exited 2 but left the run directory behind: the first with a
        # manifest in it, the other two empty
        ([], {"optimizer": "nsga2", "nsga2": {"population": 1}}, "population"),
        ([], {"pearl": {"agents": 0}}, "agents"),
        (["--evaluator", "tabular:{tmp}/missing.csv"], {}, "missing.csv"),
    ], ids=["nsga2-population", "pearl-agents", "missing-table"])
    def test_a_rejected_run_leaves_no_directory(self, tmp_path, capsys, argv, manifest,
                                                name):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(manifest))
        out = tmp_path / "r"
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(["optimize", "--config", str(config), *argv, "--out", str(out)]) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        # gone, at any value: an archive always has kappa - 1 divisions
        ("niching_divisions", None),
        ("niching_divisions", 0),
        ("niching_divisions", -3),
        ("kappa", 2.5),               # these two used to fail every agent
        ("distance_metric", "bogus"),
    ])
    def test_bad_archive_setting_is_config_error(self, tmp_path, capsys, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"pearl": {"agents": 2, "total_steps": 64, key: value}}))
        out = tmp_path / "r"
        code = main(["optimize", "--config", str(config), "--out", str(out)])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (out / "front.tsv").exists()

    @pytest.mark.parametrize("key, value", [
        # these four used to raise a raw TypeError (exit 1, traceback)
        ("learning_rate", "fast"),
        ("workers", "2"),
        ("base_seed", "a"),
        ("entropy_coeff", None),
        ("init_log_std", "x"),          # used to fail every agent (exit 1)
        ("failure_penalty", -1),        # a failed evaluation would earn +1
        ("checkpoint_interval", -5),    # used to run and write no checkpoint
        ("workers", 0),                 # used to run serially without a word
        # gone, at any value: a run has one schedule, its infeasibility
        # offset is kappa + 1, and its initial spread and centre scale are
        # constants
        ("shared_buffer", False),
        ("shared_buffer", "yes"),
        ("shared_buffer", "false"),
        ("infeasibility_offset", None),
        ("init_log_std_spread", 0.3),
        ("init_center_scale", 0.8),
    ])
    def test_bad_pearl_value_is_config_error(self, tmp_path, capsys, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"pearl": {"agents": 2, "total_steps": 64, key: value}}))
        out = tmp_path / "r"
        code = main(["optimize", "--config", str(config), "--out", str(out)])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (out / "front.tsv").exists()

    @pytest.mark.parametrize("key, value", [
        ("crossover_eta", -1),          # these two divided by zero (exit 1)
        ("mutation_eta", -1.0),
        ("crossover_eta", None),        # these six raised a raw TypeError
        ("mutation_eta", "x"),
        ("crossover_prob", "x"),
        ("population", "64"),
        ("generations", 2.5),
        ("seed", "a"),
        ("seed", -1),                   # raised a raw ValueError
        ("generations", -3),            # ran no generation and exited 0
    ])
    def test_bad_nsga2_value_is_config_error(self, tmp_path, capsys, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"optimizer": "nsga2", "nsga2": {"population": 8, "generations": 1,
                                             key: value}}))
        out = tmp_path / "r"
        code = main(["optimize", "--config", str(config), "--out", str(out)])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (out / "front.tsv").exists()

    @pytest.mark.parametrize("flag", ["--agents", "--workers"])
    def test_pearl_only_flag_on_nsga2_is_config_error(self, tmp_path, capsys, flag):
        # NSGA-II ran its 126 evaluations and exited 0, ignoring the flag
        out = tmp_path / "r"
        code = main(["optimize", "--scenario", "scenario-3", "--optimizer", "nsga2",
                     flag, "3", "--steps", "128", "--out", str(out)])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_tabular_runs_solve_no_linear_program(self, tmp_path, monkeypatch, capsys):
        # every tabular evaluation used to solve a hull-membership LP
        import scipy.optimize

        def refuse(*args, **kwargs):
            raise AssertionError("a tabular evaluation called linprog")

        monkeypatch.setattr(scipy.optimize, "linprog", refuse)
        table = tmp_path / "samples.csv"
        write_anchor_table(table)
        design_file = tmp_path / "design.txt"
        write_design_file(from_unit_cube(np.full(7, 0.41)), design_file)
        assert main(["evaluate", str(design_file), "--scenario", "scenario-3",
                     "--evaluator", f"tabular:{table}"]) in (0, 1)
        out = tmp_path / "run"
        assert main(["optimize", "--scenario", "scenario-3", "--optimizer", "pearl",
                     "--evaluator", f"tabular:{table}", "--agents", "2",
                     "--steps", "32", "--seed", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert (out / "incidents.jsonl").read_text() == ""

    def test_steps_not_divisible_by_agents_is_config_error(self, tmp_path, capsys):
        code = main(["optimize", "--scenario", "scenario-3", "--optimizer", "pearl",
                     "--agents", "3", "--steps", "64", "--out", str(tmp_path / "r")])
        assert code == 2
        assert "divisible by agents" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["0", "-8"])
    def test_pearl_steps_below_one_is_config_error(self, tmp_path, capsys, steps):
        # used to print "status: clean" and "evaluations: 0", then exit 0
        code = main(["optimize", "--scenario", "scenario-3", "--optimizer", "pearl",
                     "--agents", "2", "--steps", steps, "--out", str(tmp_path / "r")])
        assert code == 2
        assert "total_steps" in capsys.readouterr().err
        assert not (tmp_path / "r" / "front.tsv").exists()

    def test_nsga2_steps_below_two_populations_is_config_error(self, tmp_path, capsys):
        code = main(["optimize", "--scenario", "scenario-3", "--optimizer", "nsga2",
                     "--steps", "64", "--out", str(tmp_path / "r")])
        assert code == 2
        assert "minimum of 128" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("flags", [
        ["--optimizer", "pearl", "--agents", "2", "--steps", "64"],
        ["--optimizer", "nsga2", "--steps", "192"],
    ])
    def test_report_json_counts_evaluations(self, tmp_path, monkeypatch, flags):
        from hpmropt.environment import DesignEvaluator

        calls = []
        evaluate = DesignEvaluator.evaluate

        def counted(self, design):
            calls.append(design)
            return evaluate(self, design)

        monkeypatch.setattr(DesignEvaluator, "evaluate", counted)
        out_dir = tmp_path / "run"
        assert main(["optimize", "--scenario", "scenario-3", "--seed", "5",
                     "--out", str(out_dir), *flags]) == 0
        summary = json.loads((out_dir / "report.json").read_text())
        assert summary["evaluations"] == len(calls)
        assert 0 < summary["evaluations"] <= int(flags[-1])

    def test_policy_checkpoints_written(self, tmp_path):
        from hpmropt.runio import RunConfig, run_optimize

        config = RunConfig(
            scenario="scenario-3", optimizer="pearl", out_dir=str(tmp_path),
            pearl={"agents": 1, "total_steps": 32, "base_seed": 4,
                   "checkpoint_interval": 16})
        run_optimize(config)
        checkpoints = sorted(tmp_path.glob("policy-4-step*.npz"))
        assert [p.name for p in checkpoints] == [
            "policy-4-step000016.npz", "policy-4-step000032.npz"]
        loaded = np.load(checkpoints[-1])
        assert loaded["log_std"].shape == (7,)

    def test_repeated_seeds_keep_every_agents_files(self, tmp_path):
        # two agents of seed 7 wrote one history-agent7.tsv of 8 rows: the
        # second overwrote the first
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"pearl": {
            "agents": 2, "total_steps": 16, "seeds": [7, 7], "checkpoint_interval": 8}}))
        out = tmp_path / "run"
        assert main(["optimize", "--config", str(config), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["evaluations"] == 16
        histories = sorted(out.glob("history-agent*.tsv"))
        assert [p.name for p in histories] == ["history-agent7-0.tsv",
                                               "history-agent7-1.tsv"]
        assert [len(p.read_text().splitlines()) - 1 for p in histories] == [8, 8]
        for kind in ("updates", "buffer"):
            assert len(list(out.glob(f"{kind}-agent7-?.tsv"))) == 2, kind
        assert sorted(p.name for p in out.glob("policy-*.npz")) == [
            "policy-7-0-step000008.npz", "policy-7-1-step000008.npz"]

    def test_update_telemetry_written_beside_history(self, tmp_path):
        import csv

        from hpmropt.economics import load_scenario
        from hpmropt.environment import DesignEvaluator
        from hpmropt.pearl import PearlConfig, run_multi
        from hpmropt.runio import RunConfig, run_optimize

        pearl = {"agents": 2, "total_steps": 64, "base_seed": 4}
        run_optimize(RunConfig(scenario="scenario-3", optimizer="pearl",
                               out_dir=str(tmp_path), pearl=pearl))
        result = run_multi(DesignEvaluator(load_scenario("scenario-3")),
                           PearlConfig(**pearl))
        columns = ["update", "loss", "grad_norm", "entropy", "approx_kl",
                   "clip_frac", "skipped"]
        for agent in result.agents:
            with open(tmp_path / f"updates-agent{agent.seed}.tsv", newline="") as fh:
                rows = list(csv.reader(fh, delimiter="\t"))
            assert rows[0] == columns
            assert len(rows) == 1 + 32 // 8 == 1 + len(agent.update_log)
            for index, (row, stats) in enumerate(zip(rows[1:], agent.update_log)):
                assert row == [str(index)] + [
                    repr(float(getattr(stats, name))) for name in columns[1:-1]] \
                    + [str(int(stats.skipped))]
        header = (tmp_path / "front.tsv").read_text().splitlines()[0].split("\t")
        assert not set(columns[1:]) & set(header)

    def test_incidents_written_beside_front(self, tmp_path, monkeypatch):
        from hpmropt import runio

        class Faulty:
            """The real evaluator, except that step 2 raises on both
            attempts and step 6 returns a NaN objective."""

            def __init__(self, inner):
                self.inner, self.calls = inner, 0

            def evaluate(self, design):
                self.calls += 1
                if self.calls in (3, 4):
                    raise RuntimeError("solver diverged")
                objectives, report, qoi = self.inner.evaluate(design)
                if self.calls == 8:
                    objectives = np.array([np.nan, objectives[1]])
                return objectives, report, qoi

        clean = tmp_path / "clean"
        assert main(["optimize", "--scenario", "scenario-3", "--optimizer", "pearl",
                     "--agents", "1", "--steps", "8", "--seed", "3",
                     "--out", str(clean)]) == 0
        assert (clean / "incidents.jsonl").read_text() == ""

        build = runio.build_evaluator
        monkeypatch.setattr(runio, "build_evaluator", lambda config: Faulty(build(config)))
        # two failure penalties of 1e308 overflow the batch's reward sum, so
        # the standardized returns are NaN and the batch's update is skipped
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": "scenario-3", "pearl": {
            "agents": 1, "total_steps": 8, "base_seed": 3, "failure_penalty": 1e308}}))
        faulty = tmp_path / "faulty"
        assert main(["optimize", "--config", str(config), "--out", str(faulty)]) == 0
        lines = (faulty / "incidents.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            {"seed": 3, "step": 2, "kind": "evaluation_failed",
             "exception": "RuntimeError", "message": "solver diverged"},
            {"seed": 3, "step": 6, "kind": "non_finite_objectives", "exception": None,
             "message": json.loads(lines[1])["message"]},
            {"seed": 3, "step": 7, "kind": "skipped_update", "exception": None,
             "message": "non-finite gradient or loss"},
        ]
        assert "nan" in json.loads(lines[1])["message"]
        header = (faulty / "front.tsv").read_text().splitlines()[0]
        assert "incident" not in header
        assert "incident" not in (faulty / "manifest.json").read_text()

    def test_a_row_that_sits_out_raises_no_numpy_warning(self, tmp_path, monkeypatch):
        # the third of three agents fails both attempts at steps 0 and 1, so
        # two failure penalties of 1e308 overflow its first batch's reward
        # sum: its row sits out that update while the other two step on
        import warnings

        from hpmropt import runio

        class Faulty:
            def __init__(self, inner):
                self.inner, self.calls = inner, 0

            def evaluate(self, design):
                self.calls += 1
                if self.calls in (3, 4, 7, 8):
                    raise RuntimeError("solver diverged")
                return self.inner.evaluate(design)

        build = runio.build_evaluator
        monkeypatch.setattr(runio, "build_evaluator", lambda config: Faulty(build(config)))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": "scenario-3", "pearl": {
            "agents": 3, "total_steps": 48, "base_seed": 3, "failure_penalty": 1e308}}))
        runs = {}
        for name, action in (("quiet", "ignore"), ("strict", "error")):
            with warnings.catch_warnings():
                warnings.simplefilter(action, RuntimeWarning)
                assert main(["optimize", "--config", str(config),
                             "--out", str(tmp_path / name)]) == 0
            runs[name] = {path.name: path.read_bytes()
                          for path in sorted((tmp_path / name).iterdir())}
        assert runs["strict"] == runs["quiet"]
        updates = (tmp_path / "strict" / "updates-agent5.tsv").read_text().splitlines()
        assert [line.split("\t")[-1] for line in updates[1:]] == ["1", "0"]

    def test_misspelled_constraint_qoi_fails_at_load(self, tmp_path, capsys):
        # the record loaded, then every evaluation failed: one incident per
        # step, "status: clean" and exit 0
        records = [*json.loads(Path(TestEvaluate.scenario_file(tmp_path))
                               .read_text())["constraints"],
                   {"name": "typo", "qoi": "f_dhh", "kind": "at_most", "limit": 1.5}]
        scenario = TestEvaluate.scenario_file(tmp_path, constraints=records)
        out_dir = tmp_path / "typo-run"
        code = main(["optimize", "--scenario", scenario, "--optimizer", "pearl",
                     "--agents", "2", "--steps", "256", "--seed", "1",
                     "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert "constraint typo" in captured.err and "qoi" in captured.err
        assert "'f_dhh'" in captured.err
        assert not (out_dir / "report.json").exists()

    def test_itc_constraint_on_proxy_fails_at_load(self, tmp_path, capsys):
        # the run started, then exited 3 at its first evaluation
        records = [*json.loads(Path(TestEvaluate.scenario_file(tmp_path))
                               .read_text())["constraints"], TestEvaluate.ITC_RECORD]
        scenario = TestEvaluate.scenario_file(tmp_path, constraints=records)
        out_dir = tmp_path / "itc-run"
        code = main(["optimize", "--scenario", scenario, "--optimizer", "nsga2",
                     "--steps", "128", "--seed", "1", "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert "constraint temperature-coefficient" in captured.err
        assert "'itc'" in captured.err and "proxy" in captured.err
        assert not (out_dir / "report.json").exists()

    def test_itc_constraint_on_a_table_runs(self, tmp_path, capsys):
        # with an itc column the run exited 3 at its first evaluation away
        # from a sample site
        table = tmp_path / "samples.csv"
        write_itc_table(table, [-2.0 - 0.1 * i for i in range(len(ANCHOR_RECORDS))])
        records = [*json.loads(Path(TestEvaluate.scenario_file(tmp_path))
                               .read_text())["constraints"],
                   {**TestEvaluate.ITC_RECORD, "name": "tc"}]
        scenario = TestEvaluate.scenario_file(tmp_path, constraints=records)
        out_dir = tmp_path / "itc-run"
        code = main(["optimize", "--scenario", scenario, "--optimizer", "nsga2",
                     "--evaluator", f"tabular:{table}", "--steps", "128", "--seed", "1",
                     "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "status        : clean" in captured.out
        assert json.loads((out_dir / "report.json").read_text())["evaluations"] > 0

    def test_run_with_no_successful_evaluation_fails(self, tmp_path, monkeypatch,
                                                     capsys):
        from hpmropt import runio

        class Broken:
            def evaluate(self, design):
                raise RuntimeError("solver unavailable")

        monkeypatch.setattr(runio, "build_evaluator", lambda config: Broken())
        out_dir = tmp_path / "broken"
        code = main(["optimize", "--scenario", "scenario-3", "--optimizer", "pearl",
                     "--agents", "2", "--steps", "128", "--seed", "1",
                     "--out", str(out_dir)])
        assert code == 1
        assert "status        : failed" in capsys.readouterr().out
        summary = json.loads((out_dir / "report.json").read_text())
        assert summary["status"] == "failed"
        assert summary["evaluations"] == 128 and summary["front_size"] == 0
        incidents = (out_dir / "incidents.jsonl").read_text().splitlines()
        assert len(incidents) == 128

    def test_max_seconds_truncates_to_partial(self, tmp_path, capsys):
        from hpmropt.metrics import load_front
        from hpmropt.pareto import dominates

        # NSGA-II ignored the deadline: it ran the whole budget, clean, exit 0
        for flags in (["--optimizer", "pearl", "--agents", "1"], ["--optimizer", "nsga2"]):
            out_dir = tmp_path / flags[1]
            code = main(["optimize", "--scenario", "scenario-3", *flags,
                         "--steps", "100000", "--seed", "1",
                         "--max-seconds", "1.0", "--out", str(out_dir)])
            assert code == 4, flags
            summary = json.loads((out_dir / "report.json").read_text())
            assert summary["status"] == "partial", flags
            assert 0 < summary["evaluations"] < 100000, flags
            points = load_front(out_dir / "front.tsv").points
            assert not any(dominates(p, q) for p in points for q in points), flags

    @pytest.mark.parametrize("flags", [
        ["--optimizer", "pearl", "--agents", "2", "--steps", "64"],
        ["--optimizer", "nsga2", "--steps", "192"],
    ], ids=["pearl", "nsga2"])
    def test_a_deadline_that_never_expires_changes_only_the_manifest(self, tmp_path,
                                                                     flags):
        runs = {}
        for deadline in ([], ["--max-seconds", "1e9"]):
            out_dir = tmp_path / f"run-{len(deadline)}"
            assert main(["optimize", "--scenario", "scenario-3", "--seed", "4",
                         "--out", str(out_dir), *flags, *deadline]) == 0
            runs[len(deadline)] = {path.name: path.read_bytes()
                                   for path in sorted(out_dir.iterdir())}
        without, with_deadline = runs[0], runs[2]
        assert sorted(without) == sorted(with_deadline)
        assert {"front.tsv", "report.json"} <= set(without)
        assert [name for name in without
                if without[name] != with_deadline[name]] == ["manifest.json"]

    def test_readme_names_every_file_a_run_writes(self, tmp_path, monkeypatch):
        # the file kinds of README's run-directory bullet, <name> and <step>
        # standing for any text
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        bullet = readme.split("- `optimize` writes a self-describing run directory", 1)[1]
        bullet = bullet.split("\n- ", 1)[0]
        kinds = re.findall(r"`([\w<>-]+\.(?:json|jsonl|tsv|svg|npz))`", bullet)
        patterns = {kind: re.compile(".+".join(map(re.escape, re.split(r"<\w+>", kind))))
                    for kind in kinds}
        from hpmropt import metrics, runio

        tables, original = [], metrics.write_table

        def write_table(path, header, rows):
            tables.append(Path(path))
            return original(path, header, rows)

        monkeypatch.setattr(metrics, "write_table", write_table)
        monkeypatch.setattr(runio, "write_table", write_table)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"pearl": {"agents": 2, "total_steps": 16,
                                                "checkpoint_interval": 8}}))
        assert main(["optimize", "--config", str(config), "--out", str(tmp_path / "pearl")]) == 0
        assert main(["optimize", "--optimizer", "nsga2", "--steps", "128",
                     "--out", str(tmp_path / "nsga2")]) == 0
        written = [path for run in ("pearl", "nsga2") for path in (tmp_path / run).iterdir()]
        matched = {path.name: [kind for kind, pattern in patterns.items()
                               if pattern.fullmatch(path.name)] for path in written}
        assert all(len(found) == 1 for found in matched.values()), matched
        assert {kind for found in matched.values() for kind in found} == set(kinds)
        # every table of a run goes through the one writer
        assert sorted(path for path in written if path.suffix == ".tsv") == sorted(tables)


class TestFrontExports:
    def test_front_tsv_round_trips_designs(self, tmp_path):
        from hpmropt.metrics import load_front

        out_dir = tmp_path / "run"
        main(["optimize", "--scenario", "scenario-3", "--optimizer", "pearl",
              "--agents", "1", "--steps", "64", "--seed", "2", "--out", str(out_dir)])
        report = load_front(out_dir / "front.tsv")
        assert report.points
        assert all(p.payload.design is not None for p in report.points)

    def test_malformed_front_is_config_error(self, tmp_path, capsys):
        header = "label\tpoint_id\tobjective_0\tobjective_1\tfeasible\tpenalty"
        malformed = {
            "non-numeric": [header, "x\tp0\tnotanumber\t1.2\t1\t0.0"],
            "missing-column": ["label\tpoint_id\tobjective_0\tfeasible\tpenalty",
                               "x\tp0\t1000.0\t1\t0.0"],
            "feasible-with-penalty": [header, "x\tp0\t1000.0\t1.2\t1\t3.0"],
            "short-row": [header, "x\tp0\t1000.0"],
            "no-rows": [header],
        }
        for name, lines in malformed.items():
            run_dir = tmp_path / name
            run_dir.mkdir()
            (run_dir / "front.tsv").write_text("\n".join(lines) + "\n")
            assert main(["report", str(run_dir)]) == 2, name
            assert "front.tsv" in capsys.readouterr().err, name

    @pytest.mark.parametrize("fault", ["directory", "not UTF-8"])
    @pytest.mark.parametrize("compare", [False, True], ids=["run", "compare"])
    def test_an_unreadable_front_is_config_error(self, tmp_path, capsys, fault, compare):
        # each raised a raw IsADirectoryError or UnicodeDecodeError (exit 1)
        header = "label\tpoint_id\tobjective_0\tobjective_1\tfeasible\tpenalty"
        good, bad = tmp_path / "good", tmp_path / "bad"
        good.mkdir()
        bad.mkdir()
        (good / "front.tsv").write_text(header + "\nx\tp0\t1000.0\t1.2\t1\t0.0\n")
        front = bad / "front.tsv"
        if fault == "directory":
            front.mkdir()
        else:
            front.write_bytes(header.encode() + b"\n\xff\tp0\t1000.0\t1.2\t1\t0.0\n")
        argv = ["report", str(good), "--compare", str(bad)] if compare else ["report", str(bad)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert str(front) in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("compare", ["missing", "empty"])
    def test_compare_without_a_front_is_config_error(self, tmp_path, capsys, compare):
        # each raised a raw FileNotFoundError (exit 1)
        header = "label\tpoint_id\tobjective_0\tobjective_1\tfeasible\tpenalty"
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "front.tsv").write_text(header + "\nx\tp0\t1000.0\t1.2\t1\t0.0\n")
        (tmp_path / "empty").mkdir()
        assert main(["report", str(run_dir), "--compare", str(tmp_path / compare)]) == 2
        assert f"no front export in {tmp_path / compare}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--optimizer", "pearl", "--agents", "2", "--steps", "16"],
        ["--optimizer", "nsga2", "--steps", "128"],
    ], ids=["pearl", "nsga2"])
    def test_report_on_a_run_that_exported_no_front(self, tmp_path, capsys, flags):
        # a run stopped before its first evaluation writes report.json but no
        # front; report called that a configuration error and exited 2
        out_dir = tmp_path / "run"
        assert main(["optimize", "--scenario", "scenario-3", *flags,
                     "--max-seconds", "0.000001", "--out", str(out_dir)]) == 4
        assert not (out_dir / "front.tsv").exists()
        capsys.readouterr()
        assert main(["report", str(out_dir)]) == 1
        assert f"{out_dir}: partial run, 0 evaluations, no front exported" in \
            capsys.readouterr().err

    def test_report_on_a_run_that_did_not_finish(self, tmp_path, monkeypatch, capsys):
        # an interrupted run leaves only its manifest; report called that a
        # configuration error and exited 2
        from hpmropt import runio

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(runio, "run_nsga2", interrupted)
        out_dir = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            main(["optimize", "--scenario", "scenario-3", "--optimizer", "nsga2",
                  "--steps", "128", "--out", str(out_dir)])
        assert [path.name for path in out_dir.iterdir()] == ["manifest.json"]
        assert main(["report", str(out_dir)]) == 1
        assert f"{out_dir}: the run did not finish" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["{", "[]", '{"status": "partial"}'],
                             ids=["cut-short", "not-an-object", "no-evaluations"])
    def test_an_unreadable_run_report_is_config_error(self, tmp_path, capsys, text):
        (tmp_path / "report.json").write_text(text)
        assert main(["report", str(tmp_path)]) == 2
        assert "report.json" in capsys.readouterr().err

    def test_report_on_all_infeasible_front(self, tmp_path, capsys):
        header = "label\tpoint_id\tobjective_0\tobjective_1\tfeasible\tpenalty"
        (tmp_path / "front.tsv").write_text(header + "\nx\tp0\t1000.0\t1.6\t0\t3.0\n")
        assert main(["report", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "1 points, 0 feasible" in out
        assert "no hypervolume" in out
