import json
from pathlib import Path

import numpy as np
import pytest

from hpmropt.anchors import ANCHOR_RECORDS, anchor_by_name
from hpmropt.cli import main
from hpmropt.design_space import NOMINAL_DESIGN, write_design_file


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

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HPMROPT_OUTPUT_ROOT", str(tmp_path))
        assert main(["optimize", "--scenario", "scenario-3", "--optimizer", "pearl",
                     "--agents", "1", "--steps", "8", "--seed", "0",
                     "--out", "nested/run"]) == 0
        assert (tmp_path / "nested" / "run" / "front.tsv").exists()

    def test_bad_config_exit_code(self, capsys):
        assert main(["optimize", "--scenario", "scenario-9"]) == 2

    @pytest.mark.parametrize("manifest, key", [
        ({"pearl": {"bogus": 1}}, "bogus"),
        ({"optimizer": "nsga2", "nsga2": {"popsize": 3}}, "popsize"),
    ])
    def test_unknown_optimizer_key_is_config_error(self, tmp_path, capsys,
                                                   manifest, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(manifest))
        code = main(["optimize", "--config", str(config), "--out", str(tmp_path / "r")])
        assert code == 2
        assert key in capsys.readouterr().err

    def test_steps_not_divisible_by_agents_is_config_error(self, tmp_path, capsys):
        code = main(["optimize", "--scenario", "scenario-3", "--optimizer", "pearl",
                     "--agents", "3", "--steps", "64", "--out", str(tmp_path / "r")])
        assert code == 2
        assert "divisible by agents" in capsys.readouterr().err

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

    def test_max_seconds_truncates_to_partial(self, tmp_path, capsys):
        out_dir = tmp_path / "budget"
        code = main(["optimize", "--scenario", "scenario-3", "--optimizer", "pearl",
                     "--agents", "1", "--steps", "100000", "--seed", "1",
                     "--max-seconds", "1.0", "--out", str(out_dir)])
        assert code == 4
        summary = json.loads((out_dir / "report.json").read_text())
        assert summary["status"] == "partial"


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
