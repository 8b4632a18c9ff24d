"""``scripts/bench_rows.py`` pairs the two sides of a benchmark comparison by
seed, counts the pairs won in the direction BENCHMARK.json declares, and
records the before side's quartile spread.  Its direct timings run a
script's children on two source trees and refuse a child whose ``hpmropt``
came from elsewhere.  ``scripts/time_setup.py`` reads the set-up probe as the
benchmark does."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SCRIPT = SCRIPTS / "bench_rows.py"


@pytest.fixture(scope="module")
def bench_rows():
    spec = importlib.util.spec_from_file_location("bench_rows", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_script(bench_rows, name):
    """``scripts/<name>.py`` as a module; the scripts import their harness
    as the top-level module ``bench_rows``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "bench_rows", bench_rows)
        spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def time_setup(bench_rows):
    return load_script(bench_rows, "time_setup")


def write_records(directory, workload, values):
    directory.mkdir()
    for seed, metrics in values.items():
        record = {"machine": {"seed": seed, "cpu": "test"},
                  "all_values": metrics,
                  "metrics": {name: {"unit": "1/s"} for name in metrics}}
        (directory / f"result-{workload}-seed{seed}-trace0.json").write_text(
            json.dumps(record))


def test_pairs_won_follow_the_declared_direction(bench_rows, tmp_path):
    write_records(tmp_path / "before", "random-desk", {
        1: {"evals_per_s": 100.0, "setup_s": 0.5},
        2: {"evals_per_s": 110.0, "setup_s": 0.4},
        3: {"evals_per_s": 120.0, "setup_s": 0.3},
        4: {"evals_per_s": 130.0, "setup_s": 0.2},
        9: {"evals_per_s": 1.0, "setup_s": 9.0},      # no after record: unpaired
    })
    write_records(tmp_path / "after", "random-desk", {
        1: {"evals_per_s": 150.0, "setup_s": 0.6},
        2: {"evals_per_s": 100.0, "setup_s": 0.3},
        3: {"evals_per_s": 121.0, "setup_s": 0.3},
        4: {"evals_per_s": 131.0, "setup_s": 0.1},
    })
    out = tmp_path / "BENCH.json"
    assert bench_rows.main(["--before", str(tmp_path / "before"),
                            "--after", str(tmp_path / "after"), "--out", str(out)]) == 0
    rows = {row["metric"]: row for row in json.loads(out.read_text())["rows"]}

    speed = rows["evals_per_s"]
    assert (speed["better"], speed["pairs"], speed["won"]) == ("higher", 4, 3)
    # inclusive quartiles of 1, 100, 110, 120, 130: 100 and 120
    assert speed["before_quartile_spread"] == pytest.approx(20.0)

    setup = rows["setup_s"]
    # lower is better; a tie (seed 3) is not a win
    assert (setup["better"], setup["pairs"], setup["won"]) == ("lower", 4, 2)


def test_directions_come_from_the_benchmark_declaration(bench_rows):
    directions = bench_rows.better_directions()
    assert directions["evals_per_s"] == "higher"
    assert directions["setup_s"] == "lower"
    assert directions["pareto.insert.us"] == "lower"


def test_direct_rows_from_alternating_pairs(bench_rows, monkeypatch):
    # one discarded warm-up run of each tree, then the pairs, whose first
    # side alternates every pair; each figure's unit is the last part of
    # its name, and lower is better
    figures = iter([
        {"insert_us": 99.0, "run_s": 99.0}, {"insert_us": 98.0, "run_s": 98.0},   # warm-up
        {"insert_us": 10.0, "run_s": 2.0}, {"insert_us": 8.0, "run_s": 2.5},     # pair 0
        {"insert_us": 9.0, "run_s": 2.0}, {"insert_us": 12.0, "run_s": 1.0},     # pair 1
        {"insert_us": 11.0, "run_s": 3.0}, {"insert_us": 11.0, "run_s": 1.5},    # pair 2
    ])
    calls = []
    monkeypatch.setattr(bench_rows, "run_tree",
                        lambda script, src: calls.append(src) or next(figures))
    runs = bench_rows.alternating_runs(Path("time_x.py"), Path("old"), Path("new"), 3)
    assert calls == [Path(p) for p in ("old", "new",
                                       "old", "new", "new", "old", "old", "new")]
    assert runs == {"before": [{"insert_us": 10.0, "run_s": 2.0},
                               {"insert_us": 12.0, "run_s": 1.0},
                               {"insert_us": 11.0, "run_s": 3.0}],
                    "after": [{"insert_us": 8.0, "run_s": 2.5},
                              {"insert_us": 9.0, "run_s": 2.0},
                              {"insert_us": 11.0, "run_s": 1.5}]}

    rows = {row["metric"]: row for row in bench_rows.direct_rows(runs)}
    insert = rows["insert_us"]
    assert (insert["unit"], insert["better"], insert["workload"]) == ("us", "lower", "direct")
    assert insert["before"] == {"runs": [10.0, 12.0, 11.0], "median": 11.0}
    assert insert["after"]["median"] == 9.0
    assert insert["ratio"] == pytest.approx(9.0 / 11.0)
    # a tie (pair 2) is not a win
    assert (insert["pairs"], insert["won"]) == (3, 2)
    # inclusive quartiles of 10, 11, 12: 10.5 and 11.5
    assert insert["before_quartile_spread"] == pytest.approx(1.0)
    run = rows["run_s"]
    assert (run["unit"], run["won"]) == ("s", 1)


# a figure script as the scripts/time_*.py are, whose one figure counts the
# runs of its tree's stub ``hpmropt`` and scales them by the tree's SCALE
STUB_SCRIPT = """
import sys
sys.path[:0] = [{scripts!r}, *{first!r}]
from bench_rows import direct_main


def measure():
    from pathlib import Path

    import hpmropt

    {fail}
    log = Path(hpmropt.__file__).with_name("runs")
    runs = len(log.read_text()) + 1 if log.exists() else 1
    log.write_text("x" * runs)
    return {{"runs_s": runs * hpmropt.SCALE}}


if __name__ == "__main__":
    raise SystemExit(direct_main(measure, __doc__ or ""))
"""


def stub_tree(path, scale):
    (path / "hpmropt").mkdir(parents=True)
    (path / "hpmropt" / "__init__.py").write_text(f"SCALE = {scale}\n")
    return path


def stub_script(path, first=(), fail=""):
    path.write_text(STUB_SCRIPT.format(scripts=str(SCRIPTS), first=[str(p) for p in first],
                                       fail=fail))
    return path


def test_direct_main_runs_both_trees(bench_rows, tmp_path, capsys):
    # one warm-up run of each tree is discarded, so the one pair's runs are
    # each tree's second: 2 * 1.0 before and 2 * 0.5 after
    before, after = stub_tree(tmp_path / "old", 1.0), stub_tree(tmp_path / "new", 0.5)
    script = stub_script(tmp_path / "time_stub.py")
    stub = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location("time_stub", script))
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "bench_rows", bench_rows)
        patch.setattr(sys, "path", [*sys.path])     # the stub prepends to it
        stub.__spec__.loader.exec_module(stub)
    out = tmp_path / "BENCH.json"
    assert bench_rows.direct_main(stub.measure, "Stub.",
                                  ["--before", str(before), "--after", str(after),
                                   "--pairs", "1", "--out", str(out)]) == 0
    written = json.loads(out.read_text())
    assert sorted(written) == ["machine", "rows"]
    [row] = written["rows"]
    assert sorted(row) == ["after", "before", "before_quartile_spread", "better", "metric",
                           "pairs", "ratio", "traced", "unit", "won", "workload"]
    assert row["before"] == {"runs": [2.0], "median": 2.0}
    assert row["after"] == {"runs": [1.0], "median": 1.0}
    assert (row["metric"], row["unit"], row["ratio"], row["pairs"], row["won"]) == \
        ("runs_s", "s", 0.5, 1, 1)
    assert "--note runs_s 2 1 s" in capsys.readouterr().out


@pytest.mark.parametrize("case", ["foreign hpmropt", "failing child"])
def test_run_tree_refuses_a_child_it_cannot_trust(bench_rows, tmp_path, case):
    tree, other = stub_tree(tmp_path / "tree", 1.0), stub_tree(tmp_path / "other", 1.0)
    if case == "foreign hpmropt":
        # another hpmropt ahead of the tree's, as an installed one is found
        # when the tree holds none
        script = stub_script(tmp_path / "time_stub.py", first=[other])
        expected = [str(other / "hpmropt"), str(tree / "hpmropt")]
    else:
        script = stub_script(tmp_path / "time_stub.py", fail="raise ValueError('no figures')")
        expected = [str(tree), str(script), "ValueError: no figures"]
    with pytest.raises(RuntimeError) as refused:
        bench_rows.run_tree(script, tree)
    assert all(text in str(refused.value) for text in expected)


def test_setup_figure_reads_the_probe_as_the_benchmark_does(time_setup):
    # perfbench/run.py's setup_s: the median of the sums (0.5 here), not
    # the sum of the medians (0.4)
    samples = [{"import_s": 0.1, "evaluator_s": 0.5},
               {"import_s": 0.2, "evaluator_s": 0.1},
               {"import_s": 0.3, "evaluator_s": 0.2}]
    assert time_setup.probe_seconds(samples) == pytest.approx(0.5)


def test_setup_figures_of_this_tree(time_setup):
    figures = time_setup.measure(repeats=1)
    assert sorted(figures) == ["cli_evaluate_cached_s", "cli_evaluate_s",
                               "setup_probe_cached_s", "setup_probe_s"]
    assert all(0 < value < 60 for value in figures.values())


def test_desk_trials_run_from_the_seed_base(bench_rows, tmp_path, monkeypatch):
    # every child gets the base, and the payload records it; no desk study runs
    desk_trials = load_script(bench_rows, "desk_trials")
    children = []

    def child(script, src, scenario, trial, seed_base):
        children.append((src.name, scenario, trial, seed_base))
        seed = desk_trials.base_seed(int(trial), int(seed_base))
        return {"scenario": scenario, "trial": int(trial), "base_seed": seed,
                "criterion_8": True, "criterion_9": True,
                "hv_fixed": float(seed), "hv_over_random": 1.0}

    monkeypatch.setattr(desk_trials, "run_tree", child)
    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
    out = tmp_path / "TRIALS.json"
    assert desk_trials.main(["--before", str(tmp_path / "old"), "--after", str(tmp_path / "new"),
                             "--out", str(out), "--scenarios", "scenario-3", "--trials", "2",
                             "--seed-base", "20000", "--jobs", "1"]) == 0
    assert sorted(children) == [(side, "scenario-3", trial, "20000")
                                for side in ("new", "old") for trial in ("0", "1")]
    payload = json.loads(out.read_text())
    assert payload["trial"]["base_seed"] == "20000 + 97 * trial"
    assert [t["base_seed"] for t in payload["trials"]["after"]] == [20000, 20097]
    # without the flag, the fixture's trials
    children.clear()
    desk_trials.main(["--before", str(tmp_path / "old"), "--after", str(tmp_path / "new"),
                      "--out", str(out), "--scenarios", "scenario-3", "--trials", "1"])
    assert {seed_base for *_, seed_base in children} == {"1000"}
    assert json.loads(out.read_text())["trial"]["base_seed"] == "1000 + 97 * trial"
