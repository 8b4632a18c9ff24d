"""``scripts/bench_rows.py`` pairs the two sides of a benchmark comparison by
seed, counts the pairs won in the direction BENCHMARK.json declares, and
records the before side's quartile spread."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_rows.py"


@pytest.fixture(scope="module")
def bench_rows():
    spec = importlib.util.spec_from_file_location("bench_rows", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    # the first side alternates every pair; each figure's unit is the last
    # part of its name, and lower is better
    figures = iter([
        {"insert_us": 10.0, "run_s": 2.0}, {"insert_us": 8.0, "run_s": 2.5},     # pair 0
        {"insert_us": 9.0, "run_s": 2.0}, {"insert_us": 12.0, "run_s": 1.0},     # pair 1
        {"insert_us": 11.0, "run_s": 3.0}, {"insert_us": 11.0, "run_s": 1.5},    # pair 2
    ])
    calls = []
    monkeypatch.setattr(bench_rows, "run_tree",
                        lambda script, src: calls.append(src) or next(figures))
    runs = bench_rows.alternating_runs(Path("time_x.py"), Path("old"), Path("new"), 3)
    assert calls == [Path(p) for p in ("old", "new", "new", "old", "old", "new")]
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
