"""Bit-for-bit determinism of NSGA-II against a recorded run.

``data/golden_nsga2.json`` holds, for two seeds on scenario-3 and on the
constrained toy problem of ``conftest``, every genome NSGA-II evaluated,
grouped by generation (the initial population first, then each
generation's offspring after duplicates were dropped), as the ``repr`` of
each genome's list of floats; the evaluation count; and the final front's
objectives.  Any change to the variation operators' arithmetic, their
order of random draws, the duplicate filter or survival shows up here as a
changed float, a changed count or a changed front.

Regenerate (only for an intended behaviour change, or on a platform whose
libm or BLAS rounds differently, from a commit known to be right) with
``PYTHONPATH=src:tests python -c "import test_golden_nsga2 as t; t.write_golden()"``.
"""

import json
from pathlib import Path

import pytest

from hpmropt import nsga2
from hpmropt.economics import load_scenario
from hpmropt.environment import DesignEvaluator
from hpmropt.nsga2 import GaConfig, run_nsga2

from conftest import ToyEvaluator

GOLDEN = Path(__file__).parent / "data" / "golden_nsga2.json"
SEEDS = (3, 29)


def _record(evaluator, seed: int, monkeypatch) -> dict:
    """One run's genomes by generation; a survival call closes a generation."""
    generations = [[]]
    decode, survive = nsga2.from_unit_cube, nsga2._survival

    def recording_decode(genome):
        generations[-1].append(repr(genome.tolist()))
        return decode(genome)

    def recording_survival(candidates, size):
        generations.append([])
        return survive(candidates, size)

    monkeypatch.setattr(nsga2, "from_unit_cube", recording_decode)
    monkeypatch.setattr(nsga2, "_survival", recording_survival)
    try:
        result = run_nsga2(evaluator, GaConfig(population=16, generations=8, seed=seed))
    finally:
        monkeypatch.undo()
    return {
        "genomes": generations[:-1],
        "evaluations": result.evaluations,
        "front": [[repr(float(v)) for v in p.objectives] for p in result.front],
    }


def golden_run(monkeypatch) -> dict:
    problems = {"scenario-3": DesignEvaluator(load_scenario("scenario-3")),
                "toy": ToyEvaluator()}
    return {problem: {str(seed): _record(evaluator, seed, monkeypatch)
                      for seed in SEEDS}
            for problem, evaluator in problems.items()}


def write_golden() -> None:
    with pytest.MonkeyPatch.context() as monkeypatch:
        GOLDEN.write_text(json.dumps(golden_run(monkeypatch), indent=1) + "\n")


def test_nsga2_matches_recorded_golden(monkeypatch):
    expected = json.loads(GOLDEN.read_text())
    actual = golden_run(monkeypatch)
    for problem in ("scenario-3", "toy"):
        for seed in map(str, SEEDS):
            got, want = actual[problem][seed], expected[problem][seed]
            assert len(got["genomes"]) == len(want["genomes"]), (problem, seed)
            for gen, (g, w) in enumerate(zip(got["genomes"], want["genomes"])):
                assert g == w, (problem, seed, gen)
            assert got["evaluations"] == want["evaluations"], (problem, seed)
            assert got["front"] == want["front"], (problem, seed)
