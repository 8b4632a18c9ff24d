"""Bit-for-bit determinism against a recorded run.

``data/golden_run_multi.json`` holds the per-agent history rewards and the
merged-front objectives, as ``repr`` strings, of a short PEARL run on
scenario-3 (2 agents x 128 steps, kappa=16, niching), plus the same run on
the constrained toy problem of ``conftest``, where most samples are feasible
and so exercise the niching order far more.  Any change to the archive
ranks, the policy arithmetic or the sampling order shows up here as a
changed float.

The data was last re-recorded when the learner lost its value head.  That
was an intended behaviour change: the advantages became the standardized
returns (no learned baseline subtracted, no second normalization) and the
gradient-norm clip came to see the policy gradients alone, so every update,
and with it every reward after the first update, moved.  The first batch of
each agent is unchanged, because initialization still draws the retired
head's random numbers.  The archive's sweep and the fused PPO update before
it were checked against the previous recording and matched it bit for bit.

Regenerate (only for an intended behaviour change, or on a platform whose
BLAS kernels round differently, from a commit known to be right) with
``PYTHONPATH=src:tests python -c "import test_golden; test_golden.write_golden()"``.
"""

import json
from pathlib import Path

from hpmropt.economics import load_scenario
from hpmropt.environment import DesignEvaluator
from hpmropt.pearl import PearlConfig, run_multi

from conftest import ToyEvaluator

GOLDEN = Path(__file__).parent / "data" / "golden_run_multi.json"


def _record(evaluator) -> dict:
    config = PearlConfig(agents=2, total_steps=256, kappa=16,
                         distance_metric="niching", base_seed=11)
    result = run_multi(evaluator, config)
    return {
        "rewards": {str(agent.seed): [repr(float(row.reward)) for row in agent.history]
                    for agent in result.agents},
        "merged_front": [[repr(float(v)) for v in p.objectives]
                         for p in result.merged_front],
    }


def golden_run() -> dict:
    return {"scenario-3": _record(DesignEvaluator(load_scenario("scenario-3"))),
            "toy": _record(ToyEvaluator())}


def write_golden() -> None:
    GOLDEN.write_text(json.dumps(golden_run(), indent=1) + "\n")


def test_run_multi_matches_recorded_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = golden_run()
    for problem in ("scenario-3", "toy"):
        assert actual[problem]["rewards"] == expected[problem]["rewards"], problem
        assert actual[problem]["merged_front"] == expected[problem]["merged_front"], \
            problem
