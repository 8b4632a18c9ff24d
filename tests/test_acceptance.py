"""Acceptance suite: one test per exit criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v``; a PASS/FAIL line per
criterion is printed in the terminal summary.

All ten criteria are expected to pass.  Criterion 1 checks every anchor
record against the closed-form relations at its declared tolerance; one
anchor cell (the scenario-1 single-objective power density, printed as
1.612 with the radius division dropped) is stored corrected, as
``hpmropt.anchors`` records.

Wall-clock bounds use ``time.perf_counter``.  Criterion 4 bounds the time
spent in ``ParetoBuffer.insert`` alone, not the brute-force oracle that
checks each insert.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

import hpmropt as h
from hpmropt.anchors import ANCHOR_RECORDS
from hpmropt.cli import main as cli_main
from hpmropt.environment import (
    HEAT_FLUX_K,
    THERMAL_POWER_MW,
    URANIUM_MASS_COEFF,
    avg_heat_flux,
    burnup,
    power_density,
    u235_mass,
    uranium_mass,
)
from hpmropt.metrics import default_reference, hypervolume_2d, nondominated_filter
from hpmropt.pearl import (
    _PARAM_SHAPES,
    PearlConfig,
    PolicyState,
    Rollout,
    ppo_gradient,
    ppo_loss,
    random_search,
    run_multi,
    sample_action,
)

from oracles import buffer_rank_oracle, crowding_oracle, fronts_oracle, hypervolume_mc

pytestmark = pytest.mark.acceptance


# --------------------------------------------------------------------------
# criterion 1: derived-relation regression over the full anchor table
# --------------------------------------------------------------------------

def test_criterion_01_derived_relation_regression():
    assert HEAT_FLUX_K == 1.68576
    assert URANIUM_MASS_COEFF == 3.2816
    assert THERMAL_POWER_MW == 2.0
    mismatches = []
    for rec in ANCHOR_RECORDS:
        d = rec.design
        mass = uranium_mass(d.x_cr, d.x_fh)
        flux = avg_heat_flux(d.x_cr, d.x_fh)
        computed = {
            "uranium_mass": (mass, rec.uranium_mass),
            "u235_mass": (u235_mass(rec.uranium_mass, d.x_e), rec.u235_mass),
            "avg_heat_flux": (flux, rec.q_avg),
            "burnup": (burnup(rec.lifetime, rec.uranium_mass), rec.burnup),
            "power_density": (power_density(rec.q_avg, d.x_cr), rec.power_density),
        }
        for quantity, (got, want) in computed.items():
            rel = abs(got - want) / abs(want)
            if rel > 0.02:
                mismatches.append(f"{rec.name}/{quantity}: "
                                  f"computed {got:.6g}, reported {want:.6g} "
                                  f"({rel:.2%})")
    assert not mismatches, "; ".join(mismatches)


# --------------------------------------------------------------------------
# criterion 2: penalty exactness
# --------------------------------------------------------------------------

def test_criterion_02_penalty_exactness():
    sdm = h.ConstraintSpec("sdm", qoi="sdm", kind="at_most", limit=-6700.0)
    lifetime = h.ConstraintSpec("life", qoi="life", kind="range", limit=(6.0, 10.40))
    # (1870/6700)^2 * 1e4 and ((4.97-6)/6)^2 * 1e4, evaluated exactly
    assert 1e4 * h.phi(sdm, -4830.0) == pytest.approx(
        1e4 * (1870.0 / 6700.0) ** 2, abs=1e-3)
    assert 1e4 * h.phi(lifetime, 4.97) == pytest.approx(294.694, abs=1e-3)


# --------------------------------------------------------------------------
# criterion 3: pareto-engine oracle equivalence on 200 random point sets
# --------------------------------------------------------------------------

def test_criterion_03_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(30303)
    for case in range(200):
        n = int(rng.integers(2, 101))
        objectives = rng.random((n, 2)) * rng.choice([1.0, 100.0])
        points = [h.ObjectivePoint(row, True) for row in objectives]

        fronts = h.nondominated_sort(points)
        assert fronts == fronts_oracle(objectives.tolist()), f"case {case}"

        for front in fronts:
            mine = h.crowding_distance([points[i] for i in front])
            ref = crowding_oracle(objectives[front])
            assert np.allclose(mine, ref, equal_nan=True), f"case {case}"

        buffer = h.ParetoBuffer(capacity=64, metric="crowding")
        history = []
        for step, row in enumerate(objectives[:20]):
            entry = (row.tolist(), True, 0.0, step)
            expected_rank, order = buffer_rank_oracle(history, entry, "crowding")
            assert buffer.insert(h.ObjectivePoint(row, True)) == -expected_rank
            history = [(history + [entry])[i] for i in order][:64]
    assert time.perf_counter() - start < 10.0


# --------------------------------------------------------------------------
# criterion 4: buffer invariants under 10,000-insertion fuzz
# --------------------------------------------------------------------------

def test_criterion_04_buffer_fuzz():
    insert_seconds = 0.0
    rng = np.random.default_rng(40404)
    directions = h.reference_directions(2, 63)
    # 10,000 insertions under the default (front, crowding) ordering plus an
    # extra niching-ordered stream beyond the required count
    plan = [("crowding", 10)] * 1 + [("niching", 1)]
    total = crowding_total = 0
    for metric, streams in plan:
        for stream in range(streams):
            buffer = h.ParetoBuffer(capacity=64, metric=metric, divisions=63)
            history = []
            for step in range(1000):
                objectives = rng.random(2) * [5000.0, 0.5] + [1000.0, 1.0]
                if rng.random() < 0.7:
                    point = h.ObjectivePoint(objectives, True)
                else:
                    point = h.ObjectivePoint(objectives, False,
                                             penalty=float(rng.integers(1, 40000)))
                entry = (objectives.tolist(), point.feasible, point.penalty, step)
                expected_rank, order = buffer_rank_oracle(
                    history, entry, metric,
                    directions if metric == "niching" else None)
                tick = time.perf_counter()
                reward = buffer.insert(point)
                insert_seconds += time.perf_counter() - tick
                total += 1
                crowding_total += metric == "crowding"
                assert reward == -expected_rank
                assert len(buffer) <= 64
                feasible_flags = [p.feasible for p in buffer.entries]
                first_infeasible = (feasible_flags.index(False)
                                    if False in feasible_flags else len(feasible_flags))
                assert all(feasible_flags[:first_infeasible])
                assert not any(feasible_flags[first_infeasible:])
                history = [(history + [entry])[i] for i in order][:64]
    assert crowding_total == 10_000
    assert insert_seconds < 30.0, f"ParetoBuffer.insert took {insert_seconds:.1f} s"


# --------------------------------------------------------------------------
# criterion 5: levelized-cost properties
# --------------------------------------------------------------------------

def test_criterion_05_lcoe_properties():
    for rate in (0.0, 0.06, 0.2):
        econ = h.EconParams(discount_rate=rate, plant_life_years=45,
                            annual_energy_mwh=321.0)
        schedule = h.CashFlowSchedule(years=np.arange(46),
                                      flows={"capital": np.full(46, 642.0)})
        assert h.lcoe(schedule, econ) == pytest.approx(2.0, rel=1e-12)

    econ = h.EconParams(discount_rate=0.06, plant_life_years=2,
                        annual_energy_mwh=10.0)
    schedule = h.CashFlowSchedule(years=np.arange(3),
                                  flows={"capital": np.array([100.0, 50.0, 50.0])})
    assert h.lcoe(schedule, econ) == pytest.approx(6.7647, abs=1e-4)

    rng = np.random.default_rng(55)
    econ = h.EconParams(plant_life_years=25, annual_energy_mwh=77.0)
    costs = rng.random(26) * 1e7
    base = h.lcoe(h.CashFlowSchedule(years=np.arange(26), flows={"fuel": costs}), econ)
    scaled = h.lcoe(h.CashFlowSchedule(years=np.arange(26),
                                       flows={"fuel": costs * 3.25}), econ)
    assert scaled == pytest.approx(3.25 * base, rel=1e-12)


# --------------------------------------------------------------------------
# criterion 6: hypervolume exactness and Monte Carlo agreement
# --------------------------------------------------------------------------

def test_criterion_06_hypervolume():
    start = time.perf_counter()
    assert h.hypervolume_2d([[0.0, 1.0], [1.0, 0.0]], [2.0, 2.0]) == 3.0

    rng = np.random.default_rng(60606)
    raw = rng.random((15, 2)) * 4.0
    front = nondominated_filter(raw)
    reference = np.array([4.5, 4.5])
    exact = h.hypervolume_2d(front, reference)
    estimate, stderr = hypervolume_mc(front, reference, 10**7, rng)
    assert abs(exact - estimate) <= 3.0 * stderr
    assert time.perf_counter() - start < 60.0


# --------------------------------------------------------------------------
# criterion 7: policy-gradient correctness at five random policy states
# --------------------------------------------------------------------------

def _finite_difference_state(args):
    policy, rollout, config, step = args
    grads = ppo_gradient(policy, rollout, config)
    analytic = np.concatenate([grads[k].ravel() for k in _PARAM_SHAPES])
    probe = policy.copy()
    fd = np.empty_like(analytic)
    offset = 0
    for name in _PARAM_SHAPES:
        # params are C-ordered views of θ, which .flat writes through; the
        # pickled policy and its copy keep the fresh pol_wm's F-order flag,
        # so every product takes the BLAS path the policy itself would
        flat = probe.params[name].flat
        for j in range(len(flat)):
            saved = flat[j]
            flat[j] = saved + step
            up = ppo_loss(probe, rollout, config)
            flat[j] = saved - step
            down = ppo_loss(probe, rollout, config)
            flat[j] = saved
            fd[offset + j] = (up - down) / (2 * step)
        offset += len(flat)
    return analytic, fd


def test_criterion_07_policy_gradient():
    from concurrent.futures import ProcessPoolExecutor

    start = time.perf_counter()
    config = PearlConfig(agents=1, total_steps=8)
    rng = np.random.default_rng(70707)
    behavior = PolicyState.initialize(rng, init_log_std=0.3)
    samples = [sample_action(behavior, rng) for _ in range(8)]
    rollout = Rollout(
        pre_squash=np.vstack([s.pre_squash for s in samples]),
        log_probs=np.array([s.log_prob for s in samples]),
        rewards=rng.normal(size=8) * 25.0 - 40.0,
    )
    jobs = []
    for _state in range(5):
        policy = PolicyState.initialize(rng, init_log_std=float(rng.uniform(0.1, 0.6)))
        jobs.append((policy, rollout, config, 1e-5))
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_finite_difference_state, jobs))
    for state, (analytic, fd) in enumerate(results):
        # max relative error, measured against the gradient's own scale so
        # roundoff on ~zero components cannot masquerade as disagreement
        scale = max(np.abs(analytic).max(), np.abs(fd).max())
        max_rel = np.abs(analytic - fd).max() / scale
        assert max_rel < 1e-4, f"state {state}: {max_rel}"
        meaningful = np.maximum(np.abs(analytic), np.abs(fd)) > 1e-3 * scale
        per_component = (np.abs(analytic - fd)[meaningful]
                         / np.maximum(np.abs(analytic), np.abs(fd))[meaningful])
        assert per_component.max() < 1e-4
    assert time.perf_counter() - start < 10.0


# --------------------------------------------------------------------------
# criteria 8 + 9: desk-scale optimization beats random search and shows the
# expected design trends
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_scale_trials():
    evaluator = h.DesignEvaluator(h.load_scenario("scenario-3"))
    trials = []
    start = time.perf_counter()
    for trial in range(10):
        base_seed = 1000 + 97 * trial
        config = PearlConfig(agents=8, total_steps=8000, base_seed=base_seed)
        result = run_multi(evaluator, config)
        rs_front = random_search(evaluator, 8000, seed=base_seed + 50_000)

        feasible = [p for p in result.merged_front if p.feasible]
        pearl_obj = (np.vstack([p.objectives for p in feasible])
                     if feasible else np.empty((0, 2)))
        rs_feasible = [p for p in rs_front if p.feasible]
        rs_obj = (np.vstack([p.objectives for p in rs_feasible])
                  if rs_feasible else np.empty((0, 2)))
        reference = default_reference([o for o in (pearl_obj, rs_obj) if len(o)])
        hv_pearl = (hypervolume_2d(nondominated_filter(pearl_obj), reference)
                    if len(pearl_obj) else 0.0)
        hv_rs = (hypervolume_2d(nondominated_filter(rs_obj), reference)
                 if len(rs_obj) else 0.0)
        trials.append({
            "feasible": feasible,
            "objectives": pearl_obj,
            "hv_pearl": hv_pearl,
            "hv_rs": hv_rs,
        })
    assert time.perf_counter() - start < 600.0
    return trials


def test_criterion_08_desk_scale_beats_random_search(desk_scale_trials):
    passed = 0
    for trial in desk_scale_trials:
        nonempty = len(trial["feasible"]) > 0
        within_limit = all(p.objectives[1] <= 1.47 + 1e-9 for p in trial["feasible"])
        if nonempty and within_limit and trial["hv_pearl"] >= trial["hv_rs"]:
            passed += 1
    assert passed >= 9, f"only {passed}/10 trials beat random search"


def test_criterion_09_front_trend_reproduction(desk_scale_trials):
    low_angle_bound = 35.0 + 0.10 * (180.0 - 35.0)
    passed = 0
    for trial in desk_scale_trials:
        feasible = trial["feasible"]
        if len(feasible) < 2:
            continue
        min_peaking = min(feasible, key=lambda p: p.objectives[1])
        angle_ok = min_peaking.payload.design.x_ca <= low_angle_bound
        ordered = trial["objectives"][np.argsort(trial["objectives"][:, 0])]
        conflicting = bool(np.all(np.diff(ordered[:, 0]) > 0)
                           and np.all(np.diff(ordered[:, 1]) < 0))
        if angle_ok and conflicting:
            passed += 1
    assert passed >= 9, f"only {passed}/10 trials reproduce the trend"


# --------------------------------------------------------------------------
# criterion 10: manifest reruns produce byte-identical front exports
# --------------------------------------------------------------------------

def test_criterion_10_reproducibility(tmp_path):
    start = time.perf_counter()
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert cli_main(["optimize", "--scenario", "scenario-3", "--optimizer", "pearl",
                     "--agents", "2", "--steps", "160", "--seed", "21",
                     "--out", str(first)]) == 0
    assert cli_main(["optimize", "--config", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
    assert (first / "front.tsv").read_bytes() == (second / "front.tsv").read_bytes()

    ga_first = tmp_path / "ga-first"
    ga_second = tmp_path / "ga-second"
    assert cli_main(["optimize", "--scenario", "scenario-1", "--optimizer", "nsga2",
                     "--steps", "192", "--seed", "3", "--out", str(ga_first)]) == 0
    assert cli_main(["optimize", "--config", str(ga_first / "manifest.json"),
                     "--out", str(ga_second)]) == 0
    assert (ga_first / "front.tsv").read_bytes() == \
        (ga_second / "front.tsv").read_bytes()
    assert time.perf_counter() - start < 600.0
