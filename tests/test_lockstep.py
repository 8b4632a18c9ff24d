"""The lockstep contract: the agents of a group share one stacked learner
call per batch, and each agent still runs, bit for bit, as it would alone."""

import itertools

import numpy as np
import pytest

from hpmropt import pearl
from hpmropt.economics import load_scenario
from hpmropt.environment import DesignEvaluator
from hpmropt.pearl import PearlConfig, _run_group, agent_names, merge_fronts, run_agent, \
    run_multi

STEPS = 20       # per agent: a partial last batch for n_steps 8 and 16


@pytest.fixture(scope="module")
def evaluator():
    return DesignEvaluator(load_scenario("scenario-3"))


def config_for(n_steps, agents=8, **overrides):
    return PearlConfig(agents=agents, total_steps=agents * STEPS, n_steps=n_steps,
                       epochs=4, base_seed=40, **overrides)


def record(agent):
    """Everything an agent produced, as bytes-exact strings."""
    return (agent.seed,
            [repr(row) for row in agent.history],
            [repr(stats) for stats in agent.update_log],
            [repr(incident) for incident in agent.incidents],
            agent.policy.theta().tobytes(),
            [(repr(p.objectives.tolist()), p.payload.id) for p in agent.front_points()])


def front(points):
    return [(repr(p.objectives.tolist()), p.payload.id) for p in points]


@pytest.fixture(scope="module", params=[1, 8, 16])
def alone(request, evaluator):
    """Each agent of an 8-agent run, run alone by run_agent."""
    config = config_for(request.param)
    return config, [run_agent(evaluator, config, seed) for seed in config.agent_seeds()]


@pytest.mark.parametrize("size", [1, 3, 8])
def test_groups_of_any_size_match_each_agent_alone(evaluator, alone, size):
    config, solo = alone
    seeds = config.agent_seeds()
    grouped = []
    for start in range(0, len(seeds), size):
        chunk = seeds[start:start + size]
        results, failures = _run_group(evaluator, config, chunk, agent_names(chunk), STEPS)
        assert failures == []
        grouped += results
    assert [record(a) for a in grouped] == [record(a) for a in solo]


@pytest.mark.parametrize("workers", [1, 2])
def test_run_multi_matches_each_agent_alone(evaluator, alone, workers):
    config, solo = alone
    config = config_for(config.n_steps, workers=workers)
    result = run_multi(evaluator, config)
    assert result.failures == []
    assert [record(a) for a in result.agents] == [record(a) for a in solo]
    assert front(result.merged_front) == \
        front(merge_fronts([a.front_points() for a in solo]))


def test_non_finite_gradient_skips_only_that_agents_update(evaluator, monkeypatch):
    # two rewards of -1e308 in one batch overflow its standardization, so
    # the agent's first update (the one whose products read the fresh,
    # F-ordered pol_wm) is skipped; its groupmates step on
    config = config_for(8, agents=4)
    poisoned = config.agent_seeds()[2]
    archive = pearl.step_reward

    def overflowing(objectives, report, buffer, payload=None, *args):
        reward = archive(objectives, report, buffer, payload, *args)
        return -1e308 if payload.id in (f"{poisoned}-0", f"{poisoned}-1") else reward

    monkeypatch.setattr(pearl, "step_reward", overflowing)
    with np.errstate(all="ignore"):
        result = run_multi(evaluator, config)
        solo = [run_agent(evaluator, config, seed) for seed in config.agent_seeds()]
    skipped = {a.seed: [s.skipped for s in a.update_log] for a in result.agents}
    assert skipped[poisoned] == [True, False, False]
    assert all(not any(flags) for seed, flags in skipped.items() if seed != poisoned)
    assert [(i.seed, i.kind) for a in result.agents for i in a.incidents] == \
        [(poisoned, "skipped_update")]
    assert [record(a) for a in result.agents] == [record(a) for a in solo]


@pytest.mark.parametrize("step", [3, 12])
def test_an_agents_exception_removes_only_that_agent(evaluator, monkeypatch, step):
    # before the group's first update, and after it, when the survivors'
    # policies view rows of the stacked θ that the group must compact
    config = config_for(8, agents=4)
    crashed = config.agent_seeds()[1]
    act = pearl.AgentResult.act

    def crashing(agent, evaluator, config, at):
        if agent.seed == crashed and at == step:
            raise RuntimeError("agent crashed")
        return act(agent, evaluator, config, at)

    monkeypatch.setattr(pearl.AgentResult, "act", crashing)
    result = run_multi(evaluator, config)
    monkeypatch.undo()
    assert result.failures == [{"seed": crashed, "error": "RuntimeError('agent crashed')"}]
    survivors = [seed for seed in config.agent_seeds() if seed != crashed]
    assert [a.seed for a in result.agents] == survivors
    solo = [run_agent(evaluator, config, seed) for seed in survivors]
    assert [record(a) for a in result.agents] == [record(a) for a in solo]


def test_run_agent_raises_its_agents_exception(evaluator, monkeypatch):
    def failing(agent, *args):
        raise RuntimeError("agent crashed")

    monkeypatch.setattr(pearl.AgentResult, "act", failing)
    with pytest.raises(RuntimeError, match="agent crashed"):
        run_agent(evaluator, config_for(4, agents=1), 40)


def test_deadline_truncates_every_agent_at_the_same_step(evaluator, monkeypatch):
    # the group reads the clock once per step: steps 0-5 run, step 6 stops
    clock = itertools.count()
    monkeypatch.setattr(pearl.time, "monotonic", lambda: next(clock))
    result = run_multi(evaluator, config_for(4, agents=3), deadline=5)
    monkeypatch.undo()
    assert [len(a.history) for a in result.agents] == [6, 6, 6]
    assert all(a.truncated for a in result.agents)


def test_agent_names_carry_the_index_only_when_seeds_repeat():
    assert agent_names([3, 4, 5]) == ["3", "4", "5"]
    assert agent_names([7, 8, 7]) == ["7-0", "8-1", "7-2"]


def test_stacked_update_moves_each_row_as_its_own_update():
    # one learner call for a group against one ppo_update per policy, over
    # consecutive batches that include a one-sample batch
    config = PearlConfig(agents=4, total_steps=64, epochs=6)
    rng = np.random.default_rng(3)
    policies = [pearl.PolicyState.initialize(np.random.default_rng(s), 0.3, 0.8)
                for s in range(4)]
    alone = [pearl.PolicyState.initialize(np.random.default_rng(s), 0.3, 0.8)
             for s in range(4)]
    theta = np.empty((4, len(policies[0].theta())))
    group = pearl.AdamOptimizer(config.learning_rate)
    single = [pearl.AdamOptimizer(config.learning_rate) for _ in alone]
    for n in (8, 1, 5):
        rollouts = []
        for policy in alone:
            samples = [pearl.sample_action(policy, rng) for _ in range(n)]
            rollouts.append(pearl.Rollout(
                np.vstack([s.pre_squash for s in samples]),
                np.array([s.log_prob for s in samples]), rng.normal(size=n) * 30))
        stats = pearl._update(policies, theta, pearl.Rollout.stack(rollouts), config, group)
        for policy, rollout, optimizer, row_stats in zip(alone, rollouts, single, stats):
            assert repr(pearl.ppo_update(policy, rollout, config, optimizer)) == \
                repr(row_stats)
    for row, (policy, reference) in enumerate(zip(policies, alone)):
        assert theta[row].tobytes() == reference.theta().tobytes()
        assert policy.theta().tobytes() == reference.theta().tobytes()
    assert group.m.tobytes() == np.stack([o.m for o in single]).tobytes()
    assert group.t.ravel().tolist() == [o.t for o in single]
