"""The lockstep contract: the agents of a group share one stacked learner
call per batch, and each agent still runs, bit for bit, as it would alone."""

import itertools
import os

import numpy as np
import pytest

from hpmropt import pearl, runio
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


class DyingEvaluator:
    """Scenario-3's evaluator, except that the first worker process to reach
    its fifth evaluation exits there: whichever creates the ``O_EXCL``
    marker file first.  Each worker evaluates with its own copy."""

    def __init__(self, marker):
        self.marker, self.calls = str(marker), 0
        self.inner = DesignEvaluator(load_scenario("scenario-3"))

    def evaluate(self, design):
        self.calls += 1
        if self.calls == 5:
            try:
                os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                pass
            else:
                os._exit(1)
        return self.inner.evaluate(design)


def test_a_dead_worker_fails_only_its_own_group(evaluator, tmp_path, monkeypatch):
    config = config_for(8, agents=4, workers=2)
    seeds = config.agent_seeds()
    result = run_multi(DyingEvaluator(tmp_path / "dead-1"), config)
    dead = [failure["seed"] for failure in result.failures]
    assert dead in (seeds[:2], seeds[2:])
    assert all(failure["error"].startswith("BrokenProcessPool(")
               for failure in result.failures)
    survivors = [seed for seed in seeds if seed not in dead]
    assert [a.seed for a in result.agents] == survivors
    serial = run_multi(evaluator, config_for(8, agents=4))
    assert [record(a) for a in result.agents] == \
        [record(a) for a in serial.agents if a.seed in survivors]

    monkeypatch.setattr(runio, "build_evaluator",
                        lambda _: DyingEvaluator(tmp_path / "dead-2"))
    summary = runio.run_optimize(runio.RunConfig(
        scenario="scenario-3", optimizer="pearl", out_dir=str(tmp_path / "run"),
        pearl={"agents": 4, "total_steps": 4 * STEPS, "epochs": 4, "base_seed": 40,
               "workers": 2}))
    assert summary["status"] == "partial"
    assert len(summary["failures"]) == 2


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

    def crashing(agent, u, evaluator, config, at):
        if agent.seed == crashed and at == step:
            raise RuntimeError("agent crashed")
        return act(agent, u, evaluator, config, at)

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
    theta = np.stack([policy.theta() for policy in policies])
    for policy, row in zip(policies, theta):
        policy._bind(row)
    buffers = np.empty_like(theta), np.empty_like(theta)
    group = pearl.AdamOptimizer(config.learning_rate)
    single = [pearl.AdamOptimizer(config.learning_rate) for _ in alone]
    for n in (8, 1, 5):
        rollouts = []
        for policy in alone:
            samples = [pearl.sample_action(policy, rng) for _ in range(n)]
            rollouts.append(pearl.Rollout(
                np.vstack([s.pre_squash for s in samples]),
                np.array([s.log_prob for s in samples]), rng.normal(size=n) * 30))
        stacked = pearl.Rollout(np.stack([r.pre_squash for r in rollouts]),
                                np.stack([r.log_probs for r in rollouts]),
                                np.stack([r.rewards for r in rollouts]))
        stats = pearl._update(policies, theta, stacked, config, group, buffers)
        for policy, rollout, optimizer, row_stats in zip(alone, rollouts, single, stats):
            assert repr(pearl.ppo_update(policy, rollout, config, optimizer)) == \
                repr(row_stats)
    for row, (policy, reference) in enumerate(zip(policies, alone)):
        assert theta[row].tobytes() == reference.theta().tobytes()
        assert policy.theta().tobytes() == reference.theta().tobytes()
    assert group.m.tobytes() == np.stack([o.m for o in single]).tobytes()
    assert group.t.ravel().tolist() == [o.t for o in single]


def test_a_group_binds_each_policy_to_its_row_once(evaluator):
    # the learner moves the group's stack in place and never rebinds a
    # policy: the group binds them at start-up and after an agent leaves
    config = config_for(4, agents=3)
    seeds = config.agent_seeds()
    agents = [pearl.AgentResult.start(seed, name, config, None)
              for seed, name in zip(seeds, agent_names(seeds))]
    group = pearl._Group(agents, config, config.n_steps)

    def assert_bound():
        assert len(group.theta) == len(group.agents)
        for agent, row in zip(group.agents, group.theta):
            assert np.shares_memory(agent.policy._theta, row)
            assert agent.policy.theta().tobytes() == row.tobytes()

    def steps(first, count):
        for step in range(first, first + count):
            group.act(evaluator, config, step)
        group.learn(config, first + count - 1)

    assert_bound()
    start = group.theta.copy()
    steps(0, 4)
    assert_bound()
    assert not np.array_equal(group.theta, start)
    steps(4, 4)
    assert_bound()

    def crash(row, agent):
        if agent.seed == seeds[1]:
            raise RuntimeError("agent crashed")

    group.each(crash)
    assert [agent.seed for agent in group.agents] == [seeds[0], seeds[2]]
    assert_bound()
    steps(8, 4)
    assert_bound()
