"""Rank-rewarded reinforcement-learning optimizer.

Each episode is a single action: the stochastic policy emits a point of the
unit cube, the point decodes to a design, and the reward is either the
negative constraint penalty (infeasible design) or the negative rank the
design earns in the owner agent's Pareto buffer (feasible design).  The
policy and its learner are ``learner``'s.  The agents of a run step in
lockstep, and one stacked learner call updates them all at each batch
boundary; each agent's results are, bit for bit, those of its run alone.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .baseline import random_search  # noqa: F401 - callers read it from pearl
from .design_space import from_unit_cube
from .errors import (NON_NEGATIVE, NUMBER, POSITIVE, ConfigError, check, integer, list_of,
                     one_of, optional)
# the learner's names that the agent loop uses, and those callers read from pearl
from .learner import (_FLAT_SIZE, _PARAM_SHAPES, ACTION_DIM, AdamOptimizer,  # noqa: F401
                      PolicyState, Rollout, UpdateStats, _Behaviour, _Stack, _update,
                      ppo_gradient, ppo_loss, ppo_update, sample_action)
from .pareto import METRICS, DesignPayload, ObjectivePoint, ParetoBuffer, merge_fronts

logger = logging.getLogger(__name__)

# each seed draws its initial log-std from a band this wide around
# init_log_std, and its mean head's pre-squash offset at this scale, so a
# team of agents covers the front instead of collapsing onto one region
_INIT_LOG_STD_SPREAD = 0.3
_INIT_CENTER_SCALE = 0.8


PEARL_RULES = {
    **dict.fromkeys(("n_steps", "kappa", "agents", "total_steps", "epochs", "workers"),
                    integer(1)),
    **dict.fromkeys(("entropy_coeff", "learning_rate", "max_grad_norm", "clip_epsilon"),
                    NON_NEGATIVE),
    "init_log_std": NUMBER,
    "distance_metric": one_of(*METRICS), "base_seed": integer(0),
    "seeds": optional(list_of(integer(0))),        # one per agent
    "failure_penalty": POSITIVE,   # a failed evaluation earns a negative reward
    "checkpoint_interval": optional(integer(1)),   # null: no checkpoints
}


@dataclass
class PearlConfig:
    """Hyperparameters of the optimizer and its buffer."""

    n_steps: int = 8
    entropy_coeff: float = 0.0001
    learning_rate: float = 0.00025
    max_grad_norm: float = 0.5
    clip_epsilon: float = 0.2
    kappa: int = 64
    agents: int = 8
    total_steps: int = 100_000
    distance_metric: str = "niching"
    epochs: int = 20
    init_log_std: float = 0.4
    base_seed: int = 0
    seeds: tuple | None = None
    failure_penalty: float = 1.0e6
    workers: int = 1
    checkpoint_interval: int | None = None

    def __post_init__(self):
        check(self, PEARL_RULES)
        for name in ("n_steps", "agents"):
            if self.total_steps % getattr(self, name):
                raise ConfigError(f"total_steps {self.total_steps} must be divisible by {name}")
        if self.seeds is not None and len(self.seeds) != self.agents:
            raise ConfigError("need exactly one seed per agent")

    def agent_seeds(self) -> list[int]:
        if self.seeds is not None:
            return [int(s) for s in self.seeds]
        return [self.base_seed + i for i in range(self.agents)]

    def steps_per_agent(self) -> int:
        return self.total_steps // self.agents


def step_reward(objectives, report, buffer: ParetoBuffer, payload=None,
                infeasibility_offset: float = 0.0) -> float:
    """Two-phase reward: constraint penalty until feasible, Pareto rank after.

    The point is archived either way; infeasible points rank behind every
    feasible entry, ordered by ascending penalty.  ``infeasibility_offset``
    shifts all infeasible rewards down so a sample grazing a constraint
    boundary cannot outscore any feasible rank.
    """
    point = ObjectivePoint(
        objectives=objectives,
        feasible=report.feasible,
        penalty=0.0 if report.feasible else report.penalty,
        payload=payload,
    )
    rank_reward = buffer.insert(point)
    if report.feasible:
        return float(rank_reward)
    return -float(report.penalty) - infeasibility_offset


@dataclass
class HistoryRow:
    step: int
    reward: float
    feasible: bool
    objective_0: float
    objective_1: float
    penalty: float


@dataclass(frozen=True)
class Incident:
    """One step that went wrong: an evaluation that raised on both
    attempts (``evaluation_failed``, with the last exception's type name and
    message), non-finite objectives (``non_finite_objectives``) or an update
    skipped for a non-finite gradient or loss (``skipped_update``)."""

    seed: int
    step: int
    kind: str
    exception: str | None
    message: str


def agent_names(seeds) -> list[str]:
    """The tag of each agent's run files (``history-agent<tag>.tsv``,
    ``policy-<tag>-step…``): its seed, or, when the seeds repeat, its seed
    and its position in the list (``7-0``, ``7-1``)."""
    if len(set(seeds)) == len(seeds):
        return [str(seed) for seed in seeds]
    return [f"{seed}-{index}" for index, seed in enumerate(seeds)]


@dataclass(eq=False)
class AgentResult:
    """One agent: its generator, policy, archive and records.  The agent
    loop steps it, and returns it as the agent's result.  In a group, its
    learner state, sampling behaviour and open batch are a row of the
    group's."""

    seed: int
    name: str           # tags the agent's run files; see agent_names
    buffer: ParetoBuffer
    history: list                                     # of HistoryRow
    update_log: list                                  # of UpdateStats
    policy: PolicyState
    rng: np.random.Generator
    incidents: list = field(default_factory=list)     # of Incident
    truncated: bool = False

    @classmethod
    def start(cls, seed: int, name: str, config: PearlConfig) -> "AgentResult":
        rng = np.random.default_rng(seed)
        # identical seeds yield identical agents
        init_log_std = config.init_log_std \
            + _INIT_LOG_STD_SPREAD * (rng.random() - 0.5)
        policy = PolicyState.initialize(rng, init_log_std, _INIT_CENTER_SCALE)
        buffer = ParetoBuffer(capacity=config.kappa, metric=config.distance_metric)
        return cls(seed, name, buffer, [], [], policy, rng)

    def front_points(self) -> list[ObjectivePoint]:
        return self.buffer.front(0)

    def act(self, u: np.ndarray, evaluator, config: PearlConfig, step: int) -> float:
        """Decode, evaluate and archive the design of ``u``, this agent's
        sampled action, and return its reward.

        A failing evaluation is retried once, then recorded as infeasible
        with the configured failure penalty (nothing is archived for it:
        there are no objectives to rank); so is an evaluation that returns
        non-finite objectives.
        """
        seed = self.seed
        design = from_unit_cube(u)
        result = incident = None
        for _attempt in range(2):
            try:
                result = evaluator.evaluate(design)
                break
            except Exception as exc:  # noqa: BLE001 - evaluator failures are data
                logger.exception("evaluation failed at step %d", step)
                incident = Incident(seed, step, "evaluation_failed",
                                    type(exc).__name__, str(exc))
        if result is not None and not np.isfinite(result[0]).all():
            logger.warning("non-finite objectives %s at step %d", result[0], step)
            incident = Incident(seed, step, "non_finite_objectives", None,
                                f"non-finite objectives {result[0]}")
            result = None
        if result is None:
            self.incidents.append(incident)
            reward = -config.failure_penalty
            self.history.append(HistoryRow(step, reward, False, math.nan, math.nan,
                                           config.failure_penalty))
        else:
            objectives, report, _qoi = result
            payload = DesignPayload(id=f"{seed}-{step}", design=design)
            # one worse than the worst rank reward, so a barely-infeasible
            # sample can never outscore a feasible one
            reward = step_reward(objectives, report, self.buffer, payload,
                                 config.kappa + 1)
            self.history.append(HistoryRow(
                step, reward, report.feasible,
                float(objectives[0]), float(objectives[1]),
                float(report.penalty),
            ))
        return reward

    def learned(self, stats: UpdateStats, step: int) -> None:
        """Record an update."""
        if stats.skipped:
            self.incidents.append(Incident(self.seed, step, "skipped_update", None,
                                           "non-finite gradient or loss"))
        self.update_log.append(stats)

    def checkpoint(self, directory, step: int) -> None:
        np.savez(f"{directory}/policy-{self.name}-step{step + 1:06d}.npz",
                 **self.policy._arrays())


class _Group:
    """Agents that run in lockstep: every agent takes step k before any takes
    step k + 1, and one learner call updates them all at each batch
    boundary.  Each agent's policy views a row of the (A, N) stack θ, and
    one Adam optimizer holds the stacked moments.
    Row a of every stacked array is agent a's: the behaviour that samples
    between updates, (A, 7) arrays refreshed by one stacked forward per
    update, and the open batch, (A, n, 7) and (A, n) arrays.  An agent
    whose own work raises leaves the group, and its failure is recorded."""

    def __init__(self, agents: list, config: PearlConfig, batch_size: int):
        self.agents = agents
        self.rngs = [agent.rng for agent in agents]
        self._stack_policies()
        self.optimizer = AdamOptimizer(config.learning_rate)
        self.behaviour = self._behaviour()
        self.pre_squash = np.empty((len(agents), batch_size, ACTION_DIM))
        self.log_probs = np.empty((len(agents), batch_size))
        self.rewards = np.empty((len(agents), batch_size))
        self.filled = 0              # columns of the open batch
        self.failures: list = []     # of (agent, exception)

    def _stack_policies(self) -> None:
        """Move every agent's θ into a row of a new stack, in order, with
        the learner's two buffers shaped to match: at start-up and after an
        agent leaves, the only times a policy is bound to a row."""
        self.theta = np.empty((len(self.agents), _FLAT_SIZE))
        self.buffers = np.empty_like(self.theta), np.empty_like(self.theta)
        for agent, row in zip(self.agents, self.theta):
            agent.policy._bind(row)

    def _behaviour(self) -> _Behaviour:
        return _Behaviour.of(_Stack.of([agent.policy for agent in self.agents], self.theta))

    def each(self, work) -> None:
        """``work(row, agent)`` for every agent, in order."""
        failed = []
        for row, agent in enumerate(self.agents):
            try:
                work(row, agent)
            except Exception as exc:  # noqa: BLE001 - one agent's crash is data
                logger.exception("agent %d failed", agent.seed)
                self.failures.append((agent, exc))
                failed.append(agent)
        if failed:
            keep = [i for i, agent in enumerate(self.agents) if agent not in failed]
            self.agents = [self.agents[i] for i in keep]
            self.rngs = [self.rngs[i] for i in keep]
            self._stack_policies()
            self.optimizer.take(keep)
            self.behaviour = _Behaviour(*(array[keep] for array in self.behaviour))
            self.pre_squash, self.log_probs, self.rewards = (
                array[keep] for array in (self.pre_squash, self.log_probs, self.rewards))

    def act(self, evaluator, config: PearlConfig, step: int) -> None:
        """One lockstep step: one draw for the group, then each agent
        decodes, evaluates and archives its row, in order."""
        action = sample_action(self.behaviour, self.rngs)
        column = self.filled
        self.pre_squash[:, column] = action.pre_squash
        self.log_probs[:, column] = action.log_prob
        self.filled += 1
        u = action.u

        def work(row, agent):
            self.rewards[row, column] = agent.act(u[row], evaluator, config, step)

        self.each(work)

    def learn(self, config: PearlConfig, step: int) -> None:
        n = self.filled
        rollout = Rollout(self.pre_squash[:, :n], self.log_probs[:, :n],
                          self.rewards[:, :n])
        stats = _update([agent.policy for agent in self.agents], self.theta, rollout,
                        config, self.optimizer, self.buffers)
        self.behaviour = self._behaviour()
        self.filled = 0
        for agent, agent_stats in zip(self.agents, stats):
            agent.learned(agent_stats, step)


def _run_group(evaluator, config: PearlConfig, seeds: list, names: list,
               steps: int, checkpoint_dir=None,
               deadline: float | None = None):
    """The agent loop: the agents of ``seeds`` sample, evaluate, archive and
    learn in lockstep.

    Returns the finished agents, which are their results, in seed order,
    and a ``(seed, exception)`` pair for each agent that crashed, in seed
    order.  Bit for bit, each agent runs as it would alone: it keeps its
    own generator, archive, history, update log and incidents, and
    evaluates one design per step.  An expired
    deadline, a ``time.monotonic()`` value, stops every agent at the same
    step and marks the results truncated.
    """
    agents = [AgentResult.start(seed, name, config)
              for seed, name in zip(seeds, names)]
    group = _Group(agents, config, min(config.n_steps, steps))
    for step in range(steps):
        if not group.agents:
            break
        if deadline is not None and time.monotonic() > deadline:
            for agent in group.agents:
                agent.truncated = True
            break
        group.act(evaluator, config, step)
        if group.agents and (group.filled == config.n_steps or step == steps - 1):
            group.learn(config, step)
        if (checkpoint_dir is not None and config.checkpoint_interval
                and (step + 1) % config.checkpoint_interval == 0):
            group.each(lambda _, agent: agent.checkpoint(checkpoint_dir, step))
    failures = sorted(group.failures, key=lambda pair: agents.index(pair[0]))
    return group.agents, [(agent.seed, exc) for agent, exc in failures]


def run_agent(evaluator, config: PearlConfig, seed: int,
              steps: int | None = None, checkpoint_dir=None,
              deadline: float | None = None) -> AgentResult:
    """One agent's full optimization loop: the agent loop for a group of one.

    Bit-reproducible for a fixed seed.  A failing evaluation is retried
    once, then recorded as infeasible with the configured failure penalty;
    so is an evaluation that returns non-finite objectives.  An expired
    deadline, a ``time.monotonic()`` value, stops the loop early and marks
    the result truncated.  Any other exception propagates.
    """
    steps = config.steps_per_agent() if steps is None else steps
    results, failures = _run_group(evaluator, config, [seed], [str(seed)], steps,
                                   checkpoint_dir, deadline)
    if failures:
        raise failures[0][1]
    return results[0]


@dataclass
class MultiResult:
    agents: list
    merged_front: list
    failures: list = field(default_factory=list)


def run_multi(evaluator, config: PearlConfig, deadline: float | None = None,
              checkpoint_dir=None) -> MultiResult:
    """Run all agents on their seeds and merge their fronts.

    The agents run in lockstep groups (see ``_run_group``), and each agent's
    results are those it would reach alone, bit for bit.  There is one
    group of every agent, or with ``config.workers`` > 1 one group per
    worker process, each a contiguous run of the seeds; results come back
    in seed order, and a worker that dies costs only its own group's agents.

    A crashing agent contributes a failure record instead of aborting the
    run.  ``deadline`` is a ``time.monotonic()`` value.
    """
    seeds = config.agent_seeds()
    names = agent_names(seeds)
    count = min(config.workers, len(seeds))
    bounds = [len(seeds) * k // count for k in range(count + 1)]
    groups = [list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    jobs = [functools.partial(_run_group, evaluator, config, [seeds[i] for i in group],
                              [names[i] for i in group], config.steps_per_agent(),
                              checkpoint_dir, deadline)
            for group in groups]
    results: list[AgentResult] = []
    failures: list[dict] = []
    with contextlib.ExitStack() as stack:
        if len(jobs) > 1:
            # imported here: the serial path never needs multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # one single-process pool per group: a worker that dies breaks
            # its own pool, and fails its own group's future alone
            pools = [stack.enter_context(ProcessPoolExecutor(max_workers=1)) for _ in jobs]
            jobs = [pool.submit(job).result for pool, job in zip(pools, jobs)]
        for group, job in zip(groups, jobs):
            try:
                finished, crashed = job()
            except Exception as exc:  # noqa: BLE001 - a lost worker loses its group
                finished, crashed = [], [(seeds[i], exc) for i in group]
            results += finished
            failures += [{"seed": seed, "error": repr(exc)} for seed, exc in crashed]

    merged = merge_fronts([r.front_points() for r in results])
    return MultiResult(agents=results, merged_front=merged, failures=failures)
