"""Rank-rewarded reinforcement-learning optimizer.

Each episode is a single action: the stochastic policy emits a point of the
unit cube, the point decodes to a design, and the reward is either the
negative constraint penalty (infeasible design) or the negative rank the
design earns in the owner agent's Pareto buffer (feasible design).  The
policy is a small tanh network over a constant observation token, updated
with a clipped-surrogate policy-gradient step; gradients are computed in
closed form (no autodiff dependency).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .design_space import from_unit_cube
from .errors import ConfigError, ContractError
from .metrics import FrontReport
from .pareto import DesignPayload, ObjectivePoint, ParetoBuffer, _first_front

logger = logging.getLogger(__name__)

ACTION_DIM = 7
HIDDEN_WIDTH = 64
LOG_2PI = math.log(2.0 * math.pi)

_PARAM_SHAPES = {
    "pol_w1": (HIDDEN_WIDTH, 1),
    "pol_b1": (HIDDEN_WIDTH,),
    "pol_w2": (HIDDEN_WIDTH, HIDDEN_WIDTH),
    "pol_b2": (HIDDEN_WIDTH,),
    "pol_wm": (ACTION_DIM, HIDDEN_WIDTH),
    "pol_bm": (ACTION_DIM,),
    "log_std": (ACTION_DIM,),
    "val_w1": (HIDDEN_WIDTH, 1),
    "val_b1": (HIDDEN_WIDTH,),
    "val_w2": (HIDDEN_WIDTH, HIDDEN_WIDTH),
    "val_b2": (HIDDEN_WIDTH,),
    "val_wv": (HIDDEN_WIDTH,),
    "val_bv": (1,),
}


@dataclass
class PearlConfig:
    """Hyperparameters of the optimizer and its buffer."""

    n_steps: int = 8
    entropy_coeff: float = 0.0001
    value_coeff: float = 0.5
    learning_rate: float = 0.00025
    max_grad_norm: float = 0.5
    clip_epsilon: float = 0.2
    kappa: int = 64
    agents: int = 8
    total_steps: int = 100_000
    distance_metric: str = "niching"
    niching_divisions: int | None = None
    epochs: int = 20
    normalize_advantage: bool = True
    init_log_std: float = 0.4
    init_log_std_spread: float = 0.3
    init_center_scale: float = 0.8
    infeasibility_offset: float | None = None
    base_seed: int = 0
    seeds: tuple | None = None
    shared_buffer: bool = False
    failure_penalty: float = 1.0e6
    workers: int = 1
    checkpoint_interval: int | None = None

    def __post_init__(self):
        for name in ("entropy_coeff", "value_coeff", "learning_rate",
                     "max_grad_norm", "clip_epsilon"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.agents < 1 or self.kappa < 1 or self.n_steps < 1:
            raise ConfigError("agents, kappa and n_steps must be positive")
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if self.total_steps % self.n_steps != 0:
            raise ConfigError("total_steps must be divisible by n_steps")
        if self.total_steps % self.agents != 0:
            raise ConfigError(f"total_steps ({self.total_steps}) must be divisible "
                              f"by agents ({self.agents})")
        if self.seeds is not None and len(self.seeds) != self.agents:
            raise ConfigError("need exactly one seed per agent")

    def resolved_infeasibility_offset(self) -> float:
        # default: one worse than the worst possible rank reward, so a
        # barely-infeasible sample can never outscore a feasible one
        if self.infeasibility_offset is None:
            return float(self.kappa + 1)
        return float(self.infeasibility_offset)

    def agent_seeds(self) -> list[int]:
        if self.seeds is not None:
            return [int(s) for s in self.seeds]
        return [self.base_seed + i for i in range(self.agents)]

    def steps_per_agent(self) -> int:
        return self.total_steps // self.agents


def _orthogonal(shape, gain, rng) -> np.ndarray:
    rows, cols = shape if len(shape) == 2 else (shape[0], 1)
    mat = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(mat)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * (q if len(shape) == 2 else q[:, 0])


class PolicyState:
    """Learnable state: mean head, state-independent log-std, value head.

    The observation is a constant token, so forward passes take no input.
    ``theta`` exposes all parameters as one flat vector for gradient checks.
    """

    def __init__(self, params: dict):
        self.params = {k: np.asarray(v, dtype=float) for k, v in params.items()}
        for name, shape in _PARAM_SHAPES.items():
            if self.params[name].shape != shape:
                raise ContractError(f"parameter {name} has shape "
                                    f"{self.params[name].shape}, want {shape}")

    @classmethod
    def initialize(cls, rng, init_log_std: float = 0.4,
                   init_center_scale: float = 0.0) -> "PolicyState":
        """Orthogonal hidden layers, near-zero mean head, free log-std.

        ``init_center_scale`` > 0 draws a random pre-squash offset for the
        mean head so independently seeded agents anchor their search in
        different regions of the cube.
        """
        gain_hidden = math.sqrt(2.0)
        params = {
            "pol_w1": _orthogonal(_PARAM_SHAPES["pol_w1"], gain_hidden, rng),
            "pol_b1": np.zeros(HIDDEN_WIDTH),
            "pol_w2": _orthogonal(_PARAM_SHAPES["pol_w2"], gain_hidden, rng),
            "pol_b2": np.zeros(HIDDEN_WIDTH),
            "pol_wm": _orthogonal(_PARAM_SHAPES["pol_wm"], 0.01, rng),
            "pol_bm": init_center_scale * rng.standard_normal(ACTION_DIM),
            "log_std": np.full(ACTION_DIM, float(init_log_std)),
            "val_w1": _orthogonal(_PARAM_SHAPES["val_w1"], gain_hidden, rng),
            "val_b1": np.zeros(HIDDEN_WIDTH),
            "val_w2": _orthogonal(_PARAM_SHAPES["val_w2"], gain_hidden, rng),
            "val_b2": np.zeros(HIDDEN_WIDTH),
            "val_wv": _orthogonal((HIDDEN_WIDTH,), 1.0, rng),
            "val_bv": np.zeros(1),
        }
        return cls(params)

    def _policy_forward(self):
        p = self.params
        h1 = np.tanh(p["pol_w1"][:, 0] + p["pol_b1"])
        h2 = np.tanh(p["pol_w2"] @ h1 + p["pol_b2"])
        mean = p["pol_wm"] @ h2 + p["pol_bm"]
        return mean, h1, h2

    def _value_forward(self):
        p = self.params
        h1 = np.tanh(p["val_w1"][:, 0] + p["val_b1"])
        h2 = np.tanh(p["val_w2"] @ h1 + p["val_b2"])
        value = float(p["val_wv"] @ h2 + p["val_bv"][0])
        return value, h1, h2

    @property
    def mean(self) -> np.ndarray:
        return self._policy_forward()[0]

    @property
    def log_std(self) -> np.ndarray:
        return self.params["log_std"]

    @property
    def value_baseline(self) -> float:
        return self._value_forward()[0]

    @property
    def entropy(self) -> float:
        """Entropy of the pre-squash Gaussian (closed form)."""
        return float(np.sum(self.log_std) + 0.5 * ACTION_DIM * (1.0 + LOG_2PI))

    def theta(self) -> np.ndarray:
        return np.concatenate([self.params[k].ravel() for k in _PARAM_SHAPES])

    def set_theta(self, theta: np.ndarray) -> None:
        # each parameter keeps its memory layout: the layout decides the BLAS
        # path of later products, and with it their last bits
        offset = 0
        for name, shape in _PARAM_SHAPES.items():
            size = int(np.prod(shape))
            fresh = np.empty_like(self.params[name])
            fresh[...] = theta[offset:offset + size].reshape(shape)
            self.params[name] = fresh
            offset += size
        if offset != len(theta):
            raise ContractError("theta length mismatch")

    def copy(self) -> "PolicyState":
        return PolicyState({k: v.copy(order="K") for k, v in self.params.items()})


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _softplus(x):
    return np.logaddexp(0.0, x)


@dataclass(frozen=True)
class ActionSample:
    u: np.ndarray          # squashed action, in [0, 1]^7
    log_prob: float
    pre_squash: np.ndarray


def sample_action(policy: PolicyState, rng) -> ActionSample:
    """Draw from the squashed-normal policy; the log-probability carries the
    squash Jacobian correction."""
    mean = policy.mean
    std = np.exp(policy.log_std)
    x = mean + std * rng.standard_normal(ACTION_DIM)
    u = _sigmoid(x)
    log_prob = float(np.sum(_gauss_logpdf(x, mean, policy.log_std) - _squash_jacobian(x)))
    return ActionSample(u=u, log_prob=log_prob, pre_squash=x)


def _gauss_logpdf(x, mean, log_std):
    z = (x - mean) / np.exp(log_std)
    return -0.5 * z**2 - log_std - 0.5 * LOG_2PI


def _squash_jacobian(x):
    # log |du/dx| for u = sigmoid(x); stable for large |x|
    return _softplus(x) + _softplus(-x)


def log_prob_of(policy: PolicyState, pre_squash: np.ndarray) -> np.ndarray:
    """Log-probability of stored pre-squash actions under the current policy."""
    pre_squash = np.atleast_2d(pre_squash)
    mean = policy.mean
    per_dim = _gauss_logpdf(pre_squash, mean, policy.log_std) - _squash_jacobian(pre_squash)
    return per_dim.sum(axis=1)


def _mean(x: np.ndarray) -> np.float64:
    """``np.mean`` of a 1-D float array: the same sum over the same count,
    so the same bits, without the dispatch that dominates at this size."""
    return np.add.reduce(x) / len(x)


def _std(x: np.ndarray) -> np.float64:
    """``np.std`` (ddof 0) of a 1-D float array, computed as numpy does:
    deviations from the mean, their squares summed over the count, the
    square root."""
    deviation = x - np.add.reduce(x) / len(x)
    return np.sqrt(np.add.reduce(deviation * deviation) / len(x))


@dataclass
class Rollout:
    pre_squash: np.ndarray   # (n, 7)
    log_probs: np.ndarray    # (n,)
    rewards: np.ndarray      # (n,)
    value_old: np.ndarray    # (n,)

    def __len__(self):
        return len(self.rewards)

    def standardized(self):
        r = self.rewards
        return (r - _mean(r)) / (_std(r) + 1e-8)

    def advantages(self, normalize: bool, returns: np.ndarray | None = None) -> np.ndarray:
        """Returns minus the stored baselines; ``returns`` saves recomputing
        ``standardized()`` when the caller already has it."""
        a = (self.standardized() if returns is None else returns) - self.value_old
        if normalize and len(a) > 1:
            a = (a - _mean(a)) / (_std(a) + 1e-8)
        return a


class _Targets(NamedTuple):
    """The policy-independent half of the PPO objective, computed once per
    update: standardized returns, advantages and the squash Jacobian."""

    returns: np.ndarray
    advantages: np.ndarray
    jacobian: np.ndarray

    @classmethod
    def of(cls, rollout: Rollout, config: PearlConfig) -> "_Targets":
        returns = rollout.standardized()
        return cls(returns=returns,
                   advantages=rollout.advantages(config.normalize_advantage, returns),
                   jacobian=_squash_jacobian(rollout.pre_squash))


def _loss_and_gradient(policy: PolicyState, rollout: Rollout, targets: _Targets,
                       config: PearlConfig, with_gradient: bool = True):
    """Clipped-surrogate loss and, optionally, its closed-form gradient, from
    one policy forward and one value forward."""
    returns, advantages = targets.returns, targets.advantages
    mean, h1, h2 = policy._policy_forward()
    log_std = policy.log_std
    per_dim = _gauss_logpdf(rollout.pre_squash, mean, log_std) - targets.jacobian
    ratio = np.exp(per_dim.sum(axis=1) - rollout.log_probs)
    clipped = np.clip(ratio, 1.0 - config.clip_epsilon, 1.0 + config.clip_epsilon)
    surrogate, clipped_surrogate = ratio * advantages, clipped * advantages
    pg = -_mean(np.minimum(surrogate, clipped_surrogate))
    value, v_h1, v_h2 = policy._value_forward()
    v_loss = config.value_coeff * _mean((value - returns) ** 2)
    loss = float(pg + v_loss - config.entropy_coeff * policy.entropy)
    if not with_gradient:
        return loss, None

    n = len(rollout)
    std2 = np.exp(2.0 * log_std)
    # min() follows the unclipped branch on ties, so the in-range case (where
    # both branches coincide) keeps its gradient
    active = surrogate <= clipped_surrogate
    dlogp = np.where(active, -advantages * ratio, 0.0) / n  # dL/dlogp_i

    diff = rollout.pre_squash - mean       # (n, 7)
    d_mean = (dlogp[:, None] * diff / std2).sum(axis=0)
    d_log_std = (dlogp[:, None] * (diff**2 / std2 - 1.0)).sum(axis=0)
    d_log_std -= config.entropy_coeff

    grads = {"log_std": d_log_std}
    p = policy.params
    d_h2 = p["pol_wm"].T @ d_mean
    d_pre2 = d_h2 * (1.0 - h2**2)
    d_h1 = p["pol_w2"].T @ d_pre2
    d_pre1 = d_h1 * (1.0 - h1**2)
    grads.update({
        "pol_wm": d_mean[:, None] * h2,
        "pol_bm": d_mean,
        "pol_w2": d_pre2[:, None] * h1,
        "pol_b2": d_pre2,
        "pol_w1": d_pre1[:, None],
        "pol_b1": d_pre1,
    })

    d_value = config.value_coeff * 2.0 * _mean(value - returns)
    d_vh2 = d_value * p["val_wv"]
    d_vpre2 = d_vh2 * (1.0 - v_h2**2)
    d_vh1 = p["val_w2"].T @ d_vpre2
    d_vpre1 = d_vh1 * (1.0 - v_h1**2)
    grads.update({
        "val_wv": d_value * v_h2,
        "val_bv": np.array([d_value]),
        "val_w2": d_vpre2[:, None] * v_h1,
        "val_b2": d_vpre2,
        "val_w1": d_vpre1[:, None],
        "val_b1": d_vpre1,
    })
    return loss, grads


def ppo_loss(policy: PolicyState, rollout: Rollout, config: PearlConfig) -> float:
    """Clipped-surrogate loss plus value and entropy terms."""
    return _loss_and_gradient(policy, rollout, _Targets.of(rollout, config), config,
                              with_gradient=False)[0]


def ppo_gradient(policy: PolicyState, rollout: Rollout, config: PearlConfig) -> dict:
    """Closed-form gradient of the clipped-surrogate loss."""
    return _loss_and_gradient(policy, rollout, _Targets.of(rollout, config), config)[1]


class AdamOptimizer:
    """Adam over named parameter tensors.

    The moments live in one flat vector in the order of the first gradient
    dict; the arithmetic is elementwise, so the result is the same, bit for
    bit, as updating tensor by tensor.
    """

    def __init__(self, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.t = 0

    def step(self, params: dict, grads: dict, scale: float | None = None) -> None:
        """One update from ``grads``, each first multiplied by ``scale``
        when given (gradient-norm clipping)."""
        grad = _flatten(grads)
        if scale is not None:
            grad = grad * scale
        self.t += 1
        if self.m is None:
            self.m = np.zeros_like(grad)
            self.v = np.zeros_like(grad)
        m, v = self.m, self.v
        m += (1.0 - self.beta1) * (grad - m)
        v += (1.0 - self.beta2) * (grad**2 - v)
        m_hat = m / (1.0 - self.beta1**self.t)
        v_hat = v / (1.0 - self.beta2**self.t)
        update = self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
        start = 0
        for name, g in grads.items():
            stop = start + g.size
            # a fresh array, not an in-place update: the result's memory
            # layout decides the BLAS path of later products, and with it
            # their last bits
            params[name] = params[name] - update[start:stop].reshape(g.shape)
            start = stop


def _flatten(grads: dict) -> np.ndarray:
    return np.concatenate([g.ravel() for g in grads.values()])


def _grad_norm(grads: dict) -> float:
    """Euclidean norm of all gradients, summed tensor by tensor in dict
    order (a contiguous slice sums like the tensor it holds)."""
    squares = _flatten(grads) ** 2
    total, start = 0.0, 0
    for g in grads.values():
        total += float(np.add.reduce(squares[start:start + g.size]))
        start += g.size
    return math.sqrt(total)


@dataclass
class UpdateStats:
    loss: float
    grad_norm: float
    entropy: float
    skipped: bool = False


def ppo_update(policy: PolicyState, rollout: Rollout, config: PearlConfig,
               optimizer: AdamOptimizer | None = None) -> UpdateStats:
    """One (or config.epochs) clipped-surrogate gradient steps in place.

    A non-finite gradient skips the update and logs the incident.
    """
    optimizer = optimizer or AdamOptimizer(config.learning_rate)
    targets = _Targets.of(rollout, config)
    stats = None
    for _ in range(config.epochs):
        loss, grads = _loss_and_gradient(policy, rollout, targets, config)
        total_norm = _grad_norm(grads)
        if not math.isfinite(total_norm) or not math.isfinite(loss):
            logger.warning("skipping policy update: non-finite gradient or loss")
            return UpdateStats(loss=loss, grad_norm=total_norm,
                               entropy=policy.entropy, skipped=True)
        scale = None
        if total_norm > config.max_grad_norm:
            scale = config.max_grad_norm / (total_norm + 1e-6)
        optimizer.step(policy.params, grads, scale)
        stats = UpdateStats(loss=loss, grad_norm=total_norm, entropy=policy.entropy)
    return stats


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


@dataclass
class AgentResult:
    seed: int
    buffer: ParetoBuffer
    history: list
    update_log: list
    policy: PolicyState
    incidents: int = 0
    truncated: bool = False

    def front_points(self) -> list[ObjectivePoint]:
        return self.buffer.front(0)


def run_agent(evaluator, config: PearlConfig, seed: int,
              steps: int | None = None, buffer: ParetoBuffer | None = None,
              checkpoint_dir=None, deadline: float | None = None) -> AgentResult:
    """One agent's full optimization loop: sample, evaluate, archive, learn.

    Bit-reproducible for a fixed seed.  A failing evaluation is retried
    once, then recorded as infeasible with the configured failure penalty
    (nothing is archived for it: there are no objectives to rank); so is an
    evaluation that returns non-finite objectives.  An expired deadline, a
    ``time.monotonic()`` value, stops the loop early and marks the result
    truncated.
    """
    steps = config.steps_per_agent() if steps is None else steps
    rng = np.random.default_rng(seed)
    # each seed draws its own initial exploration scale from the configured
    # band, so a team of agents covers the front instead of collapsing onto
    # one region; identical seeds still yield identical agents
    init_log_std = config.init_log_std \
        + config.init_log_std_spread * (rng.random() - 0.5)
    policy = PolicyState.initialize(rng, init_log_std, config.init_center_scale)
    optimizer = AdamOptimizer(config.learning_rate)
    own_buffer = buffer if buffer is not None else ParetoBuffer(
        capacity=config.kappa,
        metric=config.distance_metric,
        divisions=config.niching_divisions,
    )
    history: list[HistoryRow] = []
    update_log: list[UpdateStats] = []
    incidents = 0
    truncated = False
    batch: list = []

    for step in range(steps):
        if deadline is not None and time.monotonic() > deadline:
            truncated = True
            break
        action = sample_action(policy, rng)
        design = from_unit_cube(action.u)
        result = None
        for _attempt in range(2):
            try:
                result = evaluator.evaluate(design)
                break
            except Exception:  # noqa: BLE001 - evaluator failures are data
                logger.exception("evaluation failed at step %d", step)
        if result is not None and not np.all(np.isfinite(result[0])):
            logger.warning("non-finite objectives %s at step %d", result[0], step)
            result = None
        if result is None:
            incidents += 1
            reward = -config.failure_penalty
            history.append(HistoryRow(step, reward, False, math.nan, math.nan,
                                      config.failure_penalty))
        else:
            objectives, report, _qoi = result
            payload = DesignPayload(id=f"{seed}-{step}", design=design)
            reward = step_reward(objectives, report, own_buffer, payload,
                                 config.resolved_infeasibility_offset())
            history.append(HistoryRow(
                step, reward, report.feasible,
                float(objectives[0]), float(objectives[1]),
                float(report.penalty),
            ))
        batch.append((action, reward, policy.value_baseline))

        if len(batch) == config.n_steps or step == steps - 1:
            rollout = Rollout(
                pre_squash=np.vstack([a.pre_squash for a, _, _ in batch]),
                log_probs=np.array([a.log_prob for a, _, _ in batch]),
                rewards=np.array([r for _, r, _ in batch]),
                value_old=np.array([v for _, _, v in batch]),
            )
            stats = ppo_update(policy, rollout, config, optimizer)
            if stats.skipped:
                incidents += 1
            update_log.append(stats)
            batch = []
        if (checkpoint_dir is not None and config.checkpoint_interval
                and (step + 1) % config.checkpoint_interval == 0):
            np.savez(f"{checkpoint_dir}/policy-{seed}-step{step + 1:06d}.npz",
                     **policy.params)

    return AgentResult(seed=seed, buffer=own_buffer, history=history,
                       update_log=update_log, policy=policy,
                       incidents=incidents, truncated=truncated)


def merge_fronts(agent_fronts) -> list[ObjectivePoint]:
    """Non-dominated union of per-agent first fronts.

    Exact duplicates in objective space collapse to the earliest occurrence
    so merged fronts stay strictly ordered along each objective.  The
    result keeps pool order: agent by agent, each front in its own order.
    """
    pool = [point for front in agent_fronts for point in front]
    kept = np.zeros(len(pool), dtype=bool)
    kept[_first_front(pool)] = True
    return [point for point, keep in zip(pool, kept) if keep]


@dataclass
class MultiResult:
    agents: list
    merged_front: list
    failures: list = field(default_factory=list)

    def front_report(self, label: str = "pearl") -> FrontReport:
        return FrontReport(points=list(self.merged_front), label=label)


def _run_agent_worker(args):
    evaluator, config, seed, steps, deadline, checkpoint_dir = args
    return run_agent(evaluator, config, seed, steps, deadline=deadline,
                     checkpoint_dir=checkpoint_dir)


def run_multi(evaluator, config: PearlConfig, deadline: float | None = None,
              checkpoint_dir=None) -> MultiResult:
    """Run all agents on distinct seeds and merge their fronts.

    Agents are independent; with ``config.workers`` > 1 they run in separate
    processes (results are identical to the serial path).  A crashing agent
    contributes a failure record instead of aborting the run.  With
    ``config.shared_buffer`` every agent inserts into one common buffer and
    execution is serial by construction.  ``deadline`` is a
    ``time.monotonic()`` value.
    """
    seeds = config.agent_seeds()
    steps = config.steps_per_agent()
    results: list[AgentResult] = []
    failures: list[dict] = []

    if config.shared_buffer:
        shared = ParetoBuffer(capacity=config.kappa, metric=config.distance_metric,
                              divisions=config.niching_divisions)
        for seed in seeds:
            try:
                results.append(run_agent(evaluator, config, seed, steps,
                                         buffer=shared, deadline=deadline,
                                         checkpoint_dir=checkpoint_dir))
            except Exception as exc:  # noqa: BLE001
                failures.append({"seed": seed, "error": repr(exc)})
    elif config.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            jobs = {seed: pool.submit(
                _run_agent_worker,
                (evaluator, config, seed, steps, deadline, checkpoint_dir))
                for seed in seeds}
            for seed, job in jobs.items():
                try:
                    results.append(job.result())
                except Exception as exc:  # noqa: BLE001
                    failures.append({"seed": seed, "error": repr(exc)})
    else:
        for seed in seeds:
            try:
                results.append(run_agent(evaluator, config, seed, steps,
                                         deadline=deadline,
                                         checkpoint_dir=checkpoint_dir))
            except Exception as exc:  # noqa: BLE001
                failures.append({"seed": seed, "error": repr(exc)})

    merged = merge_fronts([r.front_points() for r in results])
    return MultiResult(agents=results, merged_front=merged, failures=failures)


def random_search(evaluator, evaluations: int, seed: int = 0) -> list[ObjectivePoint]:
    """Uniform sampling baseline under the same decode.

    Returns the non-dominated set over every evaluation (feasible points
    dominate infeasible ones, so the result is all-feasible whenever any
    feasible design was sampled).
    """
    rng = np.random.default_rng(seed)
    feasible: list[ObjectivePoint] = []
    best_infeasible: ObjectivePoint | None = None
    for step in range(evaluations):
        u = rng.random(ACTION_DIM)
        design = from_unit_cube(u)
        objectives, report, _qoi = evaluator.evaluate(design)
        point = ObjectivePoint(
            objectives=objectives,
            feasible=report.feasible,
            penalty=0.0 if report.feasible else report.penalty,
            payload=DesignPayload(id=f"rs-{step}", design=design),
        )
        if point.feasible:
            feasible.append(point)
        elif best_infeasible is None or point.penalty < best_infeasible.penalty:
            best_infeasible = point
    if not feasible:
        return [] if best_infeasible is None else [best_infeasible]
    return [feasible[i] for i in _first_front(feasible)]
