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

import contextlib
import functools
import logging
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .design_space import from_unit_cube
from .errors import ConfigError, ContractError, _is_integer, _is_number
from .metrics import FrontReport
from .pareto import (
    METRICS,
    DesignPayload,
    ObjectivePoint,
    ParetoBuffer,
    _checked_objectives,
    _first_front,
)

logger = logging.getLogger(__name__)

ACTION_DIM = 7
HIDDEN_WIDTH = 64
LOG_2PI = math.log(2.0 * math.pi)

# θ's order: the gradient's, whose per-tensor sums of squares the gradient
# norm adds in this order (a float sum's order decides its last bits)
_PARAM_SHAPES = {
    "log_std": (ACTION_DIM,),
    "pol_wm": (ACTION_DIM, HIDDEN_WIDTH),
    "pol_bm": (ACTION_DIM,),
    "pol_w2": (HIDDEN_WIDTH, HIDDEN_WIDTH),
    "pol_b2": (HIDDEN_WIDTH,),
    "pol_w1": (HIDDEN_WIDTH, 1),
    "pol_b1": (HIDDEN_WIDTH,),
}


def _flat_slices() -> dict:
    slices, start = {}, 0
    for name, shape in _PARAM_SHAPES.items():
        stop = start + math.prod(shape)
        slices[name] = slice(start, stop)
        start = stop
    return slices


_FLAT_SLICES = _flat_slices()
_FLAT_SIZE = sum(math.prod(shape) for shape in _PARAM_SHAPES.values())


def _views(flat: np.ndarray) -> dict:
    """Named, C-ordered views of one flat vector laid out in θ's order."""
    return {name: flat[where].reshape(_PARAM_SHAPES[name])
            for name, where in _FLAT_SLICES.items()}


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
    niching_divisions: int | None = None
    epochs: int = 20
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
        for name in ("entropy_coeff", "learning_rate", "max_grad_norm",
                     "clip_epsilon"):
            if not (_is_number(getattr(self, name)) and getattr(self, name) >= 0):
                raise ConfigError(f"{name} must be a non-negative number, "
                                  f"got {getattr(self, name)!r}")
        for name in ("init_log_std", "init_log_std_spread", "init_center_scale"):
            if not _is_number(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number, "
                                  f"got {getattr(self, name)!r}")
        if self.infeasibility_offset is not None \
                and not _is_number(self.infeasibility_offset):
            raise ConfigError("infeasibility_offset must be a finite number (or null "
                              f"for kappa + 1), got {self.infeasibility_offset!r}")
        # a failed evaluation must earn a negative reward
        if not (_is_number(self.failure_penalty) and self.failure_penalty > 0):
            raise ConfigError("failure_penalty must be a positive number, "
                              f"got {self.failure_penalty!r}")
        for name in ("agents", "kappa", "n_steps", "epochs", "total_steps",
                     "workers", "base_seed"):
            if not _is_integer(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.agents < 1 or self.kappa < 1 or self.n_steps < 1:
            raise ConfigError("agents, kappa and n_steps must be positive")
        if self.workers < 1:
            raise ConfigError(f"workers must be at least 1, got {self.workers!r}")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be non-negative, got {self.base_seed!r}")
        if self.checkpoint_interval is not None and not (
                _is_integer(self.checkpoint_interval) and self.checkpoint_interval >= 1):
            raise ConfigError("checkpoint_interval must be an integer >= 1 (or null "
                              f"for none), got {self.checkpoint_interval!r}")
        if self.distance_metric not in METRICS:
            raise ConfigError(f"distance_metric must be one of {list(METRICS)}, "
                              f"got {self.distance_metric!r}")
        if self.niching_divisions is not None and not (
                _is_integer(self.niching_divisions) and self.niching_divisions >= 1):
            raise ConfigError("niching_divisions must be an integer >= 1 (or null "
                              f"for kappa - 1), got {self.niching_divisions!r}")
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if self.total_steps < 1:
            raise ConfigError(f"total_steps must be at least 1, got {self.total_steps!r}")
        if self.total_steps % self.n_steps != 0:
            raise ConfigError("total_steps must be divisible by n_steps")
        if self.total_steps % self.agents != 0:
            raise ConfigError(f"total_steps ({self.total_steps}) must be divisible "
                              f"by agents ({self.agents})")
        if self.seeds is not None:
            if not (isinstance(self.seeds, (list, tuple))
                    and all(_is_integer(s) and s >= 0 for s in self.seeds)):
                raise ConfigError(f"seeds must be a list of non-negative integers, "
                                  f"got {self.seeds!r}")
            if len(self.seeds) != self.agents:
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
    """Learnable state: mean head and state-independent log-std.

    The observation is a constant token, so forward passes take no input.

    From the optimizer's first step on, every parameter lives in one flat
    vector θ, laid out in ``_PARAM_SHAPES`` order; ``params`` holds named
    views of it and Adam updates it in place.  Before that step ``params``
    holds copies of the arrays the policy was built from, each in its own
    memory layout: a fresh ``pol_wm`` is F-ordered, and the layout decides
    the BLAS path of the first epoch's products, and with it their last
    bits.  After one step every tensor is C-ordered either way.
    ``theta()`` returns a copy of θ, ``set_theta()`` takes one.
    """

    def __init__(self, params: dict):
        # copies in the arrays' own layout: the policy shares no memory with
        # its caller
        self.params = {k: np.array(params[k], dtype=float, order="K")
                       for k in _PARAM_SHAPES}
        self._theta: np.ndarray | None = None
        for name, shape in _PARAM_SHAPES.items():
            if self.params[name].shape != shape:
                raise ContractError(f"parameter {name} has shape "
                                    f"{self.params[name].shape}, want {shape}")

    def __reduce__(self):
        # pickled views would come back as arrays that no longer view θ
        return PolicyState, (self.params,)

    def _flat(self) -> np.ndarray:
        """θ, built from ``params`` at the first call; ``params`` then views
        it."""
        if self._theta is None:
            theta = np.empty(_FLAT_SIZE)
            views = _views(theta)
            for name, view in views.items():
                view[...] = self.params[name]
            self._theta = theta
            self.params = views
        return self._theta

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
        }
        # the draws of the value head this network once had (two hidden
        # layers and an output row), kept so every seed samples the same
        # action stream as before
        rng.standard_normal(HIDDEN_WIDTH + HIDDEN_WIDTH * HIDDEN_WIDTH + HIDDEN_WIDTH)
        return cls(params)

    def _policy_forward(self):
        p = self.params
        h1 = np.tanh(p["pol_w1"][:, 0] + p["pol_b1"])
        h2 = np.tanh(p["pol_w2"] @ h1 + p["pol_b2"])
        mean = p["pol_wm"] @ h2 + p["pol_bm"]
        return mean, h1, h2

    @property
    def mean(self) -> np.ndarray:
        return self._policy_forward()[0]

    @property
    def log_std(self) -> np.ndarray:
        return self.params["log_std"]

    @property
    def std(self) -> np.ndarray:
        return np.exp(self.params["log_std"])

    @property
    def entropy(self) -> float:
        """Entropy of the pre-squash Gaussian (closed form)."""
        return float(np.add.reduce(self.log_std) + 0.5 * ACTION_DIM * (1.0 + LOG_2PI))

    def theta(self) -> np.ndarray:
        return np.concatenate([self.params[k].ravel() for k in _PARAM_SHAPES])

    def set_theta(self, theta: np.ndarray) -> None:
        if len(theta) != _FLAT_SIZE:
            raise ContractError("theta length mismatch")
        for name, view in _views(theta).items():
            # in place: each parameter keeps its memory layout, which decides
            # the BLAS path of later products, and θ (once built) sees it
            self.params[name][...] = view

    def copy(self) -> "PolicyState":
        return PolicyState(self.params)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _softplus(x):
    return np.logaddexp(0.0, x)


@dataclass(frozen=True)
class ActionSample:
    u: np.ndarray          # squashed action, in [0, 1]^7
    log_prob: float
    pre_squash: np.ndarray


class _Behaviour(NamedTuple):
    """A policy's mean, log-std and std, frozen between two updates so each
    step's sample skips the forward pass.  It owns its arrays: the learner
    updates the policy's parameters in place."""

    mean: np.ndarray
    log_std: np.ndarray
    std: np.ndarray

    @classmethod
    def of(cls, policy: PolicyState) -> "_Behaviour":
        log_std = policy.log_std.copy()
        return cls(policy.mean, log_std, np.exp(log_std))


def sample_action(policy: PolicyState, rng) -> ActionSample:
    """Draw from the squashed-normal policy; the log-probability carries the
    squash Jacobian correction.  ``policy`` may be anything with ``mean``,
    ``log_std`` and ``std``."""
    mean, std = policy.mean, policy.std
    x = mean + std * rng.standard_normal(ACTION_DIM)
    u = _sigmoid(x)
    per_dim = _gauss_logpdf(x - mean, policy.log_std, std) - _squash_jacobian(x)
    return ActionSample(u=u, log_prob=float(np.add.reduce(per_dim)), pre_squash=x)


def _gauss_logpdf(diff, log_std, std):
    """Per-dimension Gaussian log-density of ``diff``, the draw minus the
    mean; ``std`` is ``exp(log_std)``."""
    z = diff / std
    return -0.5 * z**2 - log_std - 0.5 * LOG_2PI


def _squash_jacobian(x):
    # log |du/dx| for u = sigmoid(x); stable for large |x|
    return _softplus(x) + _softplus(-x)


def log_prob_of(policy: PolicyState, pre_squash: np.ndarray) -> np.ndarray:
    """Log-probability of stored pre-squash actions under the current policy."""
    pre_squash = np.atleast_2d(pre_squash)
    per_dim = _gauss_logpdf(pre_squash - policy.mean, policy.log_std, policy.std) \
        - _squash_jacobian(pre_squash)
    return np.add.reduce(per_dim, axis=1)


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

    def __len__(self):
        return len(self.rewards)

    def standardized(self):
        """The advantages: rewards standardized over the batch.

        Every episode is one action from the same constant observation, so a
        learned baseline could only be one constant per batch, and the
        standardization already removes any constant.  A one-sample batch
        has advantage 0.
        """
        r = self.rewards
        return (r - _mean(r)) / (_std(r) + 1e-8)


class _Targets(NamedTuple):
    """The policy-independent half of the PPO objective, computed once per
    update: the advantages and their negation, the squash Jacobian and the
    clip bounds of the importance ratio."""

    advantages: np.ndarray
    neg_advantages: np.ndarray
    jacobian: np.ndarray
    clip_low: float
    clip_high: float

    @classmethod
    def of(cls, rollout: Rollout, config: PearlConfig) -> "_Targets":
        advantages = rollout.standardized()
        return cls(advantages=advantages, neg_advantages=-advantages,
                   jacobian=_squash_jacobian(rollout.pre_squash),
                   clip_low=1.0 - config.clip_epsilon,
                   clip_high=1.0 + config.clip_epsilon)


def _loss_and_gradient(policy: PolicyState, rollout: Rollout, targets: _Targets,
                       config: PearlConfig, grads: dict | None = None):
    """Clipped-surrogate loss and the log importance ratios, from one policy
    forward.  Given ``grads``, named views of one flat vector, it also
    writes the closed-form gradient into them."""
    advantages = targets.advantages
    mean, h1, h2 = policy._policy_forward()
    log_std = policy.log_std
    diff = rollout.pre_squash - mean       # (n, 7)
    per_dim = _gauss_logpdf(diff, log_std, np.exp(log_std)) - targets.jacobian
    log_ratio = np.add.reduce(per_dim, axis=1) - rollout.log_probs
    ratio = np.exp(log_ratio)
    clipped = np.minimum(np.maximum(ratio, targets.clip_low), targets.clip_high)
    surrogate, clipped_surrogate = ratio * advantages, clipped * advantages
    pg = -_mean(np.minimum(surrogate, clipped_surrogate))
    loss = float(pg - config.entropy_coeff * policy.entropy)
    if grads is None:
        return loss, log_ratio

    n = len(rollout)
    std2 = np.exp(2.0 * log_std)
    # min() follows the unclipped branch on ties, so the in-range case (where
    # both branches coincide) keeps its gradient
    active = surrogate <= clipped_surrogate
    dlogp = np.where(active, targets.neg_advantages * ratio, 0.0) / n  # dL/dlogp_i

    d_mean = np.add.reduce(dlogp[:, None] * diff / std2, axis=0, out=grads["pol_bm"])
    d_log_std = np.add.reduce(dlogp[:, None] * (diff**2 / std2 - 1.0), axis=0,
                              out=grads["log_std"])
    d_log_std -= config.entropy_coeff

    p = policy.params
    d_h2 = p["pol_wm"].T @ d_mean
    d_pre2 = np.multiply(d_h2, 1.0 - h2**2, out=grads["pol_b2"])
    d_h1 = p["pol_w2"].T @ d_pre2
    d_pre1 = np.multiply(d_h1, 1.0 - h1**2, out=grads["pol_b1"])
    np.multiply(d_mean[:, None], h2, out=grads["pol_wm"])
    np.multiply(d_pre2[:, None], h1, out=grads["pol_w2"])
    grads["pol_w1"][:, 0] = d_pre1
    return loss, log_ratio


def ppo_loss(policy: PolicyState, rollout: Rollout, config: PearlConfig) -> float:
    """Clipped-surrogate loss plus the entropy term."""
    return _loss_and_gradient(policy, rollout, _Targets.of(rollout, config), config)[0]


def ppo_gradient(policy: PolicyState, rollout: Rollout, config: PearlConfig) -> dict:
    """Closed-form gradient of the clipped-surrogate loss, as named arrays
    that share no memory with the policy."""
    grads = _views(np.empty(_FLAT_SIZE))
    _loss_and_gradient(policy, rollout, _Targets.of(rollout, config), config, grads)
    return grads


class AdamOptimizer:
    """Adam over one flat parameter vector, updated in place.

    The moments and two scratch vectors are allocated at the first step.
    A step runs the textbook sequence of elementwise operations into them,
    so θ moves by the same bits as a tensor-by-tensor update with fresh
    arrays would move it.
    """

    def __init__(self, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self._scratch: tuple[np.ndarray, np.ndarray] | None = None
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray,
             scale: float | None = None) -> None:
        """One update of ``theta`` in place from ``grad``, first multiplied
        by ``scale`` when given (gradient-norm clipping).  With ``scale``,
        ``grad`` is scaled in place."""
        if scale is not None:
            grad *= scale
        self.t += 1
        if self.m is None:
            self.m, self.v = np.zeros_like(grad), np.zeros_like(grad)
            self._scratch = np.empty_like(grad), np.empty_like(grad)
        m, v = self.m, self.v
        a, b = self._scratch
        # m += (1 - beta1) * (grad - m)
        np.multiply(1.0 - self.beta1, np.subtract(grad, m, out=a), out=a)
        m += a
        # v += (1 - beta2) * (grad**2 - v)
        np.subtract(np.multiply(grad, grad, out=a), v, out=a)
        np.multiply(1.0 - self.beta2, a, out=a)
        v += a
        # theta -= lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(m, 1.0 - self.beta1**self.t, out=a)
        np.divide(v, 1.0 - self.beta2**self.t, out=b)
        np.add(np.sqrt(b, out=b), self.eps, out=b)
        np.divide(np.multiply(self.learning_rate, a, out=a), b, out=a)
        theta -= a


def _grad_norm(grad: np.ndarray, squares: np.ndarray) -> float:
    """Euclidean norm of the flat gradient: one squaring pass into
    ``squares``, then the sums of squares added tensor by tensor in θ's
    order."""
    np.multiply(grad, grad, out=squares)
    total = 0.0
    for where in _FLAT_SLICES.values():
        total += float(np.add.reduce(squares[where]))
    return math.sqrt(total)


@dataclass
class UpdateStats:
    """One update's last epoch: its loss and gradient norm, the entropy
    after its step, and two measures of how far the update moved the policy
    from the one that sampled the batch, from that epoch's importance
    ratios r: approx-KL, the mean of (r - 1) - log r, and the fraction of
    samples with |r - 1| > clip_epsilon."""

    loss: float
    grad_norm: float
    entropy: float
    approx_kl: float
    clip_frac: float
    skipped: bool = False


def ppo_update(policy: PolicyState, rollout: Rollout, config: PearlConfig,
               optimizer: AdamOptimizer | None = None) -> UpdateStats:
    """One (or config.epochs) clipped-surrogate gradient steps in place.

    A non-finite gradient skips the update and logs the incident.
    """
    optimizer = optimizer or AdamOptimizer(config.learning_rate)
    targets = _Targets.of(rollout, config)
    grad, squares = np.empty(_FLAT_SIZE), np.empty(_FLAT_SIZE)
    grads = _views(grad)
    skipped = False
    for _ in range(config.epochs):
        loss, log_ratio = _loss_and_gradient(policy, rollout, targets, config, grads)
        total_norm = _grad_norm(grad, squares)
        if not math.isfinite(total_norm) or not math.isfinite(loss):
            logger.warning("skipping policy update: non-finite gradient or loss")
            skipped = True
            break
        scale = None
        if total_norm > config.max_grad_norm:
            scale = config.max_grad_norm / (total_norm + 1e-6)
        # θ is built here, after the first epoch's products have run on the
        # arrays the policy was built with
        optimizer.step(policy._flat(), grad, scale)
    ratio = np.exp(log_ratio)
    return UpdateStats(
        loss=loss, grad_norm=total_norm, entropy=policy.entropy,
        approx_kl=float(_mean((ratio - 1.0) - log_ratio)),
        clip_frac=float(_mean(np.abs(ratio - 1.0) > config.clip_epsilon)),
        skipped=skipped)


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


@dataclass
class AgentResult:
    seed: int
    buffer: ParetoBuffer
    history: list
    update_log: list
    policy: PolicyState
    incidents: list = field(default_factory=list)   # of Incident
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
    behaviour = _Behaviour.of(policy)
    optimizer = AdamOptimizer(config.learning_rate)
    own_buffer = buffer if buffer is not None else ParetoBuffer(
        capacity=config.kappa,
        metric=config.distance_metric,
        divisions=config.niching_divisions,
    )
    history: list[HistoryRow] = []
    update_log: list[UpdateStats] = []
    incidents: list[Incident] = []
    truncated = False
    batch: list = []

    for step in range(steps):
        if deadline is not None and time.monotonic() > deadline:
            truncated = True
            break
        action = sample_action(behaviour, rng)
        design = from_unit_cube(action.u)
        result = incident = None
        for _attempt in range(2):
            try:
                result = evaluator.evaluate(design)
                break
            except Exception as exc:  # noqa: BLE001 - evaluator failures are data
                logger.exception("evaluation failed at step %d", step)
                incident = Incident(seed, step, "evaluation_failed",
                                    type(exc).__name__, str(exc))
        if result is not None and not np.all(np.isfinite(result[0])):
            logger.warning("non-finite objectives %s at step %d", result[0], step)
            incident = Incident(seed, step, "non_finite_objectives", None,
                                f"non-finite objectives {result[0]}")
            result = None
        if result is None:
            incidents.append(incident)
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
        batch.append((action, reward))

        if len(batch) == config.n_steps or step == steps - 1:
            rollout = Rollout(
                pre_squash=np.vstack([a.pre_squash for a, _ in batch]),
                log_probs=np.array([a.log_prob for a, _ in batch]),
                rewards=np.array([r for _, r in batch]),
            )
            stats = ppo_update(policy, rollout, config, optimizer)
            behaviour = _Behaviour.of(policy)
            if stats.skipped:
                incidents.append(Incident(seed, step, "skipped_update", None,
                                          "non-finite gradient or loss"))
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


def _run_agent(*args):
    # run_multi's one call per seed.  It looks ``run_agent`` up as it runs, so
    # a rebound one (a probe's wrapper) runs; a process pool pickles it by
    # this name, which nothing rebinds
    return run_agent(*args)


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
    shared = ParetoBuffer(capacity=config.kappa, metric=config.distance_metric,
                          divisions=config.niching_divisions) \
        if config.shared_buffer else None
    jobs = [functools.partial(_run_agent, evaluator, config, seed,
                              config.steps_per_agent(), shared, checkpoint_dir,
                              deadline)
            for seed in seeds]
    results: list[AgentResult] = []
    failures: list[dict] = []
    with contextlib.ExitStack() as stack:
        if config.workers > 1 and shared is None:
            # imported here: the serial path never needs multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=config.workers))
            jobs = [pool.submit(job).result for job in jobs]
        for seed, job in zip(seeds, jobs):
            try:
                results.append(job())
            except Exception as exc:  # noqa: BLE001
                failures.append({"seed": seed, "error": repr(exc)})

    merged = merge_fronts([r.front_points() for r in results])
    return MultiResult(agents=results, merged_front=merged, failures=failures)


_DRAW_BLOCK = 1024   # random-search designs drawn per generator call


def random_search(evaluator, evaluations: int, seed: int = 0) -> list[ObjectivePoint]:
    """Uniform sampling baseline under the same decode.

    Returns the non-dominated set over every evaluation (feasible points
    dominate infeasible ones, so the result is all-feasible whenever any
    feasible design was sampled).  A point is built only for a design the
    result may hold: every feasible one, and an infeasible one whose
    penalty beats the best so far.  Every other design is checked as its
    point would have been.
    """
    rng = np.random.default_rng(seed)
    feasible: list[ObjectivePoint] = []
    best_infeasible: ObjectivePoint | None = None
    for step in range(evaluations):
        if step % _DRAW_BLOCK == 0:
            # one call fills a block from the same stream, in the same
            # order, as one draw of ACTION_DIM per design
            draws = rng.random((min(_DRAW_BLOCK, evaluations - step), ACTION_DIM))
        design = from_unit_cube(draws[step % _DRAW_BLOCK])
        objectives, report, _qoi = evaluator.evaluate(design)
        is_feasible = report.feasible
        penalty = 0.0 if is_feasible else report.penalty
        if is_feasible or best_infeasible is None or penalty < best_infeasible.penalty:
            point = ObjectivePoint(
                objectives=objectives,
                feasible=is_feasible,
                penalty=penalty,
                payload=DesignPayload(id=f"rs-{step}", design=design),
            )
            if is_feasible:
                feasible.append(point)
            else:
                best_infeasible = point
        else:
            _checked_objectives(objectives, is_feasible, penalty)
    if not feasible:
        return [] if best_infeasible is None else [best_infeasible]
    return [feasible[i] for i in _first_front(feasible)]
