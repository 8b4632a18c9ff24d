"""Rank-rewarded reinforcement-learning optimizer.

Each episode is a single action: the stochastic policy emits a point of the
unit cube, the point decodes to a design, and the reward is either the
negative constraint penalty (infeasible design) or the negative rank the
design earns in the owner agent's Pareto buffer (feasible design).  The
policy is a small tanh network over a constant observation token, updated
with a clipped-surrogate policy-gradient step; gradients are computed in
closed form (no autodiff dependency).  The agents of a run step in
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
from typing import NamedTuple

import numpy as np

from .design_space import from_unit_cube
from .errors import (BOOLEAN, NON_NEGATIVE, NUMBER, POSITIVE, ConfigError, ContractError,
                     check, integer, list_of, one_of, optional)
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
    """Named, C-ordered views of a vector laid out in θ's order, or of each
    row of an (A, N) stack of them, shaped (A, ...)."""
    lead = flat.shape[:-1]
    return {name: flat[..., where].reshape(lead + _PARAM_SHAPES[name])
            for name, where in _FLAT_SLICES.items()}


# the parameters the network multiplies by, whose layout picks the BLAS path
_MATRICES = ("pol_w2", "pol_wm")


PEARL_RULES = {
    **dict.fromkeys(("n_steps", "kappa", "agents", "total_steps", "epochs", "workers"),
                    integer(1)),
    **dict.fromkeys(("entropy_coeff", "learning_rate", "max_grad_norm", "clip_epsilon"),
                    NON_NEGATIVE),
    **dict.fromkeys(("init_log_std", "init_log_std_spread", "init_center_scale"), NUMBER),
    "distance_metric": one_of(*METRICS), "base_seed": integer(0), "shared_buffer": BOOLEAN,
    "niching_divisions": optional(integer(1)),     # null: kappa - 1
    "infeasibility_offset": optional(NUMBER),      # null: kappa + 1
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
        check(self, PEARL_RULES)
        for name in ("n_steps", "agents"):
            if self.total_steps % getattr(self, name):
                raise ConfigError(f"total_steps {self.total_steps} must be divisible by {name}")
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
    """Learnable state: mean head and state-independent log-std.

    The observation is a constant token, so forward passes take no input.

    From the optimizer's first step on, every parameter lives in one flat
    row θ, laid out in ``_PARAM_SHAPES`` order; ``params`` holds named
    views of it and Adam updates it in place.  θ is a row of an (A, N)
    stack: of a group of agents that learn in lockstep, or of a stack of
    one.
    Before that step ``params`` holds copies of the arrays the policy was
    built from, each in its own memory layout: a fresh ``pol_wm`` is
    F-ordered, and the layout decides the BLAS path of the first epoch's
    products, and with it their last bits.  After one step every tensor is
    C-ordered either way.  ``theta()`` returns a copy of θ, ``set_theta()``
    takes one.
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

    def _bind(self, row: np.ndarray) -> None:
        """View ``row``, which holds this policy's parameters in θ's order,
        as θ from now on."""
        self._theta = row
        self.params = _views(row)

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

    @property
    def mean(self) -> np.ndarray:
        return _forward(_Stack.one(self))[0][0]

    @property
    def log_std(self) -> np.ndarray:
        return self.params["log_std"]

    @property
    def std(self) -> np.ndarray:
        return np.exp(self.params["log_std"])

    @property
    def entropy(self) -> float:
        """Entropy of the pre-squash Gaussian (closed form)."""
        return float(_entropy(self.log_std))

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


def _entropy(log_std: np.ndarray):
    """Entropy of the pre-squash Gaussian from the last axis of log-stds."""
    return np.add.reduce(log_std, axis=-1) + 0.5 * ACTION_DIM * (1.0 + LOG_2PI)


class _Stack(NamedTuple):
    """The parameters of A policies as the learner reads them: named
    (A, ...) arrays, and for each of ``_MATRICES`` a mask of the rows whose
    products must read that matrix F-ordered (None: no row)."""

    params: dict
    fortran: dict

    @classmethod
    def one(cls, policy: PolicyState) -> "_Stack":
        """One policy's own arrays, as views: each keeps its layout."""
        return cls({name: array[None] for name, array in policy.params.items()},
                   dict.fromkeys(_MATRICES))

    @classmethod
    def of(cls, policies, theta: np.ndarray) -> "_Stack":
        """Views of ``theta``, the (A, N) stack of the policies' θ.  The row
        of a policy that views none yet (no step taken) is filled with a
        copy of its parameters, and its F-ordered matrices are marked."""
        params = _views(theta)
        for row, policy in enumerate(policies):
            if policy._theta is None:
                for name, array in policy.params.items():
                    params[name][row] = array
        return cls(params, {name: _mask([np.isfortran(p.params[name]) for p in policies])
                            for name in _MATRICES})


def _mask(flags):
    """A boolean row mask, or None when it marks no row."""
    return np.array(flags) if any(flags) else None


def _matvec(w: np.ndarray, x: np.ndarray, flip: np.ndarray | None) -> np.ndarray:
    """``w[a] @ x[a]`` for every row a of a stack of matrices (A, r, c) and
    of vectors (A, c), as one stacked ``np.matmul``: the same BLAS ``gemv``
    per row as a single product.  The rows marked in ``flip`` multiply a
    copy of their matrix in the other memory layout."""
    y = np.matmul(w, x[:, :, None])[:, :, 0]
    if flip is not None:
        count, rows, cols = int(np.count_nonzero(flip)), w.shape[1], w.shape[2]
        other = (np.empty((count, cols, rows)).transpose(0, 2, 1)
                 if w.strides[-1] == w.itemsize else np.empty((count, rows, cols)))
        other[...] = w[flip]
        y[flip] = np.matmul(other, x[flip][:, :, None])[:, :, 0]
    return y


def _forward(stack: _Stack):
    """The mean head and both hidden layers of every row, (A, 7) and
    (A, 64) twice."""
    p = stack.params
    h1 = np.tanh(p["pol_w1"][:, :, 0] + p["pol_b1"])
    h2 = np.tanh(_matvec(p["pol_w2"], h1, stack.fortran["pol_w2"]) + p["pol_b2"])
    mean = _matvec(p["pol_wm"], h2, stack.fortran["pol_wm"]) + p["pol_bm"]
    return mean, h1, h2


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


def _mean(x: np.ndarray):
    """``np.mean`` over the last axis of a float array: the same sum over
    the same count, so the same bits, without the dispatch that dominates
    at this size."""
    return np.add.reduce(x, axis=-1) / x.shape[-1]


def _std(x: np.ndarray):
    """``np.std`` (ddof 0) over the last axis of a float array, computed as
    numpy does: deviations from the mean, their squares summed over the
    count, the square root."""
    deviation = x - _mean(x)[..., None]
    return np.sqrt(np.add.reduce(deviation * deviation, axis=-1) / x.shape[-1])


@dataclass
class Rollout:
    pre_squash: np.ndarray   # (n, 7); stacked for a group, (A, n, 7)
    log_probs: np.ndarray    # (n,), or (A, n)
    rewards: np.ndarray      # (n,), or (A, n)

    @classmethod
    def stack(cls, rollouts) -> "Rollout":
        """One rollout per agent, of one length, stacked row by row."""
        return cls(*(np.stack(arrays) for arrays in zip(
            *((r.pre_squash, r.log_probs, r.rewards) for r in rollouts))))

    def row(self) -> "Rollout":
        """This rollout as a one-row stack, of views."""
        return Rollout(self.pre_squash[None], self.log_probs[None], self.rewards[None])

    def standardized(self):
        """The advantages: rewards standardized over the batch (over each
        row of a stack).

        Every episode is one action from the same constant observation, so a
        learned baseline could only be one constant per batch, and the
        standardization already removes any constant.  A one-sample batch
        has advantage 0.
        """
        r = self.rewards
        return (r - _mean(r)[..., None]) / (_std(r)[..., None] + 1e-8)


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


def _stack_loss_and_gradient(stack: _Stack, rollout: Rollout, targets: _Targets,
                             config: PearlConfig, grads: dict | None = None):
    """Every row's clipped-surrogate loss (A,) and log importance ratios
    (A, n), from one stacked forward, for a stacked rollout and its targets.
    Given ``grads``, named (A, ...) views of an (A, N) stack, it also writes
    each row's closed-form gradient into them."""
    advantages = targets.advantages
    mean, h1, h2 = _forward(stack)
    p = stack.params
    log_std = p["log_std"]
    diff = rollout.pre_squash - mean[:, None]                       # (A, n, 7)
    per_dim = _gauss_logpdf(diff, log_std[:, None], np.exp(log_std)[:, None]) \
        - targets.jacobian
    log_ratio = np.add.reduce(per_dim, axis=2) - rollout.log_probs
    ratio = np.exp(log_ratio)
    clipped = np.minimum(np.maximum(ratio, targets.clip_low), targets.clip_high)
    surrogate, clipped_surrogate = ratio * advantages, clipped * advantages
    pg = -_mean(np.minimum(surrogate, clipped_surrogate))
    loss = pg - config.entropy_coeff * _entropy(log_std)
    if grads is None:
        return loss, log_ratio

    n = log_ratio.shape[1]
    std2 = np.exp(2.0 * log_std)[:, None]
    # min() follows the unclipped branch on ties, so the in-range case (where
    # both branches coincide) keeps its gradient
    active = surrogate <= clipped_surrogate
    dlogp = (np.where(active, targets.neg_advantages * ratio, 0.0) / n)[:, :, None]

    d_mean = np.add.reduce(dlogp * diff / std2, axis=1, out=grads["pol_bm"])
    d_log_std = np.add.reduce(dlogp * (diff**2 / std2 - 1.0), axis=1,
                              out=grads["log_std"])
    d_log_std -= config.entropy_coeff

    d_h2 = _matvec(p["pol_wm"].transpose(0, 2, 1), d_mean, stack.fortran["pol_wm"])
    d_pre2 = np.multiply(d_h2, 1.0 - h2**2, out=grads["pol_b2"])
    d_h1 = _matvec(p["pol_w2"].transpose(0, 2, 1), d_pre2, stack.fortran["pol_w2"])
    d_pre1 = np.multiply(d_h1, 1.0 - h1**2, out=grads["pol_b1"])
    np.multiply(d_mean[:, :, None], h2[:, None], out=grads["pol_wm"])
    np.multiply(d_pre2[:, :, None], h1[:, None], out=grads["pol_w2"])
    grads["pol_w1"][:, :, 0] = d_pre1
    return loss, log_ratio


def ppo_loss(policy: PolicyState, rollout: Rollout, config: PearlConfig) -> float:
    """Clipped-surrogate loss plus the entropy term."""
    rollout = rollout.row()
    loss, _ = _stack_loss_and_gradient(_Stack.one(policy), rollout,
                                       _Targets.of(rollout, config), config)
    return float(loss[0])


def ppo_gradient(policy: PolicyState, rollout: Rollout, config: PearlConfig) -> dict:
    """Closed-form gradient of the clipped-surrogate loss, as named arrays
    that share no memory with the policy."""
    rollout, grad = rollout.row(), np.empty((1, _FLAT_SIZE))
    _stack_loss_and_gradient(_Stack.one(policy), rollout, _Targets.of(rollout, config),
                             config, _views(grad))
    return _views(grad[0])


def _bias_correction(beta: float, t: np.ndarray) -> np.ndarray:
    """1 - beta**t for each of a stack's (A, 1) step counts, each power
    taken by Python's float ``**`` (numpy's vectorized power can round
    differently)."""
    return np.array([[1.0 - beta ** k] for k in t.ravel().tolist()])


class AdamOptimizer:
    """Adam over an (A, N) stack of parameter rows, updated in place: the
    θ of a group of agents, or of a single policy as a stack of one.

    The moments, two scratch arrays and the step counts, an (A, 1) array
    with one count per row, are allocated at the first step.  A step runs
    the textbook sequence of elementwise operations into them, so each row
    of θ moves by the same bits as a tensor-by-tensor update with fresh
    arrays would move it.
    """

    def __init__(self, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self._scratch: tuple[np.ndarray, np.ndarray] | None = None
        self.t: np.ndarray | None = None

    def step(self, theta: np.ndarray, grad: np.ndarray, scale=None,
             where=True) -> None:
        """One update of the (A, N) stack ``theta`` in place from ``grad``,
        first multiplied by ``scale`` when given (gradient-norm clipping,
        one factor per row, (A, 1); 1.0 leaves a row exact).  With
        ``scale``, ``grad`` is scaled in place.  ``where``, an (A, 1) mask,
        limits the step to the marked rows: the others, their moments and
        their step counts stay as they are."""
        if scale is not None:
            grad *= scale
        if self.m is None:
            self.m, self.v = np.zeros_like(grad), np.zeros_like(grad)
            self._scratch = np.empty_like(grad), np.empty_like(grad)
            self.t = np.zeros((len(grad), 1), dtype=np.int64)
        self.t += where          # True counts 1: a row's count moves when it steps
        m, v = self.m, self.v
        a, b = self._scratch
        # a mask only when some row sits out: an explicit where=True slows
        # every call
        rows = {} if where is True else {"where": where}
        # m += (1 - beta1) * (grad - m)
        np.multiply(1.0 - self.beta1, np.subtract(grad, m, out=a, **rows), out=a, **rows)
        np.add(m, a, out=m, **rows)
        # v += (1 - beta2) * (grad**2 - v)
        np.subtract(np.multiply(grad, grad, out=a, **rows), v, out=a, **rows)
        np.multiply(1.0 - self.beta2, a, out=a, **rows)
        np.add(v, a, out=v, **rows)
        # theta -= lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(m, _bias_correction(self.beta1, self.t), out=a, **rows)
        np.divide(v, _bias_correction(self.beta2, self.t), out=b, **rows)
        np.add(np.sqrt(b, out=b, **rows), self.eps, out=b, **rows)
        np.divide(np.multiply(self.learning_rate, a, out=a, **rows), b, out=a, **rows)
        np.subtract(theta, a, out=theta, **rows)

    def take(self, rows) -> None:
        """Keep only ``rows`` of the state, in that order."""
        if self.m is not None:
            self.m, self.v, self.t = self.m[rows], self.v[rows], self.t[rows]
            self._scratch = np.empty_like(self.m), np.empty_like(self.m)


def _grad_norm(grad: np.ndarray, squares: np.ndarray, tensors: list) -> np.ndarray:
    """Euclidean norm of each row of an (A, N) gradient stack: one squaring
    pass into ``squares``, then each row's sums of squares over
    ``tensors``, views of ``squares`` in θ's order, added tensor by tensor
    (a float sum's order decides its last bits)."""
    np.multiply(grad, grad, out=squares)
    total = np.add.reduce(tensors[0], axis=1)
    for tensor in tensors[1:]:
        total += np.add.reduce(tensor, axis=1)
    return np.sqrt(total)


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


@np.errstate(all="ignore")
def _update(policies: list, theta: np.ndarray, rollout: Rollout, config: PearlConfig,
            optimizer: AdamOptimizer, buffers: tuple | None = None) -> list[UpdateStats]:
    """config.epochs clipped-surrogate steps for every policy of a group at
    once, in place.

    ``theta`` is the (A, N) stack whose rows the policies view, and
    ``rollout`` is stacked, one row per policy.  The gradient and its
    squares go into ``buffers``, two arrays shaped as ``theta`` that a
    caller keeps across updates (fresh ones when None: a group's are large
    enough that first touching new pages costs more than an epoch's norm).
    Each epoch is one stacked forward and backward, one norm per row and
    one stacked Adam step.  A row whose gradient or loss turns non-finite
    sits out the rest of the update, as if its own update had stopped
    there: its θ and its optimizer state stay as they were, and its stats
    are that epoch's.  Its arithmetic still runs with the others', so
    numpy's floating-point warnings are off for the whole update: each
    skip is logged once instead.
    """
    count = len(policies)
    stack = _Stack.of(policies, theta)
    targets = _Targets.of(rollout, config)
    grad, squares = buffers or (np.empty_like(theta), np.empty_like(theta))
    grads = _views(grad)
    tensors = [squares[:, where] for where in _FLAT_SLICES.values()]
    live = np.ones(count, dtype=bool)
    all_live = True
    for epoch in range(config.epochs):
        epoch_loss, epoch_log_ratio = _stack_loss_and_gradient(stack, rollout, targets,
                                                               config, grads)
        epoch_norm = _grad_norm(grad, squares, tensors)
        if all_live:
            loss, norm, log_ratio = epoch_loss, epoch_norm, epoch_log_ratio
        else:
            loss = np.where(live, epoch_loss, loss)
            norm = np.where(live, epoch_norm, norm)
            log_ratio = np.where(live[:, None], epoch_log_ratio, log_ratio)
        finite = np.isfinite(epoch_norm) & np.isfinite(epoch_loss)
        # the ufuncs' reduce: ndarray.all() and .any() cost a Python-level
        # call each
        if not np.logical_and.reduce(finite):
            for _ in range(np.count_nonzero(live & ~finite)):
                logger.warning("skipping policy update: non-finite gradient or loss")
            live &= finite
            all_live = bool(live.all())
            if not live.any():
                break
        clip = epoch_norm > config.max_grad_norm
        if not all_live:
            clip &= live
        scale = None
        if np.logical_or.reduce(clip):
            scale = np.where(clip, config.max_grad_norm / (epoch_norm + 1e-6), 1.0)[:, None]
        if all_live:
            optimizer.step(theta, grad, scale)
        else:
            optimizer.step(theta, grad, scale, where=live[:, None])
        if epoch == 0:
            # a policy that stepped views its row of θ, C-ordered, from now on
            for row, (policy, stepped) in enumerate(zip(policies, live)):
                if stepped and policy._theta is None:
                    policy._bind(theta[row])
            for name, flip in stack.fortran.items():
                if flip is not None:
                    stack.fortran[name] = _mask(flip & ~live)
    ratio = np.exp(log_ratio)
    entropy = _entropy(stack.params["log_std"])
    approx_kl = _mean((ratio - 1.0) - log_ratio)
    clip_frac = _mean(np.abs(ratio - 1.0) > config.clip_epsilon)
    return [UpdateStats(loss=float(loss[a]), grad_norm=float(norm[a]),
                        entropy=float(entropy[a]), approx_kl=float(approx_kl[a]),
                        clip_frac=float(clip_frac[a]), skipped=not live[a])
            for a in range(count)]


def ppo_update(policy: PolicyState, rollout: Rollout, config: PearlConfig,
               optimizer: AdamOptimizer | None = None) -> UpdateStats:
    """One (or config.epochs) clipped-surrogate gradient steps in place: the
    one-agent case of the group learner.

    A non-finite gradient skips the update and logs the incident.
    """
    optimizer = optimizer or AdamOptimizer(config.learning_rate)
    # θ is built here, a stack of one, and bound at the first step, after
    # the first epoch's products have run on the arrays the policy was
    # built with
    theta = np.empty((1, _FLAT_SIZE)) if policy._theta is None else policy._theta[None]
    return _update([policy], theta, rollout.row(), config, optimizer)[0]


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
    learner state is a row of the group's."""

    seed: int
    name: str           # tags the agent's run files; see agent_names
    buffer: ParetoBuffer
    history: list                                     # of HistoryRow
    update_log: list                                  # of UpdateStats
    policy: PolicyState
    rng: np.random.Generator
    behaviour: _Behaviour                             # samples between updates
    incidents: list = field(default_factory=list)     # of Incident
    truncated: bool = False
    batch: list = field(default_factory=list)         # of (ActionSample, reward)

    @classmethod
    def start(cls, seed: int, name: str, config: PearlConfig,
              buffer: ParetoBuffer | None) -> "AgentResult":
        rng = np.random.default_rng(seed)
        # each seed draws its own initial exploration scale from the configured
        # band, so a team of agents covers the front instead of collapsing onto
        # one region; identical seeds still yield identical agents
        init_log_std = config.init_log_std \
            + config.init_log_std_spread * (rng.random() - 0.5)
        policy = PolicyState.initialize(rng, init_log_std, config.init_center_scale)
        if buffer is None:
            buffer = ParetoBuffer(capacity=config.kappa, metric=config.distance_metric,
                                  divisions=config.niching_divisions)
        return cls(seed, name, buffer, [], [], policy, rng, _Behaviour.of(policy))

    def front_points(self) -> list[ObjectivePoint]:
        return self.buffer.front(0)

    def act(self, evaluator, config: PearlConfig, step: int) -> None:
        """Sample, evaluate and archive one design.

        A failing evaluation is retried once, then recorded as infeasible
        with the configured failure penalty (nothing is archived for it:
        there are no objectives to rank); so is an evaluation that returns
        non-finite objectives.
        """
        seed = self.seed
        action = sample_action(self.behaviour, self.rng)
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
            self.incidents.append(incident)
            reward = -config.failure_penalty
            self.history.append(HistoryRow(step, reward, False, math.nan, math.nan,
                                           config.failure_penalty))
        else:
            objectives, report, _qoi = result
            payload = DesignPayload(id=f"{seed}-{step}", design=design)
            reward = step_reward(objectives, report, self.buffer, payload,
                                 config.resolved_infeasibility_offset())
            self.history.append(HistoryRow(
                step, reward, report.feasible,
                float(objectives[0]), float(objectives[1]),
                float(report.penalty),
            ))
        self.batch.append((action, reward))

    def rollout(self) -> Rollout:
        return Rollout(
            pre_squash=np.vstack([a.pre_squash for a, _ in self.batch]),
            log_probs=np.array([a.log_prob for a, _ in self.batch]),
            rewards=np.array([r for _, r in self.batch]),
        )

    def learned(self, stats: UpdateStats, step: int) -> None:
        """Record an update and sample from the updated policy."""
        self.behaviour = _Behaviour.of(self.policy)
        if stats.skipped:
            self.incidents.append(Incident(self.seed, step, "skipped_update", None,
                                           "non-finite gradient or loss"))
        self.update_log.append(stats)
        self.batch = []

    def checkpoint(self, directory, step: int) -> None:
        np.savez(f"{directory}/policy-{self.name}-step{step + 1:06d}.npz",
                 **self.policy.params)


class _Group:
    """Agents that run in lockstep: every agent takes step k before any takes
    step k + 1, and one learner call updates them all at each batch
    boundary.  From its first step on, each agent's policy views a row of
    the (A, N) stack θ, and one Adam optimizer holds the stacked moments.
    An agent whose own work raises leaves the group, and its failure is
    recorded."""

    def __init__(self, agents: list, config: PearlConfig):
        self.agents = agents
        self.theta = np.empty((len(agents), _FLAT_SIZE))
        self.buffers = np.empty_like(self.theta), np.empty_like(self.theta)
        self.optimizer = AdamOptimizer(config.learning_rate)
        self.failures: list = []     # of (agent, exception)

    def each(self, work) -> None:
        """``work(agent)`` for every agent, in order."""
        failed = []
        for agent in self.agents:
            try:
                work(agent)
            except Exception as exc:  # noqa: BLE001 - one agent's crash is data
                logger.exception("agent %d failed", agent.seed)
                self.failures.append((agent, exc))
                failed.append(agent)
        if failed:
            keep = [i for i, agent in enumerate(self.agents) if agent not in failed]
            self.agents = [self.agents[i] for i in keep]
            self.theta = self.theta[keep]
            self.buffers = np.empty_like(self.theta), np.empty_like(self.theta)
            for agent, row in zip(self.agents, self.theta):
                if agent.policy._theta is not None:
                    agent.policy._bind(row)
            self.optimizer.take(keep)

    def learn(self, config: PearlConfig, step: int) -> None:
        rollout = Rollout.stack([agent.rollout() for agent in self.agents])
        stats = _update([agent.policy for agent in self.agents], self.theta, rollout,
                        config, self.optimizer, self.buffers)
        for agent, agent_stats in zip(self.agents, stats):
            agent.learned(agent_stats, step)


def _run_group(evaluator, config: PearlConfig, seeds: list, names: list,
               steps: int, buffer: ParetoBuffer | None = None, checkpoint_dir=None,
               deadline: float | None = None):
    """The agent loop: the agents of ``seeds`` sample, evaluate, archive and
    learn in lockstep.

    Returns the finished agents, which are their results, in seed order,
    and a ``(seed, exception)`` pair for each agent that crashed, in seed
    order.  Bit for bit, each agent runs as it would alone: it keeps its
    own generator, archive (unless ``buffer`` is shared), history, update
    log and incidents, and evaluates one design per step.  An expired
    deadline, a ``time.monotonic()`` value, stops every agent at the same
    step and marks the results truncated.
    """
    agents = [AgentResult.start(seed, name, config, buffer)
              for seed, name in zip(seeds, names)]
    group = _Group(agents, config)
    for step in range(steps):
        if not group.agents:
            break
        if deadline is not None and time.monotonic() > deadline:
            for agent in group.agents:
                agent.truncated = True
            break
        group.each(lambda agent: agent.act(evaluator, config, step))
        if group.agents and (len(group.agents[0].batch) == config.n_steps
                             or step == steps - 1):
            group.learn(config, step)
        if (checkpoint_dir is not None and config.checkpoint_interval
                and (step + 1) % config.checkpoint_interval == 0):
            group.each(lambda agent: agent.checkpoint(checkpoint_dir, step))
    failures = sorted(group.failures, key=lambda pair: agents.index(pair[0]))
    return group.agents, [(agent.seed, exc) for agent, exc in failures]


def run_agent(evaluator, config: PearlConfig, seed: int,
              steps: int | None = None, buffer: ParetoBuffer | None = None,
              checkpoint_dir=None, deadline: float | None = None) -> AgentResult:
    """One agent's full optimization loop: the agent loop for a group of one.

    Bit-reproducible for a fixed seed.  A failing evaluation is retried
    once, then recorded as infeasible with the configured failure penalty;
    so is an evaluation that returns non-finite objectives.  An expired
    deadline, a ``time.monotonic()`` value, stops the loop early and marks
    the result truncated.  Any other exception propagates.
    """
    steps = config.steps_per_agent() if steps is None else steps
    results, failures = _run_group(evaluator, config, [seed], [str(seed)], steps, buffer,
                                   checkpoint_dir, deadline)
    if failures:
        raise failures[0][1]
    return results[0]


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


def run_multi(evaluator, config: PearlConfig, deadline: float | None = None,
              checkpoint_dir=None) -> MultiResult:
    """Run all agents on their seeds and merge their fronts.

    The agents run in lockstep groups (see ``_run_group``), and each agent's
    results are those it would reach alone, bit for bit:

    - one group of every agent, by default;
    - with ``config.workers`` > 1, one group per worker process, each a
      contiguous run of the seeds; results come back in seed order;
    - with ``config.shared_buffer``, every agent inserts into one common
      buffer, so the agents run one after another in seed order, groups
      of one, whatever ``workers`` says.

    A crashing agent contributes a failure record instead of aborting the
    run.  ``deadline`` is a ``time.monotonic()`` value.
    """
    seeds = config.agent_seeds()
    names = agent_names(seeds)
    shared = ParetoBuffer(capacity=config.kappa, metric=config.distance_metric,
                          divisions=config.niching_divisions) \
        if config.shared_buffer else None
    if shared is not None:
        groups = [[index] for index in range(len(seeds))]
    else:
        count = min(config.workers, len(seeds))
        bounds = [len(seeds) * k // count for k in range(count + 1)]
        groups = [list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    jobs = [functools.partial(_run_group, evaluator, config, [seeds[i] for i in group],
                              [names[i] for i in group], config.steps_per_agent(),
                              shared, checkpoint_dir, deadline)
            for group in groups]
    results: list[AgentResult] = []
    failures: list[dict] = []
    with contextlib.ExitStack() as stack:
        if len(jobs) > 1 and shared is None:
            # imported here: the serial path never needs multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=len(jobs)))
            jobs = [pool.submit(job).result for job in jobs]
        for group, job in zip(groups, jobs):
            try:
                finished, crashed = job()
            except Exception as exc:  # noqa: BLE001 - a lost worker loses its group
                finished, crashed = [], [(seeds[i], exc) for i in group]
            results += finished
            failures += [{"seed": seed, "error": repr(exc)} for seed, exc in crashed]

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
