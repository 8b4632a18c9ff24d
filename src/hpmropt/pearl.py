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
from .errors import (NON_NEGATIVE, NUMBER, POSITIVE, ConfigError, ContractError, check,
                     integer, list_of, one_of, optional)
from .pareto import (
    METRICS,
    DesignPayload,
    ObjectivePoint,
    ParetoBuffer,
    _checked_objectives,
    _first_front,
    merge_fronts,
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

    Every parameter lives in one flat row θ, laid out in ``_PARAM_SHAPES``
    order, into which a policy copies its arrays when it is built;
    ``params`` holds named views of it and Adam updates it in place.  A
    lockstep group moves each θ into a row of its (A, N) stack, which the
    learner then moves in place without rebinding it.  Until its
    first step, a policy's products read each matrix that it was built
    from F-ordered (a fresh ``pol_wm``) in that layout: the layout decides
    their BLAS path, and with it their last bits.  ``theta()`` returns a
    copy of θ, ``set_theta()`` takes one.
    """

    def __init__(self, params: dict):
        self._theta = np.empty(_FLAT_SIZE)
        self.params = _views(self._theta)
        for name, view in self.params.items():
            if np.shape(params[name]) != view.shape:
                raise ContractError(f"parameter {name} has shape "
                                    f"{np.shape(params[name])}, want {view.shape}")
            view[...] = params[name]
        self._fortran = tuple(name for name in _MATRICES
                              if np.isfortran(np.asarray(params[name])))

    def _arrays(self) -> dict:
        """The named parameters, each flagged matrix as an F-ordered copy:
        what ``PolicyState`` rebuilds this policy from, flags and all."""
        return {name: np.asfortranarray(array) if name in self._fortran else array
                for name, array in self.params.items()}

    def __reduce__(self):
        # pickled views would come back as arrays that no longer view θ
        return PolicyState, (self._arrays(),)

    def _bind(self, row: np.ndarray) -> None:
        """Copy θ into ``row`` and view it as θ from now on."""
        row[...] = self._theta
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
        return _forward(_Stack.of([self], self._theta[None]))[0][0]

    @property
    def log_std(self) -> np.ndarray:
        return self.params["log_std"]

    @property
    def std(self) -> np.ndarray:
        return np.exp(self.params["log_std"])

    def theta(self) -> np.ndarray:
        return self._theta.copy()

    def set_theta(self, theta: np.ndarray) -> None:
        if len(theta) != _FLAT_SIZE:
            raise ContractError("theta length mismatch")
        self._theta[...] = theta

    def copy(self) -> "PolicyState":
        return PolicyState(self._arrays())


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
    def of(cls, policies, theta: np.ndarray) -> "_Stack":
        """Views of ``theta``, the (A, N) stack of the policies' θ, and the
        masks of the matrices that each policy reads F-ordered."""
        flags = {name: [name in p._fortran for p in policies] for name in _MATRICES}
        return cls(_views(theta), {name: np.array(rows) if any(rows) else None
                                   for name, rows in flags.items()})


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
    u: np.ndarray          # squashed action, in [0, 1]^7; (A, 7) for a group
    log_prob: float        # an (A,) array for a group
    pre_squash: np.ndarray


class _Behaviour(NamedTuple):
    """The means, log-stds and stds of a stack of policies, (A, 7) arrays,
    frozen between two updates so each step's sample skips the forward
    pass.  It owns its arrays: the learner updates the policies' parameters
    in place."""

    mean: np.ndarray
    log_std: np.ndarray
    std: np.ndarray

    @classmethod
    def of(cls, stack: _Stack) -> "_Behaviour":
        log_std = stack.params["log_std"].copy()
        return cls(_forward(stack)[0], log_std, np.exp(log_std))


def sample_action(policy: PolicyState, rng) -> ActionSample:
    """Draw from the squashed-normal policy; the log-probability carries the
    squash Jacobian correction.  ``policy`` may be anything with ``mean``,
    ``log_std`` and ``std``: 7-vectors drawn with the generator ``rng``, or
    the (A, 7) rows of a group's behaviour with ``rng`` a sequence of A
    generators.  Row a then draws its normals from ``rng[a]``, in row order,
    and reads the bits that row's policy would read alone."""
    mean, std = policy.mean, policy.std
    if mean.ndim == 1:
        noise = rng.standard_normal(ACTION_DIM)
    else:
        noise = np.empty(mean.shape)
        for row, generator in enumerate(rng):
            generator.standard_normal(out=noise[row])
    x = mean + std * noise
    u = _sigmoid(x)
    per_dim = _gauss_logpdf(x - mean, policy.log_std, std) - _squash_jacobian(x)
    log_prob = np.add.reduce(per_dim, axis=-1)
    return ActionSample(u=u, log_prob=log_prob if mean.ndim > 1 else float(log_prob),
                        pre_squash=x)


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
    # the outer products' IEEE multiplies, in one pass each; an exact -0.0
    # entry comes out +0.0, which no later step can tell apart
    np.einsum("ai,aj->aij", d_mean, h2, out=grads["pol_wm"])
    np.einsum("ai,aj->aij", d_pre2, h1, out=grads["pol_w2"])
    grads["pol_w1"][:, :, 0] = d_pre1
    return loss, log_ratio


def ppo_loss(policy: PolicyState, rollout: Rollout, config: PearlConfig) -> float:
    """Clipped-surrogate loss plus the entropy term."""
    rollout = rollout.row()
    loss, _ = _stack_loss_and_gradient(_Stack.of([policy], policy._theta[None]), rollout,
                                       _Targets.of(rollout, config), config)
    return float(loss[0])


def ppo_gradient(policy: PolicyState, rollout: Rollout, config: PearlConfig) -> dict:
    """Closed-form gradient of the clipped-surrogate loss, as named arrays
    that share no memory with the policy."""
    rollout, grad = rollout.row(), np.empty((1, _FLAT_SIZE))
    _stack_loss_and_gradient(_Stack.of([policy], policy._theta[None]), rollout,
                             _Targets.of(rollout, config), config, _views(grad))
    return _views(grad[0])


def _bias_correction(beta: float, t: np.ndarray) -> np.ndarray:
    """1 - beta**t for each of a stack's (A, 1) step counts, each power
    taken by Python's float ``**`` (numpy's vectorized power can round
    differently)."""
    return np.array([[1.0 - beta ** k] for k in t.ravel().tolist()])


# Adam's moment decays and the denominator's guard
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class AdamOptimizer:
    """Adam over an (A, N) stack of parameter rows, updated in place: the
    θ of a group of agents, or of a single policy as a stack of one.

    The moments, two scratch arrays and the step counts, an (A, 1) array
    with one count per row, are allocated at the first step.  A step runs
    the textbook sequence of elementwise operations into them, so each row
    of θ moves by the same bits as a tensor-by-tensor update with fresh
    arrays would move it.
    """

    def __init__(self, learning_rate):
        self.learning_rate = learning_rate
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
        np.multiply(1.0 - _BETA1, np.subtract(grad, m, out=a, **rows), out=a, **rows)
        np.add(m, a, out=m, **rows)
        # v += (1 - beta2) * (grad**2 - v)
        np.subtract(np.multiply(grad, grad, out=a, **rows), v, out=a, **rows)
        np.multiply(1.0 - _BETA2, a, out=a, **rows)
        np.add(v, a, out=v, **rows)
        # theta -= lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(m, _bias_correction(_BETA1, self.t), out=a, **rows)
        np.divide(v, _bias_correction(_BETA2, self.t), out=b, **rows)
        np.add(np.sqrt(b, out=b, **rows), _EPS, out=b, **rows)
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
            optimizer: AdamOptimizer, buffers: tuple) -> list[UpdateStats]:
    """config.epochs clipped-surrogate steps for every policy of a group at
    once, in place.

    ``theta`` is an (A, N) stack whose rows the policies already view, in
    order, and ``rollout`` is stacked, one row per policy.  The gradient and
    its squares go into ``buffers``, two arrays shaped as ``theta`` that a
    caller keeps across updates (a group's are large enough that first
    touching new pages costs more than an epoch's norm).
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
    grad, squares = buffers
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
            # a policy's first step leaves its matrices C-ordered for good
            for policy, stepped in zip(policies, live):
                if stepped:
                    policy._fortran = ()
            stack = _Stack.of(policies, theta)
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
    theta = policy._theta[None]
    buffers = np.empty_like(theta), np.empty_like(theta)
    return _update([policy], theta, rollout.row(), config, optimizer, buffers)[0]


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
