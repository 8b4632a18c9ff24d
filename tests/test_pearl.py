import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from hpmropt.constraints import ConstraintReport
from hpmropt.design_space import from_unit_cube
from hpmropt.economics import load_scenario
from hpmropt.environment import DesignEvaluator
from hpmropt.errors import ConfigError, ContractError
from hpmropt.metrics import default_reference, hypervolume_2d, nondominated_filter
from hpmropt import learner, pearl
from hpmropt.baseline import random_search
from hpmropt.learner import (
    _PARAM_SHAPES,
    ACTION_DIM,
    HIDDEN_WIDTH,
    AdamOptimizer,
    PolicyState,
    Rollout,
    _Targets,
    log_prob_of,
    ppo_gradient,
    ppo_loss,
    ppo_update,
    sample_action,
)
from hpmropt.pareto import ObjectivePoint, ParetoBuffer, merge_fronts
from hpmropt.pearl import PearlConfig, run_agent, run_multi, step_reward

from conftest import AlwaysFeasibleEvaluator, ToyEvaluator
from oracles import random_search_oracle


def small_config(**overrides):
    defaults = dict(agents=2, total_steps=256, kappa=16, distance_metric="crowding",
                    base_seed=5)
    defaults.update(overrides)
    return PearlConfig(**defaults)


def make_rollout(policy_seed=3, reward_seed=9, n=8, behavior=None):
    rng = np.random.default_rng(policy_seed)
    behavior = behavior or PolicyState.initialize(rng, init_log_std=0.3)
    samples = [sample_action(behavior, rng) for _ in range(n)]
    rewards = np.random.default_rng(reward_seed).normal(size=n) * 20 - 40
    return Rollout(
        pre_squash=np.vstack([s.pre_squash for s in samples]),
        log_probs=np.array([s.log_prob for s in samples]),
        rewards=rewards,
    )


def report_with_penalty(penalty):
    return ConstraintReport((), [], [], penalty, penalty == 0.0)


class TestSampleAction:
    def test_deterministic_given_rng_state(self):
        policy = PolicyState.initialize(np.random.default_rng(0))
        a = sample_action(policy, np.random.default_rng(42))
        b = sample_action(policy, np.random.default_rng(42))
        assert np.array_equal(a.u, b.u)
        assert a.log_prob == b.log_prob

    def test_actions_in_unit_cube(self, rng):
        policy = PolicyState.initialize(rng, init_log_std=1.5)
        for _ in range(200):
            sample = sample_action(policy, rng)
            assert np.all(sample.u > 0.0) and np.all(sample.u < 1.0)

    def test_degenerate_variance_returns_squashed_mean(self):
        policy = PolicyState.initialize(np.random.default_rng(1))
        policy.params["log_std"][:] = -40.0
        sample = sample_action(policy, np.random.default_rng(2))
        expected = 1.0 / (1.0 + np.exp(-policy.mean))
        assert sample.u == pytest.approx(expected, abs=1e-12)

    def test_empirical_mean_matches_quadrature(self):
        policy = PolicyState.initialize(np.random.default_rng(4), init_log_std=0.2)
        mean, std = policy.mean, np.exp(policy.log_std)
        rng = np.random.default_rng(77)
        draws = 1.0 / (1.0 + np.exp(-(mean + std * rng.standard_normal((100_000, 7)))))
        for j in range(7):
            analytic, _ = integrate.quad(
                lambda x, j=j: (1.0 / (1.0 + np.exp(-x)))
                * stats.norm.pdf(x, mean[j], std[j]),
                mean[j] - 10 * std[j], mean[j] + 10 * std[j])
            stderr = draws[:, j].std() / np.sqrt(len(draws))
            assert abs(draws[:, j].mean() - analytic) < 3 * stderr

    @pytest.mark.parametrize("agents", [1, 3, 8])
    def test_group_draw_matches_each_policy_alone(self, agents):
        # a group's behaviour rows with one generator per row draw, bit for
        # bit, what each row's policy draws alone with its own generator;
        # means far past +-40 run both branches of the softplus
        rng = np.random.default_rng(agents)
        mean = rng.normal(size=(agents, ACTION_DIM)) * 30.0
        log_std = rng.normal(size=(agents, ACTION_DIM))
        group = learner._Behaviour(mean, log_std, np.exp(log_std))
        alone = [learner._Behaviour(mean[a].copy(), log_std[a].copy(), np.exp(log_std[a]))
                 for a in range(agents)]
        seeds = rng.integers(0, 2**32, size=agents).tolist()
        drawing = [np.random.default_rng(seed) for seed in seeds]
        reference = [np.random.default_rng(seed) for seed in seeds]
        beyond_40 = 0
        for _ in range(50):
            sample = sample_action(group, drawing)
            beyond_40 += int(np.count_nonzero(np.abs(sample.pre_squash) > 40.0))
            for a, (behaviour, generator) in enumerate(zip(alone, reference)):
                single = sample_action(behaviour, generator)
                assert sample.u[a].tobytes() == single.u.tobytes()
                assert sample.pre_squash[a].tobytes() == single.pre_squash.tobytes()
                assert sample.log_prob[a] == single.log_prob
        assert 0 < beyond_40 < 50 * agents * ACTION_DIM
        assert [g.standard_normal() for g in drawing] == \
            [g.standard_normal() for g in reference]

    def test_log_prob_consistent_with_batch_form(self):
        policy = PolicyState.initialize(np.random.default_rng(6))
        sample = sample_action(policy, np.random.default_rng(8))
        batch = log_prob_of(policy, sample.pre_squash[None, :])
        assert batch[0] == pytest.approx(sample.log_prob, rel=1e-12)


class TestStepReward:
    def test_infeasible_penalty_passthrough(self):
        buffer = ParetoBuffer(capacity=8)
        reward = step_reward(np.array([1.0, 1.0]), report_with_penalty(778.993),
                             buffer)
        assert reward == -778.993 - 9
        assert len(buffer) == 1 and not buffer.entries[0].feasible

    @settings(max_examples=80, deadline=None)
    # 1e-15 is below half an ulp of 65: the plain sum would tie -65.0
    @example(capacity=64, stream=[(1e-15, 1.0, 1.0)])
    @given(capacity=st.integers(1, 64), stream=st.lists(
        st.tuples(st.one_of(st.just(0.0), st.floats(5e-324, 1e12)),
                  st.floats(0, 10), st.floats(0, 10)), min_size=1, max_size=100))
    def test_infeasible_rewards_fall_below_every_feasible_one(self, capacity, stream):
        buffer = ParetoBuffer(capacity=capacity)
        feasible, infeasible = [], []
        for penalty, *objectives in stream:
            reward = step_reward(np.array(objectives), report_with_penalty(penalty),
                                 buffer)
            if penalty == 0.0:
                # a candidate that evicts itself from a full archive ranks
                # capacity + 1
                assert -(capacity + 1) <= reward <= -1
                feasible.append(reward)
            else:
                floor = -(capacity + 1)
                if penalty + (capacity + 1) == capacity + 1:
                    # a penalty below half an ulp of capacity + 1 rounds
                    # away: the reward is the next float below
                    assert reward == math.nextafter(floor, -math.inf)
                else:
                    assert reward == -penalty - (capacity + 1)
                infeasible.append(reward)
        for reward in infeasible:
            assert reward < -(capacity + 1)
            assert reward < min(feasible, default=math.inf)

    def test_first_feasible_gets_minus_one(self):
        buffer = ParetoBuffer(capacity=8)
        assert step_reward(np.array([2.0, 2.0]), report_with_penalty(0.0),
                           buffer) == -1.0

    def test_dominated_by_full_buffer(self, rng):
        buffer = ParetoBuffer(capacity=64)
        for _ in range(64):
            buffer.insert(ObjectivePoint(rng.random(2), True))
        reward = step_reward(np.array([9.0, 9.0]), report_with_penalty(0.0), buffer)
        assert reward == -65.0


class TestPpoUpdate:
    def test_zero_advantages_leave_policy_head_untouched(self):
        config = small_config(entropy_coeff=0.0001)
        policy = PolicyState.initialize(np.random.default_rng(11))
        rollout = make_rollout()
        rollout.rewards = np.full(8, -3.0)                 # standardizes to zeros
        before = {k: v.copy() for k, v in policy.params.items()}
        ppo_update(policy, rollout, config)
        for name in ("pol_w1", "pol_b1", "pol_w2", "pol_b2", "pol_wm", "pol_bm"):
            assert np.array_equal(policy.params[name], before[name]), name
        assert not np.array_equal(policy.params["log_std"], before["log_std"])

    def test_advantages_are_the_standardized_returns(self):
        config = small_config(entropy_coeff=0.0)
        policy = PolicyState.initialize(np.random.default_rng(17), init_log_std=0.3)
        rollout = make_rollout()
        returns = rollout.rewards
        expected = (returns - np.mean(returns)) / (np.std(returns) + 1e-8)
        assert np.array_equal(_Targets.of(rollout, config).advantages, expected)
        # in the trust region every sample is active, so the mean-head bias
        # gradient is the plain score-function estimate with these advantages
        rollout.log_probs = log_prob_of(policy, rollout.pre_squash)
        diff = rollout.pre_squash - policy.mean
        score = -(expected[:, None] * diff / np.exp(2.0 * policy.log_std)).mean(axis=0)
        grads = ppo_gradient(policy, rollout, config)
        assert grads["pol_bm"] == pytest.approx(score, rel=1e-9, abs=1e-12)

    def test_one_sample_batch_has_zero_advantage(self):
        config = small_config(entropy_coeff=0.0)
        policy = PolicyState.initialize(np.random.default_rng(18))
        rollout = make_rollout(n=1)
        assert np.array_equal(_Targets.of(rollout, config).advantages, [0.0])
        grads = ppo_gradient(policy, rollout, config)
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_clip_saturation_masks_positive_advantages(self):
        config = small_config()
        policy = PolicyState.initialize(np.random.default_rng(12))
        rollout = make_rollout(behavior=policy)
        # force every ratio to 1 + 2*epsilon; mixed advantage signs
        rollout.log_probs = log_prob_of(policy, rollout.pre_squash) \
            - np.log(1.0 + 2.0 * config.clip_epsilon)
        rollout.rewards = np.arange(8.0)
        advantages = rollout.standardized()
        ratio = np.exp(log_prob_of(policy, rollout.pre_squash) - rollout.log_probs)
        assert np.all(ratio > 1.0 + config.clip_epsilon)
        # positive-advantage samples sit on the saturated branch (no gradient),
        # negative ones stay active (pessimistic unclipped branch)
        active = ratio * advantages <= np.clip(
            ratio, 1 - config.clip_epsilon, 1 + config.clip_epsilon) * advantages
        assert not np.any(active[advantages > 0])
        assert np.all(active[advantages < 0])
        assert np.isfinite(ppo_gradient(policy, rollout, config)["pol_bm"]).all()

    def test_fully_saturated_positive_advantages_zero_policy_grad(self):
        from hpmropt.learner import _FLAT_SIZE, _Stack, _stack_loss_and_gradient, _views

        config = small_config(entropy_coeff=0.0)
        policy = PolicyState.initialize(np.random.default_rng(13))
        rollout = make_rollout(behavior=policy)
        rollout.log_probs = log_prob_of(policy, rollout.pre_squash) \
            - np.log(1.0 + 2.0 * config.clip_epsilon)
        rollout = rollout.row()
        # standardized returns always mix signs, so the all-positive case is
        # built from targets directly
        advantages = np.linspace(1.0, 2.0, 8)[None]
        targets = _Targets.of(rollout, config)._replace(
            advantages=advantages, neg_advantages=-advantages)
        grads = _views(np.full((1, _FLAT_SIZE), np.nan))
        _stack_loss_and_gradient(_Stack.of([policy], policy._theta[None]), rollout, targets,
                                 config, grads)
        for name in ("pol_w1", "pol_b1", "pol_w2", "pol_b2", "pol_wm", "pol_bm"):
            assert np.all(grads[name] == 0.0), name

    def test_policy_is_the_only_learner(self):
        assert not [name for name in _PARAM_SHAPES if name.startswith("val_")]
        policy = PolicyState.initialize(np.random.default_rng(19))
        assert len(policy.theta()) == 4750
        assert not hasattr(policy, "value_baseline")

    def test_initialize_keeps_the_retired_value_head_draws(self):
        # the network with a value head drew the policy layers, then two
        # hidden layers and an output row for the value; the stream after
        # initialize, and with it every seed's actions, must not move
        shapes = [(HIDDEN_WIDTH, 1), (HIDDEN_WIDTH, HIDDEN_WIDTH),
                  (HIDDEN_WIDTH, ACTION_DIM), (ACTION_DIM,),
                  (HIDDEN_WIDTH, 1), (HIDDEN_WIDTH, HIDDEN_WIDTH), (HIDDEN_WIDTH, 1)]
        for seed in (0, 5, 1000):
            rng = np.random.default_rng(seed)
            PolicyState.initialize(rng, 0.4, 0.8)
            reference = np.random.default_rng(seed)
            for shape in shapes:
                reference.standard_normal(shape)
            assert rng.bit_generator.state == reference.bit_generator.state, seed

    def test_clip_scale_comes_from_the_policy_gradient_norm(self):
        class Recording(AdamOptimizer):
            def step(self, theta, grad, scale=None):
                self.seen = (theta.shape[-1], grad.shape[-1], scale)
                super().step(theta, grad, scale)

        config = small_config(max_grad_norm=0.5, epochs=1)
        policy = PolicyState.initialize(np.random.default_rng(21), init_log_std=0.2)
        rollout = make_rollout()
        grads = ppo_gradient(policy, rollout, config)
        norm = math.sqrt(sum(float(np.sum(grads[k] ** 2)) for k in _PARAM_SHAPES))
        assert norm > config.max_grad_norm          # the clip fires
        optimizer = Recording(config.learning_rate)
        stats_out = ppo_update(policy, rollout, config, optimizer)
        theta_size, grad_size, scale = optimizer.seen
        assert theta_size == grad_size == len(policy.theta()) == 4750
        assert stats_out.grad_norm == pytest.approx(norm, rel=1e-12)
        assert scale == pytest.approx(config.max_grad_norm / (norm + 1e-6), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        config = small_config()
        rollout = make_rollout()
        h = 1e-5
        rng = np.random.default_rng(99)
        for trial in range(2):  # acceptance suite covers five states
            policy = PolicyState.initialize(rng, init_log_std=float(rng.uniform(0.1, 0.6)))
            grads = ppo_gradient(policy, rollout, config)
            flat = np.concatenate([grads[k].ravel() for k in _PARAM_SHAPES])
            theta = policy.theta()
            probe = policy.copy()
            idx = rng.choice(len(theta), size=500, replace=False)
            fd = np.empty(len(idx))
            for n, i in enumerate(idx):
                t = theta.copy(); t[i] += h
                probe.set_theta(t)
                up = ppo_loss(probe, rollout, config)
                t = theta.copy(); t[i] -= h
                probe.set_theta(t)
                down = ppo_loss(probe, rollout, config)
                fd[n] = (up - down) / (2 * h)
            scale = max(np.abs(fd).max(), np.abs(flat).max())
            assert np.abs(flat[idx] - fd).max() / scale < 1e-4

    def test_gradients_flatten_once_per_epoch(self, monkeypatch):
        # the gradient is written flat, into views of one vector, so no
        # epoch concatenates anything: not the first, which builds θ, nor a
        # later one
        config = small_config(epochs=4)
        policy = PolicyState.initialize(np.random.default_rng(17))
        optimizer = AdamOptimizer(config.learning_rate)
        rollouts = [make_rollout(reward_seed=9), make_rollout(reward_seed=10)]
        concatenations = []
        concatenate = np.concatenate
        monkeypatch.setattr(np, "concatenate",
                            lambda *a, **k: concatenations.append(1) or concatenate(*a, **k))
        for rollout in rollouts:
            ppo_update(policy, rollout, config, optimizer)
        assert concatenations == []
        assert optimizer.t == 2 * config.epochs

    def test_nonfinite_gradient_skips_update(self):
        config = small_config()
        policy = PolicyState.initialize(np.random.default_rng(14))
        rollout = make_rollout()
        rollout.rewards = np.array([np.nan] * 8)
        before = policy.theta()
        stats_out = ppo_update(policy, rollout, config)
        assert stats_out.skipped
        assert np.array_equal(policy.theta(), before)

    def test_a_row_marked_out_moves_the_others_as_a_stack_without_it(self):
        # row 0 sits out every update from its first epoch, as a crashed
        # agent's row does in its group; its stale batch reads NaN
        config = small_config(epochs=6)

        def stack(seeds):
            policies = [PolicyState.initialize(np.random.default_rng(s), 0.3, 0.8)
                        for s in seeds]
            theta = np.stack([policy.theta() for policy in policies])
            for policy, row in zip(policies, theta):
                policy._bind(row)
            return (policies, theta, AdamOptimizer(config.learning_rate),
                    (np.empty_like(theta), np.empty_like(theta)))

        masked, pair = stack([30, 31, 32]), stack([31, 32])
        theta, optimizer = masked[1], masked[2]
        out_row = theta[0].tobytes()
        live = np.array([False, True, True])
        for n, reward_seed in ((8, 1), (1, 2), (5, 3)):
            rollouts = [make_rollout(policy_seed=s, reward_seed=reward_seed, n=n)
                        for s in (30, 31, 32)]
            rollouts[0].rewards[:] = np.nan
            three = Rollout(*(np.stack(arrays) for arrays in zip(
                *((r.pre_squash, r.log_probs, r.rewards) for r in rollouts))))
            two = Rollout(three.pre_squash[1:], three.log_probs[1:], three.rewards[1:])
            got = learner._update(*masked[:2], three, config, *masked[2:], live)
            want = learner._update(*pair[:2], two, config, *pair[2:])
            assert got[0].skipped
            assert [repr(s) for s in got[1:]] == [repr(s) for s in want]
        assert live.tolist() == [False, True, True]
        assert theta[1:].tobytes() == pair[1].tobytes()
        assert theta[0].tobytes() == out_row
        assert optimizer.m[1:].tobytes() == pair[2].m.tobytes()
        assert optimizer.v[1:].tobytes() == pair[2].v.tobytes()
        assert not optimizer.m[0].any() and not optimizer.v[0].any()
        assert optimizer.t.ravel().tolist() == [0, *pair[2].t.ravel().tolist()]

    def test_gradient_norm_clipping(self):
        config = small_config(max_grad_norm=0.5, epochs=1)
        policy = PolicyState.initialize(np.random.default_rng(15))
        rollout = make_rollout()
        rollout.rewards = np.linspace(-2000, 1000, 8)
        grads = ppo_gradient(policy, rollout, config)
        norm = np.sqrt(sum(float(np.sum(g**2)) for g in grads.values()))
        optimizer = AdamOptimizer(config.learning_rate)
        stats_out = ppo_update(policy, rollout, config, optimizer)
        assert stats_out.grad_norm == pytest.approx(norm)

    def test_update_matches_two_pass_per_tensor_reference(self):
        # the textbook loop: loss and gradient in separate passes, the norm
        # summed tensor by tensor, Adam moments kept per tensor and every
        # step a fresh array.  Consecutive updates share one optimizer; one
        # batch holds a single sample, and one, in the middle, is skipped for
        # a NaN reward and must leave theta, m, v and t as they were
        order = ("log_std", "pol_wm", "pol_bm", "pol_w2", "pol_b2", "pol_w1", "pol_b1")
        config = small_config(epochs=5)
        for seed in (16, 17, 18, 19):
            # initialized twice rather than copied, so the reference owes
            # nothing to copy(); each of its steps builds a fresh policy from
            # fresh arrays
            policy = PolicyState.initialize(np.random.default_rng(seed), init_log_std=0.2)
            reference = PolicyState.initialize(np.random.default_rng(seed), init_log_std=0.2)
            optimizer = AdamOptimizer(config.learning_rate)
            poisoned = make_rollout(seed, seed + 3)
            poisoned.rewards[3] = np.nan
            batches = [make_rollout(seed, seed + 1), make_rollout(seed, seed + 2, n=1),
                       poisoned, make_rollout(seed, seed + 4)]
            m, v, t = {}, {}, 0
            for rollout in batches:
                for _ in range(config.epochs):
                    loss = ppo_loss(reference, rollout, config)
                    grads = ppo_gradient(reference, rollout, config)
                    norm = math.sqrt(sum(float(np.sum(grads[k] ** 2)) for k in order))
                    if not (math.isfinite(loss) and math.isfinite(norm)):
                        break
                    t += 1
                    if norm > config.max_grad_norm:
                        grads = {k: g * (config.max_grad_norm / (norm + 1e-6))
                                 for k, g in grads.items()}
                    stepped = {}
                    for name in order:
                        grad = grads[name]
                        m.setdefault(name, np.zeros_like(grad))
                        v.setdefault(name, np.zeros_like(grad))
                        m[name] += (1.0 - 0.9) * (grad - m[name])
                        v[name] += (1.0 - 0.999) * (grad**2 - v[name])
                        m_hat = m[name] / (1.0 - 0.9**t)
                        v_hat = v[name] / (1.0 - 0.999**t)
                        stepped[name] = reference.params[name] \
                            - config.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
                    reference = PolicyState(stepped)
                before = (policy.theta(), optimizer.m, optimizer.v, optimizer.t)
                before = tuple(x.copy() if isinstance(x, np.ndarray) else x for x in before)
                stats_out = ppo_update(policy, rollout, config, optimizer)
                if rollout is poisoned:
                    assert stats_out.skipped
                    assert policy.theta().tobytes() == before[0].tobytes()
                    assert optimizer.m.tobytes() == before[1].tobytes()
                    assert optimizer.v.tobytes() == before[2].tobytes()
                    assert optimizer.t == before[3] == t
                else:
                    assert not stats_out.skipped
                    assert stats_out.loss == loss and stats_out.grad_norm == norm
                    assert optimizer.t == t
                for name in _PARAM_SHAPES:
                    assert np.array_equal(policy.params[name], reference.params[name]), \
                        (seed, name)
            assert t == 3 * config.epochs

    def test_nothing_handed_out_shares_the_learners_memory(self):
        # from its first step on, the learner updates theta in place: a
        # behaviour, a theta(), a copy() and a gradient taken before an
        # update must read the same bytes after it
        config = small_config(epochs=3)
        policy = PolicyState.initialize(np.random.default_rng(24), init_log_std=0.3)
        optimizer = AdamOptimizer(config.learning_rate)
        for reward_seed in (9, 10, 11):
            rollout = make_rollout(reward_seed=reward_seed)
            behaviour = learner._Behaviour.of(learner._Stack.of([policy], policy._theta[None]))
            taken = [behaviour.mean, behaviour.log_std, behaviour.std, policy.theta(),
                     *policy.copy().params.values(),
                     *ppo_gradient(policy, rollout, config).values()]
            saved = [array.tobytes() for array in taken]
            before = policy.theta()
            ppo_update(policy, rollout, config, optimizer)
            assert not np.array_equal(policy.theta(), before)
            assert [array.tobytes() for array in taken] == saved

    def test_a_pickled_policy_keeps_learning_bit_for_bit(self):
        import pickle

        config = small_config(epochs=3)
        policy = PolicyState.initialize(np.random.default_rng(25), init_log_std=0.3)
        optimizer = AdamOptimizer(config.learning_rate)
        ppo_update(policy, make_rollout(reward_seed=9), config, optimizer)
        clone = pickle.loads(pickle.dumps(policy))
        clone_optimizer = pickle.loads(pickle.dumps(optimizer))
        for reward_seed in (10, 11):
            ppo_update(policy, make_rollout(reward_seed=reward_seed), config, optimizer)
            ppo_update(clone, make_rollout(reward_seed=reward_seed), config,
                       clone_optimizer)
        assert policy.theta().tobytes() == clone.theta().tobytes()
        for name in _PARAM_SHAPES:
            assert clone.params[name].tobytes() == policy.params[name].tobytes()

    @pytest.mark.parametrize("clone", ["pickle", "copy"])
    def test_a_policy_cloned_before_its_first_update_learns_bit_for_bit(self, clone):
        # the clone's first epoch must read pol_wm F-ordered, as the
        # original's does: read C-ordered, its products round differently
        import pickle

        config = small_config(epochs=3)
        for seed in range(26, 30):
            policy = PolicyState.initialize(np.random.default_rng(seed), 0.3, 0.8)
            twin = pickle.loads(pickle.dumps(policy)) if clone == "pickle" else policy.copy()
            optimizers = [AdamOptimizer(config.learning_rate) for _ in range(2)]
            for reward_seed in (9, 10):
                rollout = make_rollout(reward_seed=reward_seed)
                stats = [ppo_update(learner, rollout, config, optimizer)
                         for learner, optimizer in zip((policy, twin), optimizers)]
                assert repr(stats[0]) == repr(stats[1]), seed
            assert twin.theta().tobytes() == policy.theta().tobytes(), seed

    def test_update_stats_read_the_last_epoch_ratios(self):
        config = small_config(epochs=1)
        policy = PolicyState.initialize(np.random.default_rng(22), init_log_std=0.3)
        rollout = make_rollout(behavior=policy)
        # every ratio of the only epoch is 1.4, outside 1 +- 0.2
        rollout.log_probs = log_prob_of(policy, rollout.pre_squash) - math.log(1.4)
        stats_out = ppo_update(policy, rollout, config)
        assert stats_out.clip_frac == 1.0
        assert stats_out.approx_kl == pytest.approx(0.4 - math.log(1.4), rel=1e-9)

        # with more epochs the figures come from the last epoch, whose ratios
        # are those of the policy after all earlier steps
        config = small_config(epochs=3)
        rollout = make_rollout()
        policy = PolicyState.initialize(np.random.default_rng(23), init_log_std=0.3)
        stats_out = ppo_update(policy, rollout, config)
        replay = PolicyState.initialize(np.random.default_rng(23), init_log_std=0.3)
        optimizer = AdamOptimizer(config.learning_rate)
        ppo_update(replay, rollout, small_config(epochs=2), optimizer)
        log_ratio = log_prob_of(replay, rollout.pre_squash) - rollout.log_probs
        ratio = np.exp(log_ratio)
        assert stats_out.approx_kl == pytest.approx(np.mean(ratio - 1.0 - log_ratio),
                                                    rel=1e-6)
        assert stats_out.clip_frac == np.mean(np.abs(ratio - 1.0) > 0.2)
        assert stats_out.approx_kl >= 0.0 and not stats_out.skipped


class TestRunAgent:
    def test_deterministic_histories(self, toy_env):
        config = small_config()
        a = run_agent(toy_env, config, seed=3, steps=64)
        b = run_agent(toy_env, config, seed=3, steps=64)
        assert [r.reward for r in a.history] == [r.reward for r in b.history]
        assert [r.objective_0 for r in a.history] == [r.objective_0 for r in b.history]

    def test_samples_from_the_policy_frozen_between_updates(self, toy_env, monkeypatch):
        # one forward pass per update for sampling (plus the first policy);
        # every forward, the learner's stacked ones too, runs through
        # _forward
        config = small_config(n_steps=8, epochs=3)
        forwards = []
        forward = learner._forward
        monkeypatch.setattr(learner, "_forward",
                            lambda stack: forwards.append(1) or forward(stack))
        run_agent(toy_env, config, seed=4, steps=32)
        assert len(forwards) == 1 + 4 * (config.epochs + 1)
        monkeypatch.undo()

        # before and after every update, each row of the group's behaviour
        # holds its live policy's mean, log-std and std, bit for bit, so
        # every action is the one sampling the live policy would draw
        learn, checked = pearl._Group.learn, []

        def check(group):
            for row, agent in enumerate(group.agents):
                live = agent.policy.mean, agent.policy.log_std, agent.policy.std
                assert [a[row].tobytes() for a in group.behaviour] == \
                    [a.tobytes() for a in live]
            checked.append(len(group.agents))

        def checked_learn(group, config, step):
            check(group)
            learn(group, config, step)
            check(group)

        monkeypatch.setattr(pearl._Group, "learn", checked_learn)
        seeds = [4, 5, 6]
        results, _ = pearl._run_group(toy_env, config, seeds, pearl.agent_names(seeds), 32)
        assert checked == [3] * 8
        assert [a.seed for a in results] == seeds

    def test_trivially_feasible_environment_fills_buffer(self):
        config = small_config(kappa=64)
        result = run_agent(AlwaysFeasibleEvaluator(), config, seed=1, steps=64)
        assert len(result.buffer) == 64
        assert all(r.feasible for r in result.history)

    def test_buffer_respects_capacity(self, toy_env):
        config = small_config(kappa=16)
        result = run_agent(toy_env, config, seed=2, steps=128)
        assert len(result.buffer) <= 16

    def test_constrained_toy_reaches_high_feasibility(self, toy_env):
        config = PearlConfig(agents=1, total_steps=1024, kappa=32,
                             distance_metric="crowding", base_seed=0)
        result = run_agent(toy_env, config, seed=11, steps=1024)
        tail = result.history[-205:]
        feasible_rate = sum(r.feasible for r in tail) / len(tail)
        assert feasible_rate >= 0.9

    def test_failing_evaluator_records_failure_penalty(self):
        class Flaky:
            def __init__(self):
                self.calls = 0

            def evaluate(self, design):
                self.calls += 1
                raise RuntimeError("boom")

        config = small_config(failure_penalty=123.0)
        flaky = Flaky()
        result = run_agent(flaky, config, seed=0, steps=4)
        assert flaky.calls == 8  # one retry per step
        assert all(r.reward == -123.0 for r in result.history)
        assert len(result.buffer) == 0
        assert [i.kind for i in result.incidents] == ["evaluation_failed"] * 4
        assert [i.step for i in result.incidents] == [0, 1, 2, 3]
        assert {(i.exception, i.message) for i in result.incidents} == \
            {("RuntimeError", "boom")}

    def test_deadline_truncates(self, toy_env):
        import time

        config = small_config()
        result = run_agent(toy_env, config, seed=0, steps=10_000,
                           deadline=time.monotonic() + 0.2)
        assert result.truncated
        assert len(result.history) < 10_000

    def test_expired_deadline_truncates_before_first_step(self, toy_env):
        import time

        result = run_agent(toy_env, small_config(), seed=0, steps=64,
                           deadline=time.monotonic() - 1.0)
        assert result.truncated
        assert result.history == [] and result.update_log == []
        assert len(result.buffer) == 0

    def test_non_finite_objectives_cost_one_step(self, toy_env):
        class NanOnce:
            """The toy problem, except that its third evaluation is NaN."""

            def __init__(self):
                self.calls = 0

            def evaluate(self, design):
                self.calls += 1
                objectives, report, qoi = toy_env.evaluate(design)
                if self.calls == 3:
                    objectives = np.array([np.nan, objectives[1]])
                return objectives, report, qoi

        config = small_config(failure_penalty=321.0)
        stub = NanOnce()
        result = run_agent(stub, config, seed=4, steps=16)
        assert stub.calls == 16              # no retry for a returned value
        assert len(result.history) == 16
        bad = result.history[2]
        assert bad.reward == -321.0 and not bad.feasible
        assert math.isnan(bad.objective_0) and bad.penalty == 321.0
        [incident] = result.incidents
        assert (incident.seed, incident.step, incident.kind, incident.exception) == \
            (4, 2, "non_finite_objectives", None)
        assert "nan" in incident.message
        assert all(math.isfinite(r.objective_0) for i, r in enumerate(result.history)
                   if i != 2)
        assert all(np.isfinite(p.objectives).all() for p in result.buffer.entries)


class TestRunMulti:
    def test_single_agent_merge_equals_front(self, toy_env):
        config = small_config(agents=1, total_steps=128)
        result = run_multi(toy_env, config)
        front = result.agents[0].front_points()
        assert {tuple(p.objectives) for p in result.merged_front} == \
            {tuple(p.objectives) for p in front}

    def test_identical_seeds_identical_fronts(self, toy_env):
        config = small_config(agents=3, total_steps=192, seeds=(7, 7, 7))
        result = run_multi(toy_env, config)
        fronts = [sorted(map(tuple, (p.objectives for p in a.front_points())))
                  for a in result.agents]
        assert fronts[0] == fronts[1] == fronts[2]

    def test_union_hypervolume_at_least_best_agent(self, toy_env):
        config = small_config(agents=4, total_steps=512)
        result = run_multi(toy_env, config)
        all_objs = [np.vstack([p.objectives for p in a.front_points()])
                    for a in result.agents if a.front_points()]
        merged = np.vstack([p.objectives for p in result.merged_front])
        ref = default_reference(all_objs + [merged])
        merged_hv = hypervolume_2d(nondominated_filter(merged), ref)
        for objs in all_objs:
            feasible = nondominated_filter(objs)
            assert merged_hv >= hypervolume_2d(feasible, ref) - 1e-12

    def test_merged_front_mutually_nondominated(self, toy_env):
        config = small_config(agents=3, total_steps=192)
        result = run_multi(toy_env, config)
        pts = result.merged_front
        for i, a in enumerate(pts):
            for j, b in enumerate(pts):
                if i != j and a.feasible and b.feasible:
                    assert not (np.all(a.objectives <= b.objectives)
                                and np.any(a.objectives < b.objectives))

    def test_crashing_agent_reports_partial(self, toy_env, monkeypatch):
        # the loop absorbs evaluator errors; a crash in one agent's own work
        # (here, archiving its design of step 10, after its first update)
        # removes that agent alone
        config = small_config(agents=3, total_steps=48)
        crashed = config.agent_seeds()[1]
        archive = pearl.step_reward

        def crashing(objectives, report, buffer, payload=None, *args):
            if payload.id == f"{crashed}-10":
                raise RuntimeError("agent crashed")
            return archive(objectives, report, buffer, payload, *args)

        monkeypatch.setattr(pearl, "step_reward", crashing)
        result = run_multi(toy_env, config)
        assert [agent.seed for agent in result.agents] == [5, 7]
        assert result.failures == [{"seed": crashed,
                                    "error": "RuntimeError('agent crashed')"}]
        monkeypatch.undo()
        for agent in result.agents:
            alone = run_agent(toy_env, config, agent.seed)
            assert [repr(r) for r in agent.history] == [repr(r) for r in alone.history]
            assert agent.policy.theta().tobytes() == alone.policy.theta().tobytes()

    def test_worker_pool_matches_serial(self, toy_env):
        serial = run_multi(toy_env, small_config(agents=2, total_steps=64))
        pooled = run_multi(toy_env, small_config(agents=2, total_steps=64, workers=2))
        a = sorted(map(tuple, (p.objectives for p in serial.merged_front)))
        b = sorted(map(tuple, (p.objectives for p in pooled.merged_front)))
        assert a == b

    def test_worker_pool_runs_every_agent_of_repeated_seeds(self, toy_env):
        # the pool kept one job per distinct seed, so two of three agents
        # went missing
        config = small_config(agents=3, total_steps=96, seeds=(7, 7, 7), workers=2)
        result = run_multi(toy_env, config)
        assert [agent.seed for agent in result.agents] == [7, 7, 7]
        assert not result.failures


def test_entropy_decreases_or_plateaus(toy_env):
    # median entropy trend over 10 short runs: final <= initial + margin
    deltas = []
    for seed in range(10):
        config = PearlConfig(agents=1, total_steps=512, kappa=16,
                             distance_metric="crowding")
        result = run_agent(toy_env, config, seed=seed, steps=512)
        entropies = [u.entropy for u in result.update_log if not u.skipped]
        head = np.mean(entropies[:8])
        tail = np.mean(entropies[-8:])
        deltas.append(tail - head)
    assert np.median(deltas) <= 0.05


def test_random_search_returns_nondominated_feasible(toy_env):
    front = random_search(toy_env, 300, seed=9)
    assert front
    assert all(p.feasible for p in front)
    objs = np.vstack([p.objectives for p in front])
    assert len(nondominated_filter(objs)) == len(objs)


class ScriptedEvaluator:
    """Returns scripted (objectives, penalty) pairs in turn; a penalty of 0
    is a feasible design."""

    def __init__(self, script):
        self.script = iter(script)

    def evaluate(self, design):
        objectives, penalty = next(self.script)
        return objectives, report_with_penalty(penalty), None


class TestRandomSearchBuildsOnlyKeptPoints:
    """Random search builds a point only for a design it may keep; its
    result must equal the eager search that builds one for every design."""

    @staticmethod
    def as_rows(front):
        return [(p.objectives.tobytes(), p.feasible, p.penalty, p.payload.id,
                 p.payload.design) for p in front]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_eager_search_on_scenario_3(self, seed):
        evaluator = DesignEvaluator(load_scenario("scenario-3"))
        want = random_search_oracle(evaluator, 3000, seed=seed)
        got = random_search(evaluator, 3000, seed=seed)
        assert len(got) > 1
        assert self.as_rows(got) == self.as_rows(want)

    def test_all_infeasible_keeps_the_least_penalty(self):
        script = [(np.array([1.0, 1.0]), p) for p in (5.0, 3.0, 4.0, 3.0, 7.0)]
        front = random_search(ScriptedEvaluator(script), len(script))
        want = random_search_oracle(ScriptedEvaluator(script), len(script))
        assert self.as_rows(front) == self.as_rows(want)
        assert [p.payload.id for p in front] == ["rs-1"]

    @pytest.mark.parametrize("bad", [
        (np.array([np.nan, 1.0]), 9.0),        # NaN objectives, not an improvement
        (np.array([1.0, np.inf]), 9.0),
        (np.array([1.0, 2.0]), float("nan")),  # NaN penalty
        (np.array([1.0, 2.0]), -1.0),
        (np.array([[1.0, 2.0]]), 9.0),          # not 1-D
    ])
    def test_discarded_designs_are_still_checked(self, bad):
        # the bad design follows a feasible design and an infeasible one of
        # penalty 2, so unless its penalty is lower no point of it is kept
        script = [(np.array([1.0, 1.0]), 0.0), (np.array([1.0, 1.0]), 2.0), bad]
        with pytest.raises(ContractError):
            random_search_oracle(ScriptedEvaluator(script), 3)
        with pytest.raises(ContractError):
            random_search(ScriptedEvaluator(script), 3)


def test_merge_fronts_dedupes_exact_duplicates():
    a = ObjectivePoint(np.array([1.0, 2.0]), True)
    b = ObjectivePoint(np.array([1.0, 2.0]), True)
    c = ObjectivePoint(np.array([2.0, 1.0]), True)
    merged = merge_fronts([[a], [b, c]])
    assert len(merged) == 2
    assert a in merged and c in merged


def test_config_validation(toy_env):
    with pytest.raises(Exception):
        PearlConfig(total_steps=100, n_steps=8)  # not divisible
    with pytest.raises(Exception):
        PearlConfig(agents=2, seeds=(1,))
    with pytest.raises(ConfigError, match="epochs"):
        PearlConfig(epochs=0)
    with pytest.raises(ConfigError, match="epochs"):
        PearlConfig(epochs=-3)
    with pytest.raises(ConfigError, match="agents"):
        PearlConfig(agents=3, total_steps=8000)  # would silently run 7998
    for steps in (0, -8):       # used to run no step and report a clean run
        with pytest.raises(ConfigError, match="total_steps"):
            PearlConfig(agents=2, total_steps=steps)
    assert PearlConfig(agents=3, total_steps=7992).steps_per_agent() == 2664
    # an infeasible step's reward sits kappa + 1 below its penalty, one
    # worse than the worst rank reward
    history = run_agent(toy_env, small_config(agents=1, total_steps=64, kappa=8), 5).history
    infeasible = [row for row in history if not row.feasible]
    assert infeasible
    assert all(row.reward == -row.penalty - 9.0 for row in infeasible)


@pytest.mark.parametrize("key, value", [
    ("kappa", 2.5), ("kappa", "8"), ("kappa", True), ("agents", 2.0),
    ("distance_metric", "bogus"),
])
def test_config_rejects_bad_archive_settings(key, value):
    with pytest.raises(ConfigError, match=key):
        PearlConfig(**{"agents": 2, "total_steps": 64, key: value})


def test_mean_and_std_helpers_match_numpy_bit_for_bit():
    from hpmropt.learner import _mean, _std

    rng = np.random.default_rng(17)
    for _ in range(2000):
        n = int(rng.integers(1, 100))
        x = rng.normal(size=n) * 10 ** rng.uniform(-8, 6) + rng.normal() * 1e3
        if rng.random() < 0.3:
            x = np.round(x)                  # ties and exact zeros
        assert _mean(x) == np.mean(x)
        assert _std(x) == np.std(x)


def test_copy_and_theta_round_trip_keep_the_policy_bit_for_bit():
    # a fresh pol_wm is F-ordered; a C-ordered copy takes another BLAS path
    for seed in range(200):
        policy = PolicyState.initialize(np.random.default_rng(seed), 0.4, 0.8)
        assert np.array_equal(policy.copy().mean, policy.mean), seed
        restored = policy.copy()
        restored.set_theta(policy.theta())
        assert np.array_equal(restored.mean, policy.mean), seed
