"""Unit tests for the PPO agent."""

import copy
import pickle

import numpy as np
import pytest

from repro.core.actor_critic import PPOAgent
from repro.core.policy import ParameterViews


@pytest.fixture
def agent(tiny_config):
    return PPOAgent(feature_size=8, head_sizes=(10, 3, 3, 3), config=tiny_config, seed=0)


def _states(n, rng, size=8):
    return rng.normal(size=(n, size))


class _FixedDraws:
    """Stands in for the agent's generator: ``random`` returns fixed draws."""

    def __init__(self, draws):
        self.draws = draws
        self.calls = 0

    def random(self, size):
        assert size == self.draws.shape
        self.calls += 1
        return self.draws.copy()


class TestActing:
    def test_act_shapes(self, agent, rng):
        batch = agent.act(_states(6, rng))
        assert batch.actions.shape == (6, 4)
        assert batch.log_probs.shape == (6,)
        assert batch.values.shape == (6,)

    def test_actions_within_head_bounds(self, agent, rng):
        batch = agent.act(_states(64, rng))
        for head, size in enumerate(agent.head_sizes):
            assert batch.actions[:, head].min() >= 0
            assert batch.actions[:, head].max() < size

    def test_log_probs_nonpositive(self, agent, rng):
        batch = agent.act(_states(16, rng))
        assert np.all(batch.log_probs <= 0)

    def test_greedy_act_is_deterministic(self, agent, rng):
        states = _states(5, rng)
        a = agent.act(states, greedy=True).actions
        b = agent.act(states, greedy=True).actions
        assert np.array_equal(a, b)

    def test_stochastic_act_explores(self, agent, rng):
        states = np.zeros((200, 8))
        actions = agent.act(states).actions
        # A fresh (near-uniform) policy should not always pick the same tiling action.
        assert len(np.unique(actions[:, 0])) > 1

    def test_draw_past_a_rows_total_takes_the_last_action(self, agent, rng):
        """A draw at or above the row's summed probabilities picks the last
        action; every other draw keeps the first action whose cumulative
        probability exceeds it.  All heads draw in one ``(num_heads, n)`` call."""
        states = _states(8, rng)
        cumulative = [np.cumsum(p, axis=1) for p in agent.policy_distributions(states)]
        top = max(float(c[:, -1].max()) for c in cumulative)
        low = min(float(c[:, -1].min()) for c in cumulative)
        draws = np.concatenate([np.full(4, top), rng.uniform(0.0, low, size=4)])
        agent._rng = _FixedDraws(np.tile(draws, (len(agent.head_sizes), 1)))

        actions = agent.act(states).actions
        assert agent._rng.calls == 1
        for h, (size, cum) in enumerate(zip(agent.head_sizes, cumulative)):
            assert np.array_equal(actions[:4, h], np.full(4, size - 1))
            assert np.array_equal(actions[4:, h], np.argmax(cum[4:] > draws[4:, None], axis=1))

    def test_policy_distributions_normalised(self, agent, rng):
        dists = agent.policy_distributions(_states(4, rng))
        assert len(dists) == 4
        for dist in dists:
            assert np.allclose(dist.sum(axis=1), 1.0)

    def test_value_shape(self, agent, rng):
        assert agent.value(_states(9, rng)).shape == (9,)


class TestAdvantage:
    def test_td_target_formula(self, agent):
        rewards = np.array([1.0, 0.0])
        values = np.array([0.5, 0.5])
        next_values = np.array([1.0, 2.0])
        td, adv = agent.compute_advantage(rewards, values, next_values)
        gamma = agent.config.discount
        assert td == pytest.approx(rewards + gamma * next_values)
        assert adv == pytest.approx(td - values)


class TestLearning:
    def test_update_on_empty_buffer_is_safe(self, agent):
        stats = agent.update()
        assert stats["actor_loss"] == 0.0

    def test_update_returns_finite_losses(self, agent, rng):
        states = _states(32, rng)
        batch = agent.act(states)
        rewards = rng.normal(size=32)
        next_values = agent.value(states)
        td, adv = agent.compute_advantage(rewards, batch.values, next_values)
        agent.store(states, batch.actions, batch.log_probs, rewards, td, adv)
        stats = agent.update()
        assert np.isfinite(stats["actor_loss"])
        assert np.isfinite(stats["critic_loss"])
        assert stats["entropy"] > 0

    def test_policy_shifts_toward_rewarded_action(self, tiny_config):
        """Repeatedly rewarding one action index increases its probability."""
        config = tiny_config.replace(entropy_weight=0.0, actor_lr=3e-3, ppo_epochs=8)
        agent = PPOAgent(feature_size=4, head_sizes=(6, 3, 3, 3), config=config, seed=1)
        rng = np.random.default_rng(0)
        states = np.zeros((64, 4))
        target_action = 2

        initial_prob = agent.policy_distributions(states[:1])[0][0, target_action]
        for _ in range(30):
            batch = agent.act(states)
            rewards = (batch.actions[:, 0] == target_action).astype(float)
            next_values = agent.value(states)
            td, adv = agent.compute_advantage(rewards, batch.values, next_values)
            agent.store(states, batch.actions, batch.log_probs, rewards, td, adv)
            agent.update()
        final_prob = agent.policy_distributions(states[:1])[0][0, target_action]
        assert final_prob > initial_prob + 0.1

    def test_critic_learns_constant_target(self, tiny_config):
        config = tiny_config.replace(critic_lr=5e-3, ppo_epochs=8)
        agent = PPOAgent(feature_size=4, head_sizes=(4, 3, 3, 3), config=config, seed=2)
        rng = np.random.default_rng(1)
        states = rng.normal(size=(64, 4))
        for _ in range(40):
            batch = agent.act(states)
            rewards = np.ones(64)
            td_targets = np.full(64, 5.0)
            advantages = td_targets - batch.values
            agent.store(states, batch.actions, batch.log_probs, rewards, td_targets, advantages)
            agent.update()
        values = agent.value(states)
        assert np.mean(np.abs(values - 5.0)) < 1.5

    def test_parameters_change_after_update(self, agent, rng):
        before = [p.copy() for p in agent.actor.parameters()]
        states = _states(32, rng)
        batch = agent.act(states)
        rewards = rng.normal(size=32)
        td, adv = agent.compute_advantage(rewards, batch.values, agent.value(states))
        agent.store(states, batch.actions, batch.log_probs, rewards, td, adv)
        agent.update()
        after = agent.actor.parameters()
        assert any(not np.allclose(b, a) for b, a in zip(before, after))

    def test_update_shares_one_gradient_buffer_across_its_steps(self, tiny_config, rng):
        """Each backward rewrites the whole gradient buffer, so the steps of
        one ``update`` match steps that each get a fresh, NaN-filled one."""
        agent = PPOAgent(feature_size=8, head_sizes=(485, 3, 3, 3), config=tiny_config, seed=0)
        for _ in range(2):
            states = _states(32, rng)
            batch = agent.act(states)
            rewards = rng.normal(size=32)
            td, adv = agent.compute_advantage(rewards, batch.values, agent.value(states))
            agent.store(states, batch.actions, batch.log_probs, rewards, td, adv)
        twin = copy.deepcopy(agent)
        assert tiny_config.ppo_epochs > 1
        for _ in range(3):
            agent.update()
            for _ in range(tiny_config.ppo_epochs):
                grads = ParameterViews(
                    np.full_like(twin.parameters().buffer, np.nan), twin._shapes
                )
                twin._train_step(twin.buffer.sample(tiny_config.minibatch_size), grads)
        for ours, theirs in (
            (agent.parameters().buffer, twin.parameters().buffer),
            (agent.optimizer._m, twin.optimizer._m),
            (agent.optimizer._v, twin.optimizer._v),
        ):
            assert ours.tobytes() == theirs.tobytes()


def _train_once(agent, rng):
    states = _states(32, rng, size=agent.feature_size)
    batch = agent.act(states)
    rewards = rng.normal(size=32)
    td, adv = agent.compute_advantage(rewards, batch.values, agent.value(states))
    agent.store(states, batch.actions, batch.log_probs, rewards, td, adv)
    agent.update()


class TestOneBuffer:
    """Actor, critic and optimiser are views over one parameter buffer."""

    @staticmethod
    def _assert_one_buffer(agent):
        buffer = agent.parameters().buffer
        actor, critic = agent.actor.parameters(), agent.critic.parameters()
        assert agent.optimizer._flat is buffer
        assert actor.buffer is buffer and critic.buffer is buffer
        assert (actor.offset, critic.offset) == (0, agent.actor.size)
        assert agent.actor.size + agent.critic.size == buffer.size
        for got, want in zip(agent.parameters(), tuple(actor) + tuple(critic)):
            assert got.shape == want.shape and np.shares_memory(got, want)
            assert np.shares_memory(got, buffer)

    def test_actor_and_critic_share_the_buffer(self, agent, rng):
        self._assert_one_buffer(agent)
        before = agent.parameters().flat.copy()
        _train_once(agent, rng)
        after = agent.parameters().flat
        split = agent.actor.size
        # Both networks trained, through the one optimiser pass per step.
        assert not np.array_equal(before[:split], after[:split])
        assert not np.array_equal(before[split:], after[split:])
        assert agent.optimizer._t == agent.config.ppo_epochs

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a))])
    def test_copies_keep_one_buffer(self, agent, rng, clone):
        _train_once(agent, rng)
        copied = clone(agent)
        self._assert_one_buffer(copied)
        assert not np.shares_memory(copied.parameters().buffer, agent.parameters().buffer)
        original = agent.parameters().flat.copy()
        _train_once(copied, np.random.default_rng(3))
        # The copy's networks see its own updates; the original is untouched.
        assert not np.array_equal(copied.parameters().flat, original)
        assert np.array_equal(agent.parameters().flat, original)
        states = _states(5, rng)
        assert np.array_equal(copied.value(states), copied.critic.forward(states)[0][:, 0])


class TestFloat32Learner:
    """Every learner array stays float32 whatever dtype comes in.

    Under NumPy 2's promotion rules one stray float64 array or NumPy
    scalar in an expression turns a float32 result into float64, so the
    inputs here are float64 throughout.
    """

    @staticmethod
    def _record_gradients(agent):
        seen = []
        opt = agent.optimizer

        def step(grads, _step=opt.step):
            seen.append([np.array(g) for g in grads] + [grads.flat.copy()])
            _step(grads)

        opt.step = step
        return seen

    @staticmethod
    def _assert_float32(agent):
        for params in (agent.parameters(), agent.actor.parameters(), agent.critic.parameters()):
            assert params.flat.dtype == np.float32
            assert all(p.dtype == np.float32 for p in params)
        opt = agent.optimizer
        for array in (opt._flat, opt._m, opt._v):
            assert array.dtype == np.float32
        buf = agent.buffer
        for name in ("_states", "_old_log_probs", "_rewards", "_td_targets", "_advantages"):
            assert getattr(buf, name).dtype == np.float32, name
        assert buf._actions.dtype == np.int64
        if len(buf):
            for key, array in buf.sample(4).items():
                assert array.dtype == (np.int64 if key == "actions" else np.float32), key

    def _play(self, agent, rng, rounds=2):
        """Act, value, store and update on float64 inputs; check every output."""
        seen = self._record_gradients(agent)
        for _ in range(rounds):
            states = rng.normal(size=(16, agent.feature_size))
            batch = agent.act(states)
            assert batch.actions.dtype == np.int64
            assert batch.log_probs.dtype == np.float32
            assert batch.values.dtype == np.float32
            next_values = agent.value(rng.normal(size=(16, agent.feature_size)))
            assert next_values.dtype == np.float32
            # Large TD targets push the critic's gradient norm past the clip.
            rewards = rng.normal(size=16) * 1e3
            td, adv = agent.compute_advantage(rewards, batch.values, next_values)
            agent.store(states, batch.actions, batch.log_probs, rewards, td, adv)
            agent.update()
        del agent.optimizer.step  # back to Adam.step
        assert seen
        for grads in seen:
            assert all(g.dtype == np.float32 for g in grads)
        self._assert_float32(agent)

    def test_act_value_update(self, agent, rng):
        self._assert_float32(agent)
        self._play(agent, rng)

    def test_set_parameters_from_float64(self, agent, rng):
        for net in (agent.actor, agent.critic):
            net.set_parameters([p.astype(np.float64) + 0.5 for p in net.parameters()])
        self._play(agent, rng)

    def test_deep_copy(self, agent, rng):
        self._play(agent, rng, rounds=1)
        clone = copy.deepcopy(agent)
        self._assert_float32(clone)
        self._play(clone, rng)
