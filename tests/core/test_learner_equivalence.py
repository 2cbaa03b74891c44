"""The PPO learner against a per-array reference, bit for bit.

``MultiHeadMLP`` keeps its parameters in one flat buffer, ``backward``
writes into one flat gradient buffer, and ``Adam`` updates the whole buffer
in a few in-place ufunc calls.  None of that may change a single bit of
what the agent learns or samples.  The reference here is the plain
per-array implementation (one float32 array per weight and bias, one Adam
pass per array, ``softmax`` and ``log_softmax`` computed separately), and
the tests compare parameters, Adam moments, actions, log-probabilities,
values and RNG states with ``np.array_equal`` after several updates.

The finite-difference tests check the gradients themselves: the actor's
clipped surrogate plus entropy bonus, and the critic's MSE.  The learner
computes its gradients in float32; the objectives are evaluated in float64
over float64 copies of the float32 parameters, so the differences measure
the gradient rather than float32 rounding.
"""

import numpy as np
import pytest

from repro.core.actor_critic import PPOAgent
from repro.core.config import HARLConfig
from repro.core.rollout import ReplayBuffer
from repro.tensor.features import FEATURE_SIZE


# --------------------------------------------------------------------- #
# per-array reference implementation
# --------------------------------------------------------------------- #
def _ref_softmax(logits):
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=-1, keepdims=True)


def _ref_log_softmax(logits):
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


class _RefMLP:
    def __init__(self, input_size, hidden_sizes, head_sizes, rng):
        self.trunk_weights, self.trunk_biases = [], []
        prev = input_size
        for width in hidden_sizes:
            scale = np.sqrt(2.0 / prev)
            self.trunk_weights.append(rng.normal(0.0, scale, size=(prev, width)).astype(np.float32))
            self.trunk_biases.append(np.zeros(width, dtype=np.float32))
            prev = width
        self.head_weights, self.head_biases = [], []
        for width in head_sizes:
            scale = np.sqrt(1.0 / prev)
            self.head_weights.append(
                rng.normal(0.0, 0.1 * scale, size=(prev, width)).astype(np.float32)
            )
            self.head_biases.append(np.zeros(width, dtype=np.float32))

    def parameters(self):
        return self.trunk_weights + self.trunk_biases + self.head_weights + self.head_biases

    def forward(self, x):
        activations = [x]
        h = x
        for W, b in zip(self.trunk_weights, self.trunk_biases):
            h = np.tanh(h @ W + b)
            activations.append(h)
        return [h @ W + b for W, b in zip(self.head_weights, self.head_biases)], activations

    def backward(self, activations, head_grads):
        trunk_out = activations[-1]
        head_w_grads, head_b_grads = [], []
        grad_trunk = np.zeros_like(trunk_out)
        for grad_out, W in zip(head_grads, self.head_weights):
            head_w_grads.append(trunk_out.T @ grad_out)
            head_b_grads.append(np.sum(grad_out, axis=0))
            grad_trunk = grad_trunk + grad_out @ W.T
        trunk_w_grads = [None] * len(self.trunk_weights)
        trunk_b_grads = [None] * len(self.trunk_biases)
        grad_h = grad_trunk
        for layer in reversed(range(len(self.trunk_weights))):
            post = activations[layer + 1]
            pre_grad = grad_h * (1.0 - post * post)
            trunk_w_grads[layer] = activations[layer].T @ pre_grad
            trunk_b_grads[layer] = np.sum(pre_grad, axis=0)
            grad_h = pre_grad @ self.trunk_weights[layer].T
        return trunk_w_grads + trunk_b_grads + head_w_grads + head_b_grads


class _RefAdam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8, max_grad_norm=5.0):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.max_grad_norm = max_grad_norm
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0
        self.clipped = 0
        self.unclipped = 0

    def step(self, grads):
        total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
        if total > self.max_grad_norm and total > 0:
            self.clipped += 1
            scale = self.max_grad_norm / total
            grads = [g * scale for g in grads]
        else:
            self.unclipped += 1
        self.t += 1
        for i, (param, grad) in enumerate(zip(self.params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * grad
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * grad * grad
            m_hat = self.m[i] / (1 - self.beta1 ** self.t)
            v_hat = self.v[i] / (1 - self.beta2 ** self.t)
            param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class _RefAgent:
    """``PPOAgent`` with the per-array learner, sharing its replay buffer code."""

    def __init__(self, feature_size, head_sizes, config, seed):
        self.config = config
        self.head_sizes = tuple(head_sizes)
        self.rng = np.random.default_rng(seed)
        hidden = (config.hidden_size, config.hidden_size)
        self.actor = _RefMLP(feature_size, hidden, head_sizes, self.rng)
        self.critic = _RefMLP(feature_size, hidden, (1,), self.rng)
        self.actor_opt = _RefAdam(self.actor.parameters(), lr=config.actor_lr)
        self.critic_opt = _RefAdam(self.critic.parameters(), lr=config.critic_lr)
        # The buffer is not under test here (see test_rollout.py).
        self.buffer = ReplayBuffer(
            config.replay_capacity, feature_size, len(head_sizes), seed=seed + 1
        )

    def value(self, states):
        return self.critic.forward(states.astype(np.float32))[0][0][:, 0]

    def act(self, states):
        states = states.astype(np.float32)
        logits, _ = self.actor.forward(states)
        n = states.shape[0]
        actions = np.zeros((n, len(self.head_sizes)), dtype=np.int64)
        log_probs = np.zeros(n, dtype=np.float32)
        for h, head_logits in enumerate(logits):
            probs = _ref_softmax(head_logits)
            logp = _ref_log_softmax(head_logits)
            cumulative = np.cumsum(probs, axis=1)
            draws = self.rng.random((n, 1))
            # The number of cumulative probabilities at or below the draw,
            # with a draw past the row's sum going to the last action.
            chosen = np.minimum(np.sum(cumulative <= draws, axis=1), probs.shape[1] - 1)
            actions[:, h] = chosen
            log_probs += logp[np.arange(n), chosen]
        return actions, log_probs, self.value(states)

    def update(self):
        for _ in range(self.config.ppo_epochs):
            self._train_step(self.buffer.sample(self.config.minibatch_size))

    def _train_step(self, batch):
        cfg = self.config
        states, actions = batch["states"], batch["actions"]
        old_log_probs, td_targets = batch["old_log_probs"], batch["td_targets"]
        n = states.shape[0]
        adv = batch["advantages"].copy()
        if n > 1 and np.std(adv) > 1e-8:
            adv = (adv - np.mean(adv)) / (np.std(adv) + 1e-8)

        logits, activations = self.actor.forward(states)
        new_log_probs = np.zeros(n, dtype=np.float32)
        probs_per_head = []
        for h, head_logits in enumerate(logits):
            logp = _ref_log_softmax(head_logits)
            probs_per_head.append(_ref_softmax(head_logits))
            new_log_probs += logp[np.arange(n), actions[:, h]]
        ratio = np.exp(np.clip(new_log_probs - old_log_probs, -20.0, 20.0))
        clipped = np.clip(ratio, 1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon)
        surr1 = ratio * adv
        surr2 = clipped * adv
        unclipped_mask = (surr1 <= surr2).astype(np.float32)
        dloss_dlogp = -(adv * ratio * unclipped_mask) / n
        head_grads = []
        for h, head_logits in enumerate(logits):
            probs = probs_per_head[h]
            logp = _ref_log_softmax(head_logits)
            onehot = np.zeros_like(probs)
            onehot[np.arange(n), actions[:, h]] = 1.0
            grad = dloss_dlogp[:, None] * (onehot - probs)
            entropy = -np.sum(probs * logp, axis=1)
            grad += cfg.entropy_weight * probs * (logp + entropy[:, None]) / n
            head_grads.append(grad)
        self.actor_opt.step(self.actor.backward(activations, head_grads))

        value_out, activations = self.critic.forward(states)
        value_error = value_out[0][:, 0] - td_targets
        grad_value = (2.0 * cfg.mse_weight * value_error / n)[:, None]
        self.critic_opt.step(self.critic.backward(activations, [grad_value]))


# --------------------------------------------------------------------- #
# exact equality
# --------------------------------------------------------------------- #
def _assert_same_learner_state(agent, ref):
    for net, ref_net in ((agent.actor, ref.actor), (agent.critic, ref.critic)):
        params = net.parameters()
        assert len(params) == len(ref_net.parameters())
        for p, q in zip(params, ref_net.parameters()):
            assert np.array_equal(p, q)
    for opt, ref_opt in ((agent.actor_opt, ref.actor_opt), (agent.critic_opt, ref.critic_opt)):
        assert opt._t == ref_opt.t
        assert np.array_equal(opt._m, np.concatenate([m.ravel() for m in ref_opt.m]))
        assert np.array_equal(opt._v, np.concatenate([v.ravel() for v in ref_opt.v]))
    assert agent._rng.bit_generator.state == ref.rng.bit_generator.state
    assert agent.buffer._rng.bit_generator.state == ref.buffer._rng.bit_generator.state


@pytest.mark.parametrize(
    "head_sizes, minibatch",
    [((485, 3, 3, 3), None), ((17, 5, 5, 5), None), ((17, 5, 5, 5), 1)],
    ids=["mobilenet-tiling-head", "small-heads", "one-row-minibatch"],
)
def test_agent_matches_per_array_reference(head_sizes, minibatch):
    config = HARLConfig.scaled()
    if minibatch is not None:
        config = config.replace(minibatch_size=minibatch)
    agent = PPOAgent(FEATURE_SIZE, head_sizes, config=config, seed=11)
    ref = _RefAgent(FEATURE_SIZE, head_sizes, config, seed=11)
    _assert_same_learner_state(agent, ref)

    data = np.random.default_rng(5)
    for round_index in range(6):
        # Odd rounds store behaviour log-probabilities far below the current
        # ones and large TD targets: the probability ratios and value errors
        # they produce push both gradient norms past max_grad_norm, so
        # clipping fires.  The first round's updates stay below it.
        shift, scale = (8.0, 50.0) if round_index % 2 else (0.0, 1.0)
        states = data.normal(size=(24, FEATURE_SIZE))
        next_states = data.normal(size=(24, FEATURE_SIZE))

        batch = agent.act(states)
        actions, log_probs, values = ref.act(states)
        assert np.array_equal(batch.actions, actions)
        assert np.array_equal(batch.log_probs, log_probs)
        assert np.array_equal(batch.values, values)

        rewards = data.normal(size=24)
        td_targets, advantages = agent.compute_advantage(
            rewards, batch.values, agent.value(next_states)
        )
        td_targets = td_targets * scale
        agent.store(states, batch.actions, batch.log_probs - shift, rewards, td_targets, advantages)
        ref.buffer.add(states, actions, log_probs - shift, rewards, td_targets, advantages)

        agent.update()
        ref.update()
        _assert_same_learner_state(agent, ref)

    for opt in (ref.actor_opt, ref.critic_opt):
        assert opt.clipped > 0 and opt.unclipped > 0, (opt.clipped, opt.unclipped)


# --------------------------------------------------------------------- #
# finite differences
# --------------------------------------------------------------------- #
def _capture_grads(opt):
    captured = []
    opt.step = lambda grads: captured.append([np.array(g) for g in grads])
    return captured


def _forward64(net, params, states):
    """``net``'s forward pass in float64 over ``params``, float64 copies of
    its parameters (in ``parameters()`` order)."""
    trunk_weights, trunk_biases, head_weights, head_biases = net._groups(params)
    h = states.astype(np.float64)
    for W, b in zip(trunk_weights, trunk_biases):
        h = np.tanh(h @ W + b)
    return [h @ W + b for W, b in zip(head_weights, head_biases)]


def _actor_objective(agent, params, batch, adv):
    """Clipped PPO surrogate loss minus the weighted mean entropy of every head."""
    cfg = agent.config
    n = batch["states"].shape[0]
    logits = _forward64(agent.actor, params, batch["states"])
    new_log_probs = np.zeros(n)
    entropy_bonus = 0.0
    for h, head_logits in enumerate(logits):
        logp = _ref_log_softmax(head_logits)
        new_log_probs += logp[np.arange(n), batch["actions"][:, h]]
        entropy_bonus += float(np.mean(-np.sum(np.exp(logp) * logp, axis=1)))
    ratio = np.exp(new_log_probs - batch["old_log_probs"].astype(np.float64))
    clipped = np.clip(ratio, 1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon)
    adv = adv.astype(np.float64)
    surrogate = -float(np.mean(np.minimum(ratio * adv, clipped * adv)))
    return surrogate - cfg.entropy_weight * entropy_bonus


def _critic_objective(agent, params, batch):
    values = _forward64(agent.critic, params, batch["states"])[0][:, 0]
    td_targets = batch["td_targets"].astype(np.float64)
    return float(agent.config.mse_weight * np.mean((values - td_targets) ** 2))


def _check_by_finite_differences(net, grads, objective, eps=1e-6):
    """Central differences of ``objective(params)`` over float64 copies of
    ``net``'s float32 parameters, against the float32 ``grads``."""
    params = [p.astype(np.float64) for p in net.parameters()]
    checked = 0
    for param, grad in zip(params, grads):
        assert grad.dtype == np.float32
        flat, flat_grad = param.reshape(-1), grad.reshape(-1)
        for coord in (0, flat.size // 3, flat.size - 1):
            original = flat[coord]
            flat[coord] = original + eps
            plus = objective(params)
            flat[coord] = original - eps
            minus = objective(params)
            flat[coord] = original
            numeric = (plus - minus) / (2 * eps)
            assert flat_grad[coord] == pytest.approx(numeric, rel=1e-4, abs=1e-8)
            checked += 1
    return checked


#: Probability ratios of the finite-difference batch: 0.5 and 1.6 lie well
#: outside the clip range [0.8, 1.2] of ``clip_epsilon = 0.2``, 1.05 inside it.
_FD_RATIOS = np.array([0.5, 1.6, 1.05] * 4)


def _fd_batch(agent, data):
    """A float32 training batch, as the replay buffer samples one."""
    n = len(_FD_RATIOS)
    states = data.normal(size=(n, agent.feature_size)).astype(np.float32)
    actions = agent.act(states).actions
    logits, _ = agent.actor.forward(states)
    logp = sum(
        _ref_log_softmax(head_logits)[np.arange(n), actions[:, h]]
        for h, head_logits in enumerate(logits)
    )
    signs = np.array([1.0, 1.0, -1.0, -1.0, 1.0, -1.0] * (n // 6))
    return {
        "states": states,
        "actions": actions,
        "old_log_probs": (logp - np.log(_FD_RATIOS)).astype(np.float32),
        "advantages": (signs * (1.0 + data.random(n))).astype(np.float32),
        "td_targets": data.normal(size=n).astype(np.float32),
    }


def test_actor_gradient_matches_finite_differences():
    agent = PPOAgent(FEATURE_SIZE, (17, 5, 5, 5), config=HARLConfig.scaled(), seed=2)
    batch = _fd_batch(agent, np.random.default_rng(9))
    # The normalised advantages of ``_train_step``, in the same float32 ops.
    adv = batch["advantages"]
    adv = (adv - np.mean(adv)) / (np.std(adv) + 1e-8)

    # Samples on both sides of the clip: the clipped ones carry no
    # surrogate gradient, only the entropy term's.
    eps = agent.config.clip_epsilon
    clipped_ratio = np.clip(_FD_RATIOS, 1.0 - eps, 1.0 + eps)
    unclipped = _FD_RATIOS * adv <= clipped_ratio * adv
    assert unclipped.any() and not unclipped.all()

    captured = _capture_grads(agent.actor_opt)
    _capture_grads(agent.critic_opt)
    agent._train_step(batch)
    checked = _check_by_finite_differences(
        agent.actor, captured[0], lambda params: _actor_objective(agent, params, batch, adv)
    )
    assert checked == 3 * len(agent.actor.parameters())


def test_critic_gradient_matches_finite_differences():
    agent = PPOAgent(FEATURE_SIZE, (17, 5, 5, 5), config=HARLConfig.scaled(), seed=4)
    batch = _fd_batch(agent, np.random.default_rng(10))
    _capture_grads(agent.actor_opt)
    captured = _capture_grads(agent.critic_opt)
    agent._train_step(batch)
    checked = _check_by_finite_differences(
        agent.critic, captured[0], lambda params: _critic_objective(agent, params, batch)
    )
    assert checked == 3 * len(agent.critic.parameters())
