"""The fused PPO learner against a per-array reference.

``PPOAgent`` keeps its actor (every head one block of columns of one weight
matrix and one bias) and its critic back to back in one float32 buffer,
computes one softmax per run of equal-width heads, back-propagates into one
gradient buffer and steps both networks in one ``Adam`` pass.  The
reference here is the plain per-array implementation: one float32 array per
weight and bias and per head, one ``Adam`` per network with a per-array
clip norm, ``softmax`` and ``log_softmax`` computed separately per head.

Where the arithmetic is the reference's, the tests compare with
``np.array_equal``: the initial parameters, the sampled actions at these
seeds, the critic values, and the generator and replay RNG states.  Three
sums run in another order, so the rest is compared after one train step from
a shared state, within a tolerance fixed in advance (:data:`TOL`): the
logits are one matmul over every head column (BLAS may order each 64-term
dot differently), the trunk gradient is one matmul over all 494 head columns
instead of one per head, and each network's clip norm is one reduction over
its stretch of the buffer instead of a sum of per-array sums.

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
from repro.core.policy import ParameterViews
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
# the agent against the reference
# --------------------------------------------------------------------- #
#: Relative tolerance of the reordered sums, fixed from float32's 2**-24.  The
#: longest reordered sum is the trunk gradient's dot over 494 head columns,
#: at most 494 * 2**-24 ~ 2.9e-5 relative; the Adam moments are linear and
#: quadratic in the gradient and a step is ~m / sqrt(v), so each is within
#: about twice that.  2**-12 ~ 2.4e-4 leaves a factor of four or more.
TOL = 2.0**-12
#: The parameters are float32: a step that agrees to TOL can still round to
#: a neighbouring value, up to a few ulps of the largest parameter.
ULPS = 2.0**-22


def _fused(arrays, num_heads):
    """Per-array layout (trunk weights and biases, then one weight and one
    bias per head) in the agent's layout: the heads' weights as one matrix
    and their biases as one vector."""
    arrays = list(arrays)
    trunk = len(arrays) - 2 * num_heads
    weights = arrays[trunk : trunk + num_heads]
    biases = arrays[trunk + num_heads :]
    return arrays[:trunk] + [np.concatenate(weights, axis=1), np.concatenate(biases)]


def _ref_arrays(ref, pick):
    """The reference's parameters, moments or gradients in the agent's layout."""
    out = []
    for heads, arrays in zip((len(ref.head_sizes), 1), pick(ref)):
        out += _fused(arrays, heads)
    return out


def _views(agent, flat):
    return ParameterViews(flat, [p.shape for p in agent.parameters()])


def _load_agent_state(ref, agent):
    """Copy the agent's parameters and Adam state into the reference."""
    split = len(agent.actor.parameters())
    opt = agent.optimizer
    for net, ref_net, ref_opt, part in (
        (agent.actor, ref.actor, ref.actor_opt, slice(0, split)),
        (agent.critic, ref.critic, ref.critic_opt, slice(split, None)),
    ):
        bounds = net.head_offsets
        for name, flat in (("params", agent.parameters().flat), ("m", opt._m), ("v", opt._v)):
            arrays = list(_views(agent, flat)[part])
            weight, bias = arrays[-2:]
            arrays = arrays[:-2] + [weight[:, a:b] for a, b in zip(bounds, bounds[1:])]
            arrays += [bias[a:b] for a, b in zip(bounds, bounds[1:])]
            if name == "params":
                for target, source in zip(ref_net.parameters(), arrays):
                    target[...] = source
            else:
                setattr(ref_opt, name, [a.copy() for a in arrays])
        ref_opt.t = opt._t


def _record_grads(step):
    """Wrap an optimiser's ``step`` so every call's gradients are recorded."""
    seen = []

    def recording(grads):
        seen.append([np.array(g, dtype=np.float64) for g in grads])
        step(grads)

    return seen, recording


def _assert_close(got, want, floor=0.0):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert np.max(np.abs(got - want)) <= TOL * np.max(np.abs(want)) + floor


def _train_step_in_lockstep(agent, ref):
    """One train step of both learners from one shared state; compare after it."""
    _load_agent_state(ref, agent)
    cfg = agent.config
    batch = agent.buffer.sample(cfg.minibatch_size)
    ref_batch = ref.buffer.sample(cfg.minibatch_size)
    for key in batch:
        assert np.array_equal(batch[key], ref_batch[key]), key
    before = [p.astype(np.float64) for p in agent.parameters()]

    agent_grads, agent.optimizer.step = _record_grads(agent.optimizer.step)
    actor_grads, ref.actor_opt.step = _record_grads(ref.actor_opt.step)
    critic_grads, ref.critic_opt.step = _record_grads(ref.critic_opt.step)
    agent._train_step(batch)
    ref._train_step(ref_batch)
    for opt in (agent.optimizer, ref.actor_opt, ref.critic_opt):
        del opt.step

    opt = agent.optimizer
    assert opt._t == ref.actor_opt.t == ref.critic_opt.t
    ref_grads = _ref_arrays(ref, lambda r: (actor_grads[0], critic_grads[0]))
    ref_m = _ref_arrays(ref, lambda r: (r.actor_opt.m, r.critic_opt.m))
    ref_v = _ref_arrays(ref, lambda r: (r.actor_opt.v, r.critic_opt.v))
    ref_params = _ref_arrays(ref, lambda r: (r.actor.parameters(), r.critic.parameters()))
    rows = zip(
        agent_grads[0], ref_grads, _views(agent, opt._m), ref_m, _views(agent, opt._v), ref_v,
        agent.parameters(), ref_params, before,
    )
    for grad, ref_grad, m, want_m, v, want_v, param, want_param, start in rows:
        _assert_close(grad, ref_grad)
        _assert_close(m, want_m)
        _assert_close(v, want_v)
        _assert_close(param - start, want_param - start, floor=ULPS * np.max(np.abs(start)))


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
    # The same initial draws, in the same order.
    initial = _ref_arrays(ref, lambda r: (r.actor.parameters(), r.critic.parameters()))
    assert len(agent.parameters()) == len(initial)
    for got, want in zip(agent.parameters(), initial):
        assert np.array_equal(got, want)

    data = np.random.default_rng(5)
    for round_index in range(6):
        # Odd rounds store behaviour log-probabilities far below the current
        # ones and large TD targets: the probability ratios and value errors
        # they produce push both gradient norms past max_grad_norm, so
        # clipping fires.  The first round's updates stay below it.
        shift, scale = (8.0, 50.0) if round_index % 2 else (0.0, 1.0)
        states = data.normal(size=(24, FEATURE_SIZE))
        next_states = data.normal(size=(24, FEATURE_SIZE))

        _load_agent_state(ref, agent)
        batch = agent.act(states)
        actions, log_probs, values = ref.act(states)
        assert np.array_equal(batch.actions, actions)
        np.testing.assert_allclose(batch.log_probs, log_probs, rtol=TOL, atol=TOL)
        assert np.array_equal(batch.values, values)
        # One draw of (num_heads, n) uniforms consumes the per-head stream.
        assert agent._rng.bit_generator.state == ref.rng.bit_generator.state

        rewards = data.normal(size=24)
        td_targets, advantages = agent.compute_advantage(
            rewards, batch.values, agent.value(next_states)
        )
        td_targets = td_targets * scale
        stored = (states, batch.actions, batch.log_probs - shift, rewards, td_targets, advantages)
        agent.store(*stored)
        ref.buffer.add(*stored)

        for _ in range(config.ppo_epochs):
            _train_step_in_lockstep(agent, ref)
        assert agent.buffer._rng.bit_generator.state == ref.buffer._rng.bit_generator.state

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
    its parameters (in ``parameters()`` order); one output per head."""
    trunk_weights, trunk_biases, (W,), (b,) = net._groups(params)
    h = states.astype(np.float64)
    for Wt, bt in zip(trunk_weights, trunk_biases):
        h = np.tanh(h @ Wt + bt)
    out = h @ W + b
    bounds = net.head_offsets
    return [out[:, a:z] for a, z in zip(bounds, bounds[1:])]


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


def _fd_coordinates(net):
    """Coordinates to difference, per parameter array: ``0``, ``size // 3``
    and ``size - 1`` of every trunk array, and the same three of every
    head's weight and bias blocks (as if each head were its own array)."""
    params = net.parameters()
    trunk = len(params) - 2
    coords = [
        [np.unravel_index(c, p.shape) for c in (0, p.size // 3, p.size - 1)]
        for p in params[:trunk]
    ]
    rows = params[trunk].shape[0]
    weight, bias = [], []
    bounds = net.head_offsets
    for start, width in zip(bounds, net.head_sizes):
        size = rows * width
        for c in (0, size // 3, size - 1):
            row, column = divmod(c, width)
            weight.append((row, start + column))
        bias += [(start + c,) for c in (0, width // 3, width - 1)]
    return coords + [weight, bias]


def _check_by_finite_differences(net, grads, objective, eps=1e-6):
    """Central differences of ``objective(params)`` over float64 copies of
    ``net``'s float32 parameters, against the float32 ``grads``."""
    params = [p.astype(np.float64) for p in net.parameters()]
    checked = 0
    for param, grad, coords in zip(params, grads, _fd_coordinates(net)):
        assert grad.dtype == np.float32
        for coord in coords:
            original = param[coord]
            param[coord] = original + eps
            plus = objective(params)
            param[coord] = original - eps
            minus = objective(params)
            param[coord] = original
            numeric = (plus - minus) / (2 * eps)
            assert grad[coord] == pytest.approx(numeric, rel=1e-4, abs=1e-8)
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
    bounds = agent.actor.head_offsets
    logp = sum(
        _ref_log_softmax(logits[:, a:b])[np.arange(n), actions[:, h]]
        for h, (a, b) in enumerate(zip(bounds, bounds[1:]))
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

    captured = _capture_grads(agent.optimizer)
    agent._train_step(batch)
    actor_grads = captured[0][: len(agent.actor.parameters())]
    checked = _check_by_finite_differences(
        agent.actor, actor_grads, lambda params: _actor_objective(agent, params, batch, adv)
    )
    # Three coordinates per trunk array and per head's weight and bias.
    assert checked == 3 * (2 * len(agent.actor.hidden_sizes) + 2 * len(agent.head_sizes))


def test_critic_gradient_matches_finite_differences():
    agent = PPOAgent(FEATURE_SIZE, (17, 5, 5, 5), config=HARLConfig.scaled(), seed=4)
    batch = _fd_batch(agent, np.random.default_rng(10))
    captured = _capture_grads(agent.optimizer)
    agent._train_step(batch)
    critic_grads = captured[0][len(agent.actor.parameters()) :]
    checked = _check_by_finite_differences(
        agent.critic, critic_grads, lambda params: _critic_objective(agent, params, batch)
    )
    assert checked == 3 * len(agent.critic.parameters())
