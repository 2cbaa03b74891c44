"""PPO actor-critic agent for schedule modifications.

The agent follows the actor-critic formulation of Section 4.3: the actor maps
a schedule's feature vector to one categorical distribution per modification
sub-space (tiling pair, compute-at delta, parallel delta, unroll delta); the
critic estimates the state value; the advantage is the one-step temporal
difference of Eq. 6; and training uses the clipped PPO surrogate with an
entropy bonus and an MSE value loss (weights from Table 5).

The agent's public methods cast their inputs to the learner dtype
(:data:`repro.core.policy.DTYPE`, float32) on entry, so its networks, its
outputs and its replay rows are all in that dtype.

The learner is fused to keep NumPy calls few.  The actor (trunk plus every
head as one weight matrix and one bias) and the critic live back to back in
one parameter buffer under one :class:`~repro.core.policy.Adam`, which keeps
each network's own learning rate and gradient-norm clip.  Heads of equal
width are handled as one *run*: the three 3-wide delta heads are one
``(n, 3, 3)`` block, so a train step makes one softmax and one
surrogate-plus-entropy gradient per run, one backward into one transient
gradient buffer and one optimiser pass, and :meth:`PPOAgent.act` draws every
head's uniforms in one ``random((num_heads, n))`` call (the same generator
values as one ``(n, 1)`` draw per head, in head order).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import HARLConfig
from repro.core.policy import (
    DTYPE,
    Adam,
    MultiHeadMLP,
    ParameterViews,
    softmax_and_log_softmax,
)
from repro.core.rollout import ReplayBuffer

__all__ = ["PPOAgent", "ActionBatch"]


@dataclass
class ActionBatch:
    """Result of one policy query on a batch of states."""

    actions: np.ndarray       #: (N, num_heads) int indices
    log_probs: np.ndarray     #: (N,) DTYPE joint log-probability under the behaviour policy
    values: np.ndarray        #: (N,) DTYPE critic value estimates


class PPOAgent:
    """Actor-critic agent with a PPO update rule.

    One agent is instantiated per (workload, sketch) pair because the size of
    the tiling action head depends on the sketch's number of tile slots.
    """

    def __init__(
        self,
        feature_size: int,
        head_sizes: Sequence[int],
        config: Optional[HARLConfig] = None,
        seed: int = 0,
    ):
        self.config = config or HARLConfig()
        self.feature_size = int(feature_size)
        self.head_sizes = tuple(int(h) for h in head_sizes)
        self._rng = np.random.default_rng(seed)

        hidden = (self.config.hidden_size, self.config.hidden_size)
        actor_shapes = MultiHeadMLP.layout(self.feature_size, hidden, self.head_sizes)
        critic_shapes = MultiHeadMLP.layout(self.feature_size, hidden, (1,))
        self._shapes = actor_shapes + critic_shapes
        size = sum(math.prod(shape) for shape in self._shapes)
        self._params = ParameterViews(np.zeros(size, dtype=DTYPE), self._shapes)
        buffer = self._params.buffer
        self.actor = MultiHeadMLP(
            self.feature_size, hidden, self.head_sizes, rng=self._rng, buffer=buffer
        )
        self.critic = MultiHeadMLP(
            self.feature_size, hidden, (1,), rng=self._rng, buffer=buffer, offset=self.actor.size
        )
        self.optimizer = Adam(
            self._params,
            lr=(self.config.actor_lr, self.config.critic_lr),
            groups=(len(actor_shapes), len(critic_shapes)),
        )
        #: ``(first head, heads, first column, width)`` of every run of
        #: consecutive equal-width heads.
        self._runs: List[Tuple[int, int, int, int]] = []
        head = 0
        for width, run in itertools.groupby(self.head_sizes):
            count = len(list(run))
            self._runs.append((head, count, self.actor.head_offsets[head], width))
            head += count
        self._head_starts = np.asarray(self.actor.head_offsets[:-1], dtype=np.intp)

        self.buffer = ReplayBuffer(
            capacity=self.config.replay_capacity,
            state_size=feature_size,
            num_heads=len(self.head_sizes),
            seed=seed + 1,
        )
        self.updates = 0

    def parameters(self) -> ParameterViews:
        """Actor then critic parameter arrays (see :meth:`MultiHeadMLP.parameters`),
        views into the agent's one buffer."""
        return self._params

    # ------------------------------------------------------------------ #
    # policy evaluation
    # ------------------------------------------------------------------ #
    def _distributions(
        self, logits: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
        """Every head's softmax and log-softmax of the actor's ``logits``.

        ``logits`` (``(n, sum(head_sizes))``, consumed: it becomes the
        log-probabilities) goes through one max-shift/exp/sum pass per run.
        Returns ``(probs, log_probs, runs)``: two arrays shaped like
        ``logits`` and, per run, ``(n, heads, width)`` views of them.
        """
        n = len(logits)
        probs = np.empty_like(logits)
        runs = []
        for _, count, start, width in self._runs:
            block = np.s_[:, start : start + count * width]
            runs.append(
                softmax_and_log_softmax(
                    logits[block].reshape(n, count, width), out=probs[block].reshape(n, count, width)
                )
            )
        return probs, logits, runs

    def _taken(self, actions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Index of every row's action of every head into an ``(n,
        sum(head_sizes))`` array; indexing with it gives ``(num_heads, n)``."""
        return np.arange(len(actions)), self._head_starts[:, None] + actions.T

    @staticmethod
    def _joint(log_probs: np.ndarray, taken: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Joint log-probability of the ``taken`` actions, summed in head order."""
        return np.add.reduce(log_probs[taken], axis=0)

    # ------------------------------------------------------------------ #
    # acting
    # ------------------------------------------------------------------ #
    def policy_distributions(self, states: np.ndarray) -> List[np.ndarray]:
        """Per-head action probabilities for a batch of states."""
        probs, _, _ = self._distributions(self.actor.forward(states)[0])
        bounds = self.actor.head_offsets
        return [probs[:, a:b] for a, b in zip(bounds, bounds[1:])]

    def act(self, states: np.ndarray, greedy: bool = False) -> ActionBatch:
        """Sample one joint action per state (or take the argmax when ``greedy``).

        Each head draws ``u`` uniform in [0, 1) per state and picks the first
        action whose cumulative probability exceeds ``u``.  A row's
        probabilities may sum to just under 1 (nearly half of 485-wide
        float32 rows do, by up to 1e-6), so the last action also takes every
        draw at or above that sum; no other draw changes its action.
        """
        states = np.asarray(states, dtype=DTYPE)  # cast once for both networks
        logits, _ = self.actor.forward(states)
        n = len(logits)
        _, log_probs, runs = self._distributions(logits)
        actions = np.empty((n, len(self.head_sizes)), dtype=np.int64)
        if not greedy:
            draws = self._rng.random((len(self.head_sizes), n))
        for (first, count, _, _), (probs, _) in zip(self._runs, runs):
            if greedy:
                chosen = probs.argmax(axis=2)
            else:
                cumulative = probs.cumsum(axis=2)
                cumulative[:, :, -1] = np.inf
                chosen = (cumulative > draws[first : first + count].T[:, :, None]).argmax(axis=2)
            actions[:, first : first + count] = chosen
        return ActionBatch(
            actions=actions,
            log_probs=self._joint(log_probs, self._taken(actions)),
            values=self.critic.forward(states)[0][:, 0],
        )

    def value(self, states: np.ndarray) -> np.ndarray:
        """Critic value estimates ``V(s)`` for a batch of states."""
        return self.critic.forward(states)[0][:, 0]

    # ------------------------------------------------------------------ #
    # experience
    # ------------------------------------------------------------------ #
    def compute_advantage(
        self, rewards: np.ndarray, values: np.ndarray, next_values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One-step TD targets and advantages (Eq. 6)."""
        rewards = np.asarray(rewards, dtype=DTYPE)
        td_targets = rewards + self.config.discount * np.asarray(next_values, dtype=DTYPE)
        advantages = td_targets - np.asarray(values, dtype=DTYPE)
        return td_targets, advantages

    def store(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        log_probs: np.ndarray,
        rewards: np.ndarray,
        td_targets: np.ndarray,
        advantages: np.ndarray,
    ) -> None:
        self.buffer.add(states, actions, log_probs, rewards, td_targets, advantages)

    # ------------------------------------------------------------------ #
    # learning
    # ------------------------------------------------------------------ #
    def update(self) -> Dict[str, float]:
        """Run ``ppo_epochs`` mini-batch gradient steps on the replay buffer."""
        if len(self.buffer) == 0:
            return {"actor_loss": 0.0, "critic_loss": 0.0, "entropy": 0.0}
        stats = {"actor_loss": 0.0, "critic_loss": 0.0, "entropy": 0.0}
        # One gradient buffer for every step: each backward rewrites all of it.
        grads = ParameterViews(np.empty_like(self._params.buffer), self._shapes)
        for _ in range(self.config.ppo_epochs):
            batch = self.buffer.sample(self.config.minibatch_size)
            step_stats = self._train_step(batch, grads)
            for key in stats:
                stats[key] += step_stats[key] / self.config.ppo_epochs
        self.updates += 1
        return stats

    def _train_step(
        self, batch: Dict[str, np.ndarray], grads: Optional[ParameterViews] = None
    ) -> Dict[str, float]:
        """One gradient step on ``batch``, back-propagated into ``grads`` (a
        fresh buffer by default), which the optimiser consumes."""
        cfg = self.config
        states = batch["states"]
        actions = batch["actions"]
        td_targets = batch["td_targets"]
        n = states.shape[0]

        # Normalising advantages stabilises the tiny-batch PPO updates
        # (``(adv - mean) / (std + 1e-8)``, the float32 ops of ``np.std``).
        adv = batch["advantages"]
        if n > 1:
            mean = np.add.reduce(adv) / n
            deviation = adv - mean
            std = np.sqrt(np.add.reduce(deviation * deviation) / n)
            if std > 1e-8:
                adv = deviation / (std + 1e-8)

        logits, actor_acts = self.actor.forward(states)
        values, critic_acts = self.critic.forward(states)

        # ---------------- actor: clipped surrogate + entropy ---------------- #
        probs, log_probs, runs = self._distributions(logits)
        taken = self._taken(actions)
        log_ratio = self._joint(log_probs, taken) - batch["old_log_probs"]
        ratio = np.exp(np.minimum(np.maximum(log_ratio, -20.0), 20.0))
        clipped = np.minimum(np.maximum(ratio, 1.0 - cfg.clip_epsilon), 1.0 + cfg.clip_epsilon)
        surr1 = ratio * adv
        surr2 = clipped * adv
        actor_loss = -float(np.add.reduce(np.minimum(surr1, surr2)) / n)

        # Gradient of the clipped surrogate w.r.t. the joint log-probability:
        # only unclipped samples propagate gradient.  Each head's logits get
        # dloss_dlogp * (onehot - probs): dloss_dlogp * -probs off the taken
        # action (the same float32 value) and dloss_dlogp * (1 - probs) on it.
        unclipped_mask = (surr1 <= surr2).astype(DTYPE)
        dloss_dlogp = -(adv * ratio * unclipped_mask) / n
        grad_logits = probs * -dloss_dlogp[:, None]
        grad_logits[taken] = dloss_dlogp * (1.0 - probs[taken])

        entropy_total = 0.0
        for (_, count, start, width), (run_probs, run_logp) in zip(self._runs, runs):
            entropy = -np.add.reduce(run_probs * run_logp, axis=2)
            entropy_total += float(np.add.reduce(entropy, axis=None)) / n
            # d(-w_ent * H)/dz = w_ent * p * (log p + H)
            grad = grad_logits[:, start : start + count * width].reshape(n, count, width)
            grad += cfg.entropy_weight * run_probs * (run_logp + entropy[:, :, None]) / n

        # ---------------- critic: MSE to the TD targets ---------------- #
        value_error = values[:, 0] - td_targets
        critic_loss = float(cfg.mse_weight * (np.add.reduce(value_error ** 2) / n))
        grad_value = (2.0 * cfg.mse_weight * value_error / n)[:, None]

        if grads is None:
            grads = ParameterViews(np.empty_like(self._params.buffer), self._shapes)
        split = len(self.actor.shapes)
        self.actor.backward(actor_acts, grad_logits, grads[:split])
        self.critic.backward(critic_acts, grad_value, grads[split:])
        self.optimizer.step(grads)

        return {
            "actor_loss": actor_loss,
            "critic_loss": critic_loss,
            "entropy": entropy_total,
        }
