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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import HARLConfig
from repro.core.policy import DTYPE, Adam, MultiHeadMLP, softmax, softmax_and_log_softmax
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
        self.actor = MultiHeadMLP(feature_size, hidden, self.head_sizes, rng=self._rng)
        self.critic = MultiHeadMLP(feature_size, hidden, (1,), rng=self._rng)
        self.actor_opt = Adam(self.actor.parameters(), lr=self.config.actor_lr)
        self.critic_opt = Adam(self.critic.parameters(), lr=self.config.critic_lr)

        self.buffer = ReplayBuffer(
            capacity=self.config.replay_capacity,
            state_size=feature_size,
            num_heads=len(self.head_sizes),
            seed=seed + 1,
        )
        self.updates = 0

    # ------------------------------------------------------------------ #
    # acting
    # ------------------------------------------------------------------ #
    def policy_distributions(self, states: np.ndarray) -> List[np.ndarray]:
        """Per-head action probabilities for a batch of states."""
        logits, _ = self.actor.forward(states)
        return [softmax(l) for l in logits]

    def act(self, states: np.ndarray, greedy: bool = False) -> ActionBatch:
        """Sample one joint action per state (or take the argmax when ``greedy``).

        Each head draws ``u`` uniform in [0, 1) per state and picks the first
        action whose cumulative probability exceeds ``u``.  A row's
        probabilities may sum to just under 1 (nearly half of 485-wide
        float32 rows do, by up to 1e-6), so the last action also takes every
        draw at or above that sum; no other draw changes its action.
        """
        states = np.atleast_2d(np.asarray(states, dtype=DTYPE))
        logits, _ = self.actor.forward(states)
        n = states.shape[0]
        actions = np.zeros((n, len(self.head_sizes)), dtype=np.int64)
        log_probs = np.zeros(n, dtype=DTYPE)
        for h, head_logits in enumerate(logits):
            probs, logp = softmax_and_log_softmax(head_logits)
            if greedy:
                chosen = np.argmax(probs, axis=1)
            else:
                cumulative = np.cumsum(probs, axis=1)
                cumulative[:, -1] = np.inf
                draws = self._rng.random((n, 1))
                chosen = np.argmax(cumulative > draws, axis=1)
            actions[:, h] = chosen
            log_probs += logp[np.arange(n), chosen]
        return ActionBatch(actions=actions, log_probs=log_probs, values=self.value(states))

    def value(self, states: np.ndarray) -> np.ndarray:
        """Critic value estimates ``V(s)`` for a batch of states."""
        states = np.atleast_2d(np.asarray(states, dtype=DTYPE))
        outputs, _ = self.critic.forward(states)
        return outputs[0][:, 0]

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
        for _ in range(self.config.ppo_epochs):
            batch = self.buffer.sample(self.config.minibatch_size)
            step_stats = self._train_step(batch)
            for key in stats:
                stats[key] += step_stats[key] / self.config.ppo_epochs
        self.updates += 1
        return stats

    def _train_step(self, batch: Dict[str, np.ndarray]) -> Dict[str, float]:
        cfg = self.config
        states = batch["states"]
        actions = batch["actions"]
        old_log_probs = batch["old_log_probs"]
        advantages = batch["advantages"]
        td_targets = batch["td_targets"]
        n = states.shape[0]

        # Normalising advantages stabilises the tiny-batch PPO updates.
        adv = advantages
        if n > 1:
            std = np.std(adv)
            if std > 1e-8:
                adv = (adv - np.mean(adv)) / (std + 1e-8)

        # ---------------- actor ---------------- #
        logits, actor_cache = self.actor.forward(states)
        rows = np.arange(n)
        new_log_probs = np.zeros(n, dtype=DTYPE)
        head_dists = []
        for h, head_logits in enumerate(logits):
            probs, logp = softmax_and_log_softmax(head_logits)
            head_dists.append((probs, logp))
            new_log_probs += logp[rows, actions[:, h]]

        ratio = np.exp(np.clip(new_log_probs - old_log_probs, -20.0, 20.0))
        clipped = np.clip(ratio, 1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon)
        surr1 = ratio * adv
        surr2 = clipped * adv
        actor_loss = -float(np.mean(np.minimum(surr1, surr2)))

        # Gradient of the clipped surrogate w.r.t. the joint log-probability:
        # only unclipped samples propagate gradient.
        unclipped_mask = (surr1 <= surr2).astype(DTYPE)
        dloss_dlogp = -(adv * ratio * unclipped_mask) / n

        entropy_total = 0.0
        head_grads = []
        for h, (probs, logp) in enumerate(head_dists):
            onehot = np.zeros_like(probs)
            onehot[rows, actions[:, h]] = 1.0
            grad = dloss_dlogp[:, None] * (onehot - probs)

            entropy = -np.sum(probs * logp, axis=1)
            entropy_total += float(np.mean(entropy))
            # d(-w_ent * H)/dz = w_ent * p * (log p + H)
            grad += cfg.entropy_weight * probs * (logp + entropy[:, None]) / n
            head_grads.append(grad)

        actor_grads = self.actor.backward(actor_cache, head_grads)
        self.actor_opt.step(actor_grads)

        # ---------------- critic ---------------- #
        value_out, critic_cache = self.critic.forward(states)
        values = value_out[0][:, 0]
        value_error = values - td_targets
        critic_loss = float(cfg.mse_weight * np.mean(value_error ** 2))
        grad_value = (2.0 * cfg.mse_weight * value_error / n)[:, None]
        critic_grads = self.critic.backward(critic_cache, [grad_value])
        self.critic_opt.step(critic_grads)

        return {
            "actor_loss": actor_loss,
            "critic_loss": critic_loss,
            "entropy": entropy_total,
        }
