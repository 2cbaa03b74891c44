"""Replay buffer for the PPO agent.

Algorithm 1 records ``(S, M, S', R, Y)`` tuples — state, joint action, next
state, reward and advantage — into a replay buffer ``B``; every ``T_rl`` steps
a mini-batch is sampled from it to train the actor and critic networks.  The
buffer here additionally stores the behaviour policy's log-probability and
the TD target, which the clipped PPO objective and the critic regression need.
Rows are stored in the learner dtype (:data:`repro.core.policy.DTYPE`,
float32); actions are int64.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.policy import DTYPE

__all__ = ["ReplayBuffer"]


class ReplayBuffer:
    """Fixed-capacity FIFO buffer of transitions.

    ``add`` copies a batch of transitions in and overwrites the oldest
    entries once the capacity is reached.  Row storage is allocated as the
    buffer fills (see :meth:`_reserve`), not up front, so an agent that
    stores a few hundred transitions never holds ``capacity`` rows.
    """

    _FIELDS = ("_states", "_actions", "_old_log_probs", "_rewards", "_td_targets", "_advantages")

    def __init__(self, capacity: int, state_size: int, num_heads: int, seed: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.state_size = int(state_size)
        self.num_heads = int(num_heads)
        self._rng = np.random.default_rng(seed)
        self.clear()

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------ #
    def add(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        old_log_probs: np.ndarray,
        rewards: np.ndarray,
        td_targets: np.ndarray,
        advantages: np.ndarray,
    ) -> None:
        """Append a batch of transitions (oldest entries are overwritten)."""
        states = np.atleast_2d(np.asarray(states, dtype=DTYPE))
        actions = np.atleast_2d(np.asarray(actions, dtype=np.int64))
        n = states.shape[0]
        if not (
            actions.shape[0] == n
            and len(old_log_probs) == n
            and len(rewards) == n
            and len(td_targets) == n
            and len(advantages) == n
        ):
            raise ValueError("all transition arrays must have the same leading dimension")
        # Row i lands in slot (next + i) % capacity; when the batch is longer
        # than the buffer only its last ``capacity`` rows survive, and those
        # map to distinct slots, so one index write stores them all.
        keep = min(n, self.capacity)
        self._reserve(min(self._next + n, self.capacity))
        slots = (self._next + np.arange(n - keep, n)) % self.capacity
        self._states[slots] = states[n - keep :]
        self._actions[slots] = actions[n - keep :]
        self._old_log_probs[slots] = np.asarray(old_log_probs)[n - keep :]
        self._rewards[slots] = np.asarray(rewards)[n - keep :]
        self._td_targets[slots] = np.asarray(td_targets)[n - keep :]
        self._advantages[slots] = np.asarray(advantages)[n - keep :]
        self._next = (self._next + n) % self.capacity
        self._size = min(self._size + n, self.capacity)

    def sample(self, batch_size: int) -> Dict[str, np.ndarray]:
        """Sample a mini-batch uniformly at random (without replacement)."""
        if self._size == 0:
            raise RuntimeError("cannot sample from an empty buffer")
        batch_size = min(int(batch_size), self._size)
        idx = self._rng.choice(self._size, size=batch_size, replace=False)
        return {
            "states": self._states[idx],
            "actions": self._actions[idx],
            "old_log_probs": self._old_log_probs[idx],
            "rewards": self._rewards[idx],
            "td_targets": self._td_targets[idx],
            "advantages": self._advantages[idx],
        }

    def clear(self) -> None:
        """Drop every transition and release the row storage."""
        self._states = np.zeros((0, self.state_size), dtype=DTYPE)
        self._actions = np.zeros((0, self.num_heads), dtype=np.int64)
        self._old_log_probs = np.zeros(0, dtype=DTYPE)
        self._rewards = np.zeros(0, dtype=DTYPE)
        self._td_targets = np.zeros(0, dtype=DTYPE)
        self._advantages = np.zeros(0, dtype=DTYPE)
        self._next = 0
        self._size = 0

    def _reserve(self, rows: int) -> None:
        """Grow the storage to hold slots ``0 .. rows - 1``.

        Each growth at least doubles the storage and never passes
        ``capacity``.  So until the buffer wraps it holds at most
        ``min(capacity, 2 * len(self))`` rows, and after that exactly
        ``capacity``.  Rows keep their slots, so contents, cursor and
        :meth:`sample` draws are those of a buffer allocated in full.
        """
        current = self._states.shape[0]
        if rows <= current:
            return
        grown = min(self.capacity, max(rows, 2 * current))
        for name in self._FIELDS:
            old = getattr(self, name)
            new = np.zeros((grown,) + old.shape[1:], dtype=old.dtype)
            new[:current] = old
            setattr(self, name, new)
