"""Subgraph selection: the Eq. 3 reward and the task policies built on it.

The subgraph MAB cannot use raw performance as its reward because every
subgraph has a different latency scale.  HARL instead reuses Ansor's gradient
estimation: the expected benefit of spending the next trials on subgraph ``a``
combines (i) the recent improvement rate of that subgraph and (ii) the
remaining head-room, estimated both from the optimistic ``g_a / t_a`` bound
and from the throughput achieved on *similar* subgraphs.

Two task policies allocate a network's tuning rounds with that reward.  Both
expose ``next_task()``, ``record()``, ``estimated_latency()`` and
``allocations``, and both warm every untuned candidate up once, in network
order, before the reward decides:

* :class:`GradientTaskScheduler` — Ansor's greedy argmax (also the
  "HARL w/o subgraph MAB" ablation of Table 4),
* :class:`SubgraphBandit` — HARL's non-stationary SW-UCB bandit over the
  reward (Eq. 4).

:func:`task_policy` builds either from a config; ``HARLScheduler`` and the
end-to-end :class:`~repro.experiments.network_runner.NetworkTuner` both use
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.bandit import SlidingWindowUCB
from repro.core.config import HARLConfig
from repro.networks.graph import NetworkGraph

__all__ = [
    "GradientTaskScheduler",
    "SubgraphBandit",
    "SubgraphState",
    "normalized_rewards",
    "subgraph_reward",
    "task_policy",
]


@dataclass
class SubgraphState:
    """Tuning progress of one subgraph (task).

    ``latencies`` records the best achieved latency after every tuning round
    allocated to this subgraph; ``weight`` is the number of appearances
    ``w_n`` of the subgraph in the network; ``flops`` is the work of a single
    instance (``B_a`` in Eq. 3).
    """

    name: str
    weight: float
    flops: float
    similarity_group: str = ""
    latencies: List[float] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.latencies)

    @property
    def best_latency(self) -> float:
        return min(self.latencies) if self.latencies else float("inf")

    def record(self, latency: float) -> None:
        best = min(self.best_latency, float(latency))
        self.latencies.append(best)


def subgraph_reward(
    state: SubgraphState,
    all_states: Sequence[SubgraphState],
    alpha: float = 0.2,
    beta: float = 2.0,
    backward_window: int = 3,
) -> float:
    """Expected benefit (seconds of end-to-end latency) of tuning ``state`` next.

    This is the (sign-flipped, i.e. higher-is-better) form of the gradient
    estimation formula of Eq. 3:

    * the **history term** is the recent per-round improvement of the
      subgraph's weighted latency,
    * the **head-room term** is the larger of the optimistic ``g_a / t_a``
      decay bound and the gap to the latency this subgraph would have if it
      reached ``beta`` times the best throughput achieved by similar subgraphs
      (same non-empty ``similarity_group`` — the empty group matches nothing,
      so untagged subgraphs never transfer throughput between each other).

    Untuned subgraphs return ``+inf`` so they are explored first.  A subgraph
    whose every round so far *failed* to produce a measurement (``g_a`` is
    non-finite) returns 0: it already consumed rounds without progress, so it
    must not masquerade as an untuned top-priority task.
    """
    if state.rounds == 0:
        return float("inf")

    g_now = state.latencies[-1]
    if not np.isfinite(g_now):
        return 0.0
    weight = max(state.weight, 1.0)

    # History term: improvement rate over the last `backward_window` rounds.
    dt = min(backward_window, state.rounds - 1)
    if dt > 0:
        g_prev = state.latencies[-1 - dt]
        if np.isfinite(g_prev):
            improvement_rate = max(g_prev - g_now, 0.0) / dt
        else:
            # The window starts before the first successful measurement: the
            # drop from "failed" to g_now is not a meaningful rate, so fall
            # back to the single-round convention below.
            improvement_rate = g_now
    else:
        improvement_rate = g_now  # a single round: everything is head-room

    # Head-room term 1: optimistic decay bound g_a / t_a.
    decay_bound = g_now / max(state.rounds, 1)

    # Head-room term 2: gap to beta x the best similar-subgraph throughput.
    similar = [
        s
        for s in all_states
        if s is not state
        and state.similarity_group
        and s.similarity_group == state.similarity_group
        and s.rounds > 0
        and np.isfinite(s.best_latency)
        and s.best_latency > 0
    ]
    if similar and state.flops > 0:
        best_similar_throughput = max(s.flops / s.best_latency for s in similar)
        if best_similar_throughput > 0:
            predicted_latency = state.flops / (beta * best_similar_throughput)
            similarity_gap = max(g_now - predicted_latency, 0.0)
        else:
            similarity_gap = 0.0
    else:
        similarity_gap = 0.0

    headroom = max(decay_bound, similarity_gap)
    reward = weight * (alpha * improvement_rate + (1.0 - alpha) * headroom)
    return float(reward)


def normalized_rewards(
    states: Sequence[SubgraphState],
    alpha: float = 0.2,
    beta: float = 2.0,
    backward_window: int = 3,
) -> np.ndarray:
    """Rewards of every subgraph, normalised to [0, 1] for MAB consumption.

    ``+inf`` rewards (never-tuned subgraphs) map to 1.0.  Any residual
    non-finite value (NaN from a degenerate caller-provided state) maps to
    0.0 — a dead task must not look like an untuned top-priority one.
    """
    raw = np.array(
        [subgraph_reward(s, states, alpha, beta, backward_window) for s in states],
        dtype=np.float64,
    )
    finite = raw[np.isfinite(raw)]
    scale = float(np.max(finite)) if finite.size else 1.0
    scale = max(scale, 1e-30)
    out = np.where(np.isfinite(raw), raw / scale, np.where(np.isnan(raw), 0.0, 1.0))
    return np.clip(out, 0.0, 1.0)


class GradientTaskScheduler:
    """Deterministic greedy task selector driven by the Eq. 3 gradient reward.

    Ansor allocates the next tuning round to the subgraph whose gradient
    estimation is the largest.  HARL's contribution at this level is
    replacing the greedy argmax with a non-stationary bandit
    (:class:`SubgraphBandit`).
    """

    def __init__(
        self,
        network: NetworkGraph,
        alpha: float = 0.2,
        beta: float = 2.0,
        backward_window: int = 3,
    ):
        self.network = network
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.backward_window = int(backward_window)
        self.states: Dict[str, SubgraphState] = {
            sg.name: SubgraphState(
                name=sg.name,
                weight=sg.weight,
                flops=sg.dag.flops,
                similarity_group=sg.reward_group,
            )
            for sg in network
        }
        self.task_names: List[str] = [sg.name for sg in network]
        self.allocations: Dict[str, int] = {name: 0 for name in self.task_names}

    # ------------------------------------------------------------------ #
    def rewards(self) -> np.ndarray:
        """Current normalised gradient reward of every task."""
        return normalized_rewards(
            [self.states[name] for name in self.task_names],
            alpha=self.alpha,
            beta=self.beta,
            backward_window=self.backward_window,
        )

    def _candidates(self, among: Optional[Sequence[str]]) -> List[str]:
        """Resolve (and validate) the candidate task names of one selection."""
        if among is None:
            return list(self.task_names)
        allowed = set(among)
        candidates = [name for name in self.task_names if name in allowed]
        if not candidates:
            raise ValueError("next_task needs at least one candidate task")
        return candidates

    def next_task(self, among: Optional[Sequence[str]] = None) -> str:
        """The task that receives the next tuning round.

        Every candidate is first warmed up with one round, in network order,
        so every reward estimate is grounded in a measurement; after that
        :meth:`_choose` picks.  ``among`` restricts the choice to a subset of
        task names (used by network drivers to skip tasks whose budget is
        already settled).
        """
        candidates = self._candidates(among)
        for name in candidates:
            if self.states[name].rounds == 0:
                return name
        return self._choose(candidates)

    def _choose(self, candidates: Sequence[str]) -> str:
        """Greedy selection: the tuned candidate with the largest expected benefit."""
        by_name = dict(zip(self.task_names, self.rewards()))
        return max(candidates, key=lambda name: by_name[name])

    def record(self, task_name: str, best_latency: float, trials: int = 0) -> None:
        """Record the outcome of a tuning round on ``task_name``.

        ``best_latency`` is the subgraph's best latency after the round:
        ``+inf`` marks a round whose measurements all failed, but zero,
        negative and NaN latencies are programming errors and raise, as do
        negative ``trials`` (mirroring ``HardwareTarget.__post_init__``).
        """
        if task_name not in self.states:
            raise KeyError(task_name)
        latency = float(best_latency)
        if math.isnan(latency):
            raise ValueError(f"latency for task {task_name!r} must not be NaN")
        if latency <= 0:
            raise ValueError(
                f"latency for task {task_name!r} must be positive, got {latency}"
            )
        trials = int(trials)
        if trials < 0:
            raise ValueError(
                f"trials for task {task_name!r} must be non-negative, got {trials}"
            )
        self.states[task_name].record(latency)
        self.allocations[task_name] += trials

    def estimated_latency(self) -> float:
        """Current end-to-end latency estimate ``sum_n w_n * g_n``."""
        return self.network.estimated_latency(
            {name: state.best_latency for name, state in self.states.items()}
        )


class SubgraphBandit(GradientTaskScheduler):
    """HARL's subgraph-selection policy: SW-UCB over the Eq. 3 reward.

    Shares state, validation and the network-order warm-up with the greedy
    policy but replaces the deterministic argmax with a non-stationary
    sliding-window UCB bandit, so task selection keeps exploring as the
    per-task reward distributions drift during the run (Observation 1 /
    Eq. 4 of the paper).  ``rng`` breaks the bandit's ties.
    """

    def __init__(
        self,
        network: NetworkGraph,
        alpha: float = 0.2,
        beta: float = 2.0,
        backward_window: int = 3,
        exploration: float = 0.25,
        window: int = 256,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(network, alpha=alpha, beta=beta, backward_window=backward_window)
        self.mab = SlidingWindowUCB(
            len(self.task_names), exploration=exploration, window=window, rng=rng
        )
        self._index = {name: i for i, name in enumerate(self.task_names)}

    def _choose(self, candidates: Sequence[str]) -> str:
        return self.task_names[self.mab.select(among=[self._index[n] for n in candidates])]

    def record(self, task_name: str, best_latency: float, trials: int = 0) -> None:
        super().record(task_name, best_latency, trials=trials)
        arm = self._index[task_name]
        self.mab.update(arm, float(self.rewards()[arm]))


def task_policy(
    network: NetworkGraph,
    config: HARLConfig,
    bandit: bool,
    rng: Optional[np.random.Generator] = None,
) -> GradientTaskScheduler:
    """The task policy of ``network`` under ``config``'s reward and bandit settings.

    ``bandit`` selects HARL's :class:`SubgraphBandit` (its ties broken by
    ``rng``) over Ansor's greedy :class:`GradientTaskScheduler`.
    """
    reward = {"alpha": config.alpha, "beta": config.beta,
              "backward_window": config.backward_window}
    if not bandit:
        return GradientTaskScheduler(network, **reward)
    return SubgraphBandit(
        network, exploration=config.ucb_constant, window=config.ucb_window, rng=rng, **reward
    )
