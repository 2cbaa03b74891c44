"""The HARL auto-scheduler.

:class:`HARLScheduler` supplies the three hierarchical decision levels to the
shared :class:`~repro.core.tuner.TuningDriver`:

* **subgraph selection** — a non-stationary SW-UCB bandit fed by the Ansor
  gradient-estimation reward (only used for end-to-end network tuning),
* **sketch selection** — a SW-UCB bandit per subgraph whose reward is the
  normalised best performance achieved by episodes run under each sketch,
* **parameter search** — a PPO agent per (subgraph, sketch) driving
  Algorithm 1 episodes with adaptive stopping.

Ablation switches (``adaptive_stopping``, ``use_subgraph_mab``) reproduce
the "Hierarchical-RL" and "HARL w/o subgraph MAB" variants of the evaluation
section.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.actor_critic import PPOAgent
from repro.core.adaptive_stopping import AdaptiveStopper, FixedLengthStopper
from repro.core.bandit import SlidingWindowUCB
from repro.core.config import HARLConfig
from repro.core.parameter_search import ParameterSearcher
from repro.core.subgraph_reward import GradientTaskScheduler, task_policy
from repro.core.tuner import TuningDriver, WorkloadState
from repro.hardware.measurer import Measurer
from repro.hardware.target import HardwareTarget
from repro.networks.graph import NetworkGraph
from repro.tensor.actions import ActionSpace
from repro.tensor.dag import ComputeDAG
from repro.tensor.features import FEATURE_SIZE

__all__ = ["HARLScheduler"]


class _TaskContext(WorkloadState):
    """Per-subgraph HARL state: the sketch bandit and one searcher per sketch."""

    def __init__(self, dag: ComputeDAG, scheduler: "HARLScheduler"):
        super().__init__(dag, scheduler.target)
        cfg = scheduler.config
        self.sketch_mab = SlidingWindowUCB(
            len(self.sketches),
            exploration=cfg.ucb_constant,
            window=cfg.ucb_window,
            rng=scheduler._rng,
        )
        self.searchers: Dict[int, ParameterSearcher] = {}
        self.critical_positions: List[float] = []
        self.track_lengths: List[int] = []


class HARLScheduler(TuningDriver):
    """Hierarchical Adaptive RL auto-scheduler (the paper's contribution).

    Parameters
    ----------
    target:
        Simulated hardware target (defaults to the CPU preset).
    config:
        Hyper-parameters; defaults to the paper's Table 5 values.
    adaptive_stopping:
        Disable to obtain the fixed-length "Hierarchical-RL" ablation.
    use_subgraph_mab:
        Disable to fall back to greedy gradient-based task selection for
        end-to-end networks ("HARL w/o subgraph MAB" in Table 4).
    measurer:
        Measurement backend; defaults to a
        :class:`~repro.hardware.measurer.Measurer` with the config's
        ``min_repeat_seconds`` and this scheduler's seed.
    record_store, warm_start_provider:
        See :class:`~repro.core.tuner.TuningDriver`.  A resumed workload's
        4 best recorded schedules seed its episode warm starts.

    :func:`repro.baselines.make_scheduler` builds HARL and both ablations by
    name (``harl``, ``hierarchical-rl``, ``harl-no-subgraph-mab``).
    """

    name = "harl"
    replay_seeds = 4

    def __init__(
        self,
        target: Optional[HardwareTarget] = None,
        config: Optional[HARLConfig] = None,
        seed: int = 0,
        adaptive_stopping: bool = True,
        use_subgraph_mab: bool = True,
        measurer: Optional[Measurer] = None,
        record_store=None,
        warm_start_provider=None,
    ):
        self.config = config or HARLConfig()
        super().__init__(
            target,
            seed=seed,
            measurer=measurer,
            record_store=record_store,
            warm_start_provider=warm_start_provider,
            min_repeat_seconds=self.config.min_repeat_seconds,
        )
        self.adaptive_stopping = bool(adaptive_stopping)
        self.use_subgraph_mab = bool(use_subgraph_mab)
        if not adaptive_stopping:
            self.name = "hierarchical-rl"

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _new_state(self, dag: ComputeDAG) -> _TaskContext:
        return _TaskContext(dag, self)

    def _make_stopper(self):
        if self.adaptive_stopping:
            return AdaptiveStopper(
                window_size=self.config.window_size,
                elimination_ratio=self.config.elimination_ratio,
                min_tracks=self.config.min_tracks,
            )
        return FixedLengthStopper(episode_length=self.config.episode_length)

    def _searcher(self, ctx: _TaskContext, sketch_index: int) -> ParameterSearcher:
        searcher = ctx.searchers.get(sketch_index)
        if searcher is None:
            sketch = ctx.sketches[sketch_index]
            agent = PPOAgent(
                feature_size=FEATURE_SIZE,
                head_sizes=ActionSpace(sketch).head_sizes,
                config=self.config,
                seed=self.seed + 97 * sketch_index + len(ctx.dag.name),
            )
            searcher = ParameterSearcher(
                sketch=sketch,
                agent=agent,
                cost_model=self.cost_model,
                measurer=self.measurer,
                config=self.config,
                stopper=self._make_stopper(),
                rng=np.random.default_rng(self.seed + 31 * sketch_index + 7),
            )
            ctx.searchers[sketch_index] = searcher
        return searcher

    # ------------------------------------------------------------------ #
    # the decision levels
    # ------------------------------------------------------------------ #
    def _search_round(self, ctx: _TaskContext, max_measures: Optional[int]) -> int:
        """Pick a sketch with its bandit, run one parameter-search episode."""
        sketch_index = ctx.sketch_mab.select()
        searcher = self._searcher(ctx, sketch_index)
        warm_start = ctx.best_schedules[-4:] if ctx.best_schedules else None
        episode = searcher.run_episode(warm_start=warm_start, max_measures=max_measures)
        ctx.critical_positions.extend(episode.critical_positions)
        ctx.track_lengths.extend(episode.track_lengths)

        best_overall = self.cost_model.best_throughput(ctx.dag.name)
        if episode.best_throughput > 0 and best_overall > 0:
            reward = float(np.clip(episode.best_throughput / best_overall, 0.0, 1.0))
        else:
            reward = 0.0
        ctx.sketch_mab.update(sketch_index, reward)
        self._keep_best(ctx, episode.measured)
        return episode.num_visited

    def _extras(self, ctx: _TaskContext) -> Dict[str, object]:
        return {
            "episodes": ctx.rounds,
            "warm_start_trials": ctx.warm_start_trials,
            "critical_positions": list(ctx.critical_positions),
            "track_lengths": list(ctx.track_lengths),
            "sketch_plays": ctx.sketch_mab.total_plays().tolist(),
            "sketch_keys": [s.key for s in ctx.sketches],
        }

    def _task_policy(self, network: NetworkGraph) -> GradientTaskScheduler:
        # Ties break on the scheduler's own stream, shared with the sketch bandits.
        return task_policy(network, self.config, self.use_subgraph_mab, rng=self._rng)

    def _network_extras(self, policy: GradientTaskScheduler) -> Dict[str, object]:
        return {
            # Rounds per task, in either mode.
            "subgraph_plays": [policy.states[name].rounds for name in policy.task_names],
            "task_names": list(policy.task_names),
            "use_subgraph_mab": self.use_subgraph_mab,
        }
