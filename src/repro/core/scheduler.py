"""The HARL auto-scheduler.

:class:`HARLScheduler` ties the three hierarchical decision levels together:

* **subgraph selection** — a non-stationary SW-UCB bandit fed by the Ansor
  gradient-estimation reward (only used for end-to-end network tuning),
* **sketch selection** — a SW-UCB bandit per subgraph whose reward is the
  normalised best performance achieved by episodes run under each sketch,
* **parameter search** — a PPO agent per (subgraph, sketch) driving
  Algorithm 1 episodes with adaptive stopping.

Ablation switches (``adaptive_stopping``, ``use_sketch_mab``,
``use_subgraph_mab``) reproduce the "Hierarchical-RL" and "HARL w/o subgraph
MAB" variants of the evaluation section.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.caching import cached_sketches_for_target
from repro.core.actor_critic import PPOAgent
from repro.core.adaptive_stopping import AdaptiveStopper, FixedLengthStopper
from repro.core.bandit import SlidingWindowUCB
from repro.core.config import HARLConfig
from repro.core.parameter_search import EpisodeResult, ParameterSearcher
from repro.core.subgraph_reward import SubgraphState, normalized_rewards
from repro.core.tuner import NetworkTuningResult, TuningResult
from repro.costmodel.model import ScheduleCostModel
from repro.hardware.measurer import Measurer
from repro.hardware.target import HardwareTarget, cpu_target
from repro.networks.graph import NetworkGraph
from repro.tensor.actions import ActionSpace
from repro.tensor.dag import ComputeDAG
from repro.tensor.features import FEATURE_SIZE
from repro.tensor.schedule import Schedule
from repro.tensor.sketch import Sketch

__all__ = ["HARLScheduler"]


class _TaskContext:
    """Per-subgraph tuning state: sketches, sketch bandit, agents, searchers."""

    def __init__(self, dag: ComputeDAG, scheduler: "HARLScheduler"):
        self.dag = dag
        # Sketch families are memoised per (workload, target depths): repeat
        # jobs for one workload — service resubmissions, network sweeps —
        # share one generation instead of regenerating per task context.
        self.sketches: List[Sketch] = cached_sketches_for_target(dag, scheduler.target)
        cfg = scheduler.config
        self.sketch_mab = SlidingWindowUCB(
            len(self.sketches),
            exploration=cfg.ucb_constant,
            window=cfg.ucb_window,
            rng=scheduler._rng,
        )
        self.agents: Dict[int, PPOAgent] = {}
        self.searchers: Dict[int, ParameterSearcher] = {}
        self.best_schedules: List[Schedule] = []
        #: Transferred schedules (from a registry / warm-start provider) that
        #: should be measured directly before regular search rounds begin.
        self.pending_warm_start: List[Schedule] = []
        #: Trials spent measuring transferred schedules (for provenance /
        #: sample-efficiency reporting: these trials bought donor knowledge,
        #: not fresh search).
        self.warm_start_trials = 0
        self.critical_positions: List[float] = []
        self.track_lengths: List[int] = []
        self.episodes = 0
        self.search_steps = 0


class HARLScheduler:
    """Hierarchical Adaptive RL auto-scheduler (the paper's contribution).

    Parameters
    ----------
    target:
        Simulated hardware target (defaults to the CPU preset).
    config:
        Hyper-parameters; defaults to the paper's Table 5 values.
    adaptive_stopping:
        Disable to obtain the fixed-length "Hierarchical-RL" ablation.
    use_sketch_mab:
        Disable to select sketches uniformly at random (Ansor-style).
    use_subgraph_mab:
        Disable to fall back to greedy gradient-based task selection for
        end-to-end networks ("HARL w/o subgraph MAB" in Table 4).
    measurer:
        Measurement backend; defaults to a
        :class:`~repro.hardware.measurer.Measurer` with the config's
        ``min_repeat_seconds`` and this scheduler's seed.
    record_store:
        Optional :class:`~repro.records.RecordStore`.  When given, every
        measurement is streamed to the store's JSONL log as it happens and
        each final tuning result is appended on completion, so the run is
        resumable via :meth:`resume_from`.
    warm_start_provider:
        Optional callable ``provider(dag) -> Sequence[Schedule]`` consulted
        the first time each workload is tuned (e.g.
        :meth:`~repro.serving.registry.ScheduleRegistry.warm_start_schedules`).
        The returned schedules are measured directly before regular search
        rounds start, which both seeds the episode warm starts and teaches
        the cost model the transferred knowledge.
    """

    name = "harl"

    def __init__(
        self,
        target: Optional[HardwareTarget] = None,
        config: Optional[HARLConfig] = None,
        seed: int = 0,
        adaptive_stopping: bool = True,
        use_sketch_mab: bool = True,
        use_subgraph_mab: bool = True,
        cost_model: Optional[ScheduleCostModel] = None,
        measurer: Optional[Measurer] = None,
        record_store=None,
        warm_start_provider=None,
    ):
        self.target = target or cpu_target()
        self.config = config or HARLConfig()
        self.seed = int(seed)
        self.adaptive_stopping = bool(adaptive_stopping)
        self.use_sketch_mab = bool(use_sketch_mab)
        self.use_subgraph_mab = bool(use_subgraph_mab)
        self._rng = np.random.default_rng(seed)
        self.measurer = measurer or Measurer(
            self.target, min_repeat_seconds=self.config.min_repeat_seconds, seed=seed
        )
        self.cost_model = cost_model or ScheduleCostModel(seed=seed)
        self.record_store = record_store
        if record_store is not None and self.measurer.record_store is None:
            self.measurer.record_store = record_store
        self.warm_start_provider = warm_start_provider
        self._resume_store = None
        self._tasks: Dict[str, _TaskContext] = {}

        if not adaptive_stopping:
            self.name = "hierarchical-rl"

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def resume_from(self, store) -> "HARLScheduler":
        """Resume tuning from a previously persisted record store.

        The store's measurements are replayed lazily, per workload, the first
        time each workload is tuned: the cost model is warm-started with the
        recorded (schedule, throughput) pairs, the measurer's best-known
        statistics are preloaded, and the best recorded schedules seed the
        episode warm starts.  Returns ``self`` for chaining.
        """
        self._resume_store = store
        # Contexts built before the call would miss the replay.
        self._tasks.clear()
        return self

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _task(self, dag: ComputeDAG) -> _TaskContext:
        ctx = self._tasks.get(dag.name)
        if ctx is None:
            ctx = _TaskContext(dag, self)
            self._tasks[dag.name] = ctx
            if self._resume_store is not None:
                restored = self._resume_store.replay(
                    dag, cost_model=self.cost_model, measurer=self.measurer
                )
                # Best recorded schedules become episode warm starts.
                ctx.best_schedules = list(reversed(restored[:4]))
            if self.warm_start_provider is not None:
                ctx.pending_warm_start = list(self.warm_start_provider(dag) or [])
        return ctx

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
            ctx.agents[sketch_index] = agent
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
    # single-operator tuning
    # ------------------------------------------------------------------ #
    def tune(self, dag: ComputeDAG, n_trials: int) -> TuningResult:
        """Tune one operator / subgraph within a budget of measurement trials."""
        if n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        ctx = self._task(dag)
        start_trials = self.measurer.trials(dag.name)

        while self.measurer.trials(dag.name) - start_trials < n_trials:
            remaining = n_trials - (self.measurer.trials(dag.name) - start_trials)
            self._run_round(ctx, max_measures=remaining)

        result = self._build_result(ctx)
        self._persist_result(result)
        return result

    def tune_round(self, dag: ComputeDAG, max_measures: Optional[int] = None) -> int:
        """Run one incremental tuning round; returns trials consumed.

        This is the unit of work the multi-tenant
        :class:`~repro.serving.service.TuningService` interleaves across
        jobs: one sketch-bandit choice plus one parameter-search episode
        (or a warm-start measurement batch), bounded by ``max_measures``.
        Call :meth:`finalize` once the caller's budget is exhausted.
        """
        if max_measures is not None and max_measures <= 0:
            return 0
        ctx = self._task(dag)
        before = self.measurer.trials(dag.name)
        self._run_round(ctx, max_measures=max_measures)
        return self.measurer.trials(dag.name) - before

    def finalize(self, dag: ComputeDAG) -> TuningResult:
        """Build (and persist) the current tuning result of one workload."""
        result = self._build_result(self._task(dag))
        self._persist_result(result)
        return result

    def _persist_result(self, result: TuningResult) -> None:
        """Append a final tuning result to the record store, if one is attached."""
        if self.record_store is not None:
            self.record_store.append_result(result)

    def _consume_warm_start(
        self, ctx: _TaskContext, max_measures: Optional[int] = None
    ) -> EpisodeResult:
        """Measure pending transferred schedules as one direct batch.

        Transferred (registry) schedules skip the search entirely: they are
        measured immediately, their outcomes train the cost model, and the
        best of them seeds the episode warm starts — so a warm-started run
        reaches its donor's quality within the first few trials.
        """
        budget = len(ctx.pending_warm_start)
        if max_measures is not None:
            budget = min(budget, max_measures)
        batch = ctx.pending_warm_start[:budget]
        ctx.pending_warm_start = ctx.pending_warm_start[budget:]
        results = self.measurer.measure(batch)
        ctx.warm_start_trials += len(results)
        self.cost_model.update(
            [r.schedule for r in results], [r.throughput for r in results]
        )
        if results:
            best = min(results, key=lambda r: r.latency)
            ctx.best_schedules.append(best.schedule)
            ctx.best_schedules = ctx.best_schedules[-8:]
        latencies = [r.latency for r in results]
        return EpisodeResult(
            measured=results,
            best_latency=float(min(latencies)) if latencies else float("inf"),
            best_throughput=float(max(r.throughput for r in results)) if results else 0.0,
            num_steps=0,
            num_visited=len(results),
            track_lengths=[],
            critical_positions=[],
        )

    def _run_round(self, ctx: _TaskContext, max_measures: Optional[int] = None) -> EpisodeResult:
        """One tuning round: pick a sketch, run one parameter-search episode."""
        if ctx.pending_warm_start:
            return self._consume_warm_start(ctx, max_measures)
        if self.use_sketch_mab:
            sketch_index = ctx.sketch_mab.select()
        else:
            sketch_index = int(self._rng.integers(0, len(ctx.sketches)))

        searcher = self._searcher(ctx, sketch_index)
        warm_start = ctx.best_schedules[-4:] if ctx.best_schedules else None
        episode = searcher.run_episode(warm_start=warm_start, max_measures=max_measures)

        ctx.episodes += 1
        ctx.search_steps += episode.num_visited
        ctx.critical_positions.extend(episode.critical_positions)
        ctx.track_lengths.extend(episode.track_lengths)

        best_overall = self.cost_model.best_throughput(ctx.dag.name)
        if episode.best_throughput > 0 and best_overall > 0:
            reward = float(np.clip(episode.best_throughput / best_overall, 0.0, 1.0))
        else:
            reward = 0.0
        ctx.sketch_mab.update(sketch_index, reward)

        if episode.measured:
            best = min(episode.measured, key=lambda r: r.latency)
            ctx.best_schedules.append(best.schedule)
            ctx.best_schedules = ctx.best_schedules[-8:]
        return episode

    def _build_result(self, ctx: _TaskContext) -> TuningResult:
        name = ctx.dag.name
        best_latency = self.measurer.best_latency(name)
        best_schedule = self.measurer.best_schedule(name)
        return TuningResult(
            workload=name,
            scheduler=self.name,
            best_latency=best_latency,
            best_throughput=ctx.dag.flops / best_latency if np.isfinite(best_latency) else 0.0,
            best_schedule=best_schedule,
            trials_used=self.measurer.trials(name),
            search_steps=ctx.search_steps,
            history=self.measurer.history(name),
            extras={
                "episodes": ctx.episodes,
                "warm_start_trials": ctx.warm_start_trials,
                "critical_positions": list(ctx.critical_positions),
                "track_lengths": list(ctx.track_lengths),
                "sketch_plays": ctx.sketch_mab.total_plays().tolist(),
                "sketch_keys": [s.key for s in ctx.sketches],
            },
        )

    # ------------------------------------------------------------------ #
    # end-to-end network tuning
    # ------------------------------------------------------------------ #
    def tune_network(self, network: NetworkGraph, n_trials: int) -> NetworkTuningResult:
        """Tune all subgraphs of a network within a total measurement budget."""
        if n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        cfg = self.config
        contexts = {sg.name: self._task(sg.dag) for sg in network}
        states = {
            sg.name: SubgraphState(
                name=sg.name,
                weight=sg.weight,
                flops=sg.dag.flops,
                similarity_group=sg.reward_group,
            )
            for sg in network
        }
        subgraph_mab = SlidingWindowUCB(
            len(network.subgraphs),
            exploration=cfg.ucb_constant,
            window=cfg.ucb_window,
            rng=self._rng,
        )
        task_names = [sg.name for sg in network]
        allocations = {name: 0 for name in task_names}
        latency_history: List[Tuple[int, float]] = []
        start_trials = self.measurer.total_trials

        while self.measurer.total_trials - start_trials < n_trials:
            remaining = n_trials - (self.measurer.total_trials - start_trials)
            if self.use_subgraph_mab:
                task_index = subgraph_mab.select()
            else:
                task_index = self._greedy_task_index(states, task_names)
            task_name = task_names[task_index]
            sg = network.subgraph(task_name)
            ctx = contexts[task_name]

            trials_before = self.measurer.trials(sg.dag.name)
            self._run_round(ctx, max_measures=remaining)
            allocations[task_name] += self.measurer.trials(sg.dag.name) - trials_before

            states[task_name].record(self.measurer.best_latency(sg.dag.name))
            rewards = normalized_rewards(
                [states[n] for n in task_names],
                alpha=cfg.alpha,
                beta=cfg.beta,
                backward_window=cfg.backward_window,
            )
            subgraph_mab.update(task_index, float(rewards[task_index]))

            current = network.estimated_latency(
                {n: states[n].best_latency for n in task_names}
            )
            latency_history.append((self.measurer.total_trials - start_trials, current))

        task_results = {name: self._build_result(contexts[name]) for name in task_names}
        for task_result in task_results.values():
            self._persist_result(task_result)
        return NetworkTuningResult(
            network=network.name,
            scheduler=self.name,
            task_results=task_results,
            task_weights=network.weights(),
            latency_history=latency_history,
            allocations=allocations,
            extras={
                "subgraph_plays": subgraph_mab.total_plays().tolist(),
                "task_names": task_names,
                "use_subgraph_mab": self.use_subgraph_mab,
            },
        )

    def _greedy_task_index(self, states: Dict[str, SubgraphState], task_names: List[str]) -> int:
        """Greedy (Ansor-style) task selection: always the highest-reward task.

        Tasks that were never tuned are warmed up first (a round-robin pass),
        which is how Ansor's task scheduler bootstraps its gradient estimates.
        """
        for index, name in enumerate(task_names):
            if states[name].rounds == 0:
                return index
        rewards = normalized_rewards(
            [states[n] for n in task_names],
            alpha=self.config.alpha,
            beta=self.config.beta,
            backward_window=self.config.backward_window,
        )
        return int(np.argmax(rewards))
