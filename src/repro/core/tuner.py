"""The tuning driver shared by HARL and the baselines, and its results.

Per Table 1 of the paper, HARL and its baselines differ only in how each
level of the search hierarchy decides: subgraph selection (SW-UCB bandit or
greedy Eq. 3 argmax), sketch selection and schedule search.
:class:`TuningDriver` owns everything else, once for all four schedulers:

* the cost model, the default measurer and the record-store hookup,
* ``resume_from`` and the lazy per-workload replay of a record store,
* the warm-start queue and its one direct measurement batch,
* the budget loop of :meth:`~TuningDriver.tune`, the incremental
  :meth:`~TuningDriver.tune_round` / :meth:`~TuningDriver.finalize` pair
  the tuning service drives, result construction and persistence, and
* :meth:`~TuningDriver.tune_network`, one allocation loop over a task
  policy from :mod:`repro.core.subgraph_reward`, with a fair-share cap on
  every subgraph's first round.

A scheduler supplies its search round (``_search_round``), its result
extras and, for network tuning, its task policy.
:func:`repro.baselines.make_scheduler` builds every scheduler by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.caching import cached_sketches_for_target
from repro.costmodel.model import ScheduleCostModel
from repro.hardware.measurer import MeasureResult, Measurer
from repro.hardware.target import HardwareTarget, cpu_target
from repro.networks.graph import NetworkGraph
from repro.tensor.dag import ComputeDAG
from repro.tensor.schedule import Schedule
from repro.tensor.sketch import Sketch

__all__ = ["NetworkTuningResult", "TuningDriver", "TuningResult", "WorkloadState"]


@dataclass
class TuningResult:
    """Outcome of tuning a single operator / subgraph.

    ``history`` holds ``(measurement trial index, best latency so far)`` pairs;
    ``search_steps`` counts optimisation iterations (schedule visits), which is
    the wall-time proxy used by the search-time metrics.
    """

    workload: str
    scheduler: str
    best_latency: float
    best_throughput: float
    best_schedule: Optional[Schedule]
    trials_used: int
    search_steps: int
    history: List[Tuple[int, float]] = field(default_factory=list)
    extras: Dict[str, object] = field(default_factory=dict)

    def trials_to_reach(self, latency: float) -> Optional[int]:
        """First measurement trial at which the best latency reached ``latency``.

        Returns ``None`` when the target was never reached.  This implements
        the paper's *search time* metric: the cost of finding a program no
        worse than the baseline's final output.
        """
        for trial, best in self.history:
            if best <= latency:
                return trial
        return None

    def best_latency_at(self, trial: int) -> float:
        """Best latency achieved up to (and including) a given trial index."""
        best = float("inf")
        for t, latency in self.history:
            if t > trial:
                break
            best = latency
        return best


@dataclass
class NetworkTuningResult:
    """Outcome of tuning an end-to-end network (a weighted set of subgraphs)."""

    network: str
    scheduler: str
    task_results: Dict[str, TuningResult]
    task_weights: Dict[str, float]
    #: (total measurement trials, estimated end-to-end latency sum_n w_n * g_n)
    latency_history: List[Tuple[int, float]] = field(default_factory=list)
    #: total measurement trials allocated to each subgraph
    allocations: Dict[str, int] = field(default_factory=dict)
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def best_latency(self) -> float:
        """Final estimated end-to-end latency."""
        if self.latency_history:
            return self.latency_history[-1][1]
        return float("inf")

    @property
    def trials_used(self) -> int:
        return self.latency_history[-1][0] if self.latency_history else 0

    def trials_to_reach(self, latency: float) -> Optional[int]:
        for trial, value in self.latency_history:
            if value <= latency:
                return trial
        return None

    def task_contributions(self) -> Dict[str, float]:
        """Fraction of the end-to-end latency contributed by each subgraph."""
        weighted = {
            name: self.task_weights[name] * result.best_latency
            for name, result in self.task_results.items()
        }
        total = sum(v for v in weighted.values() if v != float("inf")) or 1.0
        return {name: value / total for name, value in weighted.items()}


class WorkloadState:
    """What the driver keeps per workload; schedulers extend it."""

    def __init__(self, dag: ComputeDAG, target: HardwareTarget):
        self.dag = dag
        # Sketch families are memoised per (workload, target depths): repeat
        # jobs for one workload share one generation.
        self.sketches: List[Sketch] = cached_sketches_for_target(dag, target)
        #: Recent best measured schedules: the next search round's warm starts.
        self.best_schedules: List[Schedule] = []
        #: Transferred schedules awaiting their one direct measurement batch.
        self.pending_warm_start: List[Schedule] = []
        #: Trials spent measuring transferred schedules: they bought donor
        #: knowledge, not fresh search.
        self.warm_start_trials = 0
        #: Search rounds run (warm-start batches not included).
        self.rounds = 0
        #: Schedules visited by the search: the wall-time proxy.
        self.search_steps = 0


class TuningDriver:
    """Budget loop, persistence, warm starts and network allocation.

    Parameters
    ----------
    target:
        Simulated hardware target (defaults to the CPU preset).
    seed:
        Seeds the cost model (a fresh
        :class:`~repro.costmodel.model.ScheduleCostModel`), the default
        measurer and the scheduler's own RNG stream ``_rng``.
    measurer:
        Measurement backend; defaults to a
        :class:`~repro.hardware.measurer.Measurer` with ``min_repeat_seconds``.
    record_store:
        Optional :class:`~repro.records.RecordStore`.  Every measurement is
        streamed to it and every final result appended, so the run is
        resumable via :meth:`resume_from`.
    warm_start_provider:
        Optional ``provider(dag) -> Sequence[Schedule]`` consulted the first
        time each workload is tuned (e.g.
        :meth:`~repro.serving.registry.ScheduleRegistry.warm_start_schedules`).
        The returned schedules are measured in one direct batch before the
        search starts, which teaches the cost model the transferred
        knowledge and seeds the search's warm starts.
    """

    #: Scheduler name recorded in every result; each subclass sets it.
    name: str
    #: How many of a resumed workload's best replayed schedules seed its search.
    replay_seeds = 0

    def __init__(
        self,
        target: Optional[HardwareTarget] = None,
        seed: int = 0,
        measurer: Optional[Measurer] = None,
        record_store=None,
        warm_start_provider: Optional[Callable[[ComputeDAG], Sequence[Schedule]]] = None,
        min_repeat_seconds: float = 1.0,
    ):
        self.target = target or cpu_target()
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)
        self.measurer = measurer or Measurer(
            self.target, min_repeat_seconds=min_repeat_seconds, seed=seed
        )
        self.cost_model = ScheduleCostModel(seed=seed)
        self.record_store = record_store
        if record_store is not None and self.measurer.record_store is None:
            self.measurer.record_store = record_store
        self.warm_start_provider = warm_start_provider
        self._resume_store = None
        self._workloads: Dict[str, WorkloadState] = {}

    # ------------------------------------------------------------------ #
    # scheduler hooks
    # ------------------------------------------------------------------ #
    def _new_state(self, dag: ComputeDAG) -> WorkloadState:
        return WorkloadState(dag, self.target)

    def _search_round(self, state: WorkloadState, max_measures: Optional[int]) -> int:
        """Run one search round (at most ``max_measures`` trials); return schedules visited."""
        raise NotImplementedError

    def _extras(self, state: WorkloadState) -> Dict[str, object]:
        return {}

    def _task_policy(self, network: NetworkGraph):
        """The subgraph-allocation policy of :meth:`tune_network`."""
        raise NotImplementedError(
            f"the {self.name} scheduler tunes single operators only; it has no "
            "subgraph-selection level (Table 1)"
        )

    def _network_extras(self, policy) -> Dict[str, object]:
        return {"task_names": list(policy.task_names)}

    # ------------------------------------------------------------------ #
    # persistence and per-workload state
    # ------------------------------------------------------------------ #
    def resume_from(self, store) -> "TuningDriver":
        """Resume tuning from a persisted record store; returns ``self``.

        The store's measurements are replayed lazily, per workload, the first
        time each workload is tuned: the cost model is warm-started with the
        recorded (schedule, throughput) pairs, the measurer's best-known
        statistics are preloaded, and the best ``replay_seeds`` recorded
        schedules seed the search.  Workload state built before the call is
        dropped, so that it replays too.
        """
        self._resume_store = store
        self._workloads.clear()
        return self

    def _workload(self, dag: ComputeDAG) -> WorkloadState:
        state = self._workloads.get(dag.name)
        if state is None:
            state = self._workloads[dag.name] = self._new_state(dag)
            if self._resume_store is not None:
                restored = self._resume_store.replay(
                    dag, cost_model=self.cost_model, measurer=self.measurer
                )
                state.best_schedules = list(reversed(restored[: self.replay_seeds]))
            if self.warm_start_provider is not None:
                state.pending_warm_start = list(self.warm_start_provider(dag) or [])
        return state

    def _measure(self, schedules: Sequence[Schedule]) -> List[MeasureResult]:
        """Measure a batch and teach the cost model its outcomes."""
        results = self.measurer.measure(schedules)
        self.cost_model.update([r.schedule for r in results], [r.throughput for r in results])
        return results

    @staticmethod
    def _keep_best(state: WorkloadState, results: Sequence[MeasureResult]) -> None:
        """Keep the best of ``results`` among the workload's last 8 warm starts."""
        if results:
            state.best_schedules.append(min(results, key=lambda r: r.latency).schedule)
            del state.best_schedules[:-8]

    # ------------------------------------------------------------------ #
    # single-workload tuning
    # ------------------------------------------------------------------ #
    def tune(self, dag: ComputeDAG, n_trials: int) -> TuningResult:
        """Tune one operator / subgraph within a budget of measurement trials."""
        if n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        spent = 0
        while spent < n_trials:
            spent += self.tune_round(dag, max_measures=n_trials - spent)
        return self.finalize(dag)

    def tune_round(self, dag: ComputeDAG, max_measures: Optional[int] = None) -> int:
        """Run one incremental tuning round; returns trials consumed.

        This is the unit of work the multi-tenant
        :class:`~repro.serving.service.TuningService` interleaves across
        jobs: the workload's pending warm-start batch if it has one, else one
        search round, bounded by ``max_measures``.  Call :meth:`finalize`
        once the caller's budget is exhausted.
        """
        if max_measures is not None and max_measures <= 0:
            return 0
        state = self._workload(dag)
        before = self.measurer.trials(dag.name)
        if state.pending_warm_start:
            # Transferred schedules skip the search: measured directly, they
            # train the cost model and seed the warm starts, so a warm run
            # reaches its donor's quality within the first few trials.
            budget = len(state.pending_warm_start)
            if max_measures is not None:
                budget = min(budget, max_measures)
            results = self._measure(state.pending_warm_start[:budget])
            del state.pending_warm_start[:budget]
            state.warm_start_trials += len(results)
            self._keep_best(state, results)
        else:
            state.search_steps += self._search_round(state, max_measures)
            state.rounds += 1
        return self.measurer.trials(dag.name) - before

    def finalize(self, dag: ComputeDAG) -> TuningResult:
        """Build (and persist) the current tuning result of one workload."""
        result = self._build_result(self._workload(dag))
        if self.record_store is not None:
            self.record_store.append_result(result)
        return result

    def _build_result(self, state: WorkloadState) -> TuningResult:
        name = state.dag.name
        best_latency = self.measurer.best_latency(name)
        return TuningResult(
            workload=name,
            scheduler=self.name,
            best_latency=best_latency,
            best_throughput=state.dag.flops / best_latency if np.isfinite(best_latency) else 0.0,
            best_schedule=self.measurer.best_schedule(name),
            trials_used=self.measurer.trials(name),
            search_steps=state.search_steps,
            history=self.measurer.history(name),
            extras=self._extras(state),
        )

    # ------------------------------------------------------------------ #
    # end-to-end network tuning
    # ------------------------------------------------------------------ #
    def tune_network(self, network: NetworkGraph, n_trials: int) -> NetworkTuningResult:
        """Tune all subgraphs of a network within a total measurement budget.

        Each round, the task policy picks one subgraph and that subgraph
        runs one :meth:`tune_round`; the policy then records the subgraph's
        best latency and the trials spent.  The policy warms every subgraph
        up once, in network order, and each subgraph's first round is capped
        at a fair share of the budget, ``n_trials // len(network)``: a
        config whose rounds measure more than that would otherwise spend
        the budget before the warm-up reaches every subgraph, leaving f(S)
        infinite.
        """
        policy = self._task_policy(network)
        if n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        for sg in network:
            self._workload(sg.dag)  # replay and warm-start queue, in network order
        latency_history: List[Tuple[int, float]] = []
        start_trials = self.measurer.total_trials
        fair_share = max(1, n_trials // len(network))
        while self.measurer.total_trials - start_trials < n_trials:
            task = policy.next_task()
            dag = network.subgraph(task).dag
            cap = n_trials - (self.measurer.total_trials - start_trials)
            if policy.states[task].rounds == 0:
                cap = min(cap, fair_share)
            spent = self.tune_round(dag, max_measures=cap)
            policy.record(task, self.measurer.best_latency(dag.name), spent)
            latency_history.append(
                (self.measurer.total_trials - start_trials, policy.estimated_latency())
            )
        return NetworkTuningResult(
            network=network.name,
            scheduler=self.name,
            task_results={sg.name: self.finalize(sg.dag) for sg in network},
            task_weights=network.weights(),
            latency_history=latency_history,
            allocations=dict(policy.allocations),
            extras=self._network_extras(policy),
        )
