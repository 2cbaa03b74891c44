"""End-to-end network tuning through the shared tuning service.

This is the layer the paper actually evaluates: a network is split into
``N`` weighted subgraphs (tasks) and the end-to-end latency
``f(S) = sum_n w_n * g_n`` is minimised by allocating measurement rounds
across the tasks.  :class:`NetworkTuner` composes the pieces the repo already
has into that system:

* every subgraph is submitted to a shared
  :class:`~repro.serving.service.TuningService`, so tasks whose structural
  fingerprint is already registered are answered in O(1) with zero trials and
  novel tasks are warm-started from their nearest registered relatives —
  including subgraphs tuned for *other networks* on the same registry
  (MobileNet's convolutions borrow from ResNet's) and, via the target
  catalog, from other devices;
* each measurement round is allocated to one task by a policy from
  :mod:`repro.core.subgraph_reward`, built by the same
  :func:`~repro.core.subgraph_reward.task_policy` as
  ``HARLScheduler.tune_network``'s — HARL's non-stationary SW-UCB bandit
  (:class:`~repro.core.subgraph_reward.SubgraphBandit`) or the greedy Eq. 3
  :class:`~repro.core.subgraph_reward.GradientTaskScheduler` (Ansor's
  strategy); both warm tasks up in network order, and each task's first
  round is capped at a fair share of the budget;
* the outcome is a :class:`NetworkTuningReport`: the ``f(S)`` trajectory,
  the per-task allocation table and the registry / warm-start provenance of
  every task.

The tuner *drives* the service round by round through
:meth:`~repro.serving.service.TuningService.advance` instead of delegating to
``TuningService.run``, which tunes one job at a time, oldest first: end-to-end
tuning needs the network's weights ``w_n`` to steer the budget.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.subgraph_reward import task_policy
from repro.experiments.reporting import format_table
from repro.networks.graph import NetworkGraph
from repro.serving.service import (
    SOURCE_COALESCED,
    SOURCE_REGISTRY,
    JobHandle,
    TuningRequest,
    TuningService,
)

__all__ = ["NetworkTuner", "NetworkTuningReport", "TaskReport"]


@dataclass(frozen=True)
class TaskReport:
    """Outcome and provenance of one network task."""

    task: str
    workload: str
    weight: float
    trials: int                       #: trials allocated to this task by the policy
    best_latency: float               #: per-instance latency g_n
    source: str                       #: registry-hit / scheduled / coalesced
    provenance: str                   #: registry:<src> / transfer:<targets> / warm:<donors> / cold
    warm_start_donors: Tuple[str, ...] = ()
    transfer_donors: Tuple[str, ...] = ()

    @property
    def weighted_latency(self) -> float:
        """Contribution ``w_n * g_n`` to the end-to-end latency."""
        return self.weight * self.best_latency


@dataclass
class NetworkTuningReport:
    """End-to-end report of one network tuning run.

    ``trajectory`` holds ``(total measurement trials, f(S))`` pairs — the
    end-to-end latency estimate after every allocation round; ``tasks`` is
    the per-task allocation table with registry / warm-start provenance.
    """

    network: str
    target: str
    policy: str
    scheduler: str
    tasks: List[TaskReport] = field(default_factory=list)
    trajectory: List[Tuple[int, float]] = field(default_factory=list)
    registry_hits: int = 0
    coalesced_tasks: int = 0
    jobs_created: int = 0

    @property
    def final_latency(self) -> float:
        """Final end-to-end latency estimate ``f(S)``."""
        return self.trajectory[-1][1] if self.trajectory else float("inf")

    @property
    def trials_used(self) -> int:
        return self.trajectory[-1][0] if self.trajectory else 0

    @property
    def warm_started_tasks(self) -> int:
        """Tasks seeded from the registry (same- or cross-target donors)."""
        return sum(
            1 for t in self.tasks if t.warm_start_donors or t.transfer_donors
        )

    def trials_to_reach(self, latency: float) -> Optional[int]:
        """First trial count at which ``f(S)`` reached ``latency`` (or None)."""
        for trials, value in self.trajectory:
            if value <= latency:
                return trials
        return None

    def task(self, name: str) -> TaskReport:
        for entry in self.tasks:
            if entry.task == name:
                return entry
        raise KeyError(name)

    def rows(self) -> List[List[object]]:
        return [
            [
                t.task,
                t.weight,
                t.trials,
                t.best_latency * 1e6,
                t.weighted_latency * 1e6,
                t.source,
                t.provenance,
            ]
            for t in self.tasks
        ]

    def format(self) -> str:
        table = format_table(
            ["task", "w_n", "trials", "g_n (us)", "w_n*g_n (us)", "source",
             "warm-started from"],
            self.rows(),
            title=(f"{self.network} on {self.target} — policy={self.policy}, "
                   f"scheduler={self.scheduler}"),
        )
        summary = (
            f"end-to-end f(S): {self.final_latency * 1e3:.3f} ms "
            f"({self.trials_used} trials, {self.jobs_created} jobs, "
            f"{self.registry_hits} registry hits, "
            f"{self.warm_started_tasks} warm-started tasks)"
        )
        return f"{table}\n\n{summary}"

    def to_dict(self) -> dict:
        """JSON-safe dict: non-finite latencies (untuned) serialise as null.

        ``json.dumps`` would otherwise emit the bare token ``Infinity``,
        which is invalid JSON per RFC 8259 — the cold run's zero-trial
        trajectory baseline is always ``inf``.
        """

        def safe(value: float) -> Optional[float]:
            return float(value) if np.isfinite(value) else None

        return {
            "network": self.network,
            "target": self.target,
            "policy": self.policy,
            "scheduler": self.scheduler,
            "final_latency": safe(self.final_latency),
            "trials_used": self.trials_used,
            "registry_hits": self.registry_hits,
            "coalesced_tasks": self.coalesced_tasks,
            "jobs_created": self.jobs_created,
            "trajectory": [[trials, safe(latency)] for trials, latency in self.trajectory],
            "tasks": [
                {
                    "task": t.task,
                    "workload": t.workload,
                    "weight": t.weight,
                    "trials": t.trials,
                    "best_latency": safe(t.best_latency),
                    "source": t.source,
                    "provenance": t.provenance,
                    "warm_start_donors": list(t.warm_start_donors),
                    "transfer_donors": list(t.transfer_donors),
                }
                for t in self.tasks
            ],
        }

    def write_json(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(self.to_dict(), indent=2, allow_nan=False)
        path.write_text(payload + "\n", encoding="utf-8")
        return path


class NetworkTuner:
    """Drive a whole :class:`NetworkGraph` through a shared tuning service.

    Parameters
    ----------
    network:
        The subgraph inventory to tune end to end.
    service:
        The (possibly shared, possibly persistent-registry-backed)
        :class:`~repro.serving.service.TuningService` all tasks go through.
        Sharing one service / registry across networks is what buys
        cross-network reuse: tasks already registered are O(1) hits, novel
        tasks warm-start from their nearest registered relatives.
    policy:
        Task-allocation policy: ``"bandit"`` (HARL's SW-UCB, the default,
        breaking ties with ``default_rng(service.seed)``) or ``"gradient"``
        (Ansor's greedy Eq. 3 argmax); any other name raises
        :class:`KeyError`.
    scheduler:
        Per-task search scheduler the service should run (``"harl"``,
        ``"hierarchical-rl"`` or ``"ansor"``).
    force_tune:
        Bypass the registry fast path — every task is tuned fresh even when
        an exact entry exists (cold-run baselines and ablations).
    """

    def __init__(
        self,
        network: NetworkGraph,
        service: TuningService,
        policy: str = "bandit",
        scheduler: str = "harl",
        force_tune: bool = False,
    ):
        if policy not in ("bandit", "gradient"):
            raise KeyError(f"unknown task policy {policy!r}; known: bandit, gradient")
        self.network = network
        self.service = service
        self.scheduler = scheduler
        self.force_tune = bool(force_tune)
        self.policy_name = policy
        self.policy = task_policy(
            network, service.config, policy == "bandit",
            rng=np.random.default_rng(service.seed),
        )

    # ------------------------------------------------------------------ #
    def tune(self, n_trials: int) -> NetworkTuningReport:
        """Tune the network within a total measurement-trial budget.

        Tasks answered from the registry consume no budget; the rest receive
        rounds one at a time from the allocation policy until the budget is
        exhausted (any jobs still in flight are finalized with their
        best-so-far, so the registry always absorbs the run).
        """
        if n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        network, service, policy = self.network, self.service, self.policy

        handles: Dict[str, JobHandle] = {}
        for sg in network:
            handles[sg.name] = service.submit(
                TuningRequest(
                    dag=sg.dag,
                    n_trials=n_trials,
                    scheduler=self.scheduler,
                    tenant=f"network:{network.name}",
                    force_tune=self.force_tune,
                )
            )
            # Registry answers ground the policy immediately: the task needs
            # no rounds, and its latency anchors the Eq. 3 similarity term
            # for the live tasks of the same operator family.
            if handles[sg.name].done:
                policy.record(
                    sg.name, handles[sg.name].result.best_latency, trials=0
                )

        trajectory: List[Tuple[int, float]] = []
        spent_total = 0

        def current_f() -> float:
            return network.estimated_latency(
                {name: service.current_latency(handle) for name, handle in handles.items()}
            )

        live = [sg.name for sg in network if not handles[sg.name].done]
        # Cap each task's *first* round at a fair share of the budget: a
        # coarse config whose regular round consumes more than
        # n_trials / #tasks measures would otherwise exhaust the budget
        # before the warm-up pass reaches every task, leaving f(S) infinite.
        fair_share = max(1, n_trials // max(len(live), 1))
        # Zero-trial baseline: with a warm registry f(S) may already be
        # finite before any round, and trials_to_reach must see that.
        trajectory.append((0, current_f()))
        while live and spent_total < n_trials:
            task = policy.next_task(among=live)
            handle = handles[task]
            cap = n_trials - spent_total
            if policy.states[task].rounds == 0:
                cap = min(cap, fair_share)
            spent = service.advance(handle, max_measures=cap)
            spent_total += spent
            policy.record(task, service.current_latency(handle), trials=spent)
            trajectory.append((spent_total, current_f()))
            # A finished job resolves every coalesced sibling handle too, so
            # structurally identical tasks leave the live set together.
            live = [name for name in live if not handles[name].done]

        for name in live:
            service.finish(handles[name])
        if live:
            trajectory.append((spent_total, current_f()))
        return self._build_report(handles, trajectory)

    # ------------------------------------------------------------------ #
    def _build_report(
        self,
        handles: Dict[str, JobHandle],
        trajectory: List[Tuple[int, float]],
    ) -> NetworkTuningReport:
        tasks: List[TaskReport] = []
        allocations = self.policy.allocations
        for sg in self.network:
            handle = handles[sg.name]
            result = handle.result
            extras = result.extras if result is not None else {}
            warm = tuple(extras.get("warm_start_donors", ()))
            transfer = tuple(extras.get("transfer_donors", ()))
            measured = result is not None and result.trials_used > 0
            if not measured:
                # A budget-starved task fetches warm-start candidates at
                # finalize time but never measures them: that is not reuse.
                warm, transfer = (), ()
            if handle.source == SOURCE_REGISTRY:
                provenance = f"registry:{extras.get('registry_source', '') or 'n/a'}"
            elif transfer:
                provenance = "transfer:" + ",".join(transfer)
            elif warm:
                provenance = "warm:" + ",".join(warm)
            else:
                provenance = "cold"
            tasks.append(
                TaskReport(
                    task=sg.name,
                    workload=sg.dag.name,
                    weight=sg.weight,
                    trials=int(allocations[sg.name]),
                    best_latency=float(result.best_latency) if result else float("inf"),
                    source=handle.source,
                    provenance=provenance,
                    warm_start_donors=warm,
                    transfer_donors=transfer,
                )
            )
        return NetworkTuningReport(
            network=self.network.name,
            target=self.service.target.name,
            policy=self.policy_name,
            scheduler=self.scheduler,
            tasks=tasks,
            trajectory=trajectory,
            registry_hits=sum(
                1 for h in handles.values() if h.source == SOURCE_REGISTRY
            ),
            coalesced_tasks=sum(
                1 for h in handles.values() if h.source == SOURCE_COALESCED
            ),
            jobs_created=sum(
                1 for h in handles.values()
                if h.source not in (SOURCE_REGISTRY, SOURCE_COALESCED)
            ),
        )
