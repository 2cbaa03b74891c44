"""Head-to-head experiment runners.

These functions build each competitor with
:func:`~repro.baselines.make_scheduler` (its own measurer and cost model, so
no information leaks between competitors), run them on the same workload
with the same trial budget, seed and ``r_min``, and package the outcomes for
the metric / reporting helpers.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.baselines import make_scheduler
from repro.core.config import HARLConfig
from repro.core.tuner import NetworkTuningResult, TuningResult
from repro.experiments.metrics import normalized_performance, normalized_search_time
from repro.hardware.target import HardwareTarget, cpu_target
from repro.networks.graph import NetworkGraph
from repro.records import RecordStore
from repro.serving.registry import ScheduleRegistry
from repro.tensor.dag import ComputeDAG

__all__ = [
    "OperatorComparison",
    "NetworkComparison",
    "compare_on_operator",
    "compare_on_network",
    "default_trials",
]


def default_trials(paper_trials: int, fallback: int) -> int:
    """Trial budget for a bench: ``REPRO_FULL=1`` selects the paper budget,
    ``REPRO_TRIALS=<n>`` overrides it, otherwise the scaled-down default."""
    if os.environ.get("REPRO_FULL", "") == "1":
        return paper_trials
    override = os.environ.get("REPRO_TRIALS", "")
    if override:
        return max(1, int(override))
    return fallback


def _record_store(records_dir: Optional[Union[str, Path]], name: str):
    """Scheduler ``name``'s log under ``records_dir``, closed when the block exits."""
    if records_dir is None:
        return contextlib.nullcontext()
    return RecordStore(Path(records_dir) / f"{name}.jsonl")


@dataclass
class OperatorComparison:
    """Results of running several schedulers on one operator."""

    dag_name: str
    results: Dict[str, TuningResult]

    @property
    def schedulers(self) -> List[str]:
        return list(self.results)

    def normalized_performance(self) -> Dict[str, float]:
        return normalized_performance(self.results)

    def normalized_search_time(self, baseline: str = "ansor") -> Dict[str, float]:
        return normalized_search_time(self.results, baseline=baseline)


@dataclass
class NetworkComparison:
    """Results of running several schedulers on one end-to-end network."""

    network_name: str
    results: Dict[str, NetworkTuningResult]

    def normalized_performance(self) -> Dict[str, float]:
        return normalized_performance(self.results)

    def normalized_search_time(self, baseline: str = "ansor") -> Dict[str, float]:
        return normalized_search_time(self.results, baseline=baseline)


def compare_on_operator(
    dag: ComputeDAG,
    n_trials: int,
    target: Optional[HardwareTarget] = None,
    config: Optional[HARLConfig] = None,
    seed: int = 0,
    schedulers: Sequence[str] = ("ansor", "harl"),
    records_dir: Optional[Union[str, Path]] = None,
    registry: Optional[ScheduleRegistry] = None,
) -> OperatorComparison:
    """Tune one operator with every requested scheduler under the same budget.

    Parameters
    ----------
    schedulers:
        Names accepted by :func:`~repro.baselines.make_scheduler`.
    records_dir:
        When set, each scheduler streams its measurements to
        ``<records_dir>/<scheduler>.jsonl``.
    registry:
        Optional :class:`~repro.serving.registry.ScheduleRegistry` to
        populate with every competitor's best result.
    """
    target = target or cpu_target()
    config = config or HARLConfig.scaled()
    results: Dict[str, TuningResult] = {}
    for name in schedulers:
        with _record_store(records_dir, name) as store:
            scheduler = make_scheduler(name, target, config, seed, record_store=store)
            results[name] = scheduler.tune(dag, n_trials)
        if registry is not None:
            registry.record_result(dag, target, results[name], source=f"runner:{name}")
    return OperatorComparison(dag_name=dag.name, results=results)


def compare_on_network(
    network: NetworkGraph,
    n_trials: int,
    target: Optional[HardwareTarget] = None,
    config: Optional[HARLConfig] = None,
    seed: int = 0,
    schedulers: Sequence[str] = ("ansor", "harl"),
    records_dir: Optional[Union[str, Path]] = None,
    registry: Optional[ScheduleRegistry] = None,
) -> NetworkComparison:
    """Tune one network end-to-end with every requested scheduler.

    ``records_dir`` and ``registry`` behave as in
    :func:`compare_on_operator`; every subgraph's best result lands in the
    registry.
    """
    target = target or cpu_target()
    config = config or HARLConfig.scaled()
    results: Dict[str, NetworkTuningResult] = {}
    for name in schedulers:
        with _record_store(records_dir, name) as store:
            scheduler = make_scheduler(name, target, config, seed, record_store=store)
            results[name] = scheduler.tune_network(network, n_trials)
        if registry is not None:
            for sg in network:
                task_result = results[name].task_results.get(sg.name)
                if task_result is not None:
                    registry.record_result(
                        sg.dag, target, task_result, source=f"runner:{name}"
                    )
    return NetworkComparison(network_name=network.name, results=results)
