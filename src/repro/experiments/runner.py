"""Head-to-head experiment runners.

These functions build fresh scheduler instances (each with its own measurer
and cost model so no information leaks between competitors), run them on the
same workload with the same trial budget and seed, and package the outcomes
for the metric / reporting helpers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.baselines.ansor import AnsorConfig, AnsorScheduler
from repro.core.config import HARLConfig
from repro.core.scheduler import HARLScheduler
from repro.core.tuner import NetworkTuningResult, TuningResult
from repro.experiments.metrics import normalized_performance, normalized_search_time
from repro.hardware.measurer import Measurer
from repro.hardware.target import HardwareTarget, cpu_target
from repro.networks.graph import NetworkGraph
from repro.records import RecordStore
from repro.tensor.dag import ComputeDAG

__all__ = [
    "OperatorComparison",
    "NetworkComparison",
    "compare_on_operator",
    "compare_on_network",
    "default_trials",
    "make_measurer",
    "resolve_registry",
]


#: Session-scoped registries opened by path, so repeated comparison calls
#: (one benchmark session runs dozens) reuse one instance — one shard load,
#: one set of append handles — instead of re-reading the directory per call.
_REGISTRY_INSTANCES: Dict[str, object] = {}


def resolve_registry(registry=None):
    """Resolve the schedule registry a benchmark run should populate.

    An explicit :class:`~repro.serving.registry.ScheduleRegistry` (or path)
    wins; otherwise the ``REPRO_REGISTRY`` environment variable names the
    registry directory, and when neither is set no registry is populated.
    Path-named registries are opened once per process and cached.  Every
    comparison run records its per-scheduler best results as a side effect,
    so benchmark sessions grow the shared schedule database.
    """
    from repro.serving.registry import ScheduleRegistry

    if registry is None:
        env = os.environ.get("REPRO_REGISTRY", "")
        if not env:
            return None
        registry = env
    if isinstance(registry, (str, Path)):
        key = str(Path(registry).resolve())
        if key not in _REGISTRY_INSTANCES:
            _REGISTRY_INSTANCES[key] = ScheduleRegistry(registry)
        return _REGISTRY_INSTANCES[key]
    return registry


def default_trials(paper_trials: int, fallback: int) -> int:
    """Trial budget for a bench: ``REPRO_FULL=1`` selects the paper budget,
    ``REPRO_TRIALS=<n>`` overrides it, otherwise the scaled-down default."""
    if os.environ.get("REPRO_FULL", "") == "1":
        return paper_trials
    override = os.environ.get("REPRO_TRIALS", "")
    if override:
        return max(1, int(override))
    return fallback


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


def make_measurer(
    target: HardwareTarget,
    config: HARLConfig,
    seed: int,
    record_store=None,
) -> Measurer:
    """Build one competitor's measurer.

    This is the single policy shared by the CLI, the comparison runners and
    the tuning service.  Every scheduler in a run measures with the run's
    ``r_min`` (``config.min_repeat_seconds``), whether or not its
    measurements are persisted to ``record_store``.
    """
    return Measurer(
        target,
        min_repeat_seconds=config.min_repeat_seconds,
        seed=seed,
        record_store=record_store,
    )


def _default_factories(
    target: HardwareTarget,
    config: HARLConfig,
    seed: int,
    include: Sequence[str],
    records_dir: Optional[Union[str, Path]] = None,
) -> Dict[str, Callable[[], object]]:
    def pipeline_for(name: str):
        """(measurer, record store) for one competitor.

        Each competitor gets its own record store file so no information
        leaks between them; the store is also handed to the scheduler so the
        final 'result' line lands in the same log as the measurements.
        """
        store = None
        if records_dir is not None:
            store = RecordStore(Path(records_dir) / f"{name}.jsonl")
        return make_measurer(target, config, seed, store), store

    def harl_factory(name: str, **overrides) -> Callable[[], HARLScheduler]:
        def build():
            measurer, store = pipeline_for(name)
            return HARLScheduler(
                target=target, config=config, seed=seed,
                measurer=measurer, record_store=store, **overrides,
            )
        return build

    factories: Dict[str, Callable[[], object]] = {}
    if "ansor" in include:
        def build_ansor():
            measurer, store = pipeline_for("ansor")
            return AnsorScheduler(
                target=target, config=AnsorConfig.from_harl(config), seed=seed,
                measurer=measurer, record_store=store,
            )
        factories["ansor"] = build_ansor
    if "harl" in include:
        factories["harl"] = harl_factory("harl")
    if "hierarchical-rl" in include:
        factories["hierarchical-rl"] = harl_factory(
            "hierarchical-rl", adaptive_stopping=False
        )
    if "harl-no-subgraph-mab" in include:
        factories["harl-no-subgraph-mab"] = harl_factory(
            "harl-no-subgraph-mab", use_subgraph_mab=False
        )
    return factories


def compare_on_operator(
    dag: ComputeDAG,
    n_trials: int,
    target: Optional[HardwareTarget] = None,
    config: Optional[HARLConfig] = None,
    seed: int = 0,
    schedulers: Sequence[str] = ("ansor", "harl"),
    records_dir: Optional[Union[str, Path]] = None,
    registry=None,
) -> OperatorComparison:
    """Tune one operator with every requested scheduler under the same budget.

    Parameters
    ----------
    records_dir:
        When set, each scheduler streams its measurements to
        ``<records_dir>/<scheduler>.jsonl``.
    registry:
        Optional :class:`~repro.serving.registry.ScheduleRegistry` (or its
        directory path) to populate with every competitor's best result; the
        ``REPRO_REGISTRY`` environment variable supplies a default, so
        benchmark runs grow the shared schedule database as a side effect.
    """
    target = target or cpu_target()
    config = config or HARLConfig.scaled()
    registry = resolve_registry(registry)
    factories = _default_factories(
        target, config, seed, schedulers, records_dir=records_dir
    )
    results: Dict[str, TuningResult] = {}
    for name in schedulers:
        scheduler = factories[name]()
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
    registry=None,
) -> NetworkComparison:
    """Tune one network end-to-end with every requested scheduler.

    ``records_dir`` and ``registry`` behave as in
    :func:`compare_on_operator`; every subgraph's best result lands in the
    registry.
    """
    target = target or cpu_target()
    config = config or HARLConfig.scaled()
    registry = resolve_registry(registry)
    factories = _default_factories(
        target, config, seed, schedulers, records_dir=records_dir
    )
    results: Dict[str, NetworkTuningResult] = {}
    for name in schedulers:
        scheduler = factories[name]()
        results[name] = scheduler.tune_network(network, n_trials)
        if registry is not None:
            for sg in network:
                task_result = results[name].task_results.get(sg.name)
                if task_result is not None:
                    registry.record_result(
                        sg.dag, target, task_result, source=f"runner:{name}"
                    )
    return NetworkComparison(network_name=network.name, results=results)
