"""Session-scoped result cache for the benchmark harness.

Several figures of the paper are different views of the same tuning runs
(e.g. Fig. 5 and Fig. 6 report performance and search time of the *same*
operator comparisons; Fig. 8/9/10 and Table 4 all derive from the BERT
end-to-end runs).  The helpers here memoise comparison runs inside one Python
process so each underlying tuning run happens exactly once per benchmark
session, regardless of how many benches consume it.

Cache keys identify workloads by their **canonical structural fingerprint**
(:func:`repro.serving.fingerprint.structural_fingerprint`), not by display
name, so renamed-but-structurally-identical DAGs share one cache entry.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.core.config import HARLConfig
from repro.experiments.operator_suite import representative_dag
from repro.experiments.runner import (
    NetworkComparison,
    OperatorComparison,
    compare_on_network,
    compare_on_operator,
)
from repro.hardware.target import HardwareTarget, cpu_target, gpu_target
from repro.networks.bert import build_bert
from repro.networks.graph import NetworkGraph
from repro.networks.mobilenet import build_mobilenet_v2
from repro.networks.resnet import build_resnet50
from repro.serving.fingerprint import structural_fingerprint
from repro.tensor.dag import ComputeDAG

__all__ = [
    "bench_config",
    "cached_operator_comparison",
    "cached_network_comparison",
    "comparison_cache_key",
    "clear_cache",
    "resolve_target",
    "build_network",
]

_OPERATOR_CACHE: Dict[Tuple, OperatorComparison] = {}
_NETWORK_CACHE: Dict[Tuple, NetworkComparison] = {}

#: Default benchmark-scale HARL configuration: one eighth of the paper's
#: episode width, which keeps the whole harness runnable on a laptop.
_BENCH_SCALE = 0.125


def bench_config(scale: float = _BENCH_SCALE) -> HARLConfig:
    """The HARL configuration used by the benchmark harness."""
    return HARLConfig.scaled(scale)


def resolve_target(name: str) -> HardwareTarget:
    """Map a target name (``"cpu"`` / ``"gpu"``) to a hardware preset."""
    if name == "cpu":
        return cpu_target()
    if name == "gpu":
        return gpu_target()
    raise KeyError(f"unknown target {name!r}")


def build_network(name: str, batch_size: int = 1):
    """Build one of the paper's evaluation networks by short name."""
    builders = {
        "bert": build_bert,
        "resnet50": build_resnet50,
        "mobilenet_v2": build_mobilenet_v2,
    }
    if name not in builders:
        raise KeyError(f"unknown network {name!r}; known: {sorted(builders)}")
    return builders[name](batch_size=batch_size)


def comparison_cache_key(
    workload,
    n_trials: int,
    target_name: str,
    schedulers: Sequence[str],
    seed: int,
) -> Tuple:
    """Structural cache key of one comparison run.

    ``workload`` is a :class:`ComputeDAG` or a :class:`NetworkGraph`; either
    way its identity is the canonical fingerprint(s) of its DAG(s), so two
    differently-named but structurally identical workloads share an entry.
    """
    if isinstance(workload, ComputeDAG):
        identity: Tuple = (structural_fingerprint(workload),)
    elif isinstance(workload, NetworkGraph):
        identity = tuple(
            (structural_fingerprint(sg.dag), sg.weight) for sg in workload
        )
    else:
        raise TypeError(f"unsupported workload type {type(workload).__name__}")
    return identity + (n_trials, target_name, tuple(schedulers), seed)


def cached_operator_comparison(
    op_class: str,
    batch: int,
    n_trials: int,
    target_name: str = "cpu",
    schedulers: Sequence[str] = ("ansor", "harl"),
    seed: int = 0,
) -> OperatorComparison:
    """Run (or reuse) a scheduler comparison on one Table 6 operator class.

    Every run uses :func:`bench_config`, so the cache key needs no config.
    """
    dag = representative_dag(op_class, batch=batch)
    key = comparison_cache_key(dag, n_trials, target_name, schedulers, seed)
    if key not in _OPERATOR_CACHE:
        _OPERATOR_CACHE[key] = compare_on_operator(
            dag,
            n_trials=n_trials,
            target=resolve_target(target_name),
            config=bench_config(),
            seed=seed,
            schedulers=schedulers,
        )
    return _OPERATOR_CACHE[key]


def cached_network_comparison(
    network_name: str,
    batch: int,
    n_trials: int,
    target_name: str = "cpu",
    schedulers: Sequence[str] = ("ansor", "harl"),
    seed: int = 0,
) -> NetworkComparison:
    """Run (or reuse) an end-to-end network comparison (with :func:`bench_config`)."""
    network = build_network(network_name, batch_size=batch)
    key = comparison_cache_key(network, n_trials, target_name, schedulers, seed)
    if key not in _NETWORK_CACHE:
        _NETWORK_CACHE[key] = compare_on_network(
            network,
            n_trials=n_trials,
            target=resolve_target(target_name),
            config=bench_config(),
            seed=seed,
            schedulers=schedulers,
        )
    return _NETWORK_CACHE[key]


def clear_cache() -> None:
    """Drop all memoised comparison results (used by tests)."""
    _OPERATOR_CACHE.clear()
    _NETWORK_CACHE.clear()
