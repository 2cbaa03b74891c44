"""repro: a reproduction of HARL (ICPP 2022).

HARL is a hierarchical, adaptive, reinforcement-learning-based auto-scheduler
for tensor programs.  This package re-implements the full system — the tensor
program substrate, a simulated measurement backend, a learned cost model, the
Ansor / Flextensor / AutoTVM baselines and the HARL scheduler itself — in pure
Python + NumPy.

Quick start::

    from repro import HARLScheduler, gemm

    scheduler = HARLScheduler()
    result = scheduler.tune(gemm(512, 512, 512), n_trials=200)
    print(result.best_latency, result.best_schedule)

See ``README.md`` for install / quickstart and the layer-by-layer map, and
``docs/architecture.md`` for the decision hierarchy, the batched measurement
pipeline and the persistent record store.
"""

from repro.caching import (
    cache_stats,
    cached_sketches,
    clear_caches,
    reset_cache_stats,
)
from repro.core import HARLConfig, HARLScheduler, TuningResult
from repro.baselines import AnsorScheduler, FlextensorScheduler, SimulatedAnnealingScheduler
from repro.records import MeasureRecord, RecordStore, TuningRecord
from repro.hardware import HardwareTarget, Measurer, cpu_target, gpu_target
from repro.costmodel import ScheduleCostModel
from repro.serving.fingerprint import structural_fingerprint
from repro.serving.registry import ScheduleRegistry
from repro.serving.service import TuningRequest, TuningService
from repro.networks import NetworkGraph, Subgraph, build_bert, build_mobilenet_v2, build_resnet50
from repro.tensor import (
    ComputeDAG,
    Schedule,
    Sketch,
    batch_gemm,
    conv1d,
    conv2d,
    conv2d_transpose,
    conv3d,
    elementwise,
    gemm,
    gemm_tanh,
    generate_sketches,
    softmax,
)

__version__ = "0.1.0"

__all__ = [
    "AnsorScheduler",
    "ComputeDAG",
    "FlextensorScheduler",
    "HARLConfig",
    "HARLScheduler",
    "HardwareTarget",
    "MeasureRecord",
    "Measurer",
    "NetworkGraph",
    "RecordStore",
    "Schedule",
    "ScheduleCostModel",
    "ScheduleRegistry",
    "TuningRequest",
    "TuningService",
    "structural_fingerprint",
    "SimulatedAnnealingScheduler",
    "Sketch",
    "Subgraph",
    "TuningRecord",
    "TuningResult",
    "__version__",
    "cache_stats",
    "cached_sketches",
    "clear_caches",
    "reset_cache_stats",
    "batch_gemm",
    "build_bert",
    "build_mobilenet_v2",
    "build_resnet50",
    "conv1d",
    "conv2d",
    "conv2d_transpose",
    "conv3d",
    "cpu_target",
    "elementwise",
    "gemm",
    "gemm_tanh",
    "generate_sketches",
    "gpu_target",
    "softmax",
]
