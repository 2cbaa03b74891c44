"""Serving subsystem: workload fingerprints, schedule registry, tuning service.

Three layers turn the per-run tuner into a shared, reusable system:

* :mod:`repro.serving.fingerprint` — canonical label-invariant workload
  identity and similarity embeddings,
* :mod:`repro.serving.registry` — the persistent sharded best-schedule
  database with nearest-neighbour transfer lookup,
* :mod:`repro.serving.service` — the multi-tenant tuning front end with
  request coalescing and gradient-allocated budgets,
* :mod:`repro.serving.server` / :mod:`repro.serving.netclient` — the
  long-running asyncio network front end (newline-delimited JSON-RPC over
  TCP) with admission control, per-tenant rate limits/quotas and degraded
  load shedding, plus the bounded-retry wire client,
* :mod:`repro.serving.loadgen` — the closed-loop Zipf/burst load generator
  behind ``make serve-load``.

Submodules are imported lazily so low-level modules (``repro.records``) can
use the fingerprint helpers without pulling in the registry/service layers
(which themselves build on ``repro.records``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

__all__ = [
    "structural_fingerprint",
    "workload_embedding",
    "embedding_distance",
    "LookupResult",
    "RegistryEntry",
    "ScheduleRegistry",
    "TransferCandidate",
    "TuningRequest",
    "JobHandle",
    "TuningService",
    "ServerConfig",
    "ServingServer",
    "NetClientError",
    "TuneReply",
    "TuningClient",
    "LoadGenConfig",
    "run_load",
]

_EXPORTS = {
    "structural_fingerprint": "repro.serving.fingerprint",
    "workload_embedding": "repro.serving.fingerprint",
    "embedding_distance": "repro.serving.fingerprint",
    "LookupResult": "repro.serving.registry",
    "RegistryEntry": "repro.serving.registry",
    "ScheduleRegistry": "repro.serving.registry",
    "TransferCandidate": "repro.serving.registry",
    "TuningRequest": "repro.serving.service",
    "JobHandle": "repro.serving.service",
    "TuningService": "repro.serving.service",
    "ServerConfig": "repro.serving.server",
    "ServingServer": "repro.serving.server",
    "NetClientError": "repro.serving.netclient",
    "TuneReply": "repro.serving.netclient",
    "TuningClient": "repro.serving.netclient",
    "LoadGenConfig": "repro.serving.loadgen",
    "run_load": "repro.serving.loadgen",
}

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.serving.fingerprint import (  # noqa: F401
        embedding_distance,
        structural_fingerprint,
        workload_embedding,
    )
    from repro.serving.registry import (  # noqa: F401
        LookupResult,
        RegistryEntry,
        ScheduleRegistry,
        TransferCandidate,
    )
    from repro.serving.service import (  # noqa: F401
        JobHandle,
        TuningRequest,
        TuningService,
    )
    from repro.serving.loadgen import LoadGenConfig, run_load  # noqa: F401
    from repro.serving.netclient import (  # noqa: F401
        NetClientError,
        TuneReply,
        TuningClient,
    )
    from repro.serving.server import ServerConfig, ServingServer  # noqa: F401


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
