"""Canonical, label-invariant workload fingerprints and embeddings.

Task deduplication and cross-run schedule reuse both need an identity for a
:class:`~repro.tensor.dag.ComputeDAG` that depends only on its *structure* —
``ComputeDAG.workload_key()`` bakes in stage and iterator names, so two
structurally identical DAGs whose stages were merely renamed never dedup.

This module is the serving-layer API for two structural views of a DAG:

* :func:`structural_fingerprint` / :func:`canonical_structure` — a stable
  hex digest of a canonical encoding that is invariant under stage/iterator
  renaming, permutation of a stage's ``producers`` tuple and
  topology-preserving reordering of the stage list, but changes whenever an
  iterator extent or kind, a stage kind, the producer topology or the
  per-element work changes.  (The computation lives next to
  :class:`~repro.tensor.dag.ComputeDAG` itself — the tensor substrate uses
  the same identity for the simulator's per-schedule ruggedness seed — and
  is re-exported here.)
* :func:`workload_embedding` — a fixed-length numeric vector summarising the
  workload (log extents, FLOPs, arithmetic intensity, stage-kind census)
  used for nearest-neighbour similarity search in the schedule registry, so
  a new workload can borrow the best-known schedule of its closest relative.

Both views deliberately ignore ``dag.name`` and ``dag.tags``: those are
human-readable labels, not structure.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.dag import (  # noqa: F401  (re-exported)
    ComputeDAG,
    canonical_structure,
    structural_fingerprint,
)

__all__ = [
    "EMBEDDING_SIZE",
    "canonical_structure",
    "structural_fingerprint",
    "workload_embedding",
    "embedding_distance",
]

#: Embedding layout: 5 spatial extents + 4 reduction extents of the main
#: stage (log2, padded), then 10 aggregate workload statistics.
_MAX_SPATIAL = 5
_MAX_REDUCTION = 4
EMBEDDING_SIZE = _MAX_SPATIAL + _MAX_REDUCTION + 10

# Instance-level memo, same idiom as the fingerprint cache on ComputeDAG:
# DAGs are structurally immutable after construction, and the embedding is
# recomputed for every measurement record and neighbour lookup otherwise.
_EMBEDDING_ATTR = "_workload_embedding_cache"


def _log2(value: float) -> float:
    return float(np.log2(max(float(value), 1.0)))


def workload_embedding(dag: ComputeDAG) -> np.ndarray:
    """Fixed-length numeric summary of a workload for similarity search.

    Invariant under renaming (it reads only extents, kinds and aggregate
    statistics); close workloads — same operator family at nearby shapes —
    land close in Euclidean distance, which is what
    :meth:`~repro.serving.registry.ScheduleRegistry.lookup` ranks neighbours
    by for transfer warm starts.  Memoised per DAG instance (callers must
    not mutate the returned array).
    """
    cached = dag.__dict__.get(_EMBEDDING_ATTR)
    if cached is not None:
        return cached
    out = np.zeros(EMBEDDING_SIZE, dtype=np.float64)
    main = dag.main_stage
    offset = 0
    for i, it in enumerate(main.spatial_iters[:_MAX_SPATIAL]):
        out[offset + i] = _log2(it.extent)
    offset += _MAX_SPATIAL
    for i, it in enumerate(main.reduction_iters[:_MAX_REDUCTION]):
        out[offset + i] = _log2(it.extent)
    offset += _MAX_REDUCTION

    kinds = [s.kind for s in dag.stages]
    out[offset : offset + 10] = [
        _log2(dag.flops),
        _log2(dag.total_bytes),
        _log2(dag.arithmetic_intensity() + 1.0),
        _log2(main.output_elements),
        float(len(main.spatial_iters)),
        float(len(main.reduction_iters)),
        float(kinds.count("input")),
        float(kinds.count("elementwise")),
        float(kinds.count("reduction")),
        1.0 if dag.has_fusable_consumer else 0.0,
    ]
    out.setflags(write=False)
    dag.__dict__[_EMBEDDING_ATTR] = out
    return out


def embedding_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Euclidean distance between two workload embeddings."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise ValueError(f"embedding shapes differ: {av.shape} vs {bv.shape}")
    return float(np.linalg.norm(av - bv))
