"""Feature extraction for schedules.

Both the learned cost model and the RL agent consume a fixed-length numeric
feature vector describing a schedule: log-scale tile sizes per iterator and
level, loop extents, parallelisation / unrolling / compute-at knobs and
aggregate workload statistics.  The layout is padded to fixed maxima so every
operator class produces vectors of the same size (:data:`FEATURE_SIZE`).

Two implementations share the layout:

* :func:`schedule_features` — the scalar reference implementation for a
  single schedule,
* :func:`batch_features` — a vectorised implementation that groups the batch
  by sketch, computes the sketch/workload-static feature blocks once per
  group and fills the per-schedule blocks with NumPy scatter operations.

The vectorised path produces bit-identical vectors (it applies the same
float64 operations in the same order per element) while avoiding the
per-schedule Python function call and array allocation, which makes large
cost-model batches several times faster than looping over
:func:`schedule_features`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.tensor.schedule import Schedule
from repro.tensor.sketch import Sketch

__all__ = ["FEATURE_SIZE", "schedule_features", "batch_features"]

#: Padding maxima: conv3d has 5 spatial iterators (n, co, od, oh, ow) and
#: 4 reduction iterators (ci, kd, kh, kw); GPU sketches use up to 5 spatial
#: and 3 reduction tiling levels.
MAX_SPATIAL_ITERS = 5
MAX_REDUCTION_ITERS = 4
MAX_SPATIAL_LEVELS = 5
MAX_REDUCTION_LEVELS = 3

_SPATIAL_TILE_BLOCK = MAX_SPATIAL_ITERS * MAX_SPATIAL_LEVELS
_TILE_BLOCK = _SPATIAL_TILE_BLOCK + MAX_REDUCTION_ITERS * MAX_REDUCTION_LEVELS
_EXTENT_BLOCK = MAX_SPATIAL_ITERS + MAX_REDUCTION_ITERS
_SCALAR_BLOCK = 13

FEATURE_SIZE = _TILE_BLOCK + _EXTENT_BLOCK + _SCALAR_BLOCK


def _log2(value: float) -> float:
    return float(np.log2(max(float(value), 1.0)))


def schedule_features(schedule: Schedule) -> np.ndarray:
    """Compute the feature vector of one schedule.

    Layout (all tile sizes and extents are ``log2``-scaled):

    1. spatial tile sizes — ``MAX_SPATIAL_ITERS x MAX_SPATIAL_LEVELS`` slots,
    2. reduction tile sizes — ``MAX_REDUCTION_ITERS x MAX_REDUCTION_LEVELS`` slots,
    3. spatial / reduction iterator extents,
    4. scalar knobs and workload statistics (parallel extent, unroll depth,
       compute-at position, register-tile volume, FLOPs, arithmetic intensity,
       sketch flags, ...).
    """
    out = np.zeros(FEATURE_SIZE, dtype=np.float64)
    dag = schedule.dag

    # --- tile sizes -------------------------------------------------- #
    offset = 0
    spatial = schedule.spatial_tile_sizes()
    for i in range(MAX_SPATIAL_ITERS):
        for j in range(MAX_SPATIAL_LEVELS):
            if i < len(spatial) and j < len(spatial[i]):
                out[offset] = _log2(spatial[i][j])
            offset += 1
    reduction = schedule.reduction_tile_sizes()
    for i in range(MAX_REDUCTION_ITERS):
        for j in range(MAX_REDUCTION_LEVELS):
            if i < len(reduction) and j < len(reduction[i]):
                out[offset] = _log2(reduction[i][j])
            offset += 1

    # --- iterator extents -------------------------------------------- #
    spatial_iters = dag.main_stage.spatial_iters
    for i in range(MAX_SPATIAL_ITERS):
        if i < len(spatial_iters):
            out[offset] = _log2(spatial_iters[i].extent)
        offset += 1
    reduction_iters = dag.main_stage.reduction_iters
    for i in range(MAX_REDUCTION_ITERS):
        if i < len(reduction_iters):
            out[offset] = _log2(reduction_iters[i].extent)
        offset += 1

    # --- scalar knobs and workload statistics ------------------------ #
    n_candidates = len(dag.compute_at_candidates())
    scalars = [
        float(schedule.num_parallel),
        float(schedule.num_parallel) / max(schedule.max_parallel, 1),
        _log2(schedule.parallel_extent()),
        _log2(schedule.unroll_depth + 1),
        float(schedule.compute_at_index) / max(n_candidates - 1, 1),
        _log2(schedule.innermost_spatial_volume()),
        _log2(schedule.innermost_reduction_volume()),
        _log2(spatial[-1][-1] if spatial else 1),  # vectorisable innermost tile
        _log2(dag.flops),
        _log2(dag.arithmetic_intensity() + 1.0),
        1.0 if schedule.sketch.fuse_consumer else 0.0,
        1.0 if schedule.sketch.cache_write else 0.0,
        1.0 if schedule.sketch.rfactor else 0.0,
    ]
    assert len(scalars) == _SCALAR_BLOCK
    out[offset : offset + _SCALAR_BLOCK] = scalars
    return out


class _SketchLayout:
    """Precomputed feature-layout metadata for one sketch.

    All schedules instantiating the same sketch share their tile-list
    structure, iterator extents and workload statistics; only the tile sizes
    and the scalar knobs differ.  This object caches everything that can be
    computed once per sketch:

    * the scatter map from flattened tile-size positions to feature columns,
    * flat positions of the outermost / innermost tile of every spatial and
      reduction iterator (for parallel-extent and register-tile features),
    * the static feature template (extents, FLOPs, sketch flags, ...).
    """

    def __init__(self, sketch: Sketch):
        dag = sketch.dag
        tiled = sketch.tiled_iters

        flat_pos: List[int] = []      # kept flattened tile positions
        columns: List[int] = []       # feature column for each kept position
        spatial_outer: List[int] = [] # flat position of sizes[0] per spatial iter
        spatial_inner: List[int] = [] # flat position of sizes[-1] per spatial iter
        reduction_inner: List[int] = []

        pos = 0
        spatial_idx = 0
        reduction_idx = 0
        for _name, kind, _extent, levels in tiled:
            if kind == "spatial":
                for j in range(levels):
                    if spatial_idx < MAX_SPATIAL_ITERS and j < MAX_SPATIAL_LEVELS:
                        flat_pos.append(pos + j)
                        columns.append(spatial_idx * MAX_SPATIAL_LEVELS + j)
                spatial_outer.append(pos)
                spatial_inner.append(pos + levels - 1)
                spatial_idx += 1
            else:
                for j in range(levels):
                    if reduction_idx < MAX_REDUCTION_ITERS and j < MAX_REDUCTION_LEVELS:
                        flat_pos.append(pos + j)
                        columns.append(
                            _SPATIAL_TILE_BLOCK + reduction_idx * MAX_REDUCTION_LEVELS + j
                        )
                reduction_inner.append(pos + levels - 1)
                reduction_idx += 1
            pos += levels

        self.flat_pos = np.asarray(flat_pos, dtype=np.intp)
        self.columns = np.asarray(columns, dtype=np.intp)
        self.spatial_outer = np.asarray(spatial_outer, dtype=np.intp)
        self.spatial_inner = np.asarray(spatial_inner, dtype=np.intp)
        self.reduction_inner = np.asarray(reduction_inner, dtype=np.intp)
        self.max_parallel = max(len(dag.main_stage.spatial_iters), 1)
        self.ca_denominator = max(len(dag.compute_at_candidates()) - 1, 1)

        # Static feature template: iterator extents + workload statistics.
        template = np.zeros(FEATURE_SIZE, dtype=np.float64)
        offset = _TILE_BLOCK
        for i, it in enumerate(dag.main_stage.spatial_iters[:MAX_SPATIAL_ITERS]):
            template[offset + i] = _log2(it.extent)
        offset += MAX_SPATIAL_ITERS
        for i, it in enumerate(dag.main_stage.reduction_iters[:MAX_REDUCTION_ITERS]):
            template[offset + i] = _log2(it.extent)
        scalars = _TILE_BLOCK + _EXTENT_BLOCK
        template[scalars + 8] = _log2(dag.flops)
        template[scalars + 9] = _log2(dag.arithmetic_intensity() + 1.0)
        template[scalars + 10] = 1.0 if sketch.fuse_consumer else 0.0
        template[scalars + 11] = 1.0 if sketch.cache_write else 0.0
        template[scalars + 12] = 1.0 if sketch.rfactor else 0.0
        self.template = template


#: Attribute under which the layout is memoised on the (frozen) sketch.
_LAYOUT_ATTR = "_feature_layout_cache"


def _layout_of(sketch: Sketch) -> _SketchLayout:
    """The sketch's feature layout, computed once per sketch instance.

    Sketches are frozen dataclasses treated as immutable by every consumer,
    so the layout is stored directly on the instance (like the DAG's
    fingerprint cache) and shared by all batches that reference the sketch —
    including across schedulers, thanks to the shared sketch cache.
    """
    layout = sketch.__dict__.get(_LAYOUT_ATTR)
    if layout is None:
        layout = _SketchLayout(sketch)
        object.__setattr__(sketch, _LAYOUT_ATTR, layout)
    return layout


def _fill_group(
    out: np.ndarray, rows: Sequence[int], schedules: Sequence[Schedule]
) -> None:
    """Fill feature rows for a group of schedules that share one sketch."""
    layout = _layout_of(schedules[0].sketch)
    rows = np.asarray(rows, dtype=np.intp)
    out[rows] = layout.template

    tiles = np.asarray([s.flat_tile_sizes() for s in schedules], dtype=np.float64)
    scalars = _TILE_BLOCK + _EXTENT_BLOCK

    # Tile-size blocks: one scatter per group instead of per-schedule loops.
    if layout.flat_pos.size:
        out[rows[:, None], layout.columns[None, :]] = np.log2(
            np.maximum(tiles[:, layout.flat_pos], 1.0)
        )

    num_parallel = np.asarray([s.num_parallel for s in schedules], dtype=np.intp)
    out[rows, scalars + 0] = num_parallel.astype(np.float64)
    out[rows, scalars + 1] = num_parallel.astype(np.float64) / layout.max_parallel

    # parallel_extent(): product of the outermost tile of the first
    # ``num_parallel`` spatial iterators — read off a prefix-product table.
    n = len(schedules)
    if layout.spatial_outer.size:
        prefix = np.concatenate(
            [np.ones((n, 1)), np.cumprod(tiles[:, layout.spatial_outer], axis=1)],
            axis=1,
        )
        par_extent = prefix[np.arange(n), num_parallel]
    else:
        par_extent = np.ones(n)
    out[rows, scalars + 2] = np.log2(np.maximum(par_extent, 1.0))

    unroll = np.asarray(
        [s.unroll_depths[s.unroll_index] for s in schedules], dtype=np.float64
    )
    out[rows, scalars + 3] = np.log2(np.maximum(unroll + 1.0, 1.0))

    compute_at = np.asarray([s.compute_at_index for s in schedules], dtype=np.float64)
    out[rows, scalars + 4] = compute_at / layout.ca_denominator

    if layout.spatial_inner.size:
        spatial_vol = np.prod(tiles[:, layout.spatial_inner], axis=1)
        vec_tile = tiles[:, layout.spatial_inner[-1]]
    else:
        spatial_vol = np.ones(n)
        vec_tile = np.ones(n)
    if layout.reduction_inner.size:
        reduction_vol = np.prod(tiles[:, layout.reduction_inner], axis=1)
    else:
        reduction_vol = np.ones(n)
    out[rows, scalars + 5] = np.log2(np.maximum(spatial_vol, 1.0))
    out[rows, scalars + 6] = np.log2(np.maximum(reduction_vol, 1.0))
    out[rows, scalars + 7] = np.log2(np.maximum(vec_tile, 1.0))


def batch_features(schedules: Sequence[Schedule]) -> np.ndarray:
    """Stack feature vectors for a batch of schedules (``(N, FEATURE_SIZE)``).

    The batch is grouped by sketch so sketch- and workload-static feature
    blocks are computed once per group; tile sizes and scalar knobs are filled
    with vectorised scatter operations.  Rows are bit-identical to calling
    :func:`schedule_features` on each schedule individually.
    """
    if not schedules:
        return np.zeros((0, FEATURE_SIZE), dtype=np.float64)
    out = np.zeros((len(schedules), FEATURE_SIZE), dtype=np.float64)
    groups: Dict[int, Tuple[Sketch, List[int]]] = {}
    for idx, schedule in enumerate(schedules):
        groups.setdefault(id(schedule.sketch), (schedule.sketch, []))[1].append(idx)
    for _sketch, rows in groups.values():
        _fill_group(out, rows, [schedules[i] for i in rows])
    return out
