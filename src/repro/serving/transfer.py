"""Schedule adaptation for registry warm starts, as pure functions.

:func:`adapt_schedule` re-fits a borrowed schedule to a similar workload on
the same target, :func:`adapt_schedule_to_target` to another device, and
:func:`target_variants` adds a cross-target adaptation's near neighbours.
``ScheduleRegistry.warm_start_transfers`` runs the queries and calls them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.caching import cached_sketches
from repro.hardware.target import HardwareTarget
from repro.tensor.dag import DTYPE_BYTES, ComputeDAG
from repro.tensor.factors import prime_factors, product
from repro.tensor.schedule import Schedule

__all__ = ["adapt_schedule", "adapt_schedule_to_target", "fit_tile_sizes", "target_variants"]


def _reshape_reference(reference: Sequence[int], levels: int) -> List[int]:
    """Re-shape a donor tile-size list to a new tiling depth.

    Innermost (vector / register) tiles carry the transferable structure, so
    surplus *outer* levels are folded together and missing outer levels are
    padded with 1 — the innermost entries always survive verbatim.
    """
    ref = [max(int(v), 1) for v in reference]
    if len(ref) > levels:
        keep = levels - 1
        ref = [product(ref[: len(ref) - keep])] + ref[len(ref) - keep:]
    elif len(ref) < levels:
        ref = [1] * (levels - len(ref)) + ref
    return ref


def fit_tile_sizes(extent: int, levels: int, reference: Sequence[int]) -> List[int]:
    """Re-fit a reference tile-size list to a new extent.

    Distributes the prime factors of ``extent`` (largest first) over
    ``levels`` slots, greedily assigning each factor to the slot furthest
    below its reference size, so the shape of the borrowed tiling is
    preserved as closely as the new extent's factorisation allows.  The
    result always multiplies to ``extent`` exactly.
    """
    reference = list(reference) + [1] * (levels - len(reference))
    sizes = [1] * levels
    for p in sorted(prime_factors(extent), reverse=True):
        ratios = [reference[i] / sizes[i] for i in range(levels)]
        slot = max(range(levels), key=lambda i: (ratios[i], i))
        sizes[slot] *= p
    assert product(sizes) == extent
    return sizes


def adapt_schedule(data: dict, dag: ComputeDAG) -> Optional[Schedule]:
    """Transfer a stored schedule onto a structurally *similar* DAG.

    Regenerates the sketch family of ``dag`` at the stored tiling depths,
    picks the stored sketch rule if it exists, and re-fits every tile-size
    list to the new iterator extents; knob indices are clamped to the new
    valid ranges.  Returns ``None`` when no sketch of ``dag`` matches the
    stored rule (e.g. a fusion sketch borrowed for a fusion-free DAG).
    """
    try:
        sketches = cached_sketches(
            dag,
            spatial_levels=int(data["spatial_levels"]),
            reduction_levels=int(data["reduction_levels"]),
        )
    except (KeyError, TypeError, ValueError):
        return None
    matches = [s for s in sketches if s.key == data.get("sketch_key")]
    if not matches:
        return None
    sketch = matches[0]
    try:
        reference = [list(map(int, sizes)) for sizes in data.get("tile_sizes", [])]
        tile_sizes: List[List[int]] = []
        for idx, (_name, _kind, extent, levels) in enumerate(sketch.tiled_iters):
            ref = reference[idx] if idx < len(reference) else []
            tile_sizes.append(fit_tile_sizes(int(extent), int(levels), ref))
        n_candidates = len(dag.compute_at_candidates())
        max_parallel = len(dag.main_stage.spatial_iters)
        unroll_depths = tuple(int(d) for d in data.get("unroll_depths", (0,)))
        return Schedule(
            sketch=sketch,
            tile_sizes=tile_sizes,
            compute_at_index=min(int(data.get("compute_at_index", 0)), n_candidates - 1),
            num_parallel=min(int(data.get("num_parallel", 1)), max_parallel),
            unroll_index=min(
                int(data.get("unroll_index", 0)), len(unroll_depths) - 1
            ),
            unroll_depths=unroll_depths,
        )
    except (KeyError, TypeError, ValueError):
        return None


def target_variants(schedule: Schedule, limit: int) -> List[Schedule]:
    """Small ensemble of near variants of one transferred schedule.

    Cross-target transfer is uncertain — the donor's optimal unroll depth
    and parallelism rarely survive a change of vector width, cache sizes
    or core count exactly — so the straight adaptation is proposed
    together with its unroll and parallelism neighbours and the
    destination's measurements arbitrate.  The straight adaptation is
    always first.
    """
    out = [schedule]
    for index in range(len(schedule.unroll_depths)):
        if index != schedule.unroll_index:
            variant = schedule.copy()
            variant.unroll_index = index
            out.append(variant)
    if schedule.num_parallel > 1:
        variant = schedule.copy()
        variant.num_parallel = schedule.num_parallel - 1
        out.append(variant)
    if schedule.num_parallel < schedule.max_parallel:
        variant = schedule.copy()
        variant.num_parallel = schedule.num_parallel + 1
        out.append(variant)
    return out[: max(limit, 0)]


def adapt_schedule_to_target(
    data: dict, dag: ComputeDAG, target: HardwareTarget
) -> Optional[Schedule]:
    """Transfer a stored schedule onto a *different* hardware target.

    Unlike :func:`adapt_schedule` (same target, similar workload), the
    donor's tiling depths, vector width, cache capacities and unroll
    candidates may all differ from the destination's.  The sketch family
    is regenerated at the destination's tiling depths; each donor
    tile-size list is re-shaped to the new depth (innermost tiles
    preserved), the innermost spatial tile is rounded to a multiple of
    the destination ``vector_width``, the register/L1 working set is
    shrunk until it fits ``l1_bytes``, and the unroll depth is mapped to
    the nearest destination candidate.  Returns ``None`` when no sketch
    of ``dag`` at the destination depths matches the stored rule.
    """
    try:
        sketches = cached_sketches(
            dag,
            spatial_levels=target.sketch_spatial_levels,
            reduction_levels=target.sketch_reduction_levels,
        )
    except (TypeError, ValueError):
        return None
    matches = [s for s in sketches if s.key == data.get("sketch_key")]
    if not matches:
        return None
    sketch = matches[0]
    try:
        reference = [list(map(int, sizes)) for sizes in data.get("tile_sizes", [])]
        refs: List[List[int]] = []
        for idx, (_name, _kind, _extent, levels) in enumerate(sketch.tiled_iters):
            ref = reference[idx] if idx < len(reference) else []
            refs.append(_reshape_reference(ref, levels))

        spatial_idx = [
            i for i, (_n, kind, _e, _l) in enumerate(sketch.tiled_iters)
            if kind == "spatial"
        ]
        reduction_idx = [
            i for i, (_n, kind, _e, _l) in enumerate(sketch.tiled_iters)
            if kind == "reduction"
        ]
        vw = target.vector_width
        if spatial_idx:
            # The innermost spatial tile is the vectorised axis: round the
            # donor's size to a whole number of destination SIMD lanes.
            vec = refs[spatial_idx[-1]]
            vec[-1] = max(vw, vw * max(1, round(vec[-1] / vw)))
        # Shrink the register/L1 tile until it fits the destination cache:
        # the footprint is the innermost spatial tile volume streamed over
        # the innermost reduction tile (cf. the simulator's cache model).
        def l1_footprint() -> float:
            sp = product([refs[i][-1] for i in spatial_idx]) if spatial_idx else 1
            red = product([refs[i][-1] for i in reduction_idx]) if reduction_idx else 1
            return DTYPE_BYTES * sp * max(red, 1)

        while l1_footprint() > target.l1_bytes:
            shrinkable = [
                i for i in spatial_idx + reduction_idx
                if refs[i][-1] > (vw if spatial_idx and i == spatial_idx[-1] else 1)
            ]
            if not shrinkable:
                break
            largest = max(shrinkable, key=lambda i: refs[i][-1])
            value = refs[largest][-1] // 2
            if spatial_idx and largest == spatial_idx[-1]:
                # The vectorised axis must stay a whole number of lanes.
                value = max(vw * (value // vw), vw)
            refs[largest][-1] = max(value, 1)

        tile_sizes = [
            fit_tile_sizes(int(extent), int(levels), refs[idx])
            for idx, (_name, _kind, extent, levels) in enumerate(sketch.tiled_iters)
        ]

        donor_depths = [int(d) for d in data.get("unroll_depths", (0,))] or [0]
        donor_index = min(int(data.get("unroll_index", 0)), len(donor_depths) - 1)
        donor_depth = donor_depths[max(donor_index, 0)]
        depths = target.unroll_depths
        unroll_index = min(
            range(len(depths)), key=lambda i: (abs(depths[i] - donor_depth), i)
        )

        n_candidates = len(dag.compute_at_candidates())
        max_parallel = len(dag.main_stage.spatial_iters)
        return Schedule(
            sketch=sketch,
            tile_sizes=tile_sizes,
            compute_at_index=min(int(data.get("compute_at_index", 0)), n_candidates - 1),
            num_parallel=min(int(data.get("num_parallel", 1)), max_parallel),
            unroll_index=unroll_index,
            unroll_depths=tuple(depths),
        )
    except (KeyError, TypeError, ValueError):
        return None
