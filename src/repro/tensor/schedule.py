"""Schedule state representation.

A :class:`Schedule` is one point of the low-level parameter search space: a
sketch plus concrete values for every tuning knob — per-iterator multi-level
tile sizes, the compute-at position of the fused/cached stage, the number of
fused outer loops that run in parallel, and the auto-unroll depth.  The RL
agent and the evolutionary search both operate on these objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.tensor.factors import product
from repro.tensor.sketch import Sketch

__all__ = ["Schedule", "CPU_UNROLL_DEPTHS", "GPU_UNROLL_DEPTHS"]

#: Auto-unroll depth candidate lists (Appendix A.1 of the paper).
CPU_UNROLL_DEPTHS: Tuple[int, ...] = (0, 16, 64, 512)
GPU_UNROLL_DEPTHS: Tuple[int, ...] = (0, 16, 64, 512, 1024)


@dataclass
class Schedule:
    """A fully-specified tensor program candidate.

    Attributes
    ----------
    sketch:
        The sketch (program structure) this schedule instantiates.
    tile_sizes:
        One factor list per tiled iterator (aligned with
        ``sketch.tiled_iters``), ordered outermost → innermost; the product of
        each list equals the iterator extent.
    compute_at_index:
        Index into ``sketch.dag.compute_at_candidates()`` selecting where the
        fused consumer / cached output stage is computed.
    num_parallel:
        Number of fused outermost spatial loops executed in parallel.
    unroll_index:
        Index into ``unroll_depths`` selecting the ``pragma unroll`` depth.
    unroll_depths:
        The candidate unroll depth list (target dependent).
    """

    sketch: Sketch
    tile_sizes: List[List[int]]
    compute_at_index: int
    num_parallel: int
    unroll_index: int
    unroll_depths: Tuple[int, ...] = CPU_UNROLL_DEPTHS

    def __post_init__(self) -> None:
        tiled = self.sketch.tiled_iters
        if len(self.tile_sizes) != len(tiled):
            raise ValueError(
                f"expected {len(tiled)} tile-size lists, got {len(self.tile_sizes)}"
            )
        for sizes, (name, _kind, extent, levels) in zip(self.tile_sizes, tiled):
            if len(sizes) != levels:
                raise ValueError(
                    f"iterator {name!r} expects {levels} tile levels, got {len(sizes)}"
                )
            if product(sizes) != extent:
                raise ValueError(
                    f"tile sizes {sizes} of iterator {name!r} do not multiply to extent {extent}"
                )
            if any(s < 1 for s in sizes):
                raise ValueError(f"non-positive tile size in {sizes} for iterator {name!r}")
        n_candidates = len(self.sketch.dag.compute_at_candidates())
        if not (0 <= self.compute_at_index < n_candidates):
            raise ValueError(
                f"compute_at_index {self.compute_at_index} out of range [0, {n_candidates})"
            )
        max_parallel = len(self.sketch.dag.main_stage.spatial_iters)
        if not (0 <= self.num_parallel <= max_parallel):
            raise ValueError(f"num_parallel {self.num_parallel} out of range [0, {max_parallel}]")
        if not (0 <= self.unroll_index < len(self.unroll_depths)):
            raise ValueError(
                f"unroll_index {self.unroll_index} out of range [0, {len(self.unroll_depths)})"
            )

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def dag(self):
        return self.sketch.dag

    @property
    def unroll_depth(self) -> int:
        return self.unroll_depths[self.unroll_index]

    @property
    def max_parallel(self) -> int:
        return len(self.sketch.dag.main_stage.spatial_iters)

    @property
    def num_tile_slots(self) -> int:
        return sum(len(sizes) for sizes in self.tile_sizes)

    def slot_to_iter(self, slot: int) -> Tuple[int, int]:
        """Map a flattened tile slot index to ``(iter_index, level_index)``."""
        if slot < 0:
            raise IndexError(slot)
        offset = slot
        for iter_idx, sizes in enumerate(self.tile_sizes):
            if offset < len(sizes):
                return iter_idx, offset
            offset -= len(sizes)
        raise IndexError(slot)

    def flat_tile_sizes(self) -> List[int]:
        """All tile sizes flattened in slot order."""
        out: List[int] = []
        for sizes in self.tile_sizes:
            out.extend(sizes)
        return out

    def spatial_tile_sizes(self) -> List[List[int]]:
        return [
            sizes
            for sizes, (_n, kind, _e, _l) in zip(self.tile_sizes, self.sketch.tiled_iters)
            if kind == "spatial"
        ]

    def reduction_tile_sizes(self) -> List[List[int]]:
        return [
            sizes
            for sizes, (_n, kind, _e, _l) in zip(self.tile_sizes, self.sketch.tiled_iters)
            if kind == "reduction"
        ]

    def parallel_extent(self) -> int:
        """Iterations executed by the fused outer parallel loop."""
        if self.num_parallel == 0:
            return 1
        extent = 1
        for sizes in self.spatial_tile_sizes()[: self.num_parallel]:
            extent *= sizes[0]
        return extent

    def innermost_spatial_volume(self) -> int:
        """Product of the innermost-level spatial tile sizes (the register tile)."""
        vol = 1
        for sizes in self.spatial_tile_sizes():
            vol *= sizes[-1]
        return vol

    def innermost_reduction_volume(self) -> int:
        vol = 1
        for sizes in self.reduction_tile_sizes():
            vol *= sizes[-1]
        return vol

    # ------------------------------------------------------------------ #
    # Identity / copying
    # ------------------------------------------------------------------ #
    def signature(self) -> Tuple:
        """Hashable identity of the schedule (used for dedup and the simulator's
        deterministic per-schedule ruggedness).

        Deliberately keyed on the display name, not the structural
        fingerprint: the simulator's rugged landscape is seeded from this
        signature, and re-keying it would re-roll every simulated latency in
        the repository.  Structural identity (dedup, record routing, the
        schedule registry) lives in
        :func:`repro.tensor.dag.structural_fingerprint` instead.
        """
        return (
            self.sketch.dag.name,
            self.sketch.key,
            tuple(tuple(sizes) for sizes in self.tile_sizes),
            self.compute_at_index,
            self.num_parallel,
            self.unroll_index,
        )

    def copy(self) -> "Schedule":
        """A copy with its own tile lists, built without revalidation.

        The copy trusts ``self``: a schedule is validated when it is
        constructed, and every caller copies a valid schedule and then
        assigns values clamped to the valid ranges.  Skipping
        :meth:`__post_init__` matters on the search hot path, where each
        action copies one schedule.
        """
        new = object.__new__(type(self))
        new.sketch = self.sketch
        new.tile_sizes = [list(sizes) for sizes in self.tile_sizes]
        new.compute_at_index = self.compute_at_index
        new.num_parallel = self.num_parallel
        new.unroll_index = self.unroll_index
        new.unroll_depths = self.unroll_depths
        return new

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tiles = ",".join("x".join(str(s) for s in sizes) for sizes in self.tile_sizes)
        return (
            f"Schedule({self.dag.name}, sketch={self.sketch.key}, tiles=[{tiles}], "
            f"ca={self.compute_at_index}, par={self.num_parallel}, unroll={self.unroll_depth})"
        )
