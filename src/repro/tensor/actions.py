"""Parameter modification actions (Table 3 of the paper).

The RL agent modifies a schedule by emitting one sub-action per modification
type:

* **Tiling modification** — a pair ``(i, j)`` of tile slots; the smallest
  prime factor (> 1) of slot ``i`` is divided out and multiplied into slot
  ``j``.  A dummy action leaves the tile sizes unchanged.  Moves across
  different iterators would break the factorisation invariant and therefore
  act as dummies.
* **Compute-at modification** — ``{-1, 0, +1}`` moves the compute-at position
  within the ordered candidate list.
* **Parallel-loops modification** — ``{-1, 0, +1}`` changes the number of
  fused outer loops run in parallel.
* **Auto-unroll modification** — ``{-1, 0, +1}`` moves within the unroll depth
  candidate list.

All deltas are clamped at the boundary of their candidate lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.tensor.dag import ComputeDAG
from repro.tensor.factors import move_factor
from repro.tensor.schedule import Schedule
from repro.tensor.sketch import Sketch

__all__ = ["ModificationAction", "ActionSpace", "apply_action"]

#: Delta candidates shared by the compute-at / parallel / unroll sub-spaces.
DELTA_CHOICES: Tuple[int, ...] = (-1, 0, 1)


@dataclass(frozen=True)
class ModificationAction:
    """One joint action: a sub-action from each modification sub-space.

    ``tile_move`` is ``None`` for the dummy tiling action, otherwise a
    ``(src_slot, dst_slot)`` pair of flattened tile-slot indices.
    """

    tile_move: Optional[Tuple[int, int]]
    compute_at_delta: int
    parallel_delta: int
    unroll_delta: int

    def __post_init__(self) -> None:
        for delta, label in (
            (self.compute_at_delta, "compute_at_delta"),
            (self.parallel_delta, "parallel_delta"),
            (self.unroll_delta, "unroll_delta"),
        ):
            if delta not in DELTA_CHOICES:
                raise ValueError(f"{label} must be in {DELTA_CHOICES}, got {delta}")
        if self.tile_move is not None:
            src, dst = self.tile_move
            if src < 0 or dst < 0:
                raise ValueError(f"invalid tile move {self.tile_move}")

    @property
    def is_noop(self) -> bool:
        return (
            self.tile_move is None
            and self.compute_at_delta == 0
            and self.parallel_delta == 0
            and self.unroll_delta == 0
        )


class ActionSpace:
    """Enumerates the joint action space of a sketch.

    Sub-space sizes follow Appendix A.1 of the paper: the tiling sub-space has
    ``num_slots * num_slots + 1`` actions (the ``+1`` is the dummy action) and
    each of the remaining three sub-spaces has 3 actions.
    """

    def __init__(self, sketch: Sketch):
        self.sketch = sketch
        self.num_tile_slots = sketch.num_tile_slots

    # ------------------------------------------------------------------ #
    @property
    def tiling_size(self) -> int:
        return self.num_tile_slots * self.num_tile_slots + 1

    @property
    def compute_at_size(self) -> int:
        return len(DELTA_CHOICES)

    @property
    def parallel_size(self) -> int:
        return len(DELTA_CHOICES)

    @property
    def unroll_size(self) -> int:
        return len(DELTA_CHOICES)

    @property
    def head_sizes(self) -> Tuple[int, int, int, int]:
        """Action-head sizes in the fixed order (tiling, compute-at, parallel, unroll)."""
        return (self.tiling_size, self.compute_at_size, self.parallel_size, self.unroll_size)

    # ------------------------------------------------------------------ #
    def decode_tiling(self, index: int) -> Optional[Tuple[int, int]]:
        """Map a tiling-head index to a ``(src, dst)`` slot pair (``None`` = dummy)."""
        if not (0 <= index < self.tiling_size):
            raise IndexError(index)
        if index == self.tiling_size - 1:
            return None
        src, dst = divmod(index, self.num_tile_slots)
        return (src, dst)

    def encode_tiling(self, move: Optional[Tuple[int, int]]) -> int:
        if move is None:
            return self.tiling_size - 1
        src, dst = move
        if not (0 <= src < self.num_tile_slots and 0 <= dst < self.num_tile_slots):
            raise IndexError(move)
        return src * self.num_tile_slots + dst

    def decode(self, indices: Tuple[int, int, int, int]) -> ModificationAction:
        """Decode one index per head into a :class:`ModificationAction`."""
        tile_idx, ca_idx, par_idx, unroll_idx = indices
        return ModificationAction(
            tile_move=self.decode_tiling(int(tile_idx)),
            compute_at_delta=DELTA_CHOICES[int(ca_idx)],
            parallel_delta=DELTA_CHOICES[int(par_idx)],
            unroll_delta=DELTA_CHOICES[int(unroll_idx)],
        )

    def encode(self, action: ModificationAction) -> Tuple[int, int, int, int]:
        return (
            self.encode_tiling(action.tile_move),
            DELTA_CHOICES.index(action.compute_at_delta),
            DELTA_CHOICES.index(action.parallel_delta),
            DELTA_CHOICES.index(action.unroll_delta),
        )

    def sample(self, rng: np.random.Generator) -> ModificationAction:
        """Uniformly sample a joint action (used by the uniform-selection baselines)."""
        indices = (
            int(rng.integers(0, self.tiling_size)),
            int(rng.integers(0, self.compute_at_size)),
            int(rng.integers(0, self.parallel_size)),
            int(rng.integers(0, self.unroll_size)),
        )
        return self.decode(indices)

    def all_single_tile_moves(self) -> List[ModificationAction]:
        """All actions that perform exactly one tiling move (used by exhaustive tests)."""
        actions = []
        for src in range(self.num_tile_slots):
            for dst in range(self.num_tile_slots):
                if src == dst:
                    continue
                actions.append(
                    ModificationAction(
                        tile_move=(src, dst),
                        compute_at_delta=0,
                        parallel_delta=0,
                        unroll_delta=0,
                    )
                )
        return actions


def _clamp(value: int, low: int, high: int) -> int:
    return max(low, min(high, value))


#: Attribute under which a DAG's action bounds are memoised.
_BOUNDS_ATTR = "_action_bounds_cache"


def _action_bounds(dag: ComputeDAG) -> Tuple[int, int]:
    """``(compute-at candidate count, main-stage spatial iterator count)``.

    Computed once per DAG instance and stored on it, like the DAG's
    structural fingerprint: DAGs are treated as immutable once built.
    """
    bounds = dag.__dict__.get(_BOUNDS_ATTR)
    if bounds is None:
        bounds = (len(dag.compute_at_candidates()), len(dag.main_stage.spatial_iters))
        dag.__dict__[_BOUNDS_ATTR] = bounds
    return bounds


def apply_action(schedule: Schedule, action: ModificationAction) -> Schedule:
    """Apply a :class:`ModificationAction` to a schedule, returning a new schedule.

    The input schedule is never modified.  Invalid tiling moves (source slot
    holds no factor, or source and destination belong to different iterators)
    degrade to no-ops, matching the dummy-action semantics of the paper.
    """
    new = schedule.copy()

    if action.tile_move is not None:
        src, dst = action.tile_move
        if src < new.num_tile_slots and dst < new.num_tile_slots:
            src_iter, src_level = new.slot_to_iter(src)
            dst_iter, dst_level = new.slot_to_iter(dst)
            if src_iter == dst_iter:
                new.tile_sizes[src_iter] = move_factor(
                    new.tile_sizes[src_iter], src_level, dst_level
                )

    n_candidates, max_parallel = _action_bounds(new.dag)
    new.compute_at_index = _clamp(
        new.compute_at_index + action.compute_at_delta, 0, n_candidates - 1
    )
    new.num_parallel = _clamp(new.num_parallel + action.parallel_delta, 0, max_parallel)
    new.unroll_index = _clamp(
        new.unroll_index + action.unroll_delta, 0, len(new.unroll_depths) - 1
    )
    return new
