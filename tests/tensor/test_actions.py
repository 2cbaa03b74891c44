"""Unit tests for the modification action space (Table 3)."""

import itertools

import numpy as np
import pytest

from repro.tensor.actions import ActionSpace, ModificationAction, apply_action
from repro.tensor.factors import product
from repro.tensor.sampler import sample_initial_schedules, sample_schedule
from repro.tensor.schedule import Schedule
from repro.tensor.sketch import generate_sketches
from repro.tensor.workloads import conv2d, gemm


@pytest.fixture
def space(gemm_sketch):
    return ActionSpace(gemm_sketch)


class TestActionSpaceSizes:
    def test_tiling_head_size(self, space, gemm_sketch):
        n = gemm_sketch.num_tile_slots
        assert space.tiling_size == n * n + 1

    def test_delta_heads_have_three_actions(self, space):
        assert space.compute_at_size == 3
        assert space.parallel_size == 3
        assert space.unroll_size == 3

    def test_head_sizes_order(self, space):
        assert space.head_sizes == (space.tiling_size, 3, 3, 3)


class TestEncodingDecoding:
    def test_dummy_tiling_is_last_index(self, space):
        assert space.decode_tiling(space.tiling_size - 1) is None
        assert space.encode_tiling(None) == space.tiling_size - 1

    def test_roundtrip_all_tiling_indices(self, space):
        for idx in range(space.tiling_size):
            move = space.decode_tiling(idx)
            assert space.encode_tiling(move) == idx

    def test_decode_out_of_range(self, space):
        with pytest.raises(IndexError):
            space.decode_tiling(space.tiling_size)

    def test_joint_roundtrip(self, space):
        action = space.decode((5, 0, 2, 1))
        assert space.encode(action) == (5, 0, 2, 1)

    def test_sample_within_bounds(self, space, rng):
        for _ in range(50):
            action = space.sample(rng)
            indices = space.encode(action)
            for idx, size in zip(indices, space.head_sizes):
                assert 0 <= idx < size

    def test_all_single_tile_moves_count(self, space, gemm_sketch):
        n = gemm_sketch.num_tile_slots
        assert len(space.all_single_tile_moves()) == n * (n - 1)


class TestModificationAction:
    def test_noop_detection(self):
        assert ModificationAction(None, 0, 0, 0).is_noop
        assert not ModificationAction((0, 1), 0, 0, 0).is_noop

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            ModificationAction(None, 2, 0, 0)

    def test_rejects_negative_slots(self):
        with pytest.raises(ValueError):
            ModificationAction((-1, 0), 0, 0, 0)


class TestApplyAction:
    def test_noop_returns_equal_schedule(self, gemm_sketch, rng):
        schedule = sample_schedule(gemm_sketch, rng)
        out = apply_action(schedule, ModificationAction(None, 0, 0, 0))
        assert out == schedule
        assert out is not schedule

    def test_input_schedule_never_mutated(self, gemm_sketch, rng):
        schedule = sample_schedule(gemm_sketch, rng)
        signature = schedule.signature()
        space = ActionSpace(gemm_sketch)
        for _ in range(30):
            apply_action(schedule, space.sample(rng))
        assert schedule.signature() == signature

    def test_tile_move_preserves_extent_products(self, gemm_sketch, rng):
        schedule = sample_schedule(gemm_sketch, rng)
        space = ActionSpace(gemm_sketch)
        for action in space.all_single_tile_moves():
            out = apply_action(schedule, action)
            for sizes, (_n, _k, extent, _l) in zip(out.tile_sizes, gemm_sketch.tiled_iters):
                assert product(sizes) == extent

    def test_cross_iterator_move_is_noop_on_tiles(self, gemm_sketch, rng):
        schedule = sample_schedule(gemm_sketch, rng)
        # slot 0 belongs to iterator i; the last slot belongs to the reduction k.
        action = ModificationAction((0, schedule.num_tile_slots - 1), 0, 0, 0)
        out = apply_action(schedule, action)
        assert out.tile_sizes == schedule.tile_sizes

    def test_same_iterator_move_changes_tiles(self, gemm_sketch):
        tile_sizes = [[8, 1, 1, 16], [128, 1, 1, 1], [128, 1]]
        from repro.tensor.schedule import Schedule

        schedule = Schedule(gemm_sketch, tile_sizes, 0, 1, 0)
        out = apply_action(schedule, ModificationAction((0, 3), 0, 0, 0))
        assert out.tile_sizes[0] == [4, 1, 1, 32]

    def test_compute_at_clamped_low(self, gemm_sketch, rng):
        schedule = sample_schedule(gemm_sketch, rng)
        schedule.compute_at_index = 0
        out = apply_action(schedule, ModificationAction(None, -1, 0, 0))
        assert out.compute_at_index == 0

    def test_compute_at_clamped_high(self, gemm_sketch, rng):
        schedule = sample_schedule(gemm_sketch, rng)
        top = len(schedule.dag.compute_at_candidates()) - 1
        schedule.compute_at_index = top
        out = apply_action(schedule, ModificationAction(None, 1, 0, 0))
        assert out.compute_at_index == top

    def test_parallel_delta_applied(self, gemm_sketch, rng):
        schedule = sample_schedule(gemm_sketch, rng)
        schedule.num_parallel = 1
        out = apply_action(schedule, ModificationAction(None, 0, 1, 0))
        assert out.num_parallel == 2

    def test_unroll_clamped(self, gemm_sketch, rng):
        schedule = sample_schedule(gemm_sketch, rng)
        schedule.unroll_index = 0
        out = apply_action(schedule, ModificationAction(None, 0, 0, -1))
        assert out.unroll_index == 0

    def test_dummy_plus_deltas_only_touch_knobs(self, gemm_sketch, rng):
        schedule = sample_schedule(gemm_sketch, rng)
        out = apply_action(schedule, ModificationAction(None, 0, 0, 1))
        assert out.tile_sizes == schedule.tile_sizes
        assert out.unroll_index == min(schedule.unroll_index + 1, len(schedule.unroll_depths) - 1)


def _revalidated(schedule):
    """``schedule`` rebuilt through ``Schedule(...)``, which validates every knob."""
    return Schedule(
        sketch=schedule.sketch,
        tile_sizes=[list(sizes) for sizes in schedule.tile_sizes],
        compute_at_index=schedule.compute_at_index,
        num_parallel=schedule.num_parallel,
        unroll_index=schedule.unroll_index,
        unroll_depths=schedule.unroll_depths,
    )


def _with_knobs(schedule, compute_at_index, num_parallel, unroll_index):
    return Schedule(
        sketch=schedule.sketch,
        tile_sizes=[list(sizes) for sizes in schedule.tile_sizes],
        compute_at_index=compute_at_index,
        num_parallel=num_parallel,
        unroll_index=unroll_index,
        unroll_depths=schedule.unroll_depths,
    )


class TestEveryActionKeepsSchedulesValid:
    """``apply_action`` copies without revalidation, so its outputs must be
    valid by construction: every head index, from random schedules and from
    schedules with every knob at its lower or upper bound."""

    @pytest.mark.parametrize(
        "dag, sketch_key",
        [
            (gemm(128, 128, 128), "tiling"),
            (conv2d(14, 14, 32, 32, 3, 1, 1), "tiling"),
            (gemm(128, 128, 128), "tiling+fuse"),
            (conv2d(14, 14, 32, 32, 3, 1, 1), "tiling+rfactor"),
        ],
        ids=["gemm", "conv2d", "gemm-fused", "conv2d-rfactor"],
    )
    def test_outputs_pass_construction(self, dag, sketch_key):
        sketch = next(s for s in generate_sketches(dag) if s.key == sketch_key)
        space = ActionSpace(sketch)
        rng = np.random.default_rng(0)
        sampled = sample_initial_schedules(sketch, 2, rng)
        top_ca = len(dag.compute_at_candidates()) - 1
        top_unroll = len(sampled[0].unroll_depths) - 1
        schedules = sampled + [
            _with_knobs(sampled[0], 0, 0, 0),
            _with_knobs(sampled[1], top_ca, sampled[1].max_parallel, top_unroll),
        ]
        deltas = list(itertools.product(range(3), repeat=3))
        for offset, schedule in enumerate(schedules):
            signature = schedule.signature()
            # Every tiling index (cycling through the delta heads), then
            # every delta combination with the dummy tiling action.
            indices = [
                (tile,) + deltas[(tile + offset) % len(deltas)]
                for tile in range(space.tiling_size)
            ] + [(space.tiling_size - 1,) + combo for combo in deltas]
            for index in indices:
                out = apply_action(schedule, space.decode(index))
                assert _revalidated(out) == out
                assert all(a is not b for a, b in zip(out.tile_sizes, schedule.tile_sizes))
            assert schedule.signature() == signature
