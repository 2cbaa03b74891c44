"""Unit tests for the Schedule state representation."""

import pytest

from repro.tensor.factors import product
from repro.tensor.sampler import sample_schedule
from repro.tensor.schedule import CPU_UNROLL_DEPTHS, GPU_UNROLL_DEPTHS, Schedule
from repro.tensor.sketch import generate_sketches
from repro.tensor.workloads import conv2d, gemm


def _manual_schedule(sketch, **overrides):
    tile_sizes = []
    for _name, _kind, extent, levels in sketch.tiled_iters:
        sizes = [1] * levels
        sizes[-1] = extent
        tile_sizes.append(sizes)
    kwargs = dict(
        sketch=sketch,
        tile_sizes=tile_sizes,
        compute_at_index=0,
        num_parallel=1,
        unroll_index=0,
    )
    kwargs.update(overrides)
    return Schedule(**kwargs)


class TestValidation:
    def test_valid_schedule_constructs(self, gemm_sketch):
        schedule = _manual_schedule(gemm_sketch)
        assert schedule.dag.name.startswith("gemm")

    def test_tile_product_must_match_extent(self, gemm_sketch):
        schedule = _manual_schedule(gemm_sketch)
        bad = [list(s) for s in schedule.tile_sizes]
        bad[0][-1] *= 2
        with pytest.raises(ValueError):
            Schedule(gemm_sketch, bad, 0, 1, 0)

    def test_wrong_number_of_lists_rejected(self, gemm_sketch):
        schedule = _manual_schedule(gemm_sketch)
        with pytest.raises(ValueError):
            Schedule(gemm_sketch, schedule.tile_sizes[:-1], 0, 1, 0)

    def test_wrong_level_count_rejected(self, gemm_sketch):
        schedule = _manual_schedule(gemm_sketch)
        bad = [list(s) for s in schedule.tile_sizes]
        bad[0] = bad[0] + [1]
        with pytest.raises(ValueError):
            Schedule(gemm_sketch, bad, 0, 1, 0)

    def test_compute_at_range_checked(self, gemm_sketch):
        with pytest.raises(ValueError):
            _manual_schedule(gemm_sketch, compute_at_index=99)

    def test_num_parallel_range_checked(self, gemm_sketch):
        with pytest.raises(ValueError):
            _manual_schedule(gemm_sketch, num_parallel=7)

    def test_unroll_index_range_checked(self, gemm_sketch):
        with pytest.raises(ValueError):
            _manual_schedule(gemm_sketch, unroll_index=len(CPU_UNROLL_DEPTHS))


class TestDerivedQuantities:
    def test_unroll_depth_lookup(self, gemm_sketch):
        schedule = _manual_schedule(gemm_sketch, unroll_index=2)
        assert schedule.unroll_depth == CPU_UNROLL_DEPTHS[2]

    def test_gpu_unroll_list(self, rng):
        dag = gemm(64, 64, 64)
        sketch = generate_sketches(dag, 5, 3)[0]
        schedule = sample_schedule(sketch, rng, GPU_UNROLL_DEPTHS)
        assert schedule.unroll_depths == GPU_UNROLL_DEPTHS

    def test_slot_to_iter_roundtrip(self, gemm_sketch, rng):
        schedule = sample_schedule(gemm_sketch, rng)
        seen = []
        for slot in range(schedule.num_tile_slots):
            seen.append(schedule.slot_to_iter(slot))
        # Each (iter, level) pair appears exactly once.
        assert len(set(seen)) == schedule.num_tile_slots

    def test_slot_out_of_range(self, gemm_sketch, rng):
        schedule = sample_schedule(gemm_sketch, rng)
        with pytest.raises(IndexError):
            schedule.slot_to_iter(schedule.num_tile_slots)

    def test_parallel_extent_zero_parallel(self, gemm_sketch):
        schedule = _manual_schedule(gemm_sketch, num_parallel=0)
        assert schedule.parallel_extent() == 1

    def test_parallel_extent_product_of_outer_tiles(self, gemm_sketch):
        schedule = _manual_schedule(gemm_sketch)
        schedule.tile_sizes[0] = [4, 1, 1, 32]  # i = 128
        schedule.tile_sizes[1] = [2, 1, 1, 64]  # j = 128
        schedule.num_parallel = 2
        assert schedule.parallel_extent() == 8

    def test_innermost_volumes(self, gemm_sketch):
        schedule = _manual_schedule(gemm_sketch)
        schedule.tile_sizes[0] = [8, 1, 1, 16]
        schedule.tile_sizes[1] = [8, 1, 4, 4]
        schedule.tile_sizes[2] = [16, 8]
        assert schedule.innermost_spatial_volume() == 16 * 4
        assert schedule.innermost_reduction_volume() == 8

    def test_spatial_and_reduction_split(self, gemm_sketch, rng):
        schedule = sample_schedule(gemm_sketch, rng)
        assert len(schedule.spatial_tile_sizes()) == 2
        assert len(schedule.reduction_tile_sizes()) == 1

    def test_flat_tile_sizes_length(self, gemm_sketch, rng):
        schedule = sample_schedule(gemm_sketch, rng)
        assert len(schedule.flat_tile_sizes()) == schedule.num_tile_slots


class TestIdentity:
    def test_copy_is_equal_but_independent(self, gemm_sketch, rng):
        schedule = sample_schedule(gemm_sketch, rng)
        clone = schedule.copy()
        assert clone == schedule
        clone.tile_sizes[0][0] *= 1  # no-op; now actually change a knob
        clone.num_parallel = (clone.num_parallel + 1) % (clone.max_parallel + 1)
        assert clone != schedule

    def test_copy_has_independent_tile_lists(self, gemm_sketch, rng):
        schedule = sample_schedule(gemm_sketch, rng)
        original = [list(sizes) for sizes in schedule.tile_sizes]
        clone = schedule.copy()
        for sizes in clone.tile_sizes:
            sizes.append(1)
        assert schedule.tile_sizes == original

    def test_copy_trusts_its_source(self, gemm_sketch, rng):
        # copy() skips revalidation: callers copy a valid schedule and
        # assign clamped values (see tests/tensor/test_actions.py).
        schedule = sample_schedule(gemm_sketch, rng)
        schedule.compute_at_index = 99
        assert schedule.copy().compute_at_index == 99
        with pytest.raises(ValueError):
            Schedule(
                sketch=schedule.sketch,
                tile_sizes=schedule.tile_sizes,
                compute_at_index=99,
                num_parallel=schedule.num_parallel,
                unroll_index=schedule.unroll_index,
            )

    def test_signature_hashable(self, gemm_sketch, rng):
        schedules = [sample_schedule(gemm_sketch, rng) for _ in range(10)]
        assert len({hash(s) for s in schedules}) >= 2

    def test_conv_schedule_samples_valid(self, rng):
        dag = conv2d(14, 14, 32, 64, 3, 1, 1)
        sketch = generate_sketches(dag)[0]
        schedule = sample_schedule(sketch, rng)
        for sizes, (_n, _k, extent, _l) in zip(schedule.tile_sizes, sketch.tiled_iters):
            assert product(sizes) == extent
