"""Unit tests for the shared hot-path memoisation caches (`repro.caching`).

The contract under test: a cache hit returns the *identical* stored object,
keys embed everything that must invalidate (workload identity, target tiling
depths), and counters account every lookup.
"""

import pytest

from repro.caching import (
    MemoCache,
    cache_stats,
    cached_sketches,
    cached_sketches_for_target,
    clear_caches,
    fingerprint_stats,
    reset_cache_stats,
    sketch_cache,
)
from repro.hardware.target import cpu_target, gpu_target
from repro.tensor.dag import structural_fingerprint
from repro.tensor.workloads import gemm


@pytest.fixture(autouse=True)
def _isolated_caches():
    clear_caches()
    reset_cache_stats()
    yield
    clear_caches()
    reset_cache_stats()


class TestMemoCache:
    def test_hit_returns_identical_object(self):
        cache = MemoCache("test", maxsize=4)
        first = cache.get_or_create("k", lambda: object())
        second = cache.get_or_create("k", lambda: object())
        assert second is first
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_lru_eviction_counts(self):
        cache = MemoCache("test", maxsize=2)
        for key in ("a", "b", "c"):
            cache.get_or_create(key, object)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert "a" not in cache and "c" in cache

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MemoCache("test", maxsize=0)


class TestCachedSketches:
    def test_hit_returns_identical_list(self):
        dag = gemm(64, 64, 64)
        first = cached_sketches(dag, 4, 2)
        assert cached_sketches(dag, 4, 2) is first
        assert sketch_cache.stats.misses == 1
        assert sketch_cache.stats.hits == 1

    def test_target_change_invalidates(self):
        """CPU and GPU tiling depths must never share a sketch family."""
        dag = gemm(64, 64, 64)
        on_cpu = cached_sketches_for_target(dag, cpu_target())
        on_gpu = cached_sketches_for_target(dag, gpu_target())
        assert on_cpu is not on_gpu
        assert on_cpu[0].spatial_levels == 4 and on_gpu[0].spatial_levels == 5
        # Returning to the first target serves the original object again.
        assert cached_sketches_for_target(dag, cpu_target()) is on_cpu

    def test_same_structure_different_name_does_not_share(self):
        plain = gemm(64, 64, 64)
        renamed = gemm(64, 64, 64, name="renamed")
        assert structural_fingerprint(plain) == structural_fingerprint(renamed)
        assert cached_sketches(plain) is not cached_sketches(renamed)
        # A schedule built from the cached sketches must keep its own
        # workload name (measurement statistics key off it).
        assert cached_sketches(renamed)[0].dag.name == "renamed"

    def test_clear_caches_regenerates(self):
        dag = gemm(64, 64, 64)
        first = cached_sketches(dag)
        clear_caches()
        assert cached_sketches(dag) is not first


class TestFingerprintCounters:
    def test_first_computation_is_a_miss_then_hits(self):
        dag = gemm(96, 96, 96)
        before = (fingerprint_stats.hits, fingerprint_stats.misses)
        structural_fingerprint(dag)
        structural_fingerprint(dag)
        structural_fingerprint(dag)
        assert fingerprint_stats.misses == before[1] + 1
        assert fingerprint_stats.hits == before[0] + 2

    def test_snapshot_shape(self):
        stats = cache_stats()
        assert set(stats) == {"sketches", "fingerprint"}
        for entry in stats.values():
            assert {"hits", "misses", "evictions", "hit_rate"} <= set(entry)
