"""Regression tests: the hot-path caches eliminate redundant recomputation.

The cache counters introduced with the perf overhaul make duplicate work
observable, and these tests pin it at zero: one tuning round performs no
duplicate sketch generations and no duplicate fingerprint digests in
:class:`TuningService` and :class:`NetworkTuner`.
"""

import pytest

from repro.caching import (
    clear_caches,
    fingerprint_stats,
    reset_cache_stats,
    sketch_cache,
)
from repro.experiments.network_runner import NetworkTuner
from repro.networks.graph import NetworkGraph, Subgraph
from repro.serving.registry import ScheduleRegistry
from repro.serving.service import TuningRequest, TuningService
from repro.tensor.workloads import conv1d, gemm


@pytest.fixture(autouse=True)
def _isolated_caches():
    clear_caches()
    reset_cache_stats()
    yield
    clear_caches()
    reset_cache_stats()


def _toy_network(name="counters"):
    return NetworkGraph(
        name=name,
        subgraphs=[
            Subgraph("mm", gemm(48, 48, 48, name=f"{name}_mm"), weight=2,
                     similarity_group="gemm"),
            Subgraph("c1d", conv1d(32, 8, 16, 3, 1, 1, name=f"{name}_c1d"),
                     weight=1, similarity_group="conv1d"),
        ],
    )


class TestServiceCounters:
    def test_fingerprint_computed_once_per_dag(self, tiny_config):
        """Submit + warm-start + registry recording share one digest per DAG."""
        service = TuningService(config=tiny_config, seed=0)
        dags = [gemm(48, 48, 48), conv1d(32, 8, 16, 3, 1, 1)]
        for dag in dags:
            service.submit(TuningRequest(dag=dag, n_trials=8))
        service.run()
        assert fingerprint_stats.misses == len(dags)
        assert fingerprint_stats.hits > 0  # the re-uses that used to recompute

    def test_coalesced_duplicates_share_everything(self, tiny_config):
        """N identical submissions: one job, one sketch family, one digest each."""
        service = TuningService(config=tiny_config, seed=0)
        dags = [gemm(48, 48, 48) for _ in range(3)]  # distinct objects, same DAG
        for dag in dags:
            service.submit(TuningRequest(dag=dag, n_trials=8))
        assert service.coalesced_requests == 2
        service.run()
        # One digest per distinct object, but a single sketch generation for
        # the one (workload, target) the coalesced job actually tunes.
        assert fingerprint_stats.misses == len(dags)
        assert sketch_cache.stats.misses <= 2  # job context + registry restore


class TestNetworkTunerCounters:
    def test_zero_duplicate_sketch_generation_per_round(self, tiny_config):
        registry = ScheduleRegistry()
        service = TuningService(registry=registry, config=tiny_config, seed=0)
        NetworkTuner(_toy_network(), service).tune(n_trials=16)
        first_pass_misses = sketch_cache.stats.misses
        # Unique (workload, depth) pairs only: two subgraphs on one target.
        assert first_pass_misses == 2

        # A second pass over the same registry (fresh service, fresh DAG
        # objects) is answered from the registry and regenerates nothing.
        service2 = TuningService(registry=registry, config=tiny_config, seed=1)
        report = NetworkTuner(_toy_network(), service2).tune(n_trials=16)
        assert report.registry_hits == 2
        assert sketch_cache.stats.misses == first_pass_misses
