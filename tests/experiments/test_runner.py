"""Unit tests for the head-to-head experiment runners."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import HARLConfig
from repro.experiments import runner
from repro.experiments.runner import compare_on_network, compare_on_operator, default_trials
from repro.networks.graph import NetworkGraph, Subgraph
from repro.tensor.workloads import gemm, softmax


@pytest.fixture
def tiny_network():
    return NetworkGraph(
        name="runner-net",
        subgraphs=[
            Subgraph("mm", gemm(128, 128, 128, name="runner_mm"), weight=4, similarity_group="gemm"),
            Subgraph("soft", softmax(128, 64, name="runner_soft"), weight=2, similarity_group="softmax"),
        ],
    )


@pytest.fixture
def opened_stores(monkeypatch):
    """Every ``RecordStore`` the runners open, in order."""
    stores = []

    class _Tracked(runner.RecordStore):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            stores.append(self)

    monkeypatch.setattr(runner, "RecordStore", _Tracked)
    return stores


class TestDefaultTrials:
    def test_scaled_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.delenv("REPRO_TRIALS", raising=False)
        assert default_trials(1000, 60) == 60

    def test_full_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert default_trials(1000, 60) == 1000

    def test_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.setenv("REPRO_TRIALS", "25")
        assert default_trials(1000, 60) == 25


class TestOperatorComparison:
    def test_runs_both_schedulers(self, tiny_config, gemm_dag):
        comparison = compare_on_operator(
            gemm_dag, n_trials=12, config=tiny_config, seed=0, schedulers=("ansor", "harl")
        )
        assert set(comparison.results) == {"ansor", "harl"}
        perf = comparison.normalized_performance()
        assert max(perf.values()) == pytest.approx(1.0)
        times = comparison.normalized_search_time()
        assert max(times.values()) == pytest.approx(1.0)

    def test_ablation_scheduler_supported(self, tiny_config, gemm_dag):
        comparison = compare_on_operator(
            gemm_dag, n_trials=8, config=tiny_config, seed=0,
            schedulers=("ansor", "hierarchical-rl"),
        )
        assert comparison.results["hierarchical-rl"].scheduler == "hierarchical-rl"

    def test_results_are_independent_instances(self, tiny_config, gemm_dag):
        comparison = compare_on_operator(
            gemm_dag, n_trials=8, config=tiny_config, seed=0, schedulers=("ansor", "harl")
        )
        # Each scheduler got its own trial budget (no shared measurer).
        for result in comparison.results.values():
            assert result.trials_used >= 8

    @pytest.mark.parametrize("scheduler", ["harl", "ansor"])
    def test_records_dir_does_not_change_measurements(self, scheduler, tmp_path):
        # A non-default r_min: every competitor measures with the run's r_min
        # whether or not its measurements are persisted.
        config = dataclasses.replace(HARLConfig.scaled(0.05), min_repeat_seconds=1e-4)
        plain, persisted = (
            compare_on_operator(
                gemm(128, 128, 128), 16, config=config, seed=1,
                schedulers=(scheduler,), records_dir=records_dir,
            ).results[scheduler]
            for records_dir in (None, tmp_path)
        )
        assert persisted.best_latency == plain.best_latency
        assert persisted.history == plain.history

    def test_records_dir_stores_are_closed(self, tiny_config, gemm_dag, tmp_path, opened_stores):
        compare_on_operator(
            gemm_dag, n_trials=8, config=tiny_config, seed=0,
            schedulers=("ansor", "harl"), records_dir=tmp_path,
        )
        assert [store.path.name for store in opened_stores] == ["ansor.jsonl", "harl.jsonl"]
        assert all(store._log._fh is None for store in opened_stores)


class TestNetworkComparison:
    def test_runs_both_schedulers(self, tiny_config, tiny_network):
        comparison = compare_on_network(
            tiny_network, n_trials=24, config=tiny_config, seed=0, schedulers=("ansor", "harl")
        )
        assert set(comparison.results) == {"ansor", "harl"}
        for result in comparison.results.values():
            assert np.isfinite(result.best_latency)
        assert max(comparison.normalized_performance().values()) == pytest.approx(1.0)

    def test_records_dir_stores_are_closed(
        self, tiny_config, tiny_network, tmp_path, opened_stores
    ):
        compare_on_network(
            tiny_network, n_trials=24, config=tiny_config, seed=0,
            schedulers=("ansor", "harl"), records_dir=tmp_path,
        )
        assert [store.path.name for store in opened_stores] == ["ansor.jsonl", "harl.jsonl"]
        assert all(store._log._fh is None for store in opened_stores)
