"""Unit tests for the Flextensor-like fixed-length RL baseline."""

import numpy as np
import pytest

from repro.baselines.flextensor import FlextensorScheduler
from repro.networks.bert import build_bert


class TestFlextensor:
    def test_tunes_single_operator(self, tiny_config, gemm_dag):
        scheduler = FlextensorScheduler(config=tiny_config, seed=0)
        result = scheduler.tune(gemm_dag, n_trials=8)
        assert result.scheduler == "flextensor"
        assert np.isfinite(result.best_latency)
        assert result.trials_used >= 8

    def test_records_critical_positions(self, tiny_config, gemm_dag):
        scheduler = FlextensorScheduler(config=tiny_config, seed=0)
        result = scheduler.tune(gemm_dag, n_trials=8)
        positions = result.extras["critical_positions"]
        assert len(positions) >= tiny_config.num_tracks
        assert all(0.0 <= p <= 1.0 for p in positions)

    def test_uses_single_sketch(self, tiny_config, gemm_dag):
        scheduler = FlextensorScheduler(config=tiny_config, seed=0)
        scheduler.tune(gemm_dag, n_trials=8)
        searcher = scheduler._workload(gemm_dag).searcher
        assert searcher.sketch.key == "tiling"

    def test_network_tuning_unsupported(self, tiny_config):
        scheduler = FlextensorScheduler(config=tiny_config, seed=0)
        with pytest.raises(NotImplementedError):
            scheduler.tune_network(build_bert(), n_trials=10)

    def test_rejects_bad_budget(self, tiny_config, gemm_dag):
        with pytest.raises(ValueError):
            FlextensorScheduler(config=tiny_config).tune(gemm_dag, n_trials=0)
