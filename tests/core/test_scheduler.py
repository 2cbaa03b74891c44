"""Unit / integration tests for the HARL scheduler."""

import numpy as np
import pytest

from repro.baselines import make_scheduler
from repro.core.config import HARLConfig
from repro.core.scheduler import HARLScheduler
from repro.networks.graph import NetworkGraph, Subgraph
from repro.tensor.workloads import conv1d, gemm, softmax


@pytest.fixture
def tiny_network():
    return NetworkGraph(
        name="tiny-net",
        subgraphs=[
            Subgraph("mm_big", gemm(128, 128, 128, name="tiny_mm_big"), weight=4, similarity_group="gemm"),
            Subgraph("mm_small", gemm(64, 64, 64, name="tiny_mm_small"), weight=2, similarity_group="gemm"),
            Subgraph("softmax", softmax(128, 64, name="tiny_softmax"), weight=2, similarity_group="softmax"),
        ],
    )


class TestOperatorTuning:
    def test_tune_respects_trial_budget(self, tiny_config, gemm_dag):
        scheduler = HARLScheduler(config=tiny_config, seed=0)
        result = scheduler.tune(gemm_dag, n_trials=12)
        assert result.trials_used >= 12
        assert result.trials_used <= 12 + tiny_config.measures_per_round
        assert np.isfinite(result.best_latency)
        assert result.best_schedule is not None

    def test_history_is_nonincreasing(self, tiny_config, gemm_dag):
        scheduler = HARLScheduler(config=tiny_config, seed=0)
        result = scheduler.tune(gemm_dag, n_trials=16)
        bests = [latency for _t, latency in result.history]
        assert all(b <= a for a, b in zip(bests, bests[1:]))

    def test_more_trials_do_not_hurt(self, tiny_config, gemm_dag):
        few = HARLScheduler(config=tiny_config, seed=3).tune(gemm_dag, n_trials=8)
        many = HARLScheduler(config=tiny_config, seed=3).tune(gemm_dag, n_trials=40)
        assert many.best_latency <= few.best_latency * 1.001

    def test_extras_record_sketch_and_track_statistics(self, tiny_config, gemm_dag):
        scheduler = HARLScheduler(config=tiny_config, seed=0)
        result = scheduler.tune(gemm_dag, n_trials=12)
        assert result.extras["episodes"] >= 1
        assert len(result.extras["sketch_plays"]) == len(result.extras["sketch_keys"])
        assert sum(result.extras["sketch_plays"]) == result.extras["episodes"]
        assert len(result.extras["critical_positions"]) > 0

    def test_ablation_switch_changes_name(self, tiny_config):
        assert HARLScheduler(config=tiny_config).name == "harl"
        assert (
            HARLScheduler(config=tiny_config, adaptive_stopping=False).name == "hierarchical-rl"
        )

    def test_fixed_length_ablation_runs(self, tiny_config, gemm_dag):
        scheduler = HARLScheduler(config=tiny_config, seed=1, adaptive_stopping=False)
        result = scheduler.tune(gemm_dag, n_trials=8)
        lengths = set(result.extras["track_lengths"])
        assert len(lengths) == 1  # fixed-length tracks

    def test_rejects_nonpositive_trials(self, tiny_config, gemm_dag):
        with pytest.raises(ValueError):
            HARLScheduler(config=tiny_config).tune(gemm_dag, n_trials=0)

    def test_gpu_target_tuning(self, tiny_config, gemm_dag, gpu):
        scheduler = HARLScheduler(target=gpu, config=tiny_config, seed=0)
        result = scheduler.tune(gemm_dag, n_trials=8)
        assert np.isfinite(result.best_latency)
        assert result.best_schedule.unroll_depths == gpu.unroll_depths


class TestNetworkTuning:
    def test_all_tasks_eventually_tuned(self, tiny_config, tiny_network):
        scheduler = HARLScheduler(config=tiny_config, seed=0)
        result = scheduler.tune_network(tiny_network, n_trials=60)
        assert set(result.task_results) == {"mm_big", "mm_small", "softmax"}
        assert all(r.best_latency < float("inf") for r in result.task_results.values())
        assert np.isfinite(result.best_latency)

    def test_latency_history_nonincreasing_once_finite(self, tiny_config, tiny_network):
        scheduler = HARLScheduler(config=tiny_config, seed=0)
        result = scheduler.tune_network(tiny_network, n_trials=60)
        finite = [v for _t, v in result.latency_history if np.isfinite(v)]
        assert finite, "the estimated latency should become finite"
        assert all(b <= a * 1.0001 for a, b in zip(finite, finite[1:]))

    def test_allocations_sum_to_trials(self, tiny_config, tiny_network):
        scheduler = HARLScheduler(config=tiny_config, seed=0)
        result = scheduler.tune_network(tiny_network, n_trials=40)
        assert sum(result.allocations.values()) == result.trials_used

    def test_greedy_ablation_differs_from_mab(self, tiny_config, tiny_network):
        mab = HARLScheduler(config=tiny_config, seed=0, use_subgraph_mab=True)
        greedy = HARLScheduler(config=tiny_config, seed=0, use_subgraph_mab=False)
        res_mab = mab.tune_network(tiny_network, n_trials=40)
        res_greedy = greedy.tune_network(tiny_network, n_trials=40)
        assert res_mab.extras["use_subgraph_mab"] is True
        assert res_greedy.extras["use_subgraph_mab"] is False
        # Both count every allocation round, greedy mode included.
        for result in (res_mab, res_greedy):
            assert sum(result.extras["subgraph_plays"]) == len(result.latency_history)
        # Both produce a usable estimate.
        assert np.isfinite(res_mab.best_latency)
        assert np.isfinite(res_greedy.best_latency)

    def test_weighted_latency_uses_task_weights(self, tiny_config, tiny_network):
        scheduler = HARLScheduler(config=tiny_config, seed=0)
        result = scheduler.tune_network(tiny_network, n_trials=60)
        manual = sum(
            tiny_network.subgraph(name).weight * res.best_latency
            for name, res in result.task_results.items()
        )
        assert result.best_latency == pytest.approx(manual, rel=0.3)

    @pytest.mark.network_smoke
    @pytest.mark.parametrize("name", ["harl", "harl-no-subgraph-mab", "ansor"])
    def test_first_rounds_take_a_fair_share_of_a_short_budget(self, cpu, name):
        """A 16-measure round would spend 30 trials on two of six subgraphs
        and leave f(S) infinite; capped at 30 // 6 trials, every first round
        fits in the budget."""
        network = NetworkGraph(
            name="six",
            subgraphs=[
                Subgraph(f"mm{n}", gemm(n, n, n, name=f"six_mm{n}"), weight=1,
                         similarity_group="gemm")
                for n in (32, 48, 64)
            ] + [
                Subgraph("c1d", conv1d(32, 16, 32, 3, 1, 1, name="six_c1d"), weight=2),
                Subgraph("sm", softmax(64, 64, name="six_sm"), weight=2),
                Subgraph("sm_wide", softmax(64, 128, name="six_sm_wide"), weight=1),
            ],
        )
        config = HARLConfig.scaled(0.25)
        assert config.measures_per_round * 2 >= 30
        result = make_scheduler(name, cpu, config, seed=0).tune_network(network, 30)
        assert result.trials_used == 30
        assert result.allocations == {sg.name: 5 for sg in network}
        assert np.isfinite(result.best_latency)
