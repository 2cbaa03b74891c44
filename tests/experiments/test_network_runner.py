"""Tests for the end-to-end network tuner (NetworkTuner + task policies).

Covers the tentpole behaviours:

* the ``network_smoke`` toy network runs end to end through the shared
  tuning service and produces a finite ``f(S)`` report,
* both allocation policies (greedy gradient / SW-UCB bandit) drive rounds,
* a second pass over the same registry answers every task in O(1),
* the acceptance regression: tuning MobileNet-V2 *after* ResNet-50 on a
  shared registry reaches the cold-tuned ``f(S)`` in at most half the
  trials, via fingerprint-keyed registry reuse.
"""

import json

import numpy as np
import pytest

from repro.core.subgraph_reward import task_policy
from repro.experiments.network_runner import NetworkTuner
from repro.networks.graph import NetworkGraph, Subgraph
from repro.serving.registry import ScheduleRegistry
from repro.serving.service import SOURCE_REGISTRY, TuningService
from repro.tensor.workloads import conv1d, gemm


def toy_network(name="toy"):
    """A 2-subgraph network: one weighted GEMM, one conv1d."""
    return NetworkGraph(
        name=name,
        subgraphs=[
            Subgraph("mm", gemm(64, 64, 64, name=f"{name}_mm"), weight=4,
                     similarity_group="gemm"),
            Subgraph("c1d", conv1d(64, 16, 32, 3, 1, 1, name=f"{name}_c1d"),
                     weight=2, similarity_group="conv1d"),
        ],
    )


def make_service(tiny_config, registry=None, seed=0, **kwargs):
    return TuningService(
        registry=registry if registry is not None else ScheduleRegistry(),
        config=tiny_config, seed=seed, **kwargs,
    )


@pytest.mark.network_smoke
class TestNetworkSmoke:
    """Fast end-to-end sanity pass (`make network-smoke`)."""

    def test_toy_network_end_to_end(self, tiny_config):
        service = make_service(tiny_config)
        report = NetworkTuner(toy_network(), service).tune(n_trials=24)

        assert np.isfinite(report.final_latency) and report.final_latency > 0
        assert report.trials_used == 24
        assert report.jobs_created == 2
        assert {t.task for t in report.tasks} == {"mm", "c1d"}
        # Every task got at least one warm-up round; the policy's
        # per-task allocations account for the whole budget.
        assert all(t.trials > 0 for t in report.tasks)
        assert sum(t.trials for t in report.tasks) == 24
        # f(S) = sum_n w_n * g_n holds for the reported tasks.
        assert report.final_latency == pytest.approx(
            sum(t.weighted_latency for t in report.tasks)
        )
        # Trial counts in the trajectory are non-decreasing and f(S) is
        # monotonically non-increasing once finite.
        trials = [t for t, _ in report.trajectory]
        assert trials == sorted(trials)
        finite = [f for _, f in report.trajectory if np.isfinite(f)]
        assert finite and all(a >= b for a, b in zip(finite, finite[1:]))
        # Completed jobs landed in the registry for future reuse.
        assert len(service.registry) == 2

    def test_second_pass_is_all_registry_hits(self, tiny_config):
        registry = ScheduleRegistry()
        first = NetworkTuner(
            toy_network(), make_service(tiny_config, registry)
        ).tune(n_trials=24)
        second = NetworkTuner(
            toy_network("toy_again"), make_service(tiny_config, registry, seed=1)
        ).tune(n_trials=24)

        assert second.registry_hits == 2
        assert second.jobs_created == 0
        assert second.trials_used == 0
        assert second.final_latency == pytest.approx(first.final_latency)
        assert all(t.source == SOURCE_REGISTRY for t in second.tasks)
        assert all(t.provenance.startswith("registry:") for t in second.tasks)


class TestPolicies:
    def test_gradient_policy_runs(self, tiny_config):
        report = NetworkTuner(
            toy_network(), make_service(tiny_config), policy="gradient"
        ).tune(n_trials=16)
        assert report.policy == "gradient"
        assert np.isfinite(report.final_latency)

    def test_unknown_policy_rejected(self, tiny_config):
        with pytest.raises(KeyError):
            NetworkTuner(toy_network(), make_service(tiny_config),
                         policy="round-robin")

    def test_bandit_policy_warms_up_then_explores(self, tiny_config):
        policy = task_policy(toy_network(), tiny_config, bandit=True)
        first, second = policy.next_task(), None
        policy.record(first, 1.0, trials=4)
        second = policy.next_task()
        assert {first, second} == {"mm", "c1d"}  # warm-up covers all tasks
        policy.record(second, 1.0, trials=4)
        assert policy.next_task(among=["c1d"]) == "c1d"
        with pytest.raises(ValueError):
            policy.next_task(among=[])

    def test_policies_share_validation(self, tiny_config):
        policy = task_policy(toy_network(), tiny_config, bandit=True)
        with pytest.raises(ValueError):
            policy.record("mm", 0.0)
        with pytest.raises(KeyError):
            policy.record("ghost", 1.0)

    def test_invalid_budget_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            NetworkTuner(toy_network(), make_service(tiny_config)).tune(0)


class TestBudgetExhaustion:
    def test_starved_tasks_flush_best_so_far(self, tiny_config):
        # Budget smaller than one trial per task: at least one task never
        # measures, f(S) stays inf, but the run completes, every handle
        # resolves and the measured tasks still land in the registry.
        service = make_service(tiny_config)
        report = NetworkTuner(toy_network(), service).tune(n_trials=1)
        assert report.trials_used == 1
        assert report.final_latency == float("inf")
        assert service.active_jobs() == 0
        assert len(service.registry) >= 1
        starved = [t for t in report.tasks if t.trials == 0]
        assert starved and all(t.provenance == "cold" for t in starved)

    def test_fair_share_warmup_covers_every_task(self, tiny_config):
        # A budget that is smaller than #tasks * measures_per_round but at
        # least #tasks still yields a finite f(S): each task's first round
        # is capped at its fair share of the budget.
        report = NetworkTuner(toy_network(), make_service(tiny_config)).tune(
            n_trials=4
        )
        assert report.trials_used == 4
        assert np.isfinite(report.final_latency)
        assert all(t.trials == 2 for t in report.tasks)


class TestReport:
    def test_report_round_trip(self, tiny_config, tmp_path):
        report = NetworkTuner(toy_network(), make_service(tiny_config)).tune(16)
        data = report.to_dict()
        assert data["network"] == "toy"
        assert len(data["tasks"]) == 2
        # The zero-trial baseline is inf and must serialise as null (strict
        # RFC 8259 JSON: no bare Infinity tokens in the artifact).
        assert data["trajectory"][0] == [0, None]
        path = report.write_json(tmp_path / "report.json")
        assert "Infinity" not in path.read_text()
        assert json.loads(path.read_text())["trials_used"] == 16
        text = report.format()
        assert "end-to-end f(S)" in text and "mm" in text
        assert report.task("mm").weight == 4
        with pytest.raises(KeyError):
            report.task("ghost")
        assert report.trials_to_reach(0.0) is None
        assert report.trials_to_reach(report.final_latency) <= 16


@pytest.mark.slow
class TestCrossNetworkAcceptance:
    """Acceptance: MobileNet after ResNet on a shared registry reaches the
    cold-tuned ``f(S)`` in at most half the trials via fingerprint reuse."""

    TRIALS = 200

    def _tune(self, network, registry, seed, config):
        # One warm-start candidate per task: MobileNet has ~38 tasks sharing
        # one 200-trial budget, so k transferred schedules per task cost
        # 38*k trials before refinement starts.  k=1 keeps the reuse signal
        # while leaving most of the budget for search.
        service = TuningService(registry=registry, config=config, seed=seed,
                                max_warm_start=1)
        return NetworkTuner(network, service).tune(n_trials=self.TRIALS)

    def test_mobilenet_after_resnet_halves_trials_to_cold_fs(self):
        from repro.core.config import HARLConfig
        from repro.networks.mobilenet import build_mobilenet_v2
        from repro.networks.resnet import build_resnet50

        config = HARLConfig.scaled(0.05)

        cold = self._tune(build_mobilenet_v2(), ScheduleRegistry(), 0, config)
        assert np.isfinite(cold.final_latency)

        shared = ScheduleRegistry()
        self._tune(build_resnet50(), shared, 0, config)
        warm = self._tune(build_mobilenet_v2(), shared, 1, config)

        # Cross-network reuse provenance: MobileNet's tasks were seeded from
        # ResNet's registered subgraphs (fingerprint-keyed NN transfer).
        assert warm.warm_started_tasks > 0
        assert any(
            any("resnet" in donor for donor in task.warm_start_donors)
            for task in warm.tasks
        )

        # The warm run is no worse and reaches the cold final f(S) in at
        # most half the cold run's trials.
        assert warm.final_latency <= cold.final_latency
        reached_at = warm.trials_to_reach(cold.final_latency)
        assert reached_at is not None
        assert reached_at <= cold.trials_used // 2

    def test_third_pass_exact_fingerprint_hits(self):
        from repro.core.config import HARLConfig
        from repro.networks.mobilenet import build_mobilenet_v2

        config = HARLConfig.scaled(0.05)
        shared = ScheduleRegistry()
        first = self._tune(build_mobilenet_v2(), shared, 0, config)
        again = self._tune(build_mobilenet_v2(), shared, 1, config)
        # Every distinct subgraph is an exact fingerprint hit: zero trials.
        assert again.trials_used == 0
        assert again.registry_hits == len(again.tasks)
        assert again.final_latency <= first.final_latency
