"""Unit tests for the task policies: the greedy gradient scheduler and the bandit."""

import numpy as np
import pytest

from repro.core.subgraph_reward import GradientTaskScheduler, SubgraphBandit
from repro.networks.graph import NetworkGraph, Subgraph
from repro.tensor.workloads import gemm, softmax


@pytest.fixture
def network():
    return NetworkGraph(
        name="toy",
        subgraphs=[
            Subgraph("heavy", gemm(256, 256, 256, name="ts_heavy"), weight=10, similarity_group="gemm"),
            Subgraph("light", gemm(64, 64, 64, name="ts_light"), weight=1, similarity_group="gemm"),
            Subgraph("soft", softmax(128, 64, name="ts_soft"), weight=2, similarity_group="softmax"),
        ],
    )


class TestGradientTaskScheduler:
    def test_warmup_visits_every_task_once(self, network):
        ts = GradientTaskScheduler(network)
        first_three = []
        for latency in (1.0, 2.0, 3.0):
            task = ts.next_task()
            first_three.append(task)
            ts.record(task, latency, trials=4)
        assert set(first_three) == {"heavy", "light", "soft"}

    def test_greedy_prefers_heavy_task_after_warmup(self, network):
        ts = GradientTaskScheduler(network)
        # Warm up with comparable per-instance latencies.
        for task, latency in (("heavy", 1.0), ("light", 1.0), ("soft", 1.0)):
            ts.record(task, latency, trials=4)
        # The heavy task has 10x weight, so the expected benefit is largest there.
        assert ts.next_task() == "heavy"

    def test_allocations_accumulate(self, network):
        ts = GradientTaskScheduler(network)
        ts.record("heavy", 1.0, trials=8)
        ts.record("heavy", 0.9, trials=8)
        assert ts.allocations["heavy"] == 16

    def test_estimated_latency(self, network):
        ts = GradientTaskScheduler(network)
        assert ts.estimated_latency() == float("inf")
        ts.record("heavy", 1.0)
        ts.record("light", 2.0)
        ts.record("soft", 3.0)
        assert ts.estimated_latency() == pytest.approx(10 * 1.0 + 1 * 2.0 + 2 * 3.0)

    def test_rewards_shape(self, network):
        ts = GradientTaskScheduler(network)
        rewards = ts.rewards()
        assert rewards.shape == (3,)
        assert np.allclose(rewards, 1.0)  # all untuned

    def test_record_unknown_task_rejected(self, network):
        ts = GradientTaskScheduler(network)
        with pytest.raises(KeyError):
            ts.record("ghost", 1.0)

    def test_record_validates_latency_and_trials(self, network):
        """Regression: zero / negative / NaN latencies and negative trials
        used to be accepted silently and poisoned the gradient estimates."""
        ts = GradientTaskScheduler(network)
        for bad_latency in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                ts.record("heavy", bad_latency)
        with pytest.raises(ValueError):
            ts.record("heavy", 1.0, trials=-4)
        # Nothing was recorded by the rejected calls.
        assert ts.states["heavy"].rounds == 0
        assert ts.allocations["heavy"] == 0

    def test_record_accepts_failed_round_inf(self, network):
        """+inf marks a round whose measurements all failed; it is recorded
        (the reward path maps it to zero priority, not an error)."""
        ts = GradientTaskScheduler(network)
        ts.record("heavy", float("inf"), trials=4)
        assert ts.states["heavy"].rounds == 1
        assert ts.allocations["heavy"] == 4

    def test_untagged_subgraphs_get_empty_isolated_groups(self):
        """Regression: subgraphs without a similarity group or an ``op`` tag
        all shared the empty-string group, so Eq. 3's M(a) term transferred
        throughput between unrelated operators."""
        dags = [gemm(64, 64, 64, name=f"untagged_{i}") for i in range(2)]
        for dag in dags:
            dag.tags.clear()
        network = NetworkGraph(
            name="untagged",
            subgraphs=[
                Subgraph("a", dags[0], weight=1),
                Subgraph("b", dags[1], weight=1),
            ],
        )
        ts = GradientTaskScheduler(network)
        assert ts.states["a"].similarity_group == ""
        assert ts.states["b"].similarity_group == ""
        # Identical histories => identical rewards: no cross-talk through
        # the empty group even though `a` is much slower than `b`.
        ts.record("a", 1.0, trials=4)
        ts.record("b", 0.001, trials=4)
        ts.record("a", 1.0, trials=4)
        ts.record("b", 0.001, trials=4)
        from repro.core.subgraph_reward import subgraph_reward

        states = [ts.states["a"], ts.states["b"]]
        slow_reward = subgraph_reward(ts.states["a"], states)
        # The slow task's reward must be its own decay bound, not inflated
        # by the fast task's throughput.
        assert slow_reward == pytest.approx(1.0 * 0.8 * (1.0 / 2))

    def test_next_task_among_restricts_candidates(self, network):
        ts = GradientTaskScheduler(network)
        for task in ("heavy", "light", "soft"):
            ts.record(task, 1.0, trials=4)
        assert ts.next_task() == "heavy"
        assert ts.next_task(among=["light", "soft"]) in ("light", "soft")
        with pytest.raises(ValueError):
            ts.next_task(among=[])

    def test_next_task_among_warms_up_subset_first(self, network):
        ts = GradientTaskScheduler(network)
        ts.record("heavy", 1.0, trials=4)
        assert ts.next_task(among=["heavy", "soft"]) == "soft"  # untuned first

    def test_greedy_selection_is_deterministic(self, network):
        """Greedy allocation has no exploration: with unchanged state it keeps
        returning the same task — the behaviour Observation 1 (Fig. 1a)
        criticises and the MAB replaces."""
        ts = GradientTaskScheduler(network)
        for task in ("heavy", "light", "soft"):
            ts.record(task, 1.0, trials=4)
        first = ts.next_task()
        assert all(ts.next_task() == first for _ in range(10))


class TestWarmUp:
    """Both policies warm every candidate up once, in network order; only
    then does the bandit's SW-UCB (or the greedy argmax) choose."""

    @pytest.mark.parametrize("among, order", [
        (None, ["heavy", "light", "soft"]),
        (["soft", "light"], ["light", "soft"]),
    ])
    def test_policies_warm_up_in_network_order(self, network, among, order):
        rng = np.random.default_rng(0)
        greedy, bandit = GradientTaskScheduler(network), SubgraphBandit(network, rng=rng)
        before = rng.bit_generator.state
        for latency, expected in zip((3.0, 2.0, 1.0), order):
            for policy in (greedy, bandit):
                assert policy.next_task(among=among) == expected
                policy.record(expected, latency, trials=4)
        # The warm-up drew no tie-break from the bandit's stream...
        assert rng.bit_generator.state == before
        # ...and the first choice after it is the bandit's SW-UCB pick.
        scores = bandit.mab.ucb_scores()
        best = max(scores[bandit._index[name]] for name in order)
        pick = bandit.next_task(among=among)
        assert pick in order and scores[bandit._index[pick]] == best
        if among is not None:
            # A candidate left out of the warm-up is still warmed up first.
            assert bandit.next_task(among=["heavy", *among]) == "heavy"
