"""Unit tests for the parameter-search episode loop (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import parameter_search
from repro.core.actor_critic import PPOAgent
from repro.core.adaptive_stopping import AdaptiveStopper, FixedLengthStopper
from repro.core.parameter_search import ParameterSearcher
from repro.costmodel import model as cost_model_module
from repro.costmodel.gbt import GradientBoostedTrees
from repro.costmodel.model import ScheduleCostModel
from repro.hardware.measurer import Measurer
from repro.tensor.actions import ActionSpace
from repro.tensor.features import FEATURE_SIZE
from repro.tensor.sampler import sample_initial_schedules
from repro.tensor.sketch import generate_sketches
from repro.tensor.workloads import gemm


@pytest.fixture
def big_sketch():
    return generate_sketches(gemm(256, 256, 256))[0]


def _make_searcher(sketch, cpu, tiny_config, adaptive=True, seed=0):
    agent = PPOAgent(FEATURE_SIZE, ActionSpace(sketch).head_sizes, tiny_config, seed=seed)
    measurer = Measurer(cpu, seed=seed)
    cost_model = ScheduleCostModel(min_samples=8, retrain_interval=8, seed=seed)
    stopper = (
        AdaptiveStopper(tiny_config.window_size, tiny_config.elimination_ratio, tiny_config.min_tracks)
        if adaptive
        else FixedLengthStopper(tiny_config.episode_length)
    )
    searcher = ParameterSearcher(
        sketch=sketch,
        agent=agent,
        cost_model=cost_model,
        measurer=measurer,
        config=tiny_config,
        stopper=stopper,
        rng=np.random.default_rng(seed),
    )
    return searcher, measurer, cost_model


class TestEpisode:
    def test_episode_measures_top_k(self, big_sketch, cpu, tiny_config):
        searcher, measurer, _ = _make_searcher(big_sketch, cpu, tiny_config)
        episode = searcher.run_episode()
        assert 0 < episode.num_measured <= tiny_config.measures_per_round
        assert measurer.total_trials == episode.num_measured
        assert np.isfinite(episode.best_latency)
        assert episode.best_throughput > 0

    def test_max_measures_respected(self, big_sketch, cpu, tiny_config):
        searcher, measurer, _ = _make_searcher(big_sketch, cpu, tiny_config)
        episode = searcher.run_episode(max_measures=2)
        assert episode.num_measured <= 2

    def test_cost_model_learns_from_episode(self, big_sketch, cpu, tiny_config):
        searcher, _, cost_model = _make_searcher(big_sketch, cpu, tiny_config)
        searcher.run_episode()
        searcher.run_episode()
        searcher.run_episode()
        assert cost_model.num_samples(big_sketch.dag.name) > 0

    def test_adaptive_episode_prunes_tracks(self, big_sketch, cpu, tiny_config):
        searcher, _, _ = _make_searcher(big_sketch, cpu, tiny_config, adaptive=True)
        episode = searcher.run_episode()
        lengths = episode.track_lengths
        # With elimination, tracks end up with different lengths.
        assert len(set(lengths)) > 1
        assert max(lengths) > min(lengths)

    def test_episode_ends_when_an_elimination_round_removes_no_track(self, cpu, tiny_config):
        """rho * live < 1 with live >= min_tracks: no round can remove a track,
        so the episode ends after the first (it used to run 2,000 steps)."""
        config = tiny_config.replace(
            num_tracks=3, min_tracks=2, elimination_ratio=0.3, window_size=4
        )
        sketch = generate_sketches(gemm(64, 64, 64))[0]
        searcher, _, _ = _make_searcher(sketch, cpu, config)
        episode = searcher.run_episode()
        assert searcher.stopper.expected_total_steps(3) == 12
        assert episode.num_steps == config.window_size
        assert episode.num_visited == 3 + 12
        assert episode.track_lengths == [1 + config.window_size] * 3

    def test_fixed_length_episode_uniform_tracks(self, big_sketch, cpu, tiny_config):
        searcher, _, _ = _make_searcher(big_sketch, cpu, tiny_config, adaptive=False)
        episode = searcher.run_episode()
        assert episode.num_steps == tiny_config.episode_length
        assert len(set(episode.track_lengths)) == 1

    def test_critical_positions_in_unit_interval(self, big_sketch, cpu, tiny_config):
        searcher, _, _ = _make_searcher(big_sketch, cpu, tiny_config)
        episode = searcher.run_episode()
        assert len(episode.critical_positions) == tiny_config.num_tracks
        assert all(0.0 <= p <= 1.0 for p in episode.critical_positions)

    def test_visited_count_grows_with_steps(self, big_sketch, cpu, tiny_config):
        searcher, _, _ = _make_searcher(big_sketch, cpu, tiny_config)
        episode = searcher.run_episode()
        assert episode.num_visited >= tiny_config.num_tracks
        assert episode.num_steps > 0

    def test_warm_start_schedules_are_reused(self, big_sketch, cpu, tiny_config, rng):
        searcher, _, _ = _make_searcher(big_sketch, cpu, tiny_config)
        warm = sample_initial_schedules(big_sketch, 2, rng)
        episode = searcher.run_episode(warm_start=warm)
        assert episode.num_measured > 0

    def test_rl_stats_populated_after_training(self, big_sketch, cpu, tiny_config):
        searcher, _, _ = _make_searcher(big_sketch, cpu, tiny_config)
        episode = searcher.run_episode()
        assert set(episode.rl_stats) >= {"actor_loss", "critic_loss", "entropy"}

    def test_deterministic_given_seed(self, big_sketch, cpu, tiny_config):
        a = _make_searcher(big_sketch, cpu, tiny_config, seed=5)[0].run_episode()
        b = _make_searcher(big_sketch, cpu, tiny_config, seed=5)[0].run_episode()
        assert a.best_latency == pytest.approx(b.best_latency)
        assert a.num_visited == b.num_visited


def _count_rows(monkeypatch):
    """Count schedules passed to feature extraction and to the cost model, and GBT rows."""
    rows = {"features": 0, "predict": 0, "gbt": 0}

    def counted(key, fn, batch_arg):
        def wrapped(*args, **kwargs):
            rows[key] += len(args[batch_arg])
            return fn(*args, **kwargs)

        return wrapped

    for module in (parameter_search, cost_model_module):
        monkeypatch.setattr(module, "batch_features", counted("features", module.batch_features, 0))
    monkeypatch.setattr(
        ScheduleCostModel, "predict", counted("predict", ScheduleCostModel.predict, 1)
    )
    monkeypatch.setattr(
        GradientBoostedTrees, "predict", counted("gbt", GradientBoostedTrees.predict, 1)
    )
    return rows


def _trained_searcher(sketch, cpu, tiny_config, seed=0):
    searcher, measurer, cost_model = _make_searcher(sketch, cpu, tiny_config, seed=seed)
    while not cost_model.is_trained(sketch.dag.name):
        searcher.run_episode()
    return searcher, measurer, cost_model


class TestStepReuse:
    """Each visited schedule is featurised once and, on a fitted model, scored once."""

    def test_fitted_episode_extracts_and_predicts_each_schedule_once(
        self, big_sketch, cpu, tiny_config, monkeypatch
    ):
        searcher, _, _ = _trained_searcher(big_sketch, cpu, tiny_config)
        rows = _count_rows(monkeypatch)
        episode = searcher.run_episode()
        assert episode.num_steps > 0
        assert all(np.isfinite(r.throughput) and r.throughput > 0 for r in episode.measured)
        # Visited schedules once for the states and scores, measured ones
        # once more for the cost-model update.
        assert rows["features"] == episode.num_visited + episode.num_measured
        assert rows["gbt"] == episode.num_visited

    def test_cold_episode_predicts_live_schedules_again(
        self, big_sketch, cpu, tiny_config, monkeypatch
    ):
        """The cold prior draws for the live and the new schedules at every step."""
        searcher, _, cost_model = _make_searcher(big_sketch, cpu, tiny_config)
        assert not cost_model.is_trained(big_sketch.dag.name)
        rows = _count_rows(monkeypatch)
        episode = searcher.run_episode()
        stepped = episode.num_visited - tiny_config.num_tracks
        assert stepped > 0
        assert rows["predict"] == tiny_config.num_tracks + 2 * stepped
        assert rows["gbt"] == 0

    def test_reused_scores_equal_predicting_again(self, big_sketch, cpu, tiny_config):
        """A fitted episode matches one that re-predicts every live schedule."""
        reused, _, _ = _trained_searcher(big_sketch, cpu, tiny_config, seed=3)
        again, _, again_model = _trained_searcher(big_sketch, cpu, tiny_config, seed=3)
        # Reporting the fitted model as cold sends the episode down the
        # re-predicting branch; predictions still come from the fitted model.
        again_model.is_trained = lambda name: False
        for _ in range(2):
            a, b = reused.run_episode(), again.run_episode()
            assert [r.latency for r in a.measured] == [r.latency for r in b.measured]
            assert (a.num_visited, a.track_lengths) == (b.num_visited, b.track_lengths)
            assert a.critical_positions == b.critical_positions
            assert a.rl_stats == b.rl_stats
        for got, want in zip(reused.agent.actor.parameters(), again.agent.actor.parameters()):
            assert np.array_equal(got, want)
