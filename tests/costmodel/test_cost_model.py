"""Unit tests for the online schedule cost model."""

import numpy as np
import pytest

from repro.costmodel.model import RandomCostModel, ScheduleCostModel
from repro.hardware.simulator import LatencySimulator
from repro.tensor.sampler import sample_initial_schedules
from repro.tensor.sketch import generate_sketches
from repro.tensor.workloads import gemm


@pytest.fixture
def big_sketch():
    return generate_sketches(gemm(512, 512, 512))[0]


def _measured(sketch, cpu, rng, count):
    schedules = sample_initial_schedules(sketch, count, rng)
    sim = LatencySimulator(cpu)
    throughputs = [sim.throughput(s) for s in schedules]
    return schedules, throughputs


class TestColdStart:
    def test_untrained_predictions_are_weak_priors(self, big_sketch, rng, cpu):
        model = ScheduleCostModel(min_samples=16, seed=0)
        schedules, _ = _measured(big_sketch, cpu, rng, 4)
        scores = model.predict(schedules)
        assert scores.shape == (4,)
        assert np.all((scores >= 0.0) & (scores <= 0.05))
        assert not model.is_trained(schedules[0].dag.name)

    def test_empty_prediction(self):
        model = ScheduleCostModel()
        assert model.predict([]).shape == (0,)

    def test_features_extracted_only_for_fitted_workloads(self, rng, cpu, monkeypatch):
        import repro.costmodel.model as model_module

        model = ScheduleCostModel(min_samples=8, retrain_interval=4, seed=0)
        sk_a = generate_sketches(gemm(128, 128, 128))[0]
        sk_b = generate_sketches(gemm(256, 128, 128))[0]
        s_a, t_a = _measured(sk_a, cpu, rng, 16)
        model.update(s_a, t_a)
        queried = sample_initial_schedules(sk_a, 3, rng)
        cold = sample_initial_schedules(sk_b, 4, rng)
        expected_a = model.predict(queried)
        rng_state = model._rng.bit_generator.state

        batches = []
        real = model_module.batch_features
        monkeypatch.setattr(
            model_module, "batch_features", lambda s: batches.append(list(s)) or real(s)
        )
        scores = model.predict(cold[:2] + queried + cold[2:])
        assert batches == [queried]
        assert np.array_equal(scores[2:5], expected_a)
        # The cold prior is one draw per cold schedule, in batch order.
        prior_rng = np.random.default_rng()
        prior_rng.bit_generator.state = rng_state
        prior = 0.05 * prior_rng.random(4)
        assert np.array_equal(np.concatenate([scores[:2], scores[5:]]), prior)


class TestOnlineTraining:
    def test_becomes_trained_after_enough_samples(self, big_sketch, rng, cpu):
        model = ScheduleCostModel(min_samples=16, retrain_interval=8, seed=0)
        schedules, throughputs = _measured(big_sketch, cpu, rng, 32)
        model.update(schedules, throughputs)
        assert model.is_trained(schedules[0].dag.name)
        assert model.num_samples(schedules[0].dag.name) == 32

    def test_predictions_correlate_with_true_throughput(self, big_sketch, rng, cpu):
        model = ScheduleCostModel(min_samples=16, retrain_interval=8, seed=0)
        train_s, train_t = _measured(big_sketch, cpu, rng, 96)
        model.update(train_s, train_t)
        test_s, test_t = _measured(big_sketch, cpu, rng, 48)
        scores = model.predict(test_s)
        corr = np.corrcoef(scores, np.asarray(test_t))[0, 1]
        assert corr > 0.4

    def test_best_score_near_one(self, big_sketch, rng, cpu):
        model = ScheduleCostModel(min_samples=16, retrain_interval=8, seed=0)
        schedules, throughputs = _measured(big_sketch, cpu, rng, 64)
        model.update(schedules, throughputs)
        best_idx = int(np.argmax(throughputs))
        score = model.predict([schedules[best_idx]])[0]
        assert score > 0.5

    def test_invalid_throughputs_ignored(self, big_sketch, rng, cpu):
        model = ScheduleCostModel(min_samples=4, seed=0)
        schedules, throughputs = _measured(big_sketch, cpu, rng, 4)
        model.update(schedules, [float("nan"), -1.0, 0.0, throughputs[3]])
        assert model.num_samples(schedules[0].dag.name) == 1

    def test_mismatched_lengths_rejected(self, big_sketch, rng, cpu):
        model = ScheduleCostModel()
        schedules, throughputs = _measured(big_sketch, cpu, rng, 4)
        with pytest.raises(ValueError):
            model.update(schedules, throughputs[:-1])

    def test_predict_throughput_denormalises(self, big_sketch, rng, cpu):
        model = ScheduleCostModel(min_samples=16, retrain_interval=8, seed=0)
        schedules, throughputs = _measured(big_sketch, cpu, rng, 48)
        model.update(schedules, throughputs)
        pred = model.predict_throughput(schedules[:8])
        assert np.all(pred >= 0)
        assert np.max(pred) <= 2.0 * max(throughputs)

    def test_per_workload_isolation(self, rng, cpu):
        model = ScheduleCostModel(min_samples=8, retrain_interval=4, seed=0)
        sk_a = generate_sketches(gemm(128, 128, 128))[0]
        sk_b = generate_sketches(gemm(256, 128, 128))[0]
        s_a, t_a = _measured(sk_a, cpu, rng, 16)
        model.update(s_a, t_a)
        assert model.is_trained(s_a[0].dag.name)
        assert not model.is_trained(sk_b.dag.name)


class TestRandomCostModel:
    def test_uniform_scores(self, big_sketch, rng):
        model = RandomCostModel(seed=0)
        schedules = sample_initial_schedules(big_sketch, 10, rng)
        scores = model.predict(schedules)
        assert scores.shape == (10,)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_update_is_noop(self, big_sketch, rng):
        model = RandomCostModel(seed=0)
        schedules = sample_initial_schedules(big_sketch, 3, rng)
        model.update(schedules, [1.0, 2.0, 3.0])
        assert not model.is_trained(schedules[0].dag.name)
        assert model.num_samples(schedules[0].dag.name) == 0
