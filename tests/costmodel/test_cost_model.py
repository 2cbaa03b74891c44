"""Unit tests for the online schedule cost model."""

import numpy as np
import pytest

from repro import HARLConfig, HARLScheduler, obs
from repro.costmodel.gbt import GradientBoostedTrees
from repro.costmodel.model import RandomCostModel, ScheduleCostModel
from repro.experiments.operator_suite import representative_dag
from repro.hardware.simulator import LatencySimulator
from repro.tensor.features import batch_features
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


@pytest.fixture
def fits(monkeypatch):
    """Row count of every ``GradientBoostedTrees.fit`` call, in call order."""
    calls = []
    real = GradientBoostedTrees.fit

    def fit(self, X, y):
        calls.append(len(X))
        return real(self, X, y)

    monkeypatch.setattr(GradientBoostedTrees, "fit", fit)
    return calls


def _refit_counters():
    counters = obs.snapshot()["counters"]
    return counters["costmodel.refits_due"], counters["costmodel.refits"]


def _reference_scores(seed, schedules, throughputs, queries):
    """Scores of a GBT fitted on ``schedules``, normalised by their best."""
    y = np.asarray(throughputs, dtype=np.float64)
    reference = GradientBoostedTrees(seed=seed).fit(batch_features(schedules), y / y.max())
    return np.clip(reference.predict(batch_features(queries)), 0.0, None)


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


class TestFitOnRead:
    """A refit comes due in ``update`` and runs in the first ``predict`` that
    reads its workload, on the samples it came due with."""

    def test_reads_match_a_fit_on_the_latest_due_refit(self, rng, cpu):
        seed = 5
        model = ScheduleCostModel(seed=seed)  # refits due at 16, 32, 48, ... samples
        fresh = ScheduleCostModel(seed=seed)  # never updated: the cold prior's reference
        sketches = {
            "a": generate_sketches(gemm(128, 128, 128))[0],
            "b": generate_sketches(gemm(256, 128, 128))[0],
        }
        measured = {key: ([], []) for key in sketches}
        queries = {key: sample_initial_schedules(sk, 5, rng) for key, sk in sketches.items()}
        before = _refit_counters()

        def update(new_best=False, **counts):
            batch, throughputs = [], []
            for key, count in counts.items():
                schedules, values = _measured(sketches[key], cpu, rng, count)
                if new_best:
                    values[0] = 2.0 * max(measured[key][1])
                measured[key][0].extend(schedules)
                measured[key][1].extend(values)
                batch += schedules
                throughputs += values
            model.update(batch, throughputs)

        def read():
            scores = model.predict(queries["a"] + queries["b"])
            cold = []
            for offset, key in ((0, "a"), (5, "b")):
                schedules, throughputs = measured[key]
                due = len(throughputs) - len(throughputs) % 16
                got = scores[offset : offset + 5]
                if due:
                    want = _reference_scores(
                        seed, schedules[:due], throughputs[:due], queries[key]
                    )
                    assert np.array_equal(got, want), (key, due)
                else:
                    cold.append(got)
                    assert not model.is_trained(sketches[key].dag.name)
            if cold:
                cold_queries = [s for s in queries["a"] + queries["b"]
                                if not model.is_trained(s.dag.name)]
                assert np.array_equal(np.concatenate(cold), fresh.predict(cold_queries))

        update(a=8)
        read()  # both cold
        update(a=8)
        read()  # a comes due at 16 and is read right away
        update(b=8)
        update(a=8)
        read()  # a reads its 16-sample model
        update(a=8)  # a due at 32 ...
        update(b=8)  # b due at 16
        update(a=8)
        update(a=8)  # ... and at 48 before any read: the 32-sample refit is skipped
        update(True, a=4, b=4)  # new bests, after both due points
        read()  # both refits are first read after more samples arrived
        read()
        after = _refit_counters()
        assert (after[0] - before[0], after[1] - before[1]) == (4, 3)

    def test_is_trained_from_the_update_that_makes_a_refit_due(self, big_sketch, rng, cpu, fits):
        model = ScheduleCostModel(seed=0)
        schedules, throughputs = _measured(big_sketch, cpu, rng, 24)
        throughputs[20] = 2.0 * max(throughputs)  # the best arrives after the due point
        name = schedules[0].dag.name
        model.update(schedules[:8], throughputs[:8])
        assert not model.is_trained(name)
        model.update(schedules[8:16], throughputs[8:16])
        assert model.is_trained(name)
        model.update(schedules[16:], throughputs[16:])
        assert fits == []
        assert model.num_samples(name) == 24
        assert model.best_throughput(name) == throughputs[20]
        scores = model.predict(schedules[:3])
        assert fits == [16]
        assert np.array_equal(
            scores, _reference_scores(0, schedules[:16], throughputs[:16], schedules[:3])
        )

    def test_a_fit_that_raises_stays_due(self, big_sketch, rng, cpu, monkeypatch):
        model = ScheduleCostModel(seed=0)
        schedules, throughputs = _measured(big_sketch, cpu, rng, 16)
        model.update(schedules, throughputs)
        real = GradientBoostedTrees.fit

        def broken(self, X, y):
            raise MemoryError

        monkeypatch.setattr(GradientBoostedTrees, "fit", broken)
        with pytest.raises(MemoryError):
            model.predict(schedules[:2])
        assert model.is_trained(schedules[0].dag.name)
        monkeypatch.setattr(GradientBoostedTrees, "fit", real)
        assert np.array_equal(
            model.predict(schedules[:2]),
            _reference_scores(0, schedules, throughputs, schedules[:2]),
        )

    @pytest.mark.parametrize(
        "trials, due, fitted, best_latency",
        # Eager refits (one fit per due refit) reached the same best latencies.
        [(32, 2, 1, 0.0003228887761253448), (256, 16, 15, 9.890381487827925e-05)],
    )
    def test_a_tune_skips_its_unread_last_refit(self, trials, due, fitted, best_latency, fits):
        before = _refit_counters()
        result = HARLScheduler(config=HARLConfig.scaled(), seed=7).tune(
            representative_dag("GEMM-M"), trials
        )
        after = _refit_counters()
        assert fits == [16 * (k + 1) for k in range(fitted)]
        assert (after[0] - before[0], after[1] - before[1]) == (due, fitted)
        assert result.best_latency == best_latency


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
