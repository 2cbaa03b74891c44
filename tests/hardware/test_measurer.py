"""Unit tests for the measurement harness."""

import pytest

from repro.hardware.measurer import Measurer
from repro.hardware.simulator import LatencySimulator
from repro.tensor.sampler import sample_initial_schedules
from repro.tensor.sketch import generate_sketches
from repro.tensor.workloads import gemm


@pytest.fixture
def schedules(gemm_sketch, rng):
    return sample_initial_schedules(gemm_sketch, 12, rng)


class TestMeasurement:
    def test_results_align_with_inputs(self, measurer, schedules):
        results = measurer.measure(schedules)
        assert len(results) == len(schedules)
        for result, schedule in zip(results, schedules):
            assert result.schedule is schedule
            assert result.is_valid

    def test_noise_is_small_relative_to_truth(self, cpu, schedules):
        measurer = Measurer(cpu, noise=0.02, seed=1)
        sim = LatencySimulator(cpu)
        for result in measurer.measure(schedules):
            truth = sim.latency(result.schedule)
            assert abs(result.latency - truth) / truth < 0.15

    def test_zero_noise_matches_simulator(self, cpu, schedules):
        measurer = Measurer(cpu, noise=0.0, seed=1)
        sim = LatencySimulator(cpu)
        for result in measurer.measure(schedules):
            assert result.latency == pytest.approx(sim.latency(result.schedule))

    def test_throughput_field(self, measurer, schedules):
        result = measurer.measure(schedules[:1])[0]
        assert result.throughput == pytest.approx(result.schedule.dag.flops / result.latency)

    def test_repeats_respect_min_repeat_time(self, cpu, schedules):
        measurer = Measurer(cpu, min_repeat_seconds=1.0, max_repeats=32, seed=0)
        result = measurer.measure(schedules[:1])[0]
        assert 1 <= result.repeats <= 32


class TestStatistics:
    def test_trial_counting(self, measurer, schedules):
        measurer.measure(schedules)
        name = schedules[0].dag.name
        assert measurer.total_trials == len(schedules)
        assert measurer.trials(name) == len(schedules)

    def test_best_latency_tracked(self, measurer, schedules):
        results = measurer.measure(schedules)
        name = schedules[0].dag.name
        assert measurer.best_latency(name) == pytest.approx(min(r.latency for r in results))
        assert measurer.best_schedule(name) is not None

    def test_history_is_monotone_nonincreasing(self, measurer, schedules):
        measurer.measure(schedules)
        history = measurer.history(schedules[0].dag.name)
        bests = [latency for _trial, latency in history]
        assert all(b <= a for a, b in zip(bests, bests[1:]))

    def test_unknown_workload_defaults(self, measurer):
        assert measurer.best_latency("nope") == float("inf")
        assert measurer.best_schedule("nope") is None
        assert measurer.trials("nope") == 0
        assert measurer.history("nope") == []

    def test_multiple_workloads_tracked_independently(self, cpu, rng):
        measurer = Measurer(cpu, seed=0)
        dag_a, dag_b = gemm(64, 64, 64), gemm(128, 64, 64)
        sched_a = sample_initial_schedules(generate_sketches(dag_a)[0], 3, rng)
        sched_b = sample_initial_schedules(generate_sketches(dag_b)[0], 5, rng)
        measurer.measure(sched_a)
        measurer.measure(sched_b)
        assert measurer.trials(dag_a.name) == 3
        assert measurer.trials(dag_b.name) == 5
        assert measurer.total_trials == 8

    def test_reset(self, measurer, schedules):
        measurer.measure(schedules)
        measurer.reset()
        assert measurer.total_trials == 0
        assert measurer.history(schedules[0].dag.name) == []


class TestDeterministicNoise:
    def test_same_seed_same_stream(self, cpu, schedules):
        first = [r.latency for r in Measurer(cpu, seed=4).measure(schedules)]
        again = [r.latency for r in Measurer(cpu, seed=4).measure(schedules)]
        other = [r.latency for r in Measurer(cpu, seed=5).measure(schedules)]
        assert first == again
        assert first != other

    def test_remeasuring_same_schedule_draws_fresh_noise(self, cpu, schedules):
        measurer = Measurer(cpu, noise=0.05, seed=0)
        first = measurer.measure(schedules[:1])[0]
        second = measurer.measure(schedules[:1])[0]
        assert first.latency != second.latency  # different trial index -> new draw

    def test_empty_batch(self, cpu):
        measurer = Measurer(cpu, seed=0)
        assert measurer.measure([]) == []
        assert measurer.total_trials == 0


class TestPreload:
    def test_preload_sets_best_without_trials(self, cpu, schedules):
        measurer = Measurer(cpu, seed=0)
        name = schedules[0].dag.name
        measurer.preload(name, 1e-3, schedules[0])
        assert measurer.best_latency(name) == 1e-3
        assert measurer.best_schedule(name) is schedules[0]
        assert measurer.trials(name) == 0
        assert measurer.history(name) == []

    def test_preload_keeps_better_existing(self, cpu, schedules):
        measurer = Measurer(cpu, seed=0)
        name = schedules[0].dag.name
        measurer.preload(name, 1e-6, schedules[0])
        measurer.preload(name, 1e-3, schedules[1])
        assert measurer.best_latency(name) == 1e-6
        assert measurer.best_schedule(name) is schedules[0]
