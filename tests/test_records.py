"""Unit tests for tuning-record persistence."""

import pytest

from repro.core.scheduler import HARLScheduler
from repro.hardware.simulator import LatencySimulator
from repro.records import (
    RecordStore,
    TuningRecord,
    result_to_record,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.tensor.sampler import sample_schedule
from repro.tensor.sketch import generate_sketches
from repro.tensor.workloads import conv2d, gemm


class TestScheduleSerialization:
    def test_roundtrip_preserves_identity(self, rng):
        dag = gemm(128, 128, 128)
        for sketch in generate_sketches(dag):
            schedule = sample_schedule(sketch, rng)
            restored = schedule_from_dict(schedule_to_dict(schedule), gemm(128, 128, 128))
            assert restored.signature() == schedule.signature()

    def test_roundtrip_preserves_simulated_latency(self, rng, cpu):
        dag = conv2d(14, 14, 32, 64, 3, 1, 1)
        sketch = generate_sketches(dag)[1]
        schedule = sample_schedule(sketch, rng)
        restored = schedule_from_dict(
            schedule_to_dict(schedule), conv2d(14, 14, 32, 64, 3, 1, 1)
        )
        sim = LatencySimulator(cpu)
        assert sim.latency(restored) == pytest.approx(sim.latency(schedule))

    def test_wrong_workload_rejected(self, rng):
        dag = gemm(128, 128, 128)
        schedule = sample_schedule(generate_sketches(dag)[0], rng)
        with pytest.raises(ValueError):
            schedule_from_dict(schedule_to_dict(schedule), gemm(256, 128, 128))

    def test_unknown_sketch_key_rejected(self, rng):
        dag = gemm(128, 128, 128)
        schedule = sample_schedule(generate_sketches(dag)[0], rng)
        data = schedule_to_dict(schedule)
        data["sketch_key"] = "tiling+warp_drive"
        with pytest.raises(ValueError):
            schedule_from_dict(data, gemm(128, 128, 128))


class TestRecordFiles:
    @pytest.fixture
    def tuning_result(self, tiny_config, gemm_dag):
        scheduler = HARLScheduler(config=tiny_config, seed=0)
        return scheduler.tune(gemm_dag, n_trials=8)

    def test_result_to_record(self, tuning_result):
        record = result_to_record(tuning_result)
        assert record.workload == tuning_result.workload
        assert record.latency == tuning_result.best_latency
        assert record.schedule is not None

    @staticmethod
    def _reloaded_result(tuning_result, path):
        """The result line ``RecordStore.append_result`` wrote, read back from disk."""
        with RecordStore(path) as store:
            store.append_result(tuning_result)
        loaded = RecordStore.load(path).query(kind="result")
        assert len(loaded) == 1
        return loaded[0]

    def test_save_and_load_roundtrip(self, tuning_result, tmp_path):
        record = self._reloaded_result(tuning_result, tmp_path / "logs" / "records.jsonl")
        assert record.workload == tuning_result.workload
        assert record.latency == pytest.approx(tuning_result.best_latency)
        assert record.history  # progress curve persisted

    def test_restored_schedule_reproduces_latency(self, tuning_result, tmp_path, cpu, gemm_dag):
        record = self._reloaded_result(tuning_result, tmp_path / "records.jsonl")
        restored = record.restore_schedule(gemm_dag)
        sim = LatencySimulator(cpu)
        # The stored latency includes measurement noise; the simulator value is close.
        assert sim.latency(restored) == pytest.approx(record.latency, rel=0.2)

    def test_restore_without_schedule_rejected(self, gemm_dag):
        record = TuningRecord("w", "a", 1.0, 1.0, 1, None, [])
        with pytest.raises(ValueError):
            record.restore_schedule(gemm_dag)
