"""Unit tests for the append-only JSONL record store and resume support."""

import json

import pytest

from repro.core.scheduler import HARLScheduler
from repro.costmodel.gbt import GradientBoostedTrees
from repro.costmodel.model import ScheduleCostModel
from repro.hardware.measurer import Measurer
from repro.records import RecordStore, schedule_to_dict
from repro.tensor.sampler import sample_initial_schedules
from repro.tensor.workloads import gemm


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "logs" / "records.jsonl"


def _measure_some(cpu, gemm_sketch, rng, store, n=6):
    measurer = Measurer(cpu, seed=0, record_store=store)
    schedules = sample_initial_schedules(gemm_sketch, n, rng)
    return measurer.measure(schedules)


class TestRoundTrip:
    def test_measures_roundtrip(self, cpu, gemm_sketch, rng, store_path):
        store = RecordStore(store_path)
        results = _measure_some(cpu, gemm_sketch, rng, store)
        store.close()

        loaded = RecordStore.load(store_path)
        assert len(loaded.query(kind="measure")) == len(results)
        for record, result in zip(loaded.query(kind="measure"), results):
            assert record.latency == result.latency
            assert record.trial_index == result.trial_index
            assert record.workload == result.schedule.dag.name

    def test_restored_schedules_preserve_identity(self, cpu, gemm_sketch, rng, store_path):
        store = RecordStore(store_path)
        results = _measure_some(cpu, gemm_sketch, rng, store)
        store.close()

        dag = gemm(128, 128, 128)
        loaded = RecordStore.load(store_path)
        for record, result in zip(loaded.query(kind="measure"), results):
            assert record.restore_schedule(dag).signature() == result.schedule.signature()

    def test_results_roundtrip(self, tiny_config, gemm_dag, store_path):
        store = RecordStore(store_path)
        scheduler = HARLScheduler(config=tiny_config, seed=0, record_store=store)
        result = scheduler.tune(gemm_dag, n_trials=8)
        store.close()

        loaded = RecordStore.load(store_path)
        assert len(loaded.query(kind="result")) == 1
        assert loaded.query(kind="result")[0].latency == pytest.approx(result.best_latency)
        # every consumed trial was streamed to the log as a measure line
        assert len(loaded.query(kind="measure", workload=gemm_dag.name)) == result.trials_used

    def test_reopening_appends(self, cpu, gemm_sketch, rng, store_path):
        store = RecordStore(store_path)
        _measure_some(cpu, gemm_sketch, rng, store, n=3)
        store.close()
        reopened = RecordStore(store_path)
        assert len(reopened.query(kind="measure")) == 3
        _measure_some(cpu, gemm_sketch, rng, reopened, n=2)
        reopened.close()
        assert len(RecordStore.load(store_path).query(kind="measure")) == 5

    def test_in_memory_store(self, cpu, gemm_sketch, rng):
        store = RecordStore()
        _measure_some(cpu, gemm_sketch, rng, store, n=4)
        assert len(store.query(kind="measure")) == 4
        assert store.path is None

    def test_best_query_and_workloads(self, cpu, gemm_sketch, rng):
        store = RecordStore()
        results = _measure_some(cpu, gemm_sketch, rng, store)
        name = results[0].schedule.dag.name
        assert store.workloads() == [name]
        best = store.query(kind="measure", workload=name, best=True)
        assert best.latency == min(r.latency for r in results)
        assert store.query(kind="measure", workload="missing", best=True) is None

    def test_load_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RecordStore.load(tmp_path / "absent.jsonl")


class TestCorruptionTolerance:
    def _write_with_garbage(self, path, gemm_sketch, rng):
        schedule = sample_initial_schedules(gemm_sketch, 1, rng)[0]
        good = {
            "kind": "measure",
            "workload": schedule.dag.name,
            "latency": 1e-4,
            "throughput": 1e9,
            "trial_index": 1,
            "schedule": schedule_to_dict(schedule),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(good) + "\n"
            + "{not valid json\n"                       # syntactically broken
            + json.dumps({"kind": "warp-drive"}) + "\n"  # unknown kind
            + json.dumps({"kind": "measure"}) + "\n"     # missing fields
            + json.dumps(good)[: len(json.dumps(good)) // 2]  # truncated tail
        )

    def test_corrupted_lines_skipped(self, store_path, gemm_sketch, rng):
        self._write_with_garbage(store_path, gemm_sketch, rng)
        # The truncated tail is a crash artifact, not corruption: it is
        # physically removed (with a warning) so later appends cannot
        # concatenate onto it; only the three mid-file lines count as skipped.
        with pytest.warns(UserWarning, match="torn"):
            store = RecordStore.load(store_path)
        assert len(store.query(kind="measure")) == 1
        assert store.skipped_lines == 3
        assert store.truncated_tails == 1

    def test_strict_mode_raises(self, store_path, gemm_sketch, rng):
        self._write_with_garbage(store_path, gemm_sketch, rng)
        with pytest.warns(UserWarning, match="torn"):
            with pytest.raises(ValueError):
                RecordStore.load(store_path, strict=True)

    def test_blank_lines_ignored(self, store_path):
        store_path.parent.mkdir(parents=True, exist_ok=True)
        store_path.write_text("\n\n  \n")
        store = RecordStore.load(store_path)
        assert len(store) == 0
        assert store.skipped_lines == 0


class TestFingerprintRouting:
    """Record identity is structural: renamed twins share their records."""

    def test_measures_for_matches_renamed_dag(self, cpu, gemm_sketch, rng):
        store = RecordStore()
        results = _measure_some(cpu, gemm_sketch, rng, store)
        twin = gemm(128, 128, 128, name="renamed_twin")
        assert len(store.query(kind="measure", dag=twin)) == len(results)
        assert store.query(kind="measure", dag=gemm(256, 256, 256)) == []

    def test_replay_into_renamed_dag(self, cpu, gemm_sketch, rng, store_path):
        store = RecordStore(store_path)
        results = _measure_some(cpu, gemm_sketch, rng, store, n=6)
        store.close()

        twin = gemm(128, 128, 128, name="renamed_twin")
        restored = RecordStore.load(store_path).replay(twin)
        assert len(restored) == len(results)
        assert all(s.dag.name == "renamed_twin" for s in restored)

    def test_legacy_records_fall_back_to_name_match(self, cpu, gemm_sketch, rng,
                                                    store_path):
        store = RecordStore(store_path)
        _measure_some(cpu, gemm_sketch, rng, store, n=3)
        store.close()
        # Strip the fingerprints, as a log written before this field existed.
        lines = []
        for line in store_path.read_text().splitlines():
            data = json.loads(line)
            data.pop("fingerprint", None)
            lines.append(json.dumps(data))
        store_path.write_text("\n".join(lines) + "\n")

        legacy = RecordStore.load(store_path)
        assert all(m.fingerprint == "" for m in legacy.query(kind="measure"))
        assert len(legacy.query(kind="measure", dag=gemm(128, 128, 128))) == 3  # name match
        assert legacy.query(kind="measure", dag=gemm(128, 128, 128, name="renamed")) == []

    def test_results_carry_fingerprints(self, tiny_config, gemm_dag, store_path):
        store = RecordStore(store_path)
        HARLScheduler(config=tiny_config, seed=0, record_store=store).tune(
            gemm_dag, n_trials=8
        )
        store.close()
        loaded = RecordStore.load(store_path)
        assert all(m.fingerprint for m in loaded.query(kind="measure"))
        assert all(r.fingerprint for r in loaded.query(kind="result"))
        twin = gemm(128, 128, 128, name="twin")
        twin_results = loaded.query(kind="result", dag=twin)
        assert len(twin_results) == 1
        # Fingerprint-matched results restore onto the renamed twin.
        restored = twin_results[0].restore_schedule(twin, check_workload=False)
        assert restored.dag.name == "twin"


class TestReplayAndResume:
    def test_replay_warm_starts_cost_model_and_measurer(
        self, cpu, gemm_sketch, rng, store_path
    ):
        store = RecordStore(store_path)
        results = _measure_some(cpu, gemm_sketch, rng, store, n=8)
        store.close()

        dag = gemm(128, 128, 128)
        cost_model = ScheduleCostModel(seed=0)
        measurer = Measurer(cpu, seed=0)
        loaded = RecordStore.load(store_path)
        restored = loaded.replay(dag, cost_model=cost_model, measurer=measurer)

        assert len(restored) == len(results)
        assert cost_model.num_samples(dag.name) == len(results)
        assert measurer.best_latency(dag.name) == min(r.latency for r in results)
        assert measurer.trials(dag.name) == 0  # no budget consumed by replay
        # best first
        assert restored[0].signature() == min(results, key=lambda r: r.latency).schedule.signature()

    def test_replay_fits_the_cost_model_on_its_first_read(
        self, cpu, gemm_sketch, rng, monkeypatch
    ):
        store = RecordStore()
        _measure_some(cpu, gemm_sketch, rng, store, n=20)
        fits = []
        real = GradientBoostedTrees.fit
        monkeypatch.setattr(
            GradientBoostedTrees, "fit", lambda self, X, y: fits.append(len(X)) or real(self, X, y)
        )

        dag = gemm(128, 128, 128)
        cost_model = ScheduleCostModel(seed=0)
        restored = store.replay(dag, cost_model=cost_model)
        assert cost_model.is_trained(dag.name) and fits == []
        cost_model.predict(restored[:4])
        cost_model.predict(restored[4:])
        assert fits == [20]

    def test_replay_ignores_other_workloads(self, cpu, gemm_sketch, rng):
        store = RecordStore()
        _measure_some(cpu, gemm_sketch, rng, store)
        other = gemm(256, 256, 256)
        assert store.replay(other) == []

    def test_resume_mid_tuning(self, tiny_config, gemm_dag, store_path):
        # First leg: tune with persistence.
        store = RecordStore(store_path)
        first = HARLScheduler(config=tiny_config, seed=0, record_store=store).tune(
            gemm_dag, n_trials=12
        )
        store.close()

        # Second leg: a brand-new process-equivalent resumes from the log.
        resumed_scheduler = HARLScheduler(config=tiny_config, seed=1).resume_from(
            RecordStore.load(store_path)
        )
        second = resumed_scheduler.tune(gemm_dag, n_trials=12)

        # The resumed run starts from the first leg's best, so it can only improve.
        assert second.best_latency <= first.best_latency
        assert second.trials_used == 12  # fresh budget accounting
        # And its cost model was warm-started with the recorded measurements.
        assert resumed_scheduler.cost_model.num_samples(gemm_dag.name) >= first.trials_used

    def test_resume_seeds_warm_start_schedules(self, tiny_config, gemm_dag, store_path):
        store = RecordStore(store_path)
        HARLScheduler(config=tiny_config, seed=0, record_store=store).tune(
            gemm_dag, n_trials=8
        )
        store.close()

        scheduler = HARLScheduler(config=tiny_config, seed=1).resume_from(
            RecordStore.load(store_path)
        )
        state = scheduler._workload(gemm_dag)
        assert state.best_schedules  # replayed schedules seed the episode warm start


class TestQueryAPI:
    """store.query() is the one query entry point over a store's records."""

    @pytest.fixture()
    def populated(self, cpu, gemm_sketch, rng, store_path):
        store = RecordStore(store_path)
        _measure_some(cpu, gemm_sketch, rng, store, n=5)
        yield store
        store.close()

    def test_query_validates_arguments(self, populated):
        with pytest.raises(ValueError, match="unknown record kind"):
            populated.query(kind="bogus")
        with pytest.raises(ValueError, match="not both"):
            populated.query(dag=gemm(128, 128, 128), workload="x")

    def test_best_returns_minimum_or_none(self, populated):
        records = populated.query(kind="measure")
        best = populated.query(kind="measure", best=True)
        assert best is min(records, key=lambda m: m.latency)
        assert populated.query(kind="measure", workload="absent", best=True) is None

    def test_iter_yields_without_a_full_copy(self, populated):
        seen = []
        for record in populated:
            seen.append(record.trial_index)
        assert seen == [m.trial_index for m in populated.query(kind="measure")]
