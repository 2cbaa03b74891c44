"""Record-store fault tests: ENOSPC rollback, slow flushes, torn tails."""

import errno

import pytest

from repro.faults import FaultPlan, inject
from repro.records import MeasureRecord, RecordStore


def _measure(idx):
    return MeasureRecord(
        workload="wl",
        latency=1.0 + idx * 0.01,
        throughput=1.0 / (1.0 + idx * 0.01),
        trial_index=idx,
        schedule={"stub": idx},
        scheduler="harl",
        fingerprint="fp-test",
    )


class TestEnospcRollback:
    def test_failed_append_is_invisible_everywhere(self, tmp_path):
        path = tmp_path / "records.jsonl"
        store = RecordStore(path)
        for i in range(1, 4):
            store.append_measure(_measure(i))

        with inject(FaultPlan.single("records.flush", "enospc", seed=0)):
            with pytest.raises(OSError) as excinfo:
                store.append_measure(_measure(4))
        assert excinfo.value.errno == errno.ENOSPC
        assert [m.trial_index for m in store.query(kind="measure")] == [1, 2, 3]
        assert store.flush_failures == 1
        store.close()

        # Disk agrees with memory: the partial line was rolled back.
        on_disk = RecordStore.load(path, strict=True)
        assert [m.trial_index for m in on_disk.query(kind="measure")] == [1, 2, 3]

    def test_retry_after_enospc_lands_exactly_once(self, tmp_path):
        path = tmp_path / "records.jsonl"
        store = RecordStore(path)
        with inject(FaultPlan.single("records.flush", "enospc", at=1, seed=0)):
            store.append_measure(_measure(1))
            with pytest.raises(OSError):
                store.append_measure(_measure(2))
            store.append_measure(_measure(2))  # the retry
        store.close()
        reloaded = RecordStore.load(path, strict=True)
        assert [m.trial_index for m in reloaded.query(kind="measure")] == [1, 2]

    def test_result_appends_roll_back_too(self, tmp_path):
        from repro.records import TuningRecord

        path = tmp_path / "records.jsonl"
        store = RecordStore(path)
        record = TuningRecord(
            workload="wl",
            scheduler="harl",
            latency=1.0,
            throughput=1.0,
            trials_used=4,
            schedule=None,
            history=[],
        )
        with inject(FaultPlan.single("records.flush", "enospc", match="result")):
            with pytest.raises(OSError):
                store.append_result(record)
        assert store.query(kind="result") == []
        store.append_result(record)
        store.close()
        assert len(RecordStore.load(path, strict=True).query(kind="result")) == 1


class TestSlowFlush:
    def test_slow_flush_is_counted_not_fatal(self, tmp_path):
        store = RecordStore(tmp_path / "records.jsonl")
        with inject(FaultPlan.single("records.flush", "slow_disk", at=1, seed=0)):
            for i in range(1, 4):
                store.append_measure(_measure(i))
        store.close()
        assert store.slow_flushes == 1
        assert store.flush_failures == 0
        assert [m.trial_index for m in store.query(kind="measure")] == [1, 2, 3]

    def test_fast_flushes_are_not_flagged(self, tmp_path):
        store = RecordStore(tmp_path / "records.jsonl")
        for i in range(1, 6):
            store.append_measure(_measure(i))
        store.close()
        assert store.slow_flushes == 0


class TestTornTail:
    def test_torn_final_line_truncated_with_warning(self, tmp_path):
        path = tmp_path / "records.jsonl"
        store = RecordStore(path)
        for i in range(1, 4):
            store.append_measure(_measure(i))
        store.close()

        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 15])  # tear the last line

        with pytest.warns(UserWarning, match="torn"):
            recovered = RecordStore.load(path, strict=True)
        assert recovered.truncated_tails == 1
        assert [m.trial_index for m in recovered.query(kind="measure")] == [1, 2]

    def test_append_after_torn_tail_repair_is_clean(self, tmp_path):
        path = tmp_path / "records.jsonl"
        store = RecordStore(path)
        store.append_measure(_measure(1))
        store.append_measure(_measure(2))
        store.close()

        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])

        with pytest.warns(UserWarning, match="torn"):
            recovered = RecordStore(path)
        recovered.append_measure(_measure(2))  # retry of the torn record
        recovered.close()

        final = RecordStore.load(path, strict=True)
        assert final.skipped_lines == 0
        assert [m.trial_index for m in final.query(kind="measure")] == [1, 2]

    def test_complete_final_line_without_newline_is_kept(self, tmp_path):
        path = tmp_path / "records.jsonl"
        store = RecordStore(path)
        store.append_measure(_measure(1))
        store.append_measure(_measure(2))
        store.close()
        path.write_bytes(path.read_bytes().rstrip(b"\n"))  # newline lost, data whole

        reopened = RecordStore(path, strict=True)
        assert reopened.truncated_tails == 0
        # The next append must start a line of its own, not run onto record 2.
        reopened.append_measure(_measure(3))
        reopened.close()

        final = RecordStore.load(path, strict=True)
        assert final.truncated_tails == 0
        assert [m.trial_index for m in final.query(kind="measure")] == [1, 2, 3]
