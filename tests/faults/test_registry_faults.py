"""Registry crash-recovery tests: torn appends, torn tails, compaction crashes.

The satellite regressions live here: a torn final JSONL line on *every*
shard must be tolerated (truncate-and-warn, never raise), and a compaction
killed midway must lose no entries.
"""

import pytest

from repro.faults import FaultPlan, FaultSpec, InjectedCrash, inject
from repro.serving.registry import RegistryEntry, ScheduleRegistry


def _entry(idx, latency, target="sim-cpu"):
    return RegistryEntry(
        fingerprint=f"wl-{idx:02d}",
        target=target,
        workload=f"workload_{idx}",
        latency=float(latency),
        throughput=1.0 / float(latency),
        trials=8,
        scheduler="harl",
        schedule={"stub": idx},
        embedding=(float(idx), 1.0),
        source="test",
    )


def _best_map(registry):
    return {e.key: e.latency for e in registry.entries()}


class TestTornAppendRecovery:
    def test_torn_append_loses_no_best(self, tmp_path):
        entries = [_entry(i, 1.0 + i / 7) for i in range(8)]
        root = tmp_path / "reg"
        registry = ScheduleRegistry(root, num_shards=4)
        plan = FaultPlan.single("registry.append", "torn_write", at=4, seed=0)
        with inject(plan):
            with pytest.raises(InjectedCrash):
                for entry in entries:
                    registry.record(entry)
        registry.close()  # the OS closes a dead process's files
        assert plan.fired, "fault never fired — the append hook regressed"

        with pytest.warns(UserWarning, match="torn"):
            recovered = ScheduleRegistry(root, num_shards=4)
        assert recovered.truncated_tails == 1
        for entry in entries:  # the client retries everything unacknowledged
            recovered.record(entry)
        recovered.close()

        with ScheduleRegistry(root, num_shards=4, strict=True) as final:
            assert _best_map(final) == {e.key: e.latency for e in entries}

    def test_crash_without_torn_bytes_also_recovers(self, tmp_path):
        root = tmp_path / "reg"
        registry = ScheduleRegistry(root, num_shards=2)
        plan = FaultPlan.single("registry.append", "crash", at=2, seed=0)
        with inject(plan):
            with pytest.raises(InjectedCrash):
                for i in range(5):
                    registry.record(_entry(i, 1.0 + i))
        registry.close()  # the OS closes a dead process's files
        # No partial bytes were written, so the reload is warning-free.
        with ScheduleRegistry(root, num_shards=2, strict=True) as recovered:
            assert recovered.truncated_tails == 0
            assert len(recovered.entries()) == 2


class TestFailedAppendLeavesNoTrace:
    def test_enospc_append_is_rolled_back_on_disk_and_in_memory(self, tmp_path):
        root = tmp_path / "reg"
        registry = ScheduleRegistry(root, num_shards=1)
        good, failed, after = _entry(0, 2.0), _entry(1, 2.0), _entry(2, 2.0)
        registry.record(good)
        with inject(FaultPlan.single("registry.append", "enospc", seed=0)) as plan:
            with pytest.raises(OSError, match="No space left"):
                registry.record(failed)
            assert plan.fired, "fault never fired — the append hook regressed"
            # Memory agrees with disk: the entry that never landed is unknown.
            assert registry.lookup(failed.fingerprint, failed.target, k=0).entry is None
            assert registry.record(after)
        registry.close()

        reopened = ScheduleRegistry(root, num_shards=1, strict=True)
        assert reopened.truncated_tails == 0
        assert _best_map(reopened) == {good.key: 2.0, after.key: 2.0}
        reopened.close()


class TestTornTailOnEveryShard:
    """Satellite regression: loading tolerates a torn final line per shard."""

    @pytest.mark.parametrize("strict", [False, True])
    def test_truncate_and_warn_instead_of_raising(self, tmp_path, strict):
        root = tmp_path / "reg"
        registry = ScheduleRegistry(root, num_shards=4)
        for i in range(12):
            registry.record(_entry(i, 2.0 - i / 20))
        registry.close()

        shards = sorted(root.glob("shard-*.jsonl"))
        torn = 0
        for shard in shards:
            lines = shard.read_text().splitlines()
            if not lines:
                continue
            head = "".join(line + "\n" for line in lines[:-1])
            shard.write_text(head + lines[-1][: max(1, len(lines[-1]) // 2)])
            torn += 1
        assert torn >= 2, "need several populated shards for this to mean anything"

        with pytest.warns(UserWarning, match="torn"):
            recovered = ScheduleRegistry(root, num_shards=4, strict=strict)
        recovered.close()
        assert recovered.truncated_tails == torn
        # Every shard ends on a line boundary again.
        for shard in sorted(root.glob("shard-*.jsonl")):
            raw = shard.read_bytes()
            assert not raw or raw.endswith(b"\n")

    def test_appending_after_repair_does_not_concatenate(self, tmp_path):
        root = tmp_path / "reg"
        registry = ScheduleRegistry(root, num_shards=1)
        registry.record(_entry(0, 2.0))
        registry.record(_entry(1, 2.0))
        registry.close()

        shard = next(root.glob("shard-*.jsonl"))
        text = shard.read_text()
        shard.write_text(text[: len(text) - 10])  # tear the final line

        with pytest.warns(UserWarning, match="torn"):
            recovered = ScheduleRegistry(root, num_shards=1)
        recovered.record(_entry(1, 2.0))  # the retry of the torn append
        recovered.close()

        with ScheduleRegistry(root, num_shards=1, strict=True) as final:
            assert final.skipped_lines == 0  # nothing concatenated, nothing garbled
            assert _best_map(final) == {
                ("wl-00", "sim-cpu"): 2.0,
                ("wl-01", "sim-cpu"): 2.0,
            }

    def test_complete_final_line_without_newline_is_kept(self, tmp_path):
        root = tmp_path / "reg"
        registry = ScheduleRegistry(root, num_shards=1)
        registry.record(_entry(0, 1.5))
        registry.close()

        shard = next(root.glob("shard-*.jsonl"))
        shard.write_bytes(shard.read_bytes().rstrip(b"\n"))  # newline lost, data whole

        recovered = ScheduleRegistry(root, num_shards=1, strict=True)
        assert recovered.truncated_tails == 0
        assert _best_map(recovered) == {("wl-00", "sim-cpu"): 1.5}
        # The next append must start a line of its own, not run onto this one.
        assert recovered.record(_entry(1, 2.0))
        recovered.close()

        with ScheduleRegistry(root, num_shards=1, strict=True) as final:
            assert final.truncated_tails == 0
            assert _best_map(final) == {
                ("wl-00", "sim-cpu"): 1.5,
                ("wl-01", "sim-cpu"): 2.0,
            }


class TestCompactionCrashSafety:
    """Satellite regression: killing compaction midway loses no entries."""

    def _populated(self, root, num_shards=2):
        registry = ScheduleRegistry(root, num_shards=num_shards)
        for i in range(6):
            registry.record(_entry(i, 2.0))
            registry.record(_entry(i, 1.0 + i / 100))
        registry.close()
        return ScheduleRegistry(root, num_shards=num_shards)

    @pytest.mark.parametrize("where", ["mid_write", "before_replace"])
    def test_killed_compaction_loses_nothing(self, tmp_path, where):
        root = tmp_path / "reg"
        victim = self._populated(root)
        expected = _best_map(victim)

        plan = FaultPlan.single(
            "registry.compact",
            "torn_write" if where == "mid_write" else "crash",
            match=where,
            seed=1,
        )
        with inject(plan):
            with pytest.raises(InjectedCrash):
                victim.compact()
        victim.close()  # the OS closes a dead process's files
        assert plan.fired

        recovered = ScheduleRegistry(root, num_shards=2)
        assert _best_map(recovered) == expected
        assert not list(root.glob("*.tmp"))
        recovered.compact()
        recovered.close()
        with ScheduleRegistry(root, num_shards=2, strict=True) as final:
            assert _best_map(final) == expected

    def test_orphan_tmp_cleanup_is_counted(self, tmp_path):
        root = tmp_path / "reg"
        victim = self._populated(root)
        plan = FaultPlan.single(
            "registry.compact", "torn_write", match="mid_write", seed=0
        )
        with inject(plan):
            with pytest.raises(InjectedCrash):
                victim.compact()
        victim.close()  # the OS closes a dead process's files
        assert list(root.glob("shard-*.jsonl.tmp")), "crash left no orphan to clean"

        with ScheduleRegistry(root, num_shards=2) as recovered:
            assert recovered.removed_orphans >= 1
            assert recovered.stats()["removed_orphans"] >= 1

    def test_compact_twice_is_idempotent(self, tmp_path):
        root = tmp_path / "reg"
        registry = self._populated(root)
        assert registry.compact() >= 1
        registry.close()
        snapshot = {f.name: f.read_bytes() for f in sorted(root.glob("shard-*.jsonl"))}

        again = ScheduleRegistry(root, num_shards=2)
        assert again.compact() == 0
        again.close()
        assert snapshot == {
            f.name: f.read_bytes() for f in sorted(root.glob("shard-*.jsonl"))
        }
