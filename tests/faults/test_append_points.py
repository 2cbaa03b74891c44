"""Both append points enact every fault kind through one table.

``records.flush`` (the record log) and ``registry.append`` (a registry
shard) append through the same :class:`~repro.jsonl.AppendLog`, so each
kind has one meaning wherever it fires: the bytes left on disk and the
exception raised must agree between the two points.
"""

import errno

import pytest

from repro.faults import FAULT_KINDS, FaultPlan, InjectedCrash, inject
from repro.records import MeasureRecord, RecordStore
from repro.serving.registry import RegistryEntry, ScheduleRegistry


def _record_log(root):
    store = RecordStore(root / "records.jsonl")

    def append(i):
        store.append_measure(
            MeasureRecord(
                workload="wl",
                latency=1.0 + i / 100,
                throughput=1.0,
                trial_index=i,
                schedule={"stub": i},
            )
        )

    return store, store.path, append


def _registry_shard(root):
    registry = ScheduleRegistry(root / "registry", num_shards=1)

    def append(i):
        registry.record(
            RegistryEntry(
                fingerprint=f"wl-{i:02d}",
                target="sim-cpu",
                workload=f"workload_{i}",
                latency=1.0,
                throughput=1.0,
                trials=4,
                scheduler="harl",
                schedule={"stub": i},
            )
        )

    return registry, root / "registry" / "shard-00.jsonl", append


POINTS = {"records.flush": _record_log, "registry.append": _registry_shard}


def _second_append(point, root, plan=None):
    """Append twice, arming ``plan`` around the second append only.

    Returns the file's bytes before and after the second append and what it
    raised.  The store is closed either way: a crashed one models a dead
    process, whose files the OS closes.
    """
    store, path, append = POINTS[point](root)
    raised = None
    try:
        append(1)
        before = path.read_bytes()
        if plan is None:
            append(2)
        else:
            with inject(plan):
                append(2)
    except (InjectedCrash, OSError) as exc:
        raised = exc
    finally:
        store.close()
    return before, path.read_bytes(), raised


@pytest.mark.parametrize("point", sorted(POINTS))
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_each_kind_means_the_same_at_both_append_points(tmp_path, point, kind):
    before, clean, raised = _second_append(point, tmp_path / "clean")
    assert raised is None
    line = clean[len(before):]

    plan = FaultPlan.single(point, kind, fraction=0.5, delay=0.001)
    seen_before, after, raised = _second_append(point, tmp_path / "faulted", plan)
    assert plan.fired, f"{kind} never fired at {point}"
    assert seen_before == before

    if kind == "slow_disk":  # stall, then append normally
        assert raised is None
        assert after == clean
    elif kind == "torn_write":  # torn prefix, flushed, then process death
        assert isinstance(raised, InjectedCrash)
        assert after == before + line[: len(line) // 2]
    elif kind == "enospc":  # torn prefix, then truncated back
        assert isinstance(raised, OSError) and raised.errno == errno.ENOSPC
        assert after == before
    else:  # crash before writing a byte
        assert kind == "crash"
        assert isinstance(raised, InjectedCrash)
        assert after == before
