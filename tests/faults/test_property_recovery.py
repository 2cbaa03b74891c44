"""Property test (satellite 1): the registry recovered after ANY single
injected fault equals the fault-free registry on every (fingerprint, target)
key — across fault locations, seeds and shard counts."""

import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, FaultSpec, InjectedCrash, inject
from repro.serving.registry import RegistryEntry, ScheduleRegistry

#: One spec per distinct place a single fault can strike the registry's
#: write paths: each of the first five appends torn, plus a compaction
#: killed mid temp-write or just before the atomic publish.
FAULTS = [
    FaultSpec("registry.append", "torn_write", at=i) for i in range(5)
] + [
    FaultSpec("registry.compact", "torn_write", match="mid_write"),
    FaultSpec("registry.compact", "crash", match="before_replace"),
]


def _entries(seed):
    # Deterministic, seed-varied latencies; several entries improve earlier
    # keys so compaction always has stale lines to chew on.
    entries = []
    for i in range(8):
        latency = 1.0 + ((i * 7919 + seed * 104729) % 13) / 13
        entries.append(
            RegistryEntry(
                fingerprint=f"wl-{i % 5:02d}",  # collisions → improvements
                target="sim-cpu",
                workload=f"workload_{i % 5}",
                latency=latency,
                throughput=1.0 / latency,
                trials=4,
                scheduler="harl",
                schedule={"stub": i},
                embedding=(float(i), 1.0),
                source="property",
            )
        )
    return entries


def _best_map(root, num_shards):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        registry = ScheduleRegistry(root, num_shards=num_shards)
    with registry:
        return {e.key: e.latency for e in registry.entries()}


@settings(deadline=None, max_examples=30)
@given(
    fault_index=st.integers(min_value=0, max_value=len(FAULTS) - 1),
    seed=st.integers(min_value=0, max_value=7),
    num_shards=st.sampled_from([1, 2, 4]),
)
def test_single_fault_recovery_equals_fault_free(fault_index, seed, num_shards):
    spec = FAULTS[fault_index]
    entries = _entries(seed)
    # A fresh scratch dir per example (tmp_path would be reused across
    # hypothesis examples and trip its health checks).
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        clean_root, faulted_root = root / "clean", root / "faulted"

        clean = ScheduleRegistry(clean_root, num_shards=num_shards)
        for entry in entries:
            clean.record(entry)
        clean.compact()
        clean.close()
        expected = _best_map(clean_root, num_shards)

        victim = ScheduleRegistry(faulted_root, num_shards=num_shards)
        plan = FaultPlan([spec], seed=seed)
        with inject(plan):
            try:
                for entry in entries:
                    victim.record(entry)
                victim.compact()
            except InjectedCrash:
                pass
        victim.close()  # the OS closes a dead process's files

        # Restart: reload, then retry the whole ingest (append-path faults
        # lose un-acknowledged records; retries are idempotent because the
        # registry only accepts strict improvements), then re-compact.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            recovered = ScheduleRegistry(faulted_root, num_shards=num_shards)
        for entry in entries:
            recovered.record(entry)
        recovered.compact()
        recovered.close()

        assert _best_map(faulted_root, num_shards) == expected, (
            f"fault {spec} (seed {seed}, {num_shards} shards) "
            "left the registry diverged from a fault-free run"
        )
