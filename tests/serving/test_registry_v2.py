"""Shard-format v2 behaviour: lazy indexed loads and shard read handles.

The contract under test is the one the million-entry redesign rests on:

* a v2 (manifest) registry indexes **no** shard at construction and scans
  at most the key's home shard for an exact ``lookup(..., k=0)``;
* foreign (v1) layouts and lines appended by another writer are read with
  identical answers;
* for *any* interleaving of append / compact / crash (driven by the faults
  harness), a lazy v2 reload returns exactly the entries a line-by-line
  parse of the surviving shard files says it must.
"""

import json
import warnings

import numpy as np
import pytest

from repro.faults.plan import FaultPlan, InjectedCrash, inject
from repro.serving.fingerprint import EMBEDDING_SIZE, workload_embedding
from repro.serving.registry import RegistryEntry, ScheduleRegistry
from repro.tensor.workloads import gemm

TARGETS = ("sim-cpu", "sim-gpu")


def _entry(i: int, latency: float, target: str = "sim-cpu") -> RegistryEntry:
    return RegistryEntry(
        fingerprint=f"fp-{i:03d}",
        target=target,
        workload=f"workload_{i}",
        latency=float(latency),
        throughput=1.0 / float(latency),
        trials=8,
        scheduler="harl",
        schedule={"stub": i},
        embedding=(float(i % 7), float(i % 5)) + (1.0,) * (EMBEDDING_SIZE - 2),
        source="test",
    )


def _quiet(root, num_shards=4, **kwargs) -> ScheduleRegistry:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ScheduleRegistry(root, num_shards=num_shards, **kwargs)


def _oracle(root) -> dict:
    """Best (fingerprint, target) → latency from a raw parse of every shard.

    Mirrors the absorb rule: the first line of a key wins ties, later lines
    replace it only on strict improvement (latencies in these tests are
    drawn continuously, so ties never decide a comparison).
    """
    best: dict = {}
    for path in sorted(root.glob("shard-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            try:
                data = json.loads(line)
                entry = RegistryEntry.from_dict(data)
            except (ValueError, KeyError, TypeError):
                continue
            held = best.get(entry.key)
            if held is None or entry.latency < held:
                best[entry.key] = entry.latency
    return best


class TestLazyLoading:
    def test_construct_touches_no_shard(self, tmp_path):
        registry = ScheduleRegistry(tmp_path, num_shards=4)
        for i in range(12):
            registry.record(_entry(i, 1.0 + i / 100))
        registry.close()

        lazy = ScheduleRegistry(tmp_path, num_shards=4)
        assert lazy.indexed_shards == 0
        assert lazy.lookup("fp-003", "sim-cpu", k=0).entry is not None
        assert lazy.indexed_shards == 1
        lazy.close()

    def test_similarity_tier_indexes_everything(self, tmp_path):
        registry = ScheduleRegistry(tmp_path, num_shards=4)
        for i in range(12):
            registry.record(_entry(i, 1.0))
        registry.close()

        lazy = ScheduleRegistry(tmp_path, num_shards=4)
        result = lazy.lookup(gemm(64, 64, 64), "sim-cpu", k=3)
        assert len(result.neighbors) == 3
        assert lazy.indexed_shards == len(list(tmp_path.glob("shard-*.jsonl")))
        lazy.close()

    def test_line_appended_by_another_writer_is_read_on_reopen(self, tmp_path):
        registry = ScheduleRegistry(tmp_path, num_shards=1)
        registry.record(_entry(0, 1.0))
        registry.close()
        # Append behind the registry's back: a reopened v2 reader must see it.
        better = _entry(0, 0.5)
        shard = tmp_path / "shard-00.jsonl"
        with shard.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(better.to_dict()) + "\n")

        reloaded = ScheduleRegistry(tmp_path, num_shards=1)
        assert reloaded.lookup("fp-000", "sim-cpu", k=0).entry.latency == 0.5
        reloaded.close()

    def test_v1_layout_reads_transparently(self, tmp_path):
        # A pre-manifest directory: raw JSONL shards only.
        registry = ScheduleRegistry(tmp_path, num_shards=2)
        for i in range(8):
            registry.record(_entry(i, 1.0 + i / 10))
        registry.close()
        (tmp_path / "registry.json").unlink()

        v1 = ScheduleRegistry(tmp_path, num_shards=2)
        assert v1.lookup("fp-004", "sim-cpu", k=0).entry is not None
        assert {e.key: e.latency for e in v1.entries()} == _oracle(tmp_path)
        v1.close()

    def test_one_read_handle_per_shard_file(self, tmp_path):
        registry = ScheduleRegistry(tmp_path, num_shards=8)
        for i in range(32):
            registry.record(_entry(i, 1.0 + i / 100))
        registry.close()

        lazy = ScheduleRegistry(tmp_path, num_shards=8)
        for i in range(32):
            entry = lazy.lookup(f"fp-{i:03d}", "sim-cpu", k=0).entry
            assert entry is not None and entry.workload == f"workload_{i}"
        shard_files = len(list(tmp_path.glob("shard-*.jsonl")))
        assert shard_files > 1
        assert lazy.stats()["open_read_handles"] == shard_files
        lazy.close()
        assert lazy.stats()["open_read_handles"] == 0

    def test_directory_holds_only_manifest_and_shards(self, tmp_path):
        registry = ScheduleRegistry(tmp_path, num_shards=4)
        for i in range(12):
            registry.record(_entry(i, 2.0))
            registry.record(_entry(i, 1.0))  # improvement → stale line
        registry.close()
        reopened = ScheduleRegistry(tmp_path, num_shards=4)
        assert reopened.compact() == 12
        reopened.close()

        names = {path.name for path in tmp_path.iterdir()}
        assert "registry.json" in names
        assert {name for name in names if name != "registry.json"} == {
            path.name for path in tmp_path.glob("shard-*.jsonl")
        }


class TestLookupResult:
    def test_source_tags_and_truthiness(self, tmp_path):
        registry = ScheduleRegistry(tmp_path, num_shards=2)
        dag = gemm(64, 64, 64)
        assert not registry.lookup(dag, "sim-cpu")  # miss on empty store
        registry.record(
            RegistryEntry(
                fingerprint="other",
                target="sim-cpu",
                workload="other",
                latency=1.0,
                throughput=1.0,
                trials=4,
                scheduler="harl",
                schedule={"stub": 1},
                embedding=tuple(workload_embedding(gemm(96, 96, 96)).tolist()),
            )
        )
        neighbour_hit = registry.lookup(dag, "sim-cpu", k=1)
        assert neighbour_hit.source == "neighbor" and bool(neighbour_hit)
        assert neighbour_hit.best is neighbour_hit.neighbors[0][1]
        registry.close()


class TestPropertyLazyEqualsEager:
    """Lazy v2 loads equal a raw-parse oracle under faulted interleavings."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interleaved_append_compact_crash(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        root = tmp_path / f"prop-{seed}"
        registry = ScheduleRegistry(root, num_shards=4)
        for step in range(60):
            op = int(rng.integers(0, 12))
            i = int(rng.integers(0, 16))
            latency = float(rng.uniform(0.1, 2.0))
            target = TARGETS[int(rng.integers(0, len(TARGETS)))]
            if op < 8:
                registry.record(_entry(i, latency, target))
            elif op < 9:
                registry.compact()
            elif op < 10:
                # A fresh key is always an improvement, so the append (and
                # its armed fault) is guaranteed to run.
                plan = FaultPlan.single(
                    "registry.append", "torn_write", seed=seed * 100 + step
                )
                with inject(plan):
                    with pytest.raises(InjectedCrash):
                        registry.record(_entry(100 + step, latency, target))
                registry.close()  # the OS closes a dead process's files
                registry = _quiet(root)  # crash: reload from surviving files
            else:
                kind, match = (
                    ("torn_write", "mid_write")
                    if op == 10
                    else ("crash", "before_replace")
                )
                plan = FaultPlan.single(
                    "registry.compact", kind, match=match, seed=seed * 100 + step
                )
                with inject(plan):
                    try:
                        registry.compact()
                    except InjectedCrash:
                        registry.close()  # the OS closes a dead process's files
                        registry = _quiet(root)
        registry.close()

        expected = _oracle(root)
        assert expected, "property run built an empty registry"

        # Eager reference: a full entries() materialisation.
        eager = _quiet(root)
        assert {e.key: e.latency for e in eager.entries()} == expected
        eager.close()

        # Lazy v2: answer every key through the exact tier of lookup().
        lazy = _quiet(root)
        for (fingerprint, target), latency in expected.items():
            found = lazy.lookup(fingerprint, target, k=0).entry
            assert found is not None and found.latency == latency
        assert len(lazy) == len(expected)
        lazy.close()
