"""Persistent, sharded best-schedule registry.

The registry is the shared database layer of the serving subsystem: it maps
``(structural fingerprint, hardware target)`` to the best-known schedule of
that workload plus provenance, so tuning work done anywhere — benchmark runs,
CLI sessions, the multi-tenant tuning service — accumulates into one reusable
knowledge base.

Storage model
-------------
Entries live in ``num_shards`` append-only JSONL shard files under one
directory, sharded by fingerprint prefix so concurrent writers on different
workloads rarely touch the same file.  Shards are appended and read through
:mod:`repro.jsonl`, the same appender and line reader as
:class:`~repro.records.RecordStore`; corrupted lines are skipped (and
counted) at load time.  An improvement to a key appends a new line rather
than rewriting the shard, so files grow monotonically until
:meth:`ScheduleRegistry.compact` rewrites each shard with only the current
best entry per key (atomically, via temp file + ``os.replace``).

A directory whose ``registry.json`` manifest (format tag plus shard count)
matches the registry loads *lazily*: construction reads no shard, an exact
:meth:`lookup` scans only the one shard its key hashes to, the similarity
tiers scan every shard, and a scan keeps each key's best line as a light
index record (byte offset + length, latency, embedding).  Entry bodies are
materialised on demand with a single ``seek`` + ``read`` through one open
read handle per shard file.  v1 directories (no manifest) and foreign layouts
(another shard count) are read transparently — every file is scanned eagerly
on first access — and upgraded in place by :meth:`compact`, which writes the
manifest.

Reuse model
-----------
:meth:`lookup` is the single query entry point: it answers the exact
structural hit, the ``k`` nearest same-target neighbours and (on request)
ranked cross-target transfer candidates in one :class:`LookupResult`.
Nearest-neighbour scoring keeps a contiguous per-target NumPy matrix of the
stored workload embeddings and ranks all candidates in one vectorised pass.
Entries whose embedding is missing or not
:data:`~repro.serving.fingerprint.EMBEDDING_SIZE` wide (imports from a
foreign writer) stay out of that matrix and match only by exact fingerprint.
:meth:`warm_start_schedules` packages lookup results into ready-to-measure
:class:`~repro.tensor.schedule.Schedule` objects (tile sizes are re-fitted
to the new extents when the relative's shape differs) through the pure
functions of :mod:`repro.serving.transfer`.

When a target has no registered entries yet, the transfer search falls back
*across* targets: donors are ranked by the sum of workload embedding
distance and hardware :func:`~repro.hardware.catalog.target_distance`
(so a close cousin device with the exact workload beats a remote device, and
same-kind donors always beat cross-kind ones), and the borrowed schedule is
re-fitted to the destination device by
:func:`~repro.serving.transfer.adapt_schedule_to_target`.  Results recorded
after a cross-target warm start carry the donor target in their provenance
(``RegistryEntry.donor_target``).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.faults.plan import poll as poll_fault
from repro.hardware.catalog import default_catalog, target_distance
from repro.jsonl import AppendLog, read_lines, repair_torn_tail
from repro.hardware.target import HardwareTarget
from repro.obs.metrics import counter, histogram
from repro.obs.trace import span as obs_span
from repro.records import schedule_from_dict, schedule_to_dict
from repro.serving.fingerprint import (
    EMBEDDING_SIZE,
    structural_fingerprint,
    workload_embedding,
)
from repro.serving.transfer import adapt_schedule, adapt_schedule_to_target, target_variants
from repro.tensor.dag import ComputeDAG
from repro.tensor.schedule import Schedule

__all__ = [
    "LookupResult",
    "RegistryEntry",
    "ScheduleRegistry",
    "TransferCandidate",
]

#: Version tag of the registry-level layout manifest (``registry.json``).
REGISTRY_MANIFEST_FORMAT = "repro-registry/2"

_LOOKUPS = counter("registry.lookups", "Exact (fingerprint, target) lookups")
_HITS = counter("registry.hits", "Exact lookups answered from the best map")
_MISSES = counter("registry.misses", "Exact lookups with no stored entry")
_TRANSFER_LOOKUPS = counter("registry.transfer_lookups", "Warm-start transfer searches")
_TRANSFER_CANDIDATES = counter(
    "registry.transfer_candidates", "Warm-start candidates produced"
)
_SHARD_OPENS = counter("registry.shard_opens", "Shard files opened for indexed reads")
_INDEX_HITS = counter(
    "registry.index_hits", "Entries materialised via a shard-index seek"
)
_SHARD_LOAD = histogram("registry.shard_load_seconds", help="Per-shard JSONL scan time")
_APPEND = histogram("registry.append_seconds", help="Single-entry shard append time")
_COMPACT = histogram("registry.compact_seconds", help="Full registry compaction time")


@dataclass(frozen=True)
class RegistryEntry:
    """Best-known schedule of one (workload fingerprint, target) pair.

    ``schedule`` is the structural serialisation produced by
    :func:`~repro.records.schedule_to_dict`; ``source`` records provenance
    (which runner / service tenant / import produced the entry) and
    ``donor_target`` names the target(s) whose registered schedules
    warm-started the run that produced this entry (empty for cold runs).
    """

    fingerprint: str
    target: str
    workload: str
    latency: float
    throughput: float
    trials: int
    scheduler: str
    schedule: Optional[dict]
    embedding: Tuple[float, ...] = ()
    source: str = ""
    donor_target: str = ""

    @property
    def key(self) -> Tuple[str, str]:
        return (self.fingerprint, self.target)

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "target": self.target,
            "workload": self.workload,
            "latency": self.latency,
            "throughput": self.throughput,
            "trials": self.trials,
            "scheduler": self.scheduler,
            "schedule": self.schedule,
            "embedding": list(self.embedding),
            "source": self.source,
            "donor_target": self.donor_target,
        }

    @staticmethod
    def from_dict(data: dict) -> "RegistryEntry":
        return RegistryEntry(
            fingerprint=data["fingerprint"],
            target=data["target"],
            workload=data["workload"],
            latency=float(data["latency"]),
            throughput=float(data["throughput"]),
            trials=int(data.get("trials", 0)),
            scheduler=data.get("scheduler", ""),
            schedule=data.get("schedule"),
            embedding=tuple(float(v) for v in data.get("embedding", ())),
            source=data.get("source", ""),
            donor_target=data.get("donor_target", ""),
        )


@dataclass(frozen=True)
class TransferCandidate:
    """One warm-start schedule plus its provenance.

    ``donor`` is the registry entry the schedule was borrowed from;
    ``cross_target`` marks candidates transferred from a *different* hardware
    target (with ``target_distance`` the embedding distance between donor and
    destination device — 0.0 for same-target transfers).
    """

    schedule: Schedule
    donor: RegistryEntry
    target_distance: float = 0.0
    cross_target: bool = False


@dataclass(frozen=True)
class LookupResult:
    """Everything one registry query can answer, in one return type.

    ``entry`` is the exact ``(fingerprint, target)`` hit (or ``None``);
    ``neighbors`` are the ranked same-target relatives as
    ``(embedding distance, entry)`` pairs; ``transfers`` are the ranked
    cross-target donors as ``(target distance, entry)`` pairs.  ``source``
    tags where the best answer came from: ``"exact"``, ``"neighbor"``,
    ``"transfer"`` or ``"miss"``.
    """

    fingerprint: str
    target: str
    entry: Optional[RegistryEntry]
    neighbors: Tuple[Tuple[float, RegistryEntry], ...] = ()
    transfers: Tuple[Tuple[float, RegistryEntry], ...] = ()
    source: str = "miss"

    @property
    def best(self) -> Optional[RegistryEntry]:
        """The single best answer across exact / neighbor / transfer tiers."""
        if self.entry is not None:
            return self.entry
        if self.neighbors:
            return self.neighbors[0][1]
        if self.transfers:
            return self.transfers[0][1]
        return None

    @property
    def provenance(self) -> str:
        """``source`` string of the winning entry (empty on a miss)."""
        best = self.best
        return best.source if best is not None else ""

    def __bool__(self) -> bool:
        return self.source != "miss"


class _IndexEntry:
    """Light in-memory index record of one key's best on-disk line.

    Holds everything queries rank on (latency, embedding, has-schedule)
    without the parsed entry body; the body is materialised on demand by a
    ``seek``/``read`` at ``(path, offset, length)``.  ``offset < 0`` marks an
    entry that lives only in memory (in-memory registries).
    """

    __slots__ = (
        "fingerprint",
        "target",
        "latency",
        "has_schedule",
        "embedding",
        "path",
        "offset",
        "length",
    )

    def __init__(
        self, entry: RegistryEntry, path: Optional[Path], offset: int, length: int
    ):
        self.fingerprint = entry.fingerprint
        self.target = sys.intern(entry.target)
        self.latency = entry.latency
        self.has_schedule = entry.schedule is not None
        self.embedding = entry.embedding
        self.path = path
        self.offset = offset
        self.length = length

    @property
    def key(self) -> Tuple[str, str]:
        return (self.fingerprint, self.target)


class _TargetMatrix:
    """Contiguous embedding matrix of one target's index entries.

    Rows are sorted by fingerprint so a stable row order doubles as the
    distance tie-break.  ``extras`` holds entries whose embedding is missing
    or not :data:`EMBEDDING_SIZE` wide: they only ever match by exact
    fingerprint.
    """

    __slots__ = (
        "rows",
        "extras",
        "keys",
        "fingerprints",
        "embeddings",
        "sched_mask",
        "row_of",
    )

    def __init__(self, entries: Iterable[_IndexEntry]):
        pool = list(entries)
        self.rows = sorted(
            (ie for ie in pool if len(ie.embedding) == EMBEDDING_SIZE),
            key=lambda ie: ie.fingerprint,
        )
        self.extras = [ie for ie in pool if len(ie.embedding) != EMBEDDING_SIZE]
        self.keys = [ie.key for ie in self.rows]
        self.fingerprints = [ie.fingerprint for ie in self.rows]
        self.embeddings = np.array(
            [ie.embedding for ie in self.rows], dtype=np.float64
        ).reshape(len(self.rows), EMBEDDING_SIZE)
        self.sched_mask = np.fromiter(
            (ie.has_schedule for ie in self.rows), dtype=bool, count=len(self.rows)
        )
        self.row_of = {fp: i for i, fp in enumerate(self.fingerprints)}


class ScheduleRegistry:
    """Sharded persistent map (fingerprint, target) → best schedule.

    Parameters
    ----------
    root:
        Directory holding the shard files (created on first write).  ``None``
        keeps the registry purely in memory.
    num_shards:
        Number of JSONL shard files; the shard of an entry is derived from
        its fingerprint prefix, so the mapping is stable across processes.
    strict:
        When true, corrupted lines raise at load time instead of being
        skipped and counted in :attr:`skipped_lines`.  Strict registries
        index every shard eagerly at construction (validation implies
        reading everything anyway).

    Thread safety
    -------------
    One re-entrant mutex guards the index, the best-entry cache, the shard
    handles and the line counters, so :meth:`record` is atomic per entry
    (absorb + append commit together) and concurrent writers — racing
    service drivers, the network front end's worker threads — can never
    interleave shard writes or lose a best-entry update.  Query methods
    operate under the same lock; the lock is re-entrant so
    :meth:`merge`/:meth:`import_file` can call :meth:`record` while holding
    it.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        num_shards: int = 16,
        strict: bool = False,
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.root = Path(root) if root is not None else None
        self.num_shards = int(num_shards)
        self.strict = bool(strict)
        self._mutex = threading.RLock()
        self.skipped_lines = 0  # guarded-by: _mutex
        self.total_lines = 0  # guarded-by: _mutex
        self.truncated_tails = 0
        self.removed_orphans = 0
        #: authoritative light index: key → best on-disk line
        self._index: Dict[Tuple[str, str], _IndexEntry] = {}  # guarded-by: _mutex
        #: materialised-entry cache over ``_index`` (filled on demand)
        self._best: Dict[Tuple[str, str], RegistryEntry] = {}  # guarded-by: _mutex
        #: shard paths whose every line is in ``_index``
        self._indexed: set = set()  # guarded-by: _mutex
        self._targets: set = set()  # guarded-by: _mutex
        self._matrices: Dict[str, _TargetMatrix] = {}  # guarded-by: _mutex
        self._all_indexed = False  # guarded-by: _mutex
        self._native = True  # guarded-by: _mutex
        self._manifest_ok = False  # guarded-by: _mutex
        #: one append log per shard, opened on its first append
        self._logs: Dict[int, AppendLog] = {}  # guarded-by: _mutex
        #: one read handle per shard file, opened on its first entry read
        self._read_handles: Dict[Path, IO[bytes]] = {}  # guarded-by: _mutex
        if self.root is not None and self.root.exists():
            self.removed_orphans = self._remove_orphan_tmps()
            # Torn-tail repair stays eager (it is O(final line) per file):
            # re-opened shards must never append onto a partial line, and
            # crash-recovery counters must be correct at construction.
            for path in sorted(self.root.glob("shard-*.jsonl")):
                if repair_torn_tail(path, label="registry shard"):
                    self.truncated_tails += 1
            self._native, self._manifest_ok = self._detect_layout()
            if self.strict:
                with self._mutex:
                    self._ensure_all_indexed_locked()
        else:
            self._all_indexed = True

    # ------------------------------------------------------------------ #
    # layout
    # ------------------------------------------------------------------ #
    def _shard_of(self, fingerprint: str) -> int:
        # crc32 keeps the shard mapping stable across processes and total
        # over arbitrary (e.g. imported) fingerprint strings.
        return zlib.crc32(fingerprint.encode("utf-8")) % self.num_shards

    def _shard_path(self, shard: int) -> Path:
        assert self.root is not None
        return self.root / f"shard-{shard:02d}.jsonl"

    def _manifest_path(self) -> Path:
        assert self.root is not None
        return self.root / "registry.json"

    def _detect_layout(self) -> Tuple[bool, bool]:
        """``(native, manifest_ok)`` for the on-disk directory.

        *Native* means every data file is ``shard-i.jsonl`` for ``i`` under
        the current ``num_shards`` **and** the manifest agrees on the shard
        count, so the fingerprint→file mapping holds and shards may load
        lazily.  Anything else (a v1 directory, a different shard count, a
        half-migrated layout) is foreign: correctness first — every file is
        scanned eagerly on first access, exactly like the v1 reader.
        """
        assert self.root is not None
        data_paths = sorted(self.root.glob("shard-*.jsonl"))
        if not data_paths:
            return True, False
        try:
            manifest = json.loads(self._manifest_path().read_text(encoding="utf-8"))
        except (FileNotFoundError, OSError, json.JSONDecodeError, UnicodeDecodeError):
            return False, False
        if (
            not isinstance(manifest, dict)
            or manifest.get("format") != REGISTRY_MANIFEST_FORMAT
        ):
            return False, False
        try:
            if int(manifest["num_shards"]) != self.num_shards:
                return False, False
        except (KeyError, TypeError, ValueError):
            return False, False
        for path in data_paths:
            try:
                shard = int(path.name[len("shard-"): -len(".jsonl")])
            except ValueError:
                return False, False
            if not 0 <= shard < self.num_shards:
                return False, False
        return True, True

    def _write_manifest_locked(self) -> None:
        manifest = self._manifest_path()
        tmp = manifest.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(
                {"format": REGISTRY_MANIFEST_FORMAT, "num_shards": self.num_shards}
            ),
            encoding="utf-8",
        )
        os.replace(tmp, manifest)
        self._manifest_ok = True

    def _remove_orphan_tmps(self) -> int:
        """Delete half-written temp files left behind by a crash.

        A compaction (or manifest write) killed before its atomic
        ``os.replace`` leaves a ``*.tmp`` next to the intact file.  It holds
        nothing the surviving files do not, so dropping it is the whole
        recovery — but it must be dropped, or crashed maintenance
        accumulates garbage files forever.
        """
        assert self.root is not None
        removed = 0
        for pattern in ("shard-*.jsonl.tmp", "registry.json.tmp"):
            for tmp in self.root.glob(pattern):
                tmp.unlink()
                removed += 1
        return removed

    # ------------------------------------------------------------------ #
    # indexing
    # ------------------------------------------------------------------ #
    def _ensure_key_indexed_locked(self, fingerprint: str) -> None:
        """Index exactly the shard ``fingerprint`` hashes to (lazy path)."""
        if self._all_indexed or self.root is None:
            return
        if not self._native:
            self._ensure_all_indexed_locked()
            return
        self._ensure_shard_indexed_locked(self._shard_of(fingerprint))

    def _ensure_shard_indexed_locked(self, shard: int) -> None:
        path = self._shard_path(shard)
        if path in self._indexed:
            return
        if not path.exists():
            self._indexed.add(path)
            return
        self._index_file_locked(path)

    def _ensure_all_indexed_locked(self) -> None:
        if self._all_indexed:
            return
        if self.root is None or not self.root.exists():
            self._all_indexed = True
            return
        if self._native:
            for shard in range(self.num_shards):
                self._ensure_shard_indexed_locked(shard)
        else:
            # Glob rather than range(num_shards): a registry written with a
            # different shard count must still load every entry.
            for path in sorted(self.root.glob("shard-*.jsonl")):
                if path not in self._indexed:
                    self._index_file_locked(path)
        self._all_indexed = True

    def _index_file_locked(self, path: Path) -> None:
        """Scan one shard file into the index, keeping each line's span."""
        began = time.perf_counter()
        for _lineno, offset, length, entry in read_lines(
            path.read_bytes(), RegistryEntry.from_dict,
            strict=self.strict, path=path, what="registry entry",
        ):
            self.total_lines += 1
            if entry is None:
                self.skipped_lines += 1
            else:
                self._absorb_index_locked(_IndexEntry(entry, path, offset, length), None)
        self._indexed.add(path)
        _SHARD_LOAD.observe(time.perf_counter() - began)

    def _absorb_index_locked(
        self, ie: _IndexEntry, entry: Optional[RegistryEntry]
    ) -> bool:
        """Fold an index entry into the best map (no disk write).

        ``entry`` carries the already-parsed body when the caller has it
        (a live :meth:`record`); scans pass ``None`` so a million-entry load
        indexes light records only and bodies stay on disk.
        """
        key = ie.key
        current = self._index.get(key)
        if current is not None and ie.latency >= current.latency:
            return False
        self._index[key] = ie
        self._targets.add(ie.target)
        self._matrices.pop(ie.target, None)
        if entry is not None:
            self._best[key] = entry
        else:
            # drop a stale materialised body; re-read on next lookup
            self._best.pop(key, None)
        return True

    # ------------------------------------------------------------------ #
    # materialisation
    # ------------------------------------------------------------------ #
    def _read_span_locked(self, path: Path, offset: int, length: int) -> bytes:
        fh = self._read_handles.get(path)
        if fh is None:
            _SHARD_OPENS.inc()
            fh = self._read_handles[path] = path.open("rb")
        fh.seek(offset)
        return fh.read(length)

    def _materialise_locked(self, key: Tuple[str, str]) -> Optional[RegistryEntry]:
        entry = self._best.get(key)
        if entry is not None:
            return entry
        ie = self._index.get(key)
        if ie is None or ie.path is None or ie.offset < 0:
            return None
        raw = self._read_span_locked(ie.path, ie.offset, ie.length)
        entry = RegistryEntry.from_dict(json.loads(raw))
        self._best[key] = entry
        _INDEX_HITS.inc()
        return entry

    # ------------------------------------------------------------------ #
    # appends
    # ------------------------------------------------------------------ #
    def _append_locked(self, entry: RegistryEntry) -> _IndexEntry:
        """Append one entry line; returns its index record (path, offset, length).

        Caller holds _mutex: opening a shard's log (after the manifest) and
        the append must not interleave with another appender.
        """
        if self.root is None:
            return _IndexEntry(entry, None, -1, 0)
        began = time.perf_counter()
        shard = self._shard_of(entry.fingerprint)
        log = self._logs.get(shard)
        if log is None:
            self.root.mkdir(parents=True, exist_ok=True)
            if self._native and not self._manifest_ok:
                self._write_manifest_locked()
            log = self._logs[shard] = AppendLog(self._shard_path(shard))
        line = (json.dumps(entry.to_dict()) + "\n").encode("utf-8")
        fired = poll_fault(
            "registry.append", detail=f"shard-{shard:02d}:{entry.fingerprint}"
        )
        offset = log.append(line, fired)
        self._indexed.add(log.path)
        self.total_lines += 1
        _APPEND.observe(time.perf_counter() - began)
        return _IndexEntry(entry, log.path, offset, len(line))

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record(self, entry: RegistryEntry) -> bool:
        """Record an entry; returns True if it improved (or created) its key.

        Only improvements are appended to disk, so shard files hold the
        monotone history of best schedules per key.
        """
        if not entry.fingerprint:
            raise ValueError("registry entries need a non-empty fingerprint")
        # Compare, append and absorb under one lock, disk before memory: a
        # second writer slipping in could absorb a worse entry over the
        # unappended best, and an append that raises leaves no entry the
        # shard never got.  The key's shard is indexed first so the on-disk
        # best takes part in the comparison.
        with self._mutex:
            self._ensure_key_indexed_locked(entry.fingerprint)
            current = self._index.get(entry.key)
            if current is not None and entry.latency >= current.latency:
                return False
            self._absorb_index_locked(self._append_locked(entry), entry)
        return True

    def record_result(
        self, dag: ComputeDAG, target, result, source: str = "", donor_target: str = ""
    ) -> bool:
        """Record a :class:`~repro.core.tuner.TuningResult` for a DAG.

        ``target`` is a :class:`~repro.hardware.target.HardwareTarget` (or its
        name).  ``donor_target`` records cross-target transfer provenance:
        the target(s) whose registered schedules warm-started this run.
        Results without a schedule or a finite latency are ignored.
        """
        if result.best_schedule is None or not (result.best_latency < float("inf")):
            return False
        target_name = target if isinstance(target, str) else target.name
        return self.record(
            RegistryEntry(
                fingerprint=structural_fingerprint(dag),
                target=target_name,
                workload=dag.name,
                latency=float(result.best_latency),
                throughput=float(result.best_throughput),
                trials=int(result.trials_used),
                scheduler=result.scheduler,
                schedule=schedule_to_dict(result.best_schedule),
                embedding=tuple(workload_embedding(dag).tolist()),
                source=source,
                donor_target=donor_target,
            )
        )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def lookup(
        self,
        dag: Union[ComputeDAG, str],
        target,
        *,
        k: int = 1,
        cross_target: bool = False,
        catalog=None,
    ) -> LookupResult:
        """One-stop registry query: exact hit, neighbours and transfers.

        ``dag`` is a :class:`~repro.tensor.dag.ComputeDAG` or a raw
        fingerprint string (fingerprints answer the exact tier only — there
        is no embedding to rank neighbours with).  ``k`` bounds the ranked
        same-target ``neighbors`` (``k=0`` skips the similarity search: the
        cheapest exact-only probe).  ``cross_target=True`` additionally
        ranks transfer donors from other targets (requires a
        :class:`~repro.hardware.target.HardwareTarget`; donor targets are
        resolved through ``catalog``, default the built-in one).

        The exact tier indexes only the one shard the key hashes to; the
        similarity tiers index everything (they must rank all candidates).
        """
        target_name = target if isinstance(target, str) else target.name
        if isinstance(dag, ComputeDAG):
            fingerprint = structural_fingerprint(dag)
            query_dag: Optional[ComputeDAG] = dag
        else:
            fingerprint = str(dag)
            query_dag = None
        entry = self._lookup_exact(fingerprint, target_name)
        neighbors: Tuple[Tuple[float, RegistryEntry], ...] = ()
        transfers: Tuple[Tuple[float, RegistryEntry], ...] = ()
        if query_dag is not None and k > 0:
            neighbors = tuple(self._nearest_impl(query_dag, target_name, k=k))
        if query_dag is not None and cross_target and isinstance(target, HardwareTarget):
            transfers = tuple(
                self._cross_target_impl(query_dag, target, catalog=catalog, k=max(k, 1))
            )
        if entry is not None:
            source = "exact"
        elif neighbors:
            source = "neighbor"
        elif transfers:
            source = "transfer"
        else:
            source = "miss"
        return LookupResult(
            fingerprint=fingerprint,
            target=target_name,
            entry=entry,
            neighbors=neighbors,
            transfers=transfers,
            source=source,
        )

    def _lookup_exact(
        self, fingerprint: str, target_name: str
    ) -> Optional[RegistryEntry]:
        with self._mutex:
            self._ensure_key_indexed_locked(fingerprint)
            entry = self._materialise_locked((fingerprint, target_name))
        _LOOKUPS.inc()
        (_HITS if entry is not None else _MISSES).inc()
        return entry

    def entries(self) -> List[RegistryEntry]:
        """Current best entry of every (fingerprint, target) key.

        Materialises every entry body — a full-store copy.  Maintenance
        (merge / export / compaction checks) wants exactly that; hot query
        paths should go through :meth:`lookup` instead.
        """
        with self._mutex:
            self._ensure_all_indexed_locked()
            return [self._materialise_locked(key) for key in sorted(self._index)]

    def _nearest_impl(
        self, dag: ComputeDAG, target_name: str, k: int
    ) -> List[Tuple[float, RegistryEntry]]:
        """The ``k`` same-target entries closest to ``dag``, its own entry excluded."""
        if k <= 0:
            return []
        fingerprint = structural_fingerprint(dag)
        query = workload_embedding(dag)
        with self._mutex:
            self._ensure_all_indexed_locked()
            return self._nearest_locked(fingerprint, query, target_name, k)

    def _nearest_locked(
        self, fingerprint: str, query: np.ndarray, target_name: str, k: int
    ) -> List[Tuple[float, RegistryEntry]]:
        matrix = self._matrix_locked(target_name)
        n = len(matrix.rows)
        if n == 0:
            return []
        diff = matrix.embeddings - np.asarray(query, dtype=np.float64)
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        exact_row = matrix.row_of.get(fingerprint)
        over = min(k + (1 if exact_row is not None else 0), n)
        if over < n:
            cand = np.argpartition(dist, over - 1)[:over]
        else:
            cand = np.arange(n)
        # primary: distance; tie-break: row order == fingerprint order.
        order = np.lexsort((cand, dist[cand]))
        out: List[Tuple[float, RegistryEntry]] = []
        for row in cand[order]:
            if exact_row is not None and row == exact_row:
                continue
            entry = self._materialise_locked(matrix.keys[row])
            if entry is None:
                continue
            out.append((float(dist[row]), entry))
            if len(out) == k:
                break
        return out

    def _cross_target_impl(
        self,
        dag: ComputeDAG,
        target: HardwareTarget,
        catalog=None,
        k: int = 4,
    ) -> List[Tuple[float, RegistryEntry]]:
        """Donor entries from *other* targets, best transfer prospects first.

        Candidates are ranked by the sum of workload embedding distance
        (0 for the exact fingerprint) and donor↔destination
        :func:`~repro.hardware.catalog.target_distance`, so the exact workload
        on a cousin device outranks a vaguely similar workload on a remote
        one, and the CPU/GPU kind gap keeps same-kind donors first.  Donor
        target names are resolved to embeddings through ``catalog`` (the
        built-in :func:`~repro.hardware.catalog.default_catalog` when
        ``None``); entries on unknown targets are skipped.

        Returns ``(target distance, entry)`` pairs.
        """
        if not isinstance(target, HardwareTarget) or k <= 0:
            return []
        catalog = catalog if catalog is not None else default_catalog()
        fingerprint = structural_fingerprint(dag)
        query = workload_embedding(dag)
        with self._mutex:
            self._ensure_all_indexed_locked()
            return self._cross_target_locked(fingerprint, query, target, catalog, k)

    def _cross_target_locked(
        self,
        fingerprint: str,
        query: np.ndarray,
        target: HardwareTarget,
        catalog,
        k: int,
    ) -> List[Tuple[float, RegistryEntry]]:
        q = np.asarray(query, dtype=np.float64)
        # (score, fingerprint, target, t_dist, key) — sorted on the first
        # three, so equal scores break ties by fingerprint, then target.
        scored: List[Tuple[float, str, str, float, Tuple[str, str]]] = []
        for target_name in sorted(self._targets):
            if target_name == target.name:
                continue
            donor = catalog.get_optional(target_name)
            t_dist = target_distance(target, donor) if donor is not None else -1.0
            if t_dist < 0:
                continue
            matrix = self._matrix_locked(target_name)
            cand = np.nonzero(matrix.sched_mask)[0]
            if cand.size:
                diff = matrix.embeddings - q
                score = np.sqrt(np.einsum("ij,ij->i", diff, diff)) + t_dist
                row = matrix.row_of.get(fingerprint)
                if row is not None:
                    score[row] = t_dist  # exact workload: w_dist == 0
                take = min(k, int(cand.size))
                sub = score[cand]
                if take < cand.size:
                    pick = np.argpartition(sub, take - 1)[:take]
                else:
                    pick = np.arange(cand.size)
                order = np.lexsort((cand[pick], sub[pick]))
                for r in cand[pick][order]:
                    scored.append(
                        (
                            float(score[r]),
                            matrix.fingerprints[r],
                            target_name,
                            t_dist,
                            matrix.keys[r],
                        )
                    )
            for ie in matrix.extras:
                # no full-width embedding: only the exact workload can transfer
                if ie.has_schedule and ie.fingerprint == fingerprint:
                    scored.append((t_dist, ie.fingerprint, target_name, t_dist, ie.key))
        scored.sort(key=lambda item: (item[0], item[1], item[2]))
        out: List[Tuple[float, RegistryEntry]] = []
        for _score, _fp, _tname, t_dist, key in scored[: max(k, 0)]:
            entry = self._materialise_locked(key)
            if entry is not None:
                out.append((t_dist, entry))
        return out

    def _matrix_locked(self, target_name: str) -> _TargetMatrix:
        matrix = self._matrices.get(target_name)
        if matrix is None:
            matrix = _TargetMatrix(
                ie for ie in self._index.values() if ie.target == target_name
            )
            self._matrices[target_name] = matrix
        return matrix

    def stats(self) -> dict:
        """Aggregate registry statistics (entries, shards, stale lines, ...)."""
        shard_files = 0
        if self.root is not None and self.root.exists():
            shard_files = len(list(self.root.glob("shard-*.jsonl")))
        with self._mutex:
            self._ensure_all_indexed_locked()
            return {
                "entries": len(self._index),
                "workloads": len({fp for fp, _t in self._index}),
                "targets": sorted(self._targets),
                "shard_files": shard_files,
                "total_lines": self.total_lines,
                "stale_lines": max(
                    self.total_lines - self.skipped_lines - len(self._index), 0
                ),
                "skipped_lines": self.skipped_lines,
                "truncated_tails": self.truncated_tails,
                "removed_orphans": self.removed_orphans,
                "open_read_handles": len(self._read_handles),
            }

    @property
    def indexed_shards(self) -> int:
        """How many shard files have been indexed so far (lazy-load probe)."""
        with self._mutex:
            return len(self._indexed)

    def __len__(self) -> int:
        with self._mutex:
            self._ensure_all_indexed_locked()
            return len(self._index)

    def __contains__(self, key: Tuple[str, str]) -> bool:
        with self._mutex:
            self._ensure_key_indexed_locked(key[0])
            return key in self._index

    # ------------------------------------------------------------------ #
    # warm starts
    # ------------------------------------------------------------------ #
    def warm_start_transfers(
        self,
        dag: ComputeDAG,
        target,
        max_candidates: int = 4,
        catalog=None,
        cross_target: bool = True,
    ) -> List[TransferCandidate]:
        """Warm-start schedules for a DAG on one target, with provenance.

        An exact structural hit contributes its stored schedule verbatim
        (restored against ``dag``); nearest registered relatives contribute
        schedules whose tile sizes are re-fitted to the new extents.  When the
        destination target still has fewer than ``max_candidates`` donors, the
        lookup falls back across targets and re-fits the borrowed schedules to
        the destination device.  Candidates arrive best-first: exact hit,
        same-target relatives, cross-target donors.
        """
        _TRANSFER_LOOKUPS.inc()
        target_name = target if isinstance(target, str) else target.name
        out: List[TransferCandidate] = []
        seen: set = set()

        def push(schedule: Schedule, donor: RegistryEntry, t_dist: float, cross: bool) -> None:
            key = schedule.signature()
            if key not in seen:
                seen.add(key)
                out.append(TransferCandidate(schedule, donor, t_dist, cross))

        exact = self._lookup_exact(structural_fingerprint(dag), target_name)
        if exact is not None and exact.schedule is not None:
            try:
                push(
                    schedule_from_dict(exact.schedule, dag, check_workload=False),
                    exact, 0.0, False,
                )
            except (KeyError, TypeError, ValueError):
                # Malformed stored schedule (older format / torn write):
                # skip it, matching the registry's corruption tolerance.
                pass
        for _distance, entry in self._nearest_impl(dag, target_name, k=max_candidates):
            if len(out) >= max_candidates:
                break
            if entry.schedule is None:
                continue
            adapted = adapt_schedule(entry.schedule, dag)
            if adapted is not None:
                push(adapted, entry, 0.0, False)
        if cross_target and len(out) < max_candidates and isinstance(target, HardwareTarget):
            remaining = max_candidates - len(out)
            donors: List[Tuple[RegistryEntry, float, List[Schedule]]] = []
            for t_dist, entry in self._cross_target_impl(
                dag, target, catalog=catalog, k=remaining
            ):
                adapted = adapt_schedule_to_target(entry.schedule, dag, target)
                if adapted is not None:
                    donors.append((entry, t_dist, target_variants(adapted, remaining)))
            # Round-robin across donors: every donor's straight adaptation is
            # proposed before any donor's ensemble variants, so one donor
            # cannot crowd the others out of the measurement budget.
            level = 0
            while len(out) < max_candidates and any(
                level < len(ensemble) for _e, _d, ensemble in donors
            ):
                for entry, t_dist, ensemble in donors:
                    if level < len(ensemble) and len(out) < max_candidates:
                        push(ensemble[level], entry, t_dist, True)
                level += 1
        out = out[:max_candidates]
        _TRANSFER_CANDIDATES.inc(len(out))
        return out

    def warm_start_schedules(
        self,
        dag: ComputeDAG,
        target,
        max_candidates: int = 4,
        catalog=None,
        cross_target: bool = True,
    ) -> List[Schedule]:
        """Ready-to-measure warm-start schedules (see :meth:`warm_start_transfers`)."""
        return [
            candidate.schedule
            for candidate in self.warm_start_transfers(
                dag, target, max_candidates=max_candidates,
                catalog=catalog, cross_target=cross_target,
            )
        ]

    # ------------------------------------------------------------------ #
    # maintenance: merge / import / export / compact
    # ------------------------------------------------------------------ #
    def merge(self, other: "ScheduleRegistry") -> int:
        """Fold another registry's best entries into this one.

        Returns the number of entries that improved (or created) a key.
        """
        return sum(1 for entry in other.entries() if self.record(entry))

    def export_file(self, path: Union[str, Path]) -> Path:
        """Write the current best entries to one portable JSONL file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            for entry in self.entries():
                fh.write(json.dumps(entry.to_dict()) + "\n")
        os.replace(tmp, path)
        return path

    def import_file(self, path: Union[str, Path], source: str = "") -> int:
        """Import entries from a JSONL export; returns how many improved.

        Lines are read by the same rule as a shard scan: a corrupted line is
        skipped and counted in :attr:`skipped_lines`, or raises under
        ``strict``.  ``source`` overrides the provenance of imported entries
        when non-empty.
        """
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"registry export {path} does not exist")
        accepted = 0
        for _lineno, _offset, _length, entry in read_lines(
            path.read_bytes(), RegistryEntry.from_dict,
            strict=self.strict, path=path, what="registry entry",
        ):
            if entry is None:
                with self._mutex:
                    self.skipped_lines += 1
                continue
            if source:
                entry = replace(entry, source=source)
            if self.record(entry):
                accepted += 1
        return accepted

    def compact(self) -> int:
        """Rewrite every shard with only the current best entry per key.

        Streams verbatim line bytes from the old files into the new ones
        (no shard is ever held in memory), replaces each data file
        atomically (temp file + ``os.replace``), then writes the layout
        manifest — so a crash mid-compaction leaves either the old or the
        new shard, never a torn one.  Returns the number of stale lines
        removed.
        """
        if self.root is None:
            return 0
        began = time.perf_counter()
        with self._mutex:
            self._ensure_all_indexed_locked()
            with obs_span("registry.compact", entries=len(self._index)) as compact_span:
                removed = self._compact_inner_locked()
                compact_span.annotate(removed=removed)
        _COMPACT.observe(time.perf_counter() - began)
        return removed

    def _compact_inner_locked(self) -> int:
        # Caller holds _mutex for the whole rewrite, with the index complete.
        removed = self.total_lines - self.skipped_lines - len(self._index)
        self.root.mkdir(parents=True, exist_ok=True)
        self.removed_orphans += self._remove_orphan_tmps()
        # Drop every existing shard file (including ones written under a
        # different shard count) after the rewrite.
        stale_data = set(self.root.glob("shard-*.jsonl"))
        by_shard: Dict[int, List[_IndexEntry]] = {}
        for key in sorted(self._index):
            ie = self._index[key]
            by_shard.setdefault(self._shard_of(ie.fingerprint), []).append(ie)
        # Phase A: stream every surviving line into its temp file.  All
        # temps are written before any replace so the source reads above
        # never race the renames.
        plans: List[Tuple[int, Path, Path, List[Tuple[_IndexEntry, int, int]]]] = []
        for shard, items in sorted(by_shard.items()):
            path = self._shard_path(shard)
            tmp = path.with_suffix(".jsonl.tmp")
            spans: List[Tuple[_IndexEntry, int, int]] = []
            pos = 0
            with tmp.open("wb") as fh:
                for ie in items:
                    # Every entry of a registry with a root was scanned from
                    # or appended to a shard: copy its line verbatim.
                    raw = self._read_span_locked(ie.path, ie.offset, ie.length)
                    if not raw.endswith(b"\n"):
                        raw += b"\n"
                    fired = poll_fault(
                        "registry.compact", detail=f"mid_write:shard-{shard:02d}"
                    )
                    if fired is not None:
                        if fired.spec.kind == "torn_write":
                            fh.write(fired.torn_prefix(raw))
                            fh.flush()
                        fired.crash(f"died rewriting shard {shard} mid-compaction")
                    fh.write(raw)
                    spans.append((ie, pos, len(raw)))
                    pos += len(raw)
            plans.append((shard, path, tmp, spans))
        # Phase B: atomic replaces.
        for shard, path, tmp, spans in plans:
            fired = poll_fault(
                "registry.compact", detail=f"before_replace:shard-{shard:02d}"
            )
            if fired is not None:
                fired.crash(f"died before atomically replacing shard {shard}")
            os.replace(tmp, path)
            self._indexed.add(path)
            for ie, offset, length in spans:
                ie.path = path
                ie.offset = offset
                ie.length = length
            stale_data.discard(path)
        for path in stale_data:
            path.unlink()
            self._indexed.discard(path)
        self._write_manifest_locked()
        self._native = True
        # Old inodes were replaced: reopen on next read.
        self._close_handles_locked()
        self.total_lines = len(self._index)
        self.skipped_lines = 0
        return max(removed, 0)

    # ------------------------------------------------------------------ #
    def _close_handles_locked(self) -> None:
        for handles in (self._logs, self._read_handles):
            for handle in handles.values():
                handle.close()
            handles.clear()

    def close(self) -> None:
        """Close every shard handle.  Idempotent."""
        with self._mutex:
            self._close_handles_locked()

    def __enter__(self) -> "ScheduleRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
