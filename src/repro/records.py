"""Persistence of tuning results (the equivalent of TVM's log-file records).

Auto-scheduler users keep the best schedules found during long tuning runs so
they can be re-applied without re-tuning.  :class:`RecordStore` is the one
persisted format: an append-only JSONL log that streams every individual
measurement (a ``"measure"`` line) and every final result (a ``"result"``
line holding a :class:`TuningRecord`) to disk *as it happens*.  Lines are
appended and flushed eagerly, so a killed tuning run loses at most the line
being written; :meth:`RecordStore.load` repairs a torn final line and skips
corrupted ones (:mod:`repro.jsonl` holds that appender, reader and repair,
shared with the schedule registry).  A store can be replayed into a fresh
scheduler (warm-starting its cost model and best-schedule statistics), which
is what powers the CLI's ``--records-out`` / ``--resume-from`` flags.

Schedules are serialised structurally (sketch key, tiling depths, knob
values) and restored against a freshly-built compute DAG of the same
workload.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from repro.core.tuner import TuningResult
from repro.faults.plan import poll as poll_fault
from repro.jsonl import AppendLog, read_lines, repair_torn_tail
from repro.obs.metrics import counter, histogram
from repro.serving.fingerprint import structural_fingerprint, workload_embedding
from repro.tensor.dag import ComputeDAG
from repro.tensor.schedule import Schedule
from repro.caching import cached_sketches

_APPENDS = counter("records.appends", "Lines durably appended to record logs")
_SLOW_FLUSHES = counter("records.slow_flushes", "Appends slower than the slow-flush threshold")
_FLUSH_FAILURES = counter("records.flush_failures", "Appends rolled back after an OSError")
_FLUSH_SECONDS = histogram("records.flush_seconds", help="Record-log append+flush time")

__all__ = [
    "MeasureRecord",
    "RecordStore",
    "TuningRecord",
    "schedule_to_dict",
    "schedule_from_dict",
    "result_to_record",
]


def schedule_to_dict(schedule: Schedule) -> dict:
    """Serialise a schedule to a JSON-compatible dictionary."""
    sketch = schedule.sketch
    return {
        "workload": sketch.dag.name,
        "sketch_key": sketch.key,
        "spatial_levels": sketch.spatial_levels,
        "reduction_levels": sketch.reduction_levels,
        "tile_sizes": [list(map(int, sizes)) for sizes in schedule.tile_sizes],
        "compute_at_index": int(schedule.compute_at_index),
        "num_parallel": int(schedule.num_parallel),
        "unroll_index": int(schedule.unroll_index),
        "unroll_depths": list(map(int, schedule.unroll_depths)),
    }


def schedule_from_dict(
    data: dict, dag: ComputeDAG, check_workload: bool = True
) -> Schedule:
    """Reconstruct a schedule against a compute DAG built by the caller.

    The DAG must describe the same workload the record was produced from
    (matching stage/iterator structure); the sketch is re-generated from the
    stored rule key and tiling depths (through :func:`cached_sketches`, so
    bulk restores such as :meth:`RecordStore.replay` generate each sketch
    list once).

    ``check_workload=False`` skips the display-name equality check; callers
    that already matched identities structurally (canonical fingerprints —
    the schedule registry, fingerprint-routed replay) use it to restore
    records onto renamed-but-identical DAGs.
    """
    if check_workload and data["workload"] != dag.name:
        raise ValueError(
            f"record belongs to workload {data['workload']!r}, not {dag.name!r}"
        )
    sketches = cached_sketches(
        dag,
        spatial_levels=int(data["spatial_levels"]),
        reduction_levels=int(data["reduction_levels"]),
    )
    matches = [s for s in sketches if s.key == data["sketch_key"]]
    if not matches:
        raise ValueError(
            f"sketch {data['sketch_key']!r} cannot be regenerated for {dag.name!r}"
        )
    return Schedule(
        sketch=matches[0],
        tile_sizes=[list(sizes) for sizes in data["tile_sizes"]],
        compute_at_index=int(data["compute_at_index"]),
        num_parallel=int(data["num_parallel"]),
        unroll_index=int(data["unroll_index"]),
        unroll_depths=tuple(int(d) for d in data["unroll_depths"]),
    )


@dataclass(frozen=True)
class TuningRecord:
    """One persisted tuning outcome: the best schedule found for a workload.

    ``fingerprint`` is the canonical structural identity of the workload
    (see :func:`repro.serving.fingerprint.structural_fingerprint`); it lets
    renamed-but-identical DAGs share records.  Legacy records without one
    fall back to display-name matching.
    """

    workload: str
    scheduler: str
    latency: float
    throughput: float
    trials_used: int
    schedule: Optional[dict]
    history: List[List[float]]
    fingerprint: str = ""

    def to_dict(self) -> dict:
        """JSON-compatible representation of this record."""
        return {
            "workload": self.workload,
            "scheduler": self.scheduler,
            "latency": self.latency,
            "throughput": self.throughput,
            "trials_used": self.trials_used,
            "schedule": self.schedule,
            "history": self.history,
            "fingerprint": self.fingerprint,
        }

    @staticmethod
    def from_dict(data: dict) -> "TuningRecord":
        """Inverse of :meth:`to_dict`."""
        return TuningRecord(
            workload=data["workload"],
            scheduler=data["scheduler"],
            latency=float(data["latency"]),
            throughput=float(data["throughput"]),
            trials_used=int(data["trials_used"]),
            schedule=data.get("schedule"),
            history=[list(map(float, pair)) for pair in data.get("history", [])],
            fingerprint=data.get("fingerprint", ""),
        )

    def restore_schedule(self, dag: ComputeDAG, check_workload: bool = True) -> Schedule:
        """Rebuild the stored best schedule against a caller-provided DAG.

        ``check_workload=False`` skips the display-name check for callers
        that already matched identity structurally (e.g. via
        ``RecordStore.query(kind="result", dag=...)``).
        """
        if self.schedule is None:
            raise ValueError(f"record for {self.workload!r} holds no schedule")
        return schedule_from_dict(self.schedule, dag, check_workload=check_workload)


def result_to_record(result: TuningResult) -> TuningRecord:
    """Convert a :class:`TuningResult` into a persistable record."""
    return TuningRecord(
        workload=result.workload,
        scheduler=result.scheduler,
        latency=float(result.best_latency),
        throughput=float(result.best_throughput),
        trials_used=int(result.trials_used),
        schedule=schedule_to_dict(result.best_schedule) if result.best_schedule else None,
        history=[[float(t), float(l)] for t, l in result.history],
        fingerprint=(
            structural_fingerprint(result.best_schedule.dag)
            if result.best_schedule is not None
            else ""
        ),
    )


# --------------------------------------------------------------------- #
# append-only JSONL record store
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class MeasureRecord:
    """One persisted hardware measurement (one line of the JSONL log).

    Attributes
    ----------
    workload:
        Name of the workload (compute DAG) the schedule belongs to.
    latency:
        Measured latency in seconds.
    throughput:
        Achieved FLOP/s of the measurement.
    trial_index:
        Global trial index the measurement was committed at.
    schedule:
        Structural schedule serialisation (see :func:`schedule_to_dict`).
    scheduler:
        Optional name of the scheduler that produced the candidate.
    fingerprint:
        Canonical structural identity of the workload; empty for legacy
        records (which then match by display name only).
    embedding:
        Workload embedding (see
        :func:`repro.serving.fingerprint.workload_embedding`) of the measured
        DAG; empty for legacy records.  Persisting it through the record
        stream keeps registry entries recovered from a crashed service
        visible to nearest-neighbour / cross-target transfer.
    """

    workload: str
    latency: float
    throughput: float
    trial_index: int
    schedule: dict
    scheduler: str = ""
    fingerprint: str = ""
    embedding: Tuple[float, ...] = ()

    def to_dict(self) -> dict:
        """JSON-compatible representation of this measurement."""
        return {
            "workload": self.workload,
            "latency": self.latency,
            "throughput": self.throughput,
            "trial_index": self.trial_index,
            "schedule": self.schedule,
            "scheduler": self.scheduler,
            "fingerprint": self.fingerprint,
            "embedding": list(self.embedding),
        }

    @staticmethod
    def from_dict(data: dict) -> "MeasureRecord":
        """Inverse of :meth:`to_dict`."""
        return MeasureRecord(
            workload=data["workload"],
            latency=float(data["latency"]),
            throughput=float(data["throughput"]),
            trial_index=int(data["trial_index"]),
            schedule=data["schedule"],
            scheduler=data.get("scheduler", ""),
            fingerprint=data.get("fingerprint", ""),
            embedding=tuple(float(v) for v in data.get("embedding", ())),
        )

    def restore_schedule(self, dag: ComputeDAG, check_workload: bool = True) -> Schedule:
        """Rebuild the measured schedule against a caller-provided DAG.

        ``check_workload`` is forwarded to :func:`schedule_from_dict`
        (fingerprint-matched callers disable the name check).
        """
        return schedule_from_dict(self.schedule, dag, check_workload=check_workload)


def _record_from_dict(data: dict) -> Union[MeasureRecord, TuningRecord]:
    """The record one log line holds, by its ``kind`` tag."""
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind == "measure":
        return MeasureRecord.from_dict(data)
    if kind == "result":
        return TuningRecord.from_dict(data)
    raise ValueError(f"unknown record kind {kind!r}")


class RecordStore:
    """Append-only JSONL store of measurements and tuning results.

    Each line of the backing file is one JSON object tagged with a ``kind``
    field: ``"measure"`` lines hold individual :class:`MeasureRecord` entries
    (written live during tuning), ``"result"`` lines hold final
    :class:`TuningRecord` summaries.  Appends are flushed immediately so the
    log survives crashed or killed tuning processes.

    Parameters
    ----------
    path:
        Backing file.  If it already exists its lines are loaded (tolerantly,
        see ``strict``) and subsequent appends continue the same log, which
        makes resumed runs accumulate into one file.  ``None`` keeps the
        store purely in memory.
    strict:
        When true, corrupted (not UTF-8, not JSON or structurally invalid)
        lines raise :class:`ValueError` at load time; when false (the
        default) they are skipped and counted in :attr:`skipped_lines`.
    """

    #: Flushes slower than this (seconds) are counted in ``slow_flushes`` —
    #: the observability hook behind the gate's slow-disk obligation.
    slow_flush_threshold = 0.025

    def __init__(self, path: Optional[Union[str, Path]] = None, strict: bool = False):
        self.path = Path(path) if path is not None else None
        self.strict = bool(strict)
        # Serialises appends (disk commit + memory append as one atomic step)
        # against each other and against query snapshots: server worker
        # threads append to one shared store concurrently.
        self._lock = threading.Lock()
        self.skipped_lines = 0  # guarded-by: _lock
        self.truncated_tails = 0
        self.slow_flushes = 0  # guarded-by: _lock
        self.flush_failures = 0  # guarded-by: _lock
        self._measures: List[MeasureRecord] = []  # guarded-by: _lock
        self._results: List[TuningRecord] = []  # guarded-by: _lock
        self._log = AppendLog(self.path) if self.path is not None else None
        if self.path is not None and self.path.exists():
            # A run killed mid-append leaves a torn final line; truncate it so
            # this process never appends onto a partial write.
            if repair_torn_tail(self.path, label="record store"):
                self.truncated_tails += 1
            for _lineno, _offset, _length, record in read_lines(
                self.path.read_bytes(), _record_from_dict,
                strict=self.strict, path=self.path, what="record",
            ):
                if record is None:
                    self.skipped_lines += 1
                elif isinstance(record, MeasureRecord):
                    self._measures.append(record)
                else:
                    self._results.append(record)

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #
    @classmethod
    def load(cls, path: Union[str, Path], strict: bool = False) -> "RecordStore":
        """Load an existing JSONL log (raises if the file is missing)."""
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"record store {path} does not exist")
        return cls(path, strict=strict)

    # ------------------------------------------------------------------ #
    # appending
    # ------------------------------------------------------------------ #
    def _append_locked(self, payload: dict) -> None:
        """Durably append one line (caller holds ``_lock``).

        The fault poll and the append are timed together, so an injected
        slow-disk stall counts as a slow flush; an ``OSError`` (already
        rolled back by the log) counts as a flush failure.
        """
        if self._log is None:
            return
        line = (json.dumps(payload) + "\n").encode("utf-8")
        began = time.perf_counter()
        try:
            fired = poll_fault("records.flush", detail=payload["kind"])
            self._log.append(line, fired)
        except OSError:
            self.flush_failures += 1
            _FLUSH_FAILURES.inc()
            raise
        elapsed = time.perf_counter() - began
        _APPENDS.inc()
        _FLUSH_SECONDS.observe(elapsed)
        if elapsed > self.slow_flush_threshold:
            self.slow_flushes += 1
            _SLOW_FLUSHES.inc()

    def append_measure(self, record: MeasureRecord) -> None:
        """Append one measurement record to the log.

        The disk commit precedes the in-memory append: a failed flush raises
        with memory and file still agreeing (the record simply is not
        committed), so callers can retry without double counting.
        """
        with self._lock:
            self._append_locked({"kind": "measure", **record.to_dict()})
            self._measures.append(record)

    def append_result(self, record: Union[TuningRecord, TuningResult]) -> None:
        """Append one final tuning result (converted from a result if needed)."""
        if isinstance(record, TuningResult):
            record = result_to_record(record)
        with self._lock:
            self._append_locked({"kind": "result", **record.to_dict()})
            self._results.append(record)

    def record_measure(self, result, scheduler: str = "") -> None:
        """Append a live :class:`~repro.hardware.measurer.MeasureResult`.

        This is the hook the measurer calls for every committed measurement;
        it converts the in-memory result (which holds a live
        :class:`~repro.tensor.schedule.Schedule`) into its structural
        serialisation.
        """
        self.append_measure(
            MeasureRecord(
                workload=result.schedule.dag.name,
                latency=float(result.latency),
                throughput=float(result.throughput),
                trial_index=int(result.trial_index),
                schedule=schedule_to_dict(result.schedule),
                scheduler=scheduler,
                fingerprint=structural_fingerprint(result.schedule.dag),
                # Memoised per DAG, so this costs one tuple() per measurement.
                embedding=tuple(workload_embedding(result.schedule.dag).tolist()),
            )
        )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @staticmethod
    def _matches(record, fingerprint: str, name: str) -> bool:
        """Structural identity match with a legacy display-name fallback."""
        if record.fingerprint and fingerprint:
            return record.fingerprint == fingerprint
        return record.workload == name

    def query(
        self,
        kind: str = "measure",
        *,
        dag: Optional[ComputeDAG] = None,
        workload: Optional[str] = None,
        best: bool = False,
    ):
        """The one query entry point over the store's records.

        Parameters
        ----------
        kind:
            ``"measure"`` for per-measurement records, ``"result"`` for
            final tuning results.
        dag:
            Filter to one workload by canonical structural fingerprint —
            renamed-but-structurally-identical DAGs share their records, and
            records written before fingerprints existed fall back to display-
            name matching.  Mutually exclusive with ``workload``.
        workload:
            Filter by display name only (exact string match).
        best:
            Return only the lowest-latency matching record (or ``None`` when
            nothing matches) instead of the full list.

        Returns
        -------
        A list of matching records (newest last), or — with ``best=True`` —
        the single lowest-latency record or ``None``.
        """
        if kind not in ("measure", "result"):
            raise ValueError(
                f"unknown record kind {kind!r}; expected 'measure' or 'result'"
            )
        if dag is not None and workload is not None:
            raise ValueError("pass either dag= or workload=, not both")
        fingerprint = structural_fingerprint(dag) if dag is not None else ""
        with self._lock:
            records = self._measures if kind == "measure" else self._results
            if dag is not None:
                matching = [r for r in records if self._matches(r, fingerprint, dag.name)]
            elif workload is not None:
                matching = [r for r in records if r.workload == workload]
            else:
                matching = list(records)
        if best:
            return min(matching, key=lambda r: r.latency) if matching else None
        return matching

    def workloads(self) -> List[str]:
        """Sorted names of all workloads that appear in the store."""
        with self._lock:
            names = {m.workload for m in self._measures}
            names.update(r.workload for r in self._results)
        return sorted(names)

    def __len__(self) -> int:
        with self._lock:
            return len(self._measures) + len(self._results)

    def __iter__(self) -> Iterator[MeasureRecord]:
        # An index-walk generator instead of a full copy under the lock:
        # appends are strictly append-only, so positions already yielded stay
        # valid and each step only holds the lock long enough for one read.
        index = 0
        while True:
            with self._lock:
                if index >= len(self._measures):
                    return
                record = self._measures[index]
            yield record
            index += 1

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #
    def replay(
        self,
        dag: ComputeDAG,
        cost_model=None,
        measurer=None,
        max_schedules: Optional[int] = None,
    ) -> List[Schedule]:
        """Replay this store's measurements of one workload into a new run.

        Restores every stored schedule of ``dag``'s workload (best first),
        feeds the (schedule, throughput) pairs back into ``cost_model`` so it
        warm-starts instead of facing a cold landscape, and preloads
        ``measurer``'s best-known statistics so resumed runs never report a
        regression over what the log already contains.

        Parameters
        ----------
        dag:
            Compute DAG of the workload to replay (must structurally match
            the recorded schedules).
        cost_model:
            Optional cost model implementing ``update(schedules, throughputs)``.
        measurer:
            Optional measurer implementing ``preload(workload, latency, schedule)``.
        max_schedules:
            Cap on how many (best-latency-first) records to replay.

        Returns
        -------
        The restored schedules, best latency first.
        """
        matching = sorted(self.query(kind="measure", dag=dag), key=lambda m: m.latency)
        if max_schedules is not None:
            matching = matching[:max_schedules]
        schedules: List[Schedule] = []
        throughputs: List[float] = []
        best_latency = float("inf")
        best_schedule: Optional[Schedule] = None
        for record in matching:
            try:
                # Identity was already matched structurally above, so restores
                # go through even when the DAG was renamed since recording.
                schedule = record.restore_schedule(dag, check_workload=False)
            except ValueError:
                continue  # sketch shape drifted since the log was written
            schedules.append(schedule)
            throughputs.append(record.throughput)
            if record.latency < best_latency:
                best_latency = record.latency
                best_schedule = schedule
        if cost_model is not None and schedules:
            cost_model.update(schedules, throughputs)
        if measurer is not None and best_schedule is not None:
            measurer.preload(dag.name, best_latency, best_schedule)
        return schedules

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close the backing file handle (idempotent)."""
        if self._log is not None:
            self._log.close()

    def __enter__(self) -> "RecordStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
