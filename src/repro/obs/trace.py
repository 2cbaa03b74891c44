"""Span tracing: context-manager spans, trace events, JSONL trace trees.

This is the *timelines* half of :mod:`repro.obs` — the *numbers* half
(counters/gauges/histograms) lives in :mod:`repro.obs.metrics`.  Unlike
metrics, tracing follows the same arming discipline as
:func:`repro.faults.plan.poll`: a module-level active :class:`Tracer` that
is ``None`` by default, so every instrumentation site in production code
costs exactly one global read when tracing is off::

    with obs.span("service.round", job=fingerprint) as sp:
        trials = job.scheduler.tune_round(...)
        sp.annotate(trials=trials)

When no tracer is armed, :func:`span` returns a shared no-op span and
:func:`trace_event` returns immediately.  Arm one with::

    with obs.tracing("trace.jsonl") as tracer:
        service.process(requests)

Parent/child nesting is tracked per *logical* thread of execution with a
:class:`contextvars.ContextVar`: a span's parent is the span open around it
on the same thread.  Work that should nest under a span therefore runs on
that span's thread — a server job thread opens ``server.job`` and the job's
``service.round`` spans itself.

Each finished span becomes one JSONL record::

    {"kind": "span", "id": 3, "parent": 1, "name": "service.round",
     "start_s": 0.0123, "duration_s": 0.0040, "wall_time": 1754550000.1,
     "attrs": {"trials": 24}}

and :func:`render_tree` turns a record list back into an indented text tree
for ``repro trace``.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

__all__ = [
    "NULL_SPAN",
    "Span",
    "Tracer",
    "active_tracer",
    "render_tree",
    "span",
    "trace_event",
    "tracing",
]

#: Current span id for this logical thread of execution (None at top level).
_CURRENT: "ContextVar[Optional[int]]" = ContextVar("repro_obs_current_span", default=None)


class Span:
    """One timed, attributed node in a trace tree (use as a context manager)."""

    __slots__ = ("tracer", "id", "parent", "name", "attrs", "_start", "_wall", "_token")

    def __init__(self, tracer: "Tracer", span_id: int, parent: Optional[int], name: str, attrs: Dict):
        self.tracer = tracer
        self.id = span_id
        self.parent = parent
        self.name = name
        self.attrs = attrs
        self._start = 0.0
        self._wall = 0.0
        self._token = None

    def annotate(self, **attrs) -> None:
        """Attach extra attributes to the span (e.g. results known at exit)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self.id)
        self._wall = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.attrs["error"] = f"{exc_type.__name__}: {exc}"
        self.tracer._record_span(self, duration)
        # exceptions propagate


class _NullSpan:
    """Shared do-nothing span returned while no tracer is armed."""

    __slots__ = ()
    id = None
    parent = None
    name = ""

    def annotate(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans and events for one tracing session.

    Records are kept in memory (``records``) and, when ``path`` is given,
    also appended eagerly as JSONL so a crash mid-session still leaves a
    usable trace on disk — the same durability stance as
    :class:`repro.records.RecordStore`.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self._lock = threading.Lock()
        self._next_id = 1
        self.records: List[Dict] = []
        self.epoch = time.perf_counter()
        self._file = None
        self.path: Optional[Path] = None
        if path is not None:
            self.path = Path(path)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "w", encoding="utf-8")

    # ------------------------------------------------------------------ #
    def span(self, name: str, **attrs) -> Span:
        """Open a span under the calling context's current span."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return Span(self, span_id, _CURRENT.get(), name, dict(attrs))

    def event(self, name: str, **attrs) -> None:
        """Record an instantaneous event under the current span."""
        record = {
            "kind": "event",
            "parent": _CURRENT.get(),
            "name": name,
            "start_s": round(time.perf_counter() - self.epoch, 6),
            "wall_time": round(time.time(), 6),
            "attrs": attrs,
        }
        self._append(record)

    def _record_span(self, span: Span, duration: float) -> None:
        record = {
            "kind": "span",
            "id": span.id,
            "parent": span.parent,
            "name": span.name,
            "start_s": round(span._start - self.epoch, 6),
            "duration_s": round(duration, 6),
            "wall_time": round(span._wall, 6),
            "attrs": span.attrs,
        }
        self._append(record)

    def _append(self, record: Dict) -> None:
        with self._lock:
            self.records.append(record)
            if self._file is not None:
                self._file.write(json.dumps(record, sort_keys=True) + "\n")
                self._file.flush()

    # ------------------------------------------------------------------ #
    def lines(self) -> List[str]:
        """The trace as JSONL lines (one record per line)."""
        with self._lock:
            return [json.dumps(record, sort_keys=True) for record in self.records]

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(self.lines()) + "\n", encoding="utf-8")
        return path

    def tree(self) -> str:
        with self._lock:
            records = list(self.records)
        return render_tree(records)

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


def render_tree(records: List[Dict]) -> str:
    """Render trace records as an indented text tree.

    Spans print as ``name  12.3ms  {attrs}``; events as ``· name {attrs}``.
    Children are ordered by start time.  Orphans (parent id never recorded,
    e.g. a crashed parent span) surface at the root rather than vanishing.
    """
    span_ids = {r["id"] for r in records if r["kind"] == "span"}
    children: Dict[Optional[int], List[Dict]] = {}
    for record in records:
        parent = record.get("parent")
        if parent is not None and parent not in span_ids:
            parent = None
        children.setdefault(parent, []).append(record)
    for siblings in children.values():
        siblings.sort(key=lambda r: r["start_s"])

    lines: List[str] = []

    def emit(record: Dict, depth: int) -> None:
        indent = "  " * depth
        attrs = record.get("attrs") or {}
        attr_text = f"  {json.dumps(attrs, sort_keys=True)}" if attrs else ""
        if record["kind"] == "event":
            lines.append(f"{indent}· {record['name']}{attr_text}")
            return
        duration_ms = record["duration_s"] * 1e3
        lines.append(f"{indent}{record['name']}  {duration_ms:.3f}ms{attr_text}")
        for child in children.get(record["id"], ()):
            emit(child, depth + 1)

    for root in children.get(None, ()):
        emit(root, 0)
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# module-level arming, mirroring repro.faults.plan
# --------------------------------------------------------------------- #
_ACTIVE: Optional[Tracer] = None


def active_tracer() -> Optional[Tracer]:
    """The armed tracer, or None — production code never needs this directly."""
    return _ACTIVE


def span(name: str, **attrs):
    """Open a span on the armed tracer, or return the shared no-op span.

    This is *the* instrumentation entry point: one global read when tracing
    is unarmed, so it is safe on hot paths.
    """
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


def trace_event(name: str, **attrs) -> None:
    """Record an instantaneous event on the armed tracer (no-op otherwise)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.event(name, **attrs)


@contextmanager
def tracing(path: Optional[Union[str, Path]] = None) -> Iterator[Tracer]:
    """Arm a :class:`Tracer` for the duration of the block.

    Tracing sessions do not nest (one process-wide timeline, same as one
    process-wide fault plan): arming while armed raises ``RuntimeError``.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a tracing session is already active; sessions do not nest")
    tracer = Tracer(path)
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = None
        tracer.close()
