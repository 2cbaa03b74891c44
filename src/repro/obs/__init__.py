"""Unified observability for the tuning/serving stack.

Two halves, one import (``from repro import obs``):

* :mod:`repro.obs.metrics` — thread-safe counters, gauges and fixed-bucket
  latency histograms (p50/p95/p99) in one process-wide registry, with JSON
  snapshots and Prometheus text exposition.  Instruments are always live.
* :mod:`repro.obs.trace` — context-manager spans with parent/child nesting,
  instantaneous events, JSONL trace trees.  Armed per session via :func:`tracing`; every
  site is a single global read when unarmed, the same discipline as
  :func:`repro.faults.plan.poll`.

This package is a **leaf** of the import graph: it imports only the
standard library, because nearly every repro module (including
``faults.plan`` and ``caching``) imports it.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    default_registry,
    gauge,
    histogram,
    register_collector,
    render_prometheus,
    reset_metrics,
    snapshot,
    write_snapshot,
)
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    active_tracer,
    render_tree,
    span,
    trace_event,
    tracing,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "active_tracer",
    "counter",
    "default_registry",
    "gauge",
    "histogram",
    "register_collector",
    "render_prometheus",
    "render_tree",
    "reset_metrics",
    "snapshot",
    "span",
    "trace_event",
    "tracing",
    "write_snapshot",
]
