"""In-memory span recorder and the layer patch table of the e2e benchmark.

The benchmark attributes time to layers without touching the program: for
the traced run it wraps public entry points of each layer (see
:data:`LAYERS`) with a timing shim, records one span per call on a
per-thread stack, and restores every original attribute on exit.

A span's *self time* is its duration minus the durations of its direct
children in the same thread.  Durations are wall clock
(``time.perf_counter``), so in a multi-threaded workload self time is
thread-seconds and includes time spent waiting for the GIL.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple


def _rows_of_first(args) -> int:
    return len(args[0]) if args else 0


def _rows_of_second(args) -> int:
    """Batch of a method's first argument (``args[0]`` is ``self``)."""
    return len(args[1]) if len(args) > 1 else 0


def _count_of_second(args) -> int:
    return int(args[1]) if len(args) > 1 else 0


class Layer(NamedTuple):
    """One traced layer entry point: ``module:qualname`` wrapped as ``name``.

    ``rows`` maps the call's positional arguments to the batch it carries
    (``None`` when the entry point takes no batch).
    """

    name: str
    module: str
    attr: str
    rows: Optional[Callable[[tuple], int]] = None


#: Every traced entry point.  Functions that callers imported by name are
#: patched where they were imported (``repro.core.parameter_search`` and
#: ``repro.costmodel.model``), because patching the defining module would
#: not reach those bound names.  Methods take ``self`` as ``args[0]``.
LAYERS: Tuple[Layer, ...] = (
    Layer("core.ppo.act", "repro.core.actor_critic", "PPOAgent.act", _rows_of_second),
    Layer("core.ppo.value", "repro.core.actor_critic", "PPOAgent.value", _rows_of_second),
    Layer("core.ppo.update", "repro.core.actor_critic", "PPOAgent.update"),
    Layer("core.search.episode", "repro.core.parameter_search", "ParameterSearcher.run_episode"),
    Layer("core.bandit.select", "repro.core.bandit", "SlidingWindowUCB.select"),
    Layer(
        "core.stopping.select_survivors",
        "repro.core.adaptive_stopping",
        "AdaptiveStopper.select_survivors",
    ),
    Layer("costmodel.update", "repro.costmodel.model", "ScheduleCostModel.update", _rows_of_second),
    Layer(
        "costmodel.predict", "repro.costmodel.model", "ScheduleCostModel.predict", _rows_of_second
    ),
    Layer("costmodel.gbt.fit", "repro.costmodel.gbt", "GradientBoostedTrees.fit", _rows_of_second),
    Layer(
        "costmodel.gbt.predict",
        "repro.costmodel.gbt",
        "GradientBoostedTrees.predict",
        _rows_of_second,
    ),
    Layer("tensor.features", "repro.core.parameter_search", "batch_features", _rows_of_first),
    Layer("tensor.features", "repro.costmodel.model", "batch_features", _rows_of_first),
    Layer("tensor.actions.apply", "repro.core.parameter_search", "apply_action"),
    Layer(
        "tensor.sampler.sample",
        "repro.core.parameter_search",
        "sample_initial_schedules",
        _count_of_second,
    ),
    Layer("hardware.measure", "repro.hardware.measurer", "Measurer.measure", _rows_of_second),
    Layer("serving.service.submit", "repro.serving.service", "TuningService.submit"),
    Layer("serving.service.advance", "repro.serving.service", "TuningService.advance"),
    Layer("serving.service.finish", "repro.serving.service", "TuningService.finish"),
    Layer("serving.registry.lookup", "repro.serving.registry", "ScheduleRegistry.lookup"),
    Layer(
        "serving.registry.warm_start_transfers",
        "repro.serving.registry",
        "ScheduleRegistry.warm_start_transfers",
    ),
    Layer("serving.registry.record", "repro.serving.registry", "ScheduleRegistry.record"),
    Layer("records.record_measure", "repro.records", "RecordStore.record_measure"),
    Layer("records.append_result", "repro.records", "RecordStore.append_result"),
)

#: Distinct layer names, in table order.
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(layer.name for layer in LAYERS))

#: Layers whose calls carry a batch (they also report ``<name>.rows``).
BATCH_LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer.name for layer in LAYERS if layer.rows is not None)
)


class _Stat:
    __slots__ = ("calls", "total", "self_time", "rows")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.rows = 0


class _ThreadState:
    """Span stack, aggregates and raw spans of one thread."""

    def __init__(self, ident: int) -> None:
        self.ident = ident
        #: open frames: [span id, child seconds, child count]
        self.stack: List[list] = []
        self.stats: Dict[str, _Stat] = {}
        #: outermost spans of this thread: (duration, self seconds, had children)
        self.roots: List[Tuple[float, float, bool]] = []
        #: closed spans: (id, parent id or 0, name, start, end)
        self.spans: List[Tuple[int, int, str, float, float]] = []


class SpanRecorder:
    """Records spans on per-thread stacks; aggregates per span name.

    ``clock`` is injectable so tests can drive exact self-time arithmetic.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._ids = itertools.count(1)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState(threading.get_ident())
            with self._lock:
                self._threads.append(state)
        return state

    def _open(self) -> Tuple[_ThreadState, list, int]:
        state = self._state()
        parent = state.stack[-1][0] if state.stack else 0
        frame = [next(self._ids), 0.0, 0]
        state.stack.append(frame)
        return state, frame, parent

    def _close(
        self, state: _ThreadState, frame: list, parent: int, name: str,
        start: float, end: float, rows: int,
    ) -> None:
        state.stack.pop()
        duration = end - start
        self_time = duration - frame[1]
        if state.stack:
            state.stack[-1][1] += duration
            state.stack[-1][2] += 1
        else:
            state.roots.append((duration, self_time, frame[2] > 0))
        stat = state.stats.get(name)
        if stat is None:
            stat = state.stats[name] = _Stat()
        stat.calls += 1
        stat.total += duration
        stat.self_time += self_time
        stat.rows += rows
        state.spans.append((frame[0], parent, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body (closed on exceptions too)."""
        state, frame, parent = self._open()
        start = self._clock()
        try:
            yield
        finally:
            self._close(state, frame, parent, name, start, self._clock(), 0)

    def wrap(self, name: str, fn: Callable, rows: Optional[Callable[[tuple], int]] = None):
        """Return ``fn`` wrapped so that every call records a span ``name``."""
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = rows(args) if rows is not None else 0
            state, frame, parent = self._open()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(state, frame, parent, name, start, clock(), n)

        return traced

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s``, ``self_s``, ``rows``."""
        merged: Dict[str, _Stat] = {}
        for state in self._snapshot():
            for name, stat in state.stats.items():
                into = merged.setdefault(name, _Stat())
                into.calls += stat.calls
                into.total += stat.total
                into.self_time += stat.self_time
                into.rows += stat.rows
        return {
            name: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time, "rows": s.rows}
            for name, s in merged.items()
        }

    def root_time(self) -> Tuple[float, float]:
        """``(root seconds, unattributed seconds)`` summed over all threads.

        Roots are the outermost spans of each thread.  A root's self time
        is unattributed when it had children (glue around deeper layers); a
        leaf root is a layer call in its own right.
        """
        total = unattributed = 0.0
        for state in self._snapshot():
            for duration, self_time, had_children in state.roots:
                total += duration
                if had_children:
                    unattributed += self_time
        return total, unattributed

    def _snapshot(self) -> List[_ThreadState]:
        with self._lock:
            return list(self._threads)

    def write(self, path: Path) -> Path:
        """Write every closed span as compact JSON (one row per span)."""
        names: Dict[str, int] = {}
        rows = []
        for state in self._snapshot():
            for span_id, parent, name, start, end in state.spans:
                index = names.setdefault(name, len(names))
                rows.append([span_id, parent, state.ident, index, start, end])
        rows.sort()
        payload = {
            "schema": "repro-e2e-trace/1",
            "columns": ["id", "parent", "thread", "name", "start_s", "end_s"],
            "names": list(names),
            "spans": rows,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
        return path


def _resolve(layer: Layer) -> Tuple[object, str]:
    owner: object = importlib.import_module(layer.module)
    *path, attr = layer.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def patched(recorder: SpanRecorder, layers: Tuple[Layer, ...] = LAYERS) -> Iterator[None]:
    """Wrap every layer entry point for the ``with`` body, then restore them.

    Originals are read from the owner's ``__dict__`` so a class attribute is
    restored exactly (not as a bound or inherited lookup).
    """
    saved: List[Tuple[object, str, object]] = []
    try:
        for layer in layers:
            owner, attr = _resolve(layer)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(layer.name, original, layer.rows))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
