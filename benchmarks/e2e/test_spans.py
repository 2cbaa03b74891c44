"""Tests of the e2e benchmark's span recorder and layer patching."""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.core.parameter_search as parameter_search
import repro.costmodel.model as costmodel_model
from repro import HARLConfig, HARLScheduler
from repro.experiments.operator_suite import representative_dag
from spans import LAYERS, SpanRecorder, _resolve, patched


def _clock(*times: float):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] > middle [1, 8] > inner [2, 5]; then sibling [8.5, 9]
    recorder = SpanRecorder(clock=_clock(0, 1, 2, 5, 8, 8.5, 9, 10))
    with recorder.span("outer"):
        with recorder.span("middle"):
            with recorder.span("inner"):
                pass
        with recorder.span("inner"):
            pass
    stats = recorder.stats()
    assert stats["outer"]["total_s"] == 10
    assert stats["outer"]["self_s"] == 10 - 7 - 0.5
    assert stats["middle"]["self_s"] == 7 - 3
    assert stats["inner"] == {"calls": 2, "total_s": 3.5, "self_s": 3.5, "rows": 0}
    assert recorder.root_time() == (10, 2.5)


def test_leaf_roots_count_as_attributed():
    recorder = SpanRecorder(clock=_clock(0, 2))
    with recorder.span("lookup"):
        pass
    assert recorder.root_time() == (2, 0.0)


def test_stacks_are_per_thread():
    recorder = SpanRecorder()
    inside = threading.Barrier(2, timeout=10)
    leave = threading.Barrier(2, timeout=10)

    def work():
        with recorder.span("outer"):
            # Both threads hold an open outer span while each opens an inner
            # one: a shared stack would nest one thread's inner span under
            # the other thread's outer span.
            inside.wait()
            with recorder.span("inner"):
                pass
            leave.wait()

    threads = [threading.Thread(target=work) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    stats = recorder.stats()
    assert stats["outer"]["calls"] == 2 and stats["inner"]["calls"] == 2
    total, unattributed = recorder.root_time()
    assert total == pytest.approx(stats["outer"]["total_s"])
    assert unattributed == pytest.approx(stats["outer"]["self_s"])
    assert stats["outer"]["self_s"] == pytest.approx(
        stats["outer"]["total_s"] - stats["inner"]["total_s"]
    )


def test_spans_close_when_the_call_raises():
    recorder = SpanRecorder(clock=_clock(0, 1, 3, 4))

    def boom():
        raise ValueError("boom")

    traced = recorder.wrap("boom", boom)
    with pytest.raises(ValueError), recorder.span("outer"):
        traced()
    stats = recorder.stats()
    assert stats["boom"]["calls"] == 1 and stats["boom"]["total_s"] == 2
    assert stats["outer"]["self_s"] == 2
    assert recorder._state().stack == []


def test_by_name_imports_are_patched_where_used():
    recorder = SpanRecorder()
    with patched(recorder):
        assert parameter_search.batch_features.__wrapped__ is not None
        assert costmodel_model.batch_features.__wrapped__ is not None
        HARLScheduler(config=HARLConfig.scaled(), seed=3).tune(representative_dag("GEMM-S"), 24)
    stats = recorder.stats()
    for layer in ("tensor.features", "tensor.actions.apply", "tensor.sampler.sample",
                  "costmodel.predict", "costmodel.gbt.fit", "hardware.measure"):
        assert stats[layer]["calls"] >= 1, layer
    assert stats["tensor.sampler.sample"]["rows"] == 3 * HARLConfig.scaled().num_tracks
    assert stats["hardware.measure"]["rows"] == 24


def test_every_patch_is_restored_even_on_error():
    originals = [vars(owner)[attr] for owner, attr in map(_resolve, LAYERS)]
    with pytest.raises(RuntimeError), patched(SpanRecorder()):
        owner, attr = _resolve(LAYERS[0])
        assert vars(owner)[attr] is not originals[0]
        raise RuntimeError("leave the window")
    assert [vars(owner)[attr] for owner, attr in map(_resolve, LAYERS)] == originals
    assert parameter_search.batch_features is costmodel_model.batch_features


def test_written_trace_lists_every_span(tmp_path):
    recorder = SpanRecorder()
    traced = recorder.wrap("sum", np.sum, rows=lambda args: len(args[0]))
    with recorder.span("outer"):
        traced([1, 2, 3])
    payload = recorder.write(tmp_path / "t.json").read_text()
    assert '"names":["sum","outer"]' in payload
    assert recorder.stats()["sum"]["rows"] == 3
