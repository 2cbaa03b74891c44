"""Span tracing: arming, nesting, JSONL, rendering."""

import json

import pytest

from repro.obs.trace import (
    NULL_SPAN,
    Tracer,
    active_tracer,
    render_tree,
    span,
    trace_event,
    tracing,
)


# --------------------------------------------------------------------- #
# arming discipline
# --------------------------------------------------------------------- #
def test_unarmed_span_is_shared_noop():
    assert active_tracer() is None
    sp = span("anything", attr=1)
    assert sp is NULL_SPAN
    with sp as inner:
        inner.annotate(extra=2)  # swallowed
    trace_event("ignored")  # no-op, no error


def test_tracing_arms_and_disarms():
    with tracing() as tracer:
        assert active_tracer() is tracer
        with span("root"):
            pass
    assert active_tracer() is None
    assert [r["name"] for r in tracer.records] == ["root"]


def test_tracing_sessions_do_not_nest():
    with tracing():
        with pytest.raises(RuntimeError):
            with tracing():
                pass


def test_tracer_disarmed_even_on_exception():
    with pytest.raises(ValueError):
        with tracing():
            raise ValueError("boom")
    assert active_tracer() is None


# --------------------------------------------------------------------- #
# nesting and parents
# --------------------------------------------------------------------- #
def test_nested_spans_record_parent_ids():
    with tracing() as tracer:
        with span("outer") as outer:
            with span("inner") as inner:
                assert inner.parent == outer.id
                trace_event("tick", n=1)
            with span("sibling") as sibling:
                # Leaving "inner" made "outer" the current span again.
                assert sibling.parent == outer.id
    by_name = {r["name"]: r for r in tracer.records}
    assert by_name["outer"]["parent"] is None
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["tick"]["kind"] == "event"
    assert by_name["tick"]["parent"] == by_name["inner"]["id"]


def test_span_records_error_attribute_and_propagates():
    with pytest.raises(KeyError):
        with tracing() as tracer:
            with span("fails"):
                raise KeyError("missing")
    (record,) = tracer.records
    assert record["attrs"]["error"] == "KeyError: 'missing'"


def test_annotate_merges_attributes():
    with tracing() as tracer:
        with span("round", budget=4) as sp:
            sp.annotate(trials=7)
    (record,) = tracer.records
    assert record["attrs"] == {"budget": 4, "trials": 7}


# --------------------------------------------------------------------- #
# persistence and rendering
# --------------------------------------------------------------------- #
def test_jsonl_file_written_eagerly(tmp_path):
    path = tmp_path / "trace.jsonl"
    with tracing(path) as tracer:
        with span("first"):
            pass
        # eager: the record is on disk before the session closes
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "first"
        with span("second"):
            pass
    lines = [json.loads(line) for line in path.read_text().strip().splitlines()]
    assert [r["name"] for r in lines] == ["first", "second"]
    assert tracer.path == path


def test_tracer_write_and_lines_roundtrip(tmp_path):
    tracer = Tracer()
    with tracer.span("solo", tag="x"):
        pass
    out = tracer.write(tmp_path / "out.jsonl")
    assert json.loads(out.read_text())["attrs"] == {"tag": "x"}
    assert len(tracer.lines()) == 1


def test_render_tree_nests_and_orders_children():
    with tracing() as tracer:
        with span("root"):
            with span("a"):
                trace_event("ev", k=1)
            with span("b"):
                pass
    text = tracer.tree()
    lines = text.splitlines()
    assert lines[0].startswith("root  ")
    assert lines[1].startswith("  a  ")
    assert lines[2].strip().startswith("· ev")
    assert lines[3].startswith("  b  ")


def test_render_tree_surfaces_orphans_at_root():
    records = [
        {"kind": "span", "id": 9, "parent": 42, "name": "orphan",
         "start_s": 0.0, "duration_s": 0.001, "attrs": {}},
    ]
    text = render_tree(records)
    assert text.startswith("orphan  ")
