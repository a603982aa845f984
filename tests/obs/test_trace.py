"""Span tracer unit tests: nesting, no-op paths, file format, clocks."""

from __future__ import annotations

import json

import pytest

from repro.obs.trace import NULL_SPAN, Tracer, read_trace, span, summarize


class TestSpans:
    def test_nesting_contains_child(self):
        tracer = Tracer()
        with tracer.span("outer", cat="test"):
            with tracer.span("inner", cat="test"):
                pass
        by_name = {e["name"]: e for e in tracer.events()}
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer["ph"] == "X" and outer["cat"] == "test"
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
        assert "cpu_ms" in outer["args"]

    def test_attributes_and_set(self):
        tracer = Tracer()
        with tracer.span("work", cat="test", file="a.ttl") as sp:
            sp.set(quads=7)
        (event,) = tracer.events()
        assert event["args"]["file"] == "a.ttl"
        assert event["args"]["quads"] == 7

    def test_exception_stamps_error_attribute(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (event,) = tracer.events()
        assert event["args"]["error"] == "ValueError"

    def test_module_helper_returns_null_span_without_tracer(self):
        with span(None, "anything", key="v") as sp:
            sp.set(more=1)
        assert sp is NULL_SPAN


class TestDeterministicClock:
    def test_two_identical_runs_write_identical_bytes(self, tmp_path):
        def run(path):
            tracer = Tracer(deterministic=True)
            for _ in range(3):
                tracer.reset_clock()
                with tracer.span("a", cat="t"):
                    with tracer.span("b", cat="t"):
                        pass
            tracer.write(path)

        run(tmp_path / "one.trace")
        run(tmp_path / "two.trace")
        assert (tmp_path / "one.trace").read_bytes() == (tmp_path / "two.trace").read_bytes()

    def test_deterministic_events_pin_pid_tid(self):
        tracer = Tracer(deterministic=True)
        with tracer.span("a"):
            pass
        (event,) = tracer.events()
        assert event["pid"] == 0 and event["tid"] == 0
        assert "cpu_ms" not in event["args"]

    def test_drain_empties_and_add_events_advances_clock(self):
        worker = Tracer(deterministic=True)
        with worker.span("w"):
            pass
        shipped = worker.drain()
        assert worker.events() == []
        parent = Tracer(deterministic=True)
        parent.reset_clock()
        parent.add_events(shipped)
        with parent.span("p"):
            pass
        absorbed, local = parent.events()
        assert absorbed["name"] == "w"
        # The parent's next tick lands past the absorbed horizon, exactly
        # where a serial tracer that had recorded "w" itself would be.
        assert local["ts"] > absorbed["ts"] + absorbed["dur"]


class TestFileFormat:
    def test_write_is_array_lines_and_roundtrips(self, tmp_path):
        tracer = Tracer(deterministic=True)
        with tracer.span("x", cat="t", file="f"):
            pass
        path = tmp_path / "trace.jsonl"
        count = tracer.write(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "["
        # Chrome's array-lines form: every event line is standalone JSON
        # once the trailing comma is stripped.
        for line in lines[1:]:
            json.loads(line.rstrip(","))
        events = read_trace(path)
        assert count == len(events) == 1
        assert events[0]["args"]["file"] == "f"

    def test_read_trace_accepts_plain_array_and_jsonl(self, tmp_path):
        events = [{"name": "a", "cat": "t", "ph": "X", "ts": 0, "dur": 1,
                   "pid": 0, "tid": 0, "args": {}}]
        as_array = tmp_path / "array.json"
        as_array.write_text(json.dumps(events))
        assert read_trace(as_array) == events
        as_jsonl = tmp_path / "events.jsonl"
        as_jsonl.write_text("\n".join(json.dumps(e) for e in events) + "\n")
        assert read_trace(as_jsonl) == events


class TestTolerantRead:
    def test_truncated_tail_skipped_with_warning(self, tmp_path):
        # A crashed writer leaves a half-flushed last line; readers must
        # keep every intact record instead of raising.
        good = {"name": "a", "cat": "t", "ph": "X", "ts": 0, "dur": 1,
                "pid": 0, "tid": 0, "args": {}}
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps(good) + "\n" + '{"name": "b", "ts')
        warnings = []
        events = read_trace(path, warn=warnings.append)
        assert len(events) == 1 and events[0]["name"] == "a"
        assert len(warnings) == 1
        assert "malformed" in warnings[0] and ":2" in warnings[0]

    def test_garbage_line_between_records_skipped(self, tmp_path):
        good = {"name": "a", "cat": "t", "ph": "X", "ts": 0, "dur": 1,
                "pid": 0, "tid": 0, "args": {}}
        path = tmp_path / "events.jsonl"
        path.write_text(
            json.dumps(good) + "\nnot json at all\n" + json.dumps(good) + "\n")
        warnings = []
        assert len(read_trace(path, warn=warnings.append)) == 2
        assert len(warnings) == 1

    def test_array_form_with_crash_tail_recovers_lines(self, tmp_path):
        # Chrome array-lines form cut off mid-write: the document no
        # longer parses as one array, so recovery is line-by-line.
        tracer = Tracer(deterministic=True)
        with tracer.span("kept", cat="t"):
            pass
        path = tmp_path / "trace.jsonl"
        tracer.write(path)
        path.write_bytes(path.read_bytes().rstrip() + b'\n{"name": "lost", ')
        warnings = []
        events = read_trace(path, warn=warnings.append)
        assert [e["name"] for e in events] == ["kept"]
        assert warnings, "truncated tail must be reported"

    def test_non_object_lines_ignored(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('42\n"just a string"\n')
        assert read_trace(path, warn=lambda _msg: None) == []


def test_summarize_aggregates_by_cat_and_name():
    events = [
        {"name": "parse", "cat": "ingest", "ts": 0, "dur": 2000, "args": {}},
        {"name": "parse", "cat": "ingest", "ts": 5000, "dur": 4000, "args": {}},
        {"name": "run", "cat": "build", "ts": 0, "dur": 1000, "args": {}},
    ]
    rows = summarize(events)
    assert [r["name"] for r in rows] == ["parse", "run"]
    parse = rows[0]
    assert parse["count"] == 2
    assert parse["total_ms"] == pytest.approx(6.0)
    assert parse["mean_ms"] == pytest.approx(3.0)
    assert parse["max_ms"] == pytest.approx(4.0)
