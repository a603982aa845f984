"""W3C trace context: parsing, deterministic ids, the request ring.

The traceparent edge cases follow the W3C trace-context spec: invalid
inbound context (malformed, short, uppercase, version ff, all-zero ids)
must *restart* the trace, never crash or half-adopt it.  Deterministic
derivation is the property the --jobs 1/2 byte-identity contract rests
on: ids are pure functions of (trace, parent, key/ordinal), never of
process layout.
"""

import pytest

from repro.obs import tracectx
from repro.obs.trace import Tracer
from repro.obs.request import RequestRing
from repro.obs.tracectx import TraceContext


VALID = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"


class TestParseTraceparent:
    def test_valid_header(self):
        assert tracectx.parse_traceparent(VALID) == (
            "4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7", "01"
        )

    def test_surrounding_whitespace_tolerated(self):
        assert tracectx.parse_traceparent(f"  {VALID}  ") is not None

    @pytest.mark.parametrize("header", [
        None,
        "",
        "00-abc-def-01",                                              # short ids
        "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",       # missing flags
        "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",    # uppercase
        "00-4bf92f3577b34da6a3ce929d0e0e473g-00f067aa0ba902b7-01",    # non-hex
        "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",    # version ff
        "00-" + "0" * 32 + "-00f067aa0ba902b7-01",                    # zero trace
        "00-4bf92f3577b34da6a3ce929d0e0e4736-" + "0" * 16 + "-01",    # zero span
        "not a header at all",
    ])
    def test_invalid_headers_rejected(self, header):
        assert tracectx.parse_traceparent(header) is None

    def test_start_trace_continues_valid_header(self):
        ctx = tracectx.start_trace(VALID)
        assert ctx.trace_id == "4bf92f3577b34da6a3ce929d0e0e4736"
        assert ctx.span_id == "00f067aa0ba902b7"

    def test_start_trace_mints_fresh_root_on_malformed(self):
        ctx = tracectx.start_trace("00-000-bad")
        assert len(ctx.trace_id) == 32
        assert ctx.trace_id != "0" * 32
        assert len(ctx.span_id) == 16

    def test_format_round_trip(self):
        ctx = tracectx.start_trace(VALID)
        assert tracectx.format_traceparent(ctx) == VALID


class TestDeterministicIds:
    def test_deterministic_trace_id_is_seed_function(self):
        a = tracectx.new_trace_id(deterministic=True, seed="s1")
        b = tracectx.new_trace_id(deterministic=True, seed="s1")
        c = tracectx.new_trace_id(deterministic=True, seed="s2")
        assert a == b != c

    def test_child_ids_are_position_functions(self):
        one = tracectx.start_trace(deterministic=True, seed="x")
        two = tracectx.start_trace(deterministic=True, seed="x")
        assert [one.child_id() for _ in range(3)] == [two.child_id() for _ in range(3)]

    def test_derived_task_context_matches_across_instances(self):
        one = tracectx.start_trace(deterministic=True, seed="x").derived("run-42")
        two = tracectx.start_trace(deterministic=True, seed="x").derived("run-42")
        other = tracectx.start_trace(deterministic=True, seed="x").derived("run-43")
        assert one.span_id == two.span_id != other.span_id
        assert one.child_id() == two.child_id()

    def test_random_mode_mints_distinct_ids(self):
        ctx = tracectx.start_trace()
        assert ctx.child_id() != ctx.child_id()


class TestContextVar:
    def test_activate_deactivate(self):
        assert tracectx.current() is None
        ctx = tracectx.start_trace()
        token = tracectx.activate(ctx)
        try:
            assert tracectx.current() is ctx
            assert tracectx.current().trace_id == ctx.trace_id
        finally:
            tracectx.deactivate(token)
        assert tracectx.current() is None

    def test_task_scope_noop_without_context(self):
        with tracectx.task_scope("k") as derived:
            assert derived is None
        assert tracectx.current() is None

    def test_task_scope_derives_and_restores(self):
        root = tracectx.start_trace(deterministic=True, seed="x")
        token = tracectx.activate(root)
        try:
            with tracectx.task_scope("k") as derived:
                assert tracectx.current() is derived
                assert derived.trace_id == root.trace_id
                assert derived.span_id != root.span_id
            assert tracectx.current() is root
        finally:
            tracectx.deactivate(token)


class TestSpanIntegration:
    def test_spans_stamp_ids_and_nest_under_active_context(self):
        tracer = Tracer(deterministic=True)
        ctx = tracectx.start_trace(deterministic=True, seed="t")
        token = tracectx.activate(ctx)
        try:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        finally:
            tracectx.deactivate(token)
        outer, inner = sorted(tracer.events(), key=lambda e: e["ts"])
        assert outer["args"]["trace_id"] == inner["args"]["trace_id"] == ctx.trace_id
        assert outer["args"]["parent_id"] == ctx.span_id
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]

    def test_spans_unstamped_without_context(self):
        tracer = Tracer(deterministic=True)
        with tracer.span("plain"):
            pass
        (event,) = tracer.events()
        assert "trace_id" not in event["args"]
        assert "parent_id" not in event["args"]

    def test_span_helper_still_noop_without_any_context(self):
        from repro.obs.trace import NULL_SPAN, span

        assert span(None, "nothing") is NULL_SPAN


class TestTraceRing:
    def test_admit_and_get(self):
        ring = RequestRing(capacity=4)
        ring.admit({"trace_id": "t1", "route": "/sparql", "status": 200})
        record = ring.get("t1")
        assert record == {"trace_id": "t1", "route": "/sparql", "status": 200}

    def test_get_unknown_is_none(self):
        assert RequestRing().get("missing") is None

    def test_eviction_drops_oldest(self):
        ring = RequestRing(capacity=2)
        for i in range(3):
            ring.admit({"trace_id": f"t{i}"})
        assert ring.get("t0") is None  # evicted
        assert ring.get("t1") is not None
        assert ring.get("t2") is not None
        info = ring.info()
        assert info == {"capacity": 2, "current": 2, "admitted": 3, "evicted": 1}

    def test_shared_trace_id_keeps_both_and_answers_newest(self):
        ring = RequestRing(capacity=2)
        ring.admit({"trace_id": "t1", "query": "old"})
        ring.admit({"trace_id": "t1", "query": "new"})
        assert ring.get("t1")["query"] == "new"
        assert ring.trace_ids() == ["t1", "t1"]
        assert len(ring.queries()) == ring.info()["current"] == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            RequestRing(capacity=0)

