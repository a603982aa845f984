"""Dependency-free observability layer: metrics, spans, one record per request.

``repro.obs.metrics`` holds the process-wide metrics registry (counters,
gauges, fixed-bucket histograms, Prometheus text exposition) — the one
place numbers live, request latency included.
``repro.obs.trace`` holds the span tracer: each closed span is one
Chrome ``trace_event`` dict (deterministic logical-clock mode for
byte-stable test traces), and its tolerant line reader.
``repro.obs.request`` holds the per-request record the endpoint and
query engine fill in and the one bounded ring of retained records that
``GET /slowlog``, ``GET /trace/<id>`` and ``obs slowlog`` are views of.
``repro.obs.progress`` holds the TTY-gated one-line progress reporter
long builds and ingests drive from the counters.
``repro.obs.events`` holds the schema-versioned, size-rotated JSONL
event log that build/ingest/compaction/spill/endpoint paths append to.
``repro.obs.tracectx`` holds the W3C trace-context plumbing — the
``traceparent`` parser and the contextvar every span stamps its
``trace_id``/``parent_id`` from, which also carries the request
record.  ``repro.obs.profiler`` holds the always-on
statistical profiler (folded stacks, thread→route attribution,
overhead accounting).
"""

from . import events, metrics, profiler, tracectx
from .events import EventLog, read_events
from .profiler import StackProfiler
from .progress import Progress
from .request import RequestRecord, RequestRing
from .trace import NULL_SPAN, Tracer, read_trace, span, summarize
from .tracectx import TraceContext, parse_traceparent

__all__ = [
    "events",
    "metrics",
    "profiler",
    "tracectx",
    "EventLog",
    "NULL_SPAN",
    "Progress",
    "RequestRecord",
    "RequestRing",
    "StackProfiler",
    "TraceContext",
    "Tracer",
    "parse_traceparent",
    "read_events",
    "read_trace",
    "span",
    "summarize",
]
