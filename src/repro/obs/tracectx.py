"""W3C trace context: one request id that resolves everywhere.

The endpoint parses (or mints) a `W3C traceparent
<https://www.w3.org/TR/trace-context/>`_ at the protocol boundary and
activates a :class:`TraceContext` in a :class:`contextvars.ContextVar`.
From there the id rides every layer without explicit plumbing:

* :class:`~repro.obs.trace.Span` consults the contextvar on entry, so
  engine / evaluator / store spans all carry ``trace_id`` /
  ``span_id`` / ``parent_id`` args and nest into a proper tree;
* the request's :class:`~repro.obs.request.RequestRecord` rides the
  context (``ctx.record``): the engine writes its facts there and every
  span that closes appends its Chrome trace event to ``record.spans``,
  so a Perfetto timeline, a ``/slowlog`` entry, an ``endpoint.request``
  event and the ``X-Trace-Id`` response header are one record under one
  id;
* pool workers receive the context through the task envelope
  (:class:`repro.parallel.ObsConfig`) and re-derive a per-task child
  context from the *task key* (run id, trace file path), so a
  ``--jobs 2`` build stamps exactly the ids a serial build would.

Span-id allocation has two modes, mirroring the tracer's clocks:

* **random** (default): 8 random bytes per span, the W3C behavior;
* **deterministic**: ids are SHA-256 derivations of
  ``(trace_id, parent_id, ordinal)`` — two runs executing the same
  spans in the same order mint byte-identical ids regardless of
  process layout.  This is what keeps the ``--jobs 1/2``
  byte-identity contract intact once trace ids appear in span args.
"""

from __future__ import annotations

import contextvars
import hashlib
import os
import re
import threading
from typing import Dict, List, Optional, Tuple

__all__ = [
    "TraceContext",
    "activate",
    "current",
    "deactivate",
    "derive_span_id",
    "format_traceparent",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "start_trace",
    "task_scope",
]

_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)

_current: "contextvars.ContextVar[Optional[TraceContext]]" = contextvars.ContextVar(
    "repro_trace_context", default=None
)


def parse_traceparent(header: Optional[str]) -> Optional[Tuple[str, str, str]]:
    """Validate a ``traceparent`` header → ``(trace_id, span_id, flags)``.

    Returns ``None`` for anything malformed — wrong field count, short
    or non-hex ids, uppercase hex (the spec demands lowercase), the
    forbidden version ``ff``, or all-zero trace/span ids.  Callers fall
    back to minting a fresh root trace, which is the behavior the spec
    prescribes for invalid inbound context.
    """
    if not header:
        return None
    match = _TRACEPARENT_RE.match(header.strip())
    if match is None:
        return None
    version, trace_id, span_id, flags = match.groups()
    if version == "ff":
        return None
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return trace_id, span_id, flags


def format_traceparent(ctx: "TraceContext") -> str:
    """Render a context as an outbound ``traceparent`` header value."""
    return f"00-{ctx.trace_id}-{ctx.span_id}-{ctx.flags}"


def new_trace_id(deterministic: bool = False, seed: str = "") -> str:
    """A fresh 32-hex trace id; derived from *seed* in deterministic mode."""
    if deterministic:
        return hashlib.sha256(f"trace:{seed}".encode("utf-8")).hexdigest()[:32]
    return os.urandom(16).hex()


def new_span_id() -> str:
    return os.urandom(8).hex()


def derive_span_id(trace_id: str, parent_id: str, ordinal: object) -> str:
    """Deterministic 16-hex span id: a pure function of its coordinates.

    Used in logical-clock mode (and for per-task roots in pool
    workers): the id depends only on (trace, parent, position), never
    on which process minted it.
    """
    material = f"{trace_id}:{parent_id}:{ordinal}".encode("utf-8")
    return hashlib.sha256(material).hexdigest()[:16]


class TraceContext:
    """The active trace coordinates for the current logical request.

    ``span_id`` is the id of the *enclosing* span — a child span minted
    under this context records it as ``parent_id``.  ``child_id()``
    allocates ids for new children; in deterministic mode the per-
    context ordinal makes allocation a pure function of the span's
    position under its parent.

    ``record``, when set, is the request's
    :class:`~repro.obs.request.RequestRecord`: completed spans append
    themselves to ``record.spans`` and the engine stamps its facts on it.
    """

    __slots__ = ("trace_id", "span_id", "flags", "deterministic", "record",
                 "_ordinal", "_lock")

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        flags: str = "01",
        deterministic: bool = False,
        record=None,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.flags = flags
        self.deterministic = deterministic
        self.record = record
        self._ordinal = 0
        self._lock = threading.Lock()

    def child_id(self) -> str:
        """Mint a span id for a new child of this context's span."""
        if not self.deterministic:
            return new_span_id()
        with self._lock:
            ordinal = self._ordinal
            self._ordinal += 1
        return derive_span_id(self.trace_id, self.span_id, ordinal)

    def child(self, span_id: str) -> "TraceContext":
        """A nested context whose children parent onto *span_id*."""
        return TraceContext(
            self.trace_id, span_id, flags=self.flags,
            deterministic=self.deterministic, record=self.record,
        )

    def derived(self, key: str) -> "TraceContext":
        """A per-task child context derived purely from *key*.

        Both the serial loop and any pool worker derive the same child
        for the same task key, which is what makes ``--jobs 1`` and
        ``--jobs 2`` traces stamp identical ids.
        """
        return self.child(derive_span_id(self.trace_id, self.span_id, key))


def start_trace(
    traceparent: Optional[str] = None,
    deterministic: bool = False,
    seed: str = "",
) -> TraceContext:
    """Begin a trace: continue an inbound ``traceparent`` or mint a root.

    A malformed, short, or all-zero inbound header falls back to a
    fresh root trace (per the W3C restart rule) — the caller always
    gets a usable context.
    """
    parsed = parse_traceparent(traceparent)
    if parsed is not None:
        trace_id, parent_span, flags = parsed
        return TraceContext(trace_id, parent_span, flags=flags,
                            deterministic=deterministic)
    trace_id = new_trace_id(deterministic=deterministic, seed=seed)
    if deterministic:
        root_span = derive_span_id(trace_id, "", "root")
    else:
        root_span = new_span_id()
    return TraceContext(trace_id, root_span, deterministic=deterministic)


def current() -> Optional[TraceContext]:
    """The trace context active on this thread/task, if any."""
    return _current.get()


def activate(ctx: Optional[TraceContext]) -> "contextvars.Token":
    """Install *ctx* as the current context; returns the reset token."""
    return _current.set(ctx)


def deactivate(token: "contextvars.Token") -> None:
    _current.reset(token)


class task_scope:
    """Context manager: enter a derived per-task trace context.

    When no trace is active this is a no-op, so instrumented loops can
    wrap every unit of work unconditionally::

        with task_scope(entry.run_id):
            build_one_run(entry)

    The derived child depends only on the ambient (trace, span) pair
    and the task key — identical in a serial loop and in any pool
    worker handed the same ambient coordinates.
    """

    __slots__ = ("key", "_token")

    def __init__(self, key: str):
        self.key = key
        self._token = None

    def __enter__(self) -> Optional[TraceContext]:
        ctx = _current.get()
        if ctx is None:
            return None
        derived = ctx.derived(self.key)
        self._token = _current.set(derived)
        return derived

    def __exit__(self, *exc_info) -> None:
        if self._token is not None:
            _current.reset(self._token)
            self._token = None


def span_tree(spans: List[dict]) -> List[dict]:
    """Nest a flat list of span events into parent→children trees, by
    their ``args.span_id`` / ``args.parent_id``.

    Spans whose parent is absent from the list (the request root, or an
    orphan after partial capture) become roots.  Children keep their
    recorded order.
    """
    by_id: Dict[str, dict] = {}
    nodes: List[dict] = []
    for span in spans:
        node = dict(span, children=[])
        nodes.append(node)
        span_id = node["args"].get("span_id")
        if span_id:
            by_id[span_id] = node
    roots: List[dict] = []
    for node in nodes:
        parent = by_id.get(node["args"].get("parent_id") or "")
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)
    return roots
