"""Span tracing with Chrome ``trace_event`` output.

Spans are context managers recording wall time, CPU time, and
free-form attributes.  A tracer accumulates complete events
(``"ph": "X"``) which :meth:`Tracer.write` emits in the Chrome JSON
Array Format, one event per line, so the file is both line-parseable
and opens directly in ``chrome://tracing`` or Perfetto::

    [
    {"args":{},"cat":"build","dur":12,"name":"execute",...},
    {"args":{},"cat":"build","dur":3,"name":"export",...},

(The trailing ``]`` is optional per the trace-event spec, which lets
writers append without seeking; :func:`read_trace` is the matching
parser.)

Two clock modes:

* **real** (default): timestamps are absolute ``time.perf_counter()``
  microseconds.  On Linux that is ``CLOCK_MONOTONIC``, which forked
  pool workers share, so events forwarded from workers land on the
  same timeline as the parent's and the merged trace renders as one
  coherent picture of the parallel run.
* **deterministic**: a logical clock that ticks once per span
  enter/exit, with pid/tid pinned to 0 and CPU time omitted.  Two runs
  executing the same spans in the same order produce byte-identical
  trace files regardless of wall time or process layout — this is how
  the test suite pins ``--jobs 1`` and ``--jobs 2`` builds to the same
  trace bytes.

Spans participate in request tracing (:mod:`repro.obs.tracectx`): when
a W3C trace context is active on the current thread, every span stamps
``trace_id`` / ``span_id`` / ``parent_id`` into its args and pushes
itself as the parent for nested spans.  With no active context nothing
is stamped, so pre-existing byte-identical trace expectations hold
unchanged.

``span(tracer, ...)`` is the instrumentation-site helper: it returns a
shared no-op span when ``tracer`` is ``None``, so hot paths pay one
``is None`` check when tracing is off.  Spans exist only under a
tracer; what a request learned about itself without one is its
:class:`~repro.obs.request.RequestRecord`.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Iterable, List, Optional

from . import tracectx as _tracectx

__all__ = ["NULL_SPAN", "Span", "Tracer", "read_trace", "span", "summarize"]


class _NullSpan:
    """Shared do-nothing span for untraced call sites."""

    __slots__ = ()

    span_id = None

    def set(self, **attrs: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


NULL_SPAN = _NullSpan()


def span(tracer: Optional["Tracer"], name: str, cat: str = "repro", **attrs: object):
    """Open a span on ``tracer``, or a shared no-op when tracing is off."""
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, cat=cat, **attrs)


class Span:
    """A single timed region; records one complete event on exit.

    ``span_id`` is the W3C id minted on entry under an active trace
    context (``None`` outside one).
    """

    __slots__ = ("_tracer", "name", "cat", "args", "_ts", "_cpu_start", "span_id",
                 "_ctx_token")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self._ts = 0
        self._cpu_start = 0.0
        self.span_id: Optional[str] = None
        self._ctx_token = None

    def set(self, **attrs: object) -> None:
        self.args.update(attrs)

    def __enter__(self) -> "Span":
        ctx = _tracectx.current()
        if ctx is not None:
            # Stamp W3C coordinates and become the parent of any span
            # opened while this one is on the stack.
            span_id = ctx.child_id()
            self.span_id = span_id
            self.args["trace_id"] = ctx.trace_id
            self.args["span_id"] = span_id
            self.args["parent_id"] = ctx.span_id
            self._ctx_token = _tracectx.activate(ctx.child(span_id))
        tracer = self._tracer
        self._ts = tracer._now_us()
        if not tracer.deterministic:
            self._cpu_start = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        end = tracer._now_us()
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        deterministic = tracer.deterministic
        if deterministic:
            duration = end - self._ts
        else:
            duration = max(end - self._ts, 0)
            cpu_ms = (time.process_time() - self._cpu_start) * 1000.0
            self.args["cpu_ms"] = round(cpu_ms, 3)
        if self._ctx_token is not None:
            _tracectx.deactivate(self._ctx_token)
            self._ctx_token = None
        event = {
            "name": self.name,
            "cat": self.cat,
            "ph": "X",
            "ts": self._ts,
            "dur": duration,
            "pid": 0 if deterministic else os.getpid(),
            "tid": 0 if deterministic else threading.get_ident() & 0xFFFFFFFF,
            "args": self.args,
        }
        with tracer._lock:
            tracer._events.append(event)


class Tracer:
    """Accumulates span events; thread-safe."""

    def __init__(self, deterministic: bool = False):
        self.deterministic = deterministic
        self._lock = threading.Lock()
        self._events: List[dict] = []
        self._logical = 0

    # -- clock --------------------------------------------------------
    def _now_us(self) -> int:
        if self.deterministic:
            with self._lock:
                tick = self._logical
                self._logical += 1
                return tick
        return int(time.perf_counter() * 1_000_000)

    def reset_clock(self) -> None:
        """Rewind the logical clock (deterministic mode only).

        Called at the start of each independent unit of work (one
        corpus run, one ingest file) so the unit's span timestamps do
        not depend on which worker — or how much earlier work — came
        before it."""
        if self.deterministic:
            with self._lock:
                self._logical = 0

    # -- recording ----------------------------------------------------
    def span(self, name: str, cat: str = "repro", **attrs: object) -> Span:
        return Span(self, name, cat, dict(attrs))

    # -- merge / export -----------------------------------------------
    def events(self) -> List[dict]:
        with self._lock:
            return list(self._events)

    def drain(self) -> List[dict]:
        """Return accumulated events and clear the buffer (used by pool
        workers to ship their spans back with each result)."""
        with self._lock:
            events, self._events = self._events, []
            return events

    def add_events(self, events: Iterable[dict]) -> None:
        """Absorb events recorded elsewhere (a pool worker's ``drain``).

        In deterministic mode the logical clock also advances past the
        absorbed events, exactly as if the spans had been recorded
        locally — this keeps serial and merged-parallel traces
        tick-for-tick identical."""
        events = list(events)
        if not events:
            return
        with self._lock:
            self._events.extend(events)
            if self.deterministic:
                horizon = max(e["ts"] + e["dur"] + 1 for e in events)
                self._logical = max(self._logical, horizon)

    def write(self, path) -> int:
        """Write the Chrome trace file; returns the number of events.

        Events are sorted by (ts, pid, tid) so concurrently-recorded
        real-mode traces still serialize stably; deterministic-mode
        events already carry totally-ordered timestamps."""
        events = self.events()
        events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"], e["name"]))
        lines = ["["]
        for event in events:
            lines.append(json.dumps(event, sort_keys=True, separators=(",", ":")) + ",")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
        return len(events)


def read_trace(path, warn: Optional[Callable[[str], None]] = None) -> List[dict]:
    """Parse a trace file written by :meth:`Tracer.write`.

    Also accepts a complete JSON array or plain JSONL (one object per
    line) for robustness.  Truncated or malformed lines — the tail a
    crashed writer leaves behind — are skipped with a warning instead
    of raising, so a dead run's trace is still summarizable."""
    if warn is None:
        warn = lambda msg: print(msg, file=sys.stderr)  # noqa: E731
    text = Path(path).read_text(encoding="utf-8", errors="replace").strip()
    if not text:
        return []
    if text.startswith("["):
        body = text.rstrip(",")
        if not body.endswith("]"):
            body += "]"
        try:
            return json.loads(body)
        except ValueError:
            pass  # fall through to the tolerant line-by-line parse
    events = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip().rstrip(",")
        if not line or line in ("[", "]"):
            continue
        try:
            record = json.loads(line)
        except ValueError:
            warn(f"warning: skipping malformed line at {path}:{lineno}")
            continue
        if isinstance(record, dict):
            events.append(record)
    return events


def summarize(events: Iterable[dict]) -> List[dict]:
    """Aggregate events by (cat, name): count and total/mean/max wall µs."""
    stats: dict = {}
    for event in events:
        key = (event.get("cat", ""), event.get("name", ""))
        entry = stats.setdefault(key, {"count": 0, "total_us": 0, "max_us": 0})
        entry["count"] += 1
        duration = int(event.get("dur", 0))
        entry["total_us"] += duration
        entry["max_us"] = max(entry["max_us"], duration)
    out = []
    for (cat, name), entry in sorted(
        stats.items(), key=lambda item: -item[1]["total_us"]
    ):
        out.append(
            {
                "cat": cat,
                "name": name,
                "count": entry["count"],
                "total_ms": round(entry["total_us"] / 1000.0, 3),
                "mean_ms": round(entry["total_us"] / entry["count"] / 1000.0, 3),
                "max_ms": round(entry["max_us"] / 1000.0, 3),
            }
        )
    return out
