"""One record per request: the only in-process account of a request.

The endpoint opens a :class:`RequestRecord` when a request's line has
been read and hands it to the query engine (``QueryEngine.query(text,
record=...)``).  Whichever layer knows a fact writes it there — the
endpoint its outcome, the query engine the query's, its layer times
included.  ``Server-Timing`` and ``X-Query-Duration-ms`` are read off
it before the response is written; the endpoint finalises it once,
after the response and outside every engine lock.  A record is
*retained* when the request errored (status ≥ 400) or took at least
``slow_ms``; retained records live, as :meth:`RequestRecord.to_dict`,
in one bounded :class:`RequestRing`.  ``GET /trace/<id>`` and
``GET /slowlog`` are two views of that ring (one record by trace id,
the records that ran a query), and the event log gets one
``endpoint.request`` line per request — the whole record when
retained, the four endpoint fields otherwise.  Spans are not part of
it: they exist only under a ``--trace`` tracer, which stamps them with
the record's ``trace_id``.

Record schema (:meth:`RequestRecord.to_dict`; the query fields are
present only on records whose query the engine answered):

==================  ====================================================
``ts``              wall-clock UNIX timestamp when the request began
``trace_id``        W3C trace id — the ``X-Trace-Id`` response header
``route``           normalised route (``/sparql``, ``/stats``, ...)
``status``          HTTP status
``duration_ms``     request wall time up to the response headers (what
                    ``repro_endpoint_request_seconds`` observes)
``timings_ms``      ``cache``, ``parse``, ``plan``, ``exec``, ``ser`` (the
                    ``Server-Timing`` parts) and ``write``: ``plan`` is
                    the compile on a plan-cache miss, the lookup and
                    rebind on a hit; ``exec`` is execution alone
``unattributed_ms`` ``duration_ms`` minus the five ``Server-Timing``
                    parts (``write`` happens after the stamp)
``query_sha256``    SHA-256 of the full query text (stable join key)
``query``           query text, truncated to 200 chars
``query_ms``        wall time of the engine call (``X-Query-Duration-ms``)
``cache``           ``"hit"`` or ``"miss"`` on the result cache
``plan``            ``"hit"`` or ``"miss"`` on the plan cache (``None``
                    on a result-cache hit, which needs no plan)
``plan_digest``     EXPLAIN digest of the plan that computed the answer
                    (on a result-cache hit, the one its miss ran),
                    rendered only when the record is kept
``generation``      source version / store generation at query time
``span_id``         W3C id of the ``sparql.query`` span — ``args.span_id``
                    of the same span in a ``--trace`` file (``None``
                    without a tracer)
``operators``       flat per-operator profile rows (a miss of a request
                    that asked to ``profile``; ``[]`` otherwise)
``misestimates``    scans whose actual rows beat the estimate 10x
==================  ====================================================
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["DEFAULT_SLOW_MS", "RING_CAPACITY", "RequestRecord", "RequestRing"]

#: Retained records the ring holds before evicting the oldest.
RING_CAPACITY = 128

#: Retention threshold when the endpoint was given none.
DEFAULT_SLOW_MS = 100.0


@dataclass(slots=True)
class RequestRecord:
    """Everything one request learned about itself.

    ``profile`` asks the engine to collect per-operator statistics on a
    miss; the ``*_ms`` layer stamps are raw floats, rounded on the way
    out."""

    route: str
    trace_id: Optional[str] = None
    profile: bool = False
    ts: float = field(default_factory=time.time)
    status: Optional[int] = None
    duration_ms: float = 0.0
    query: Optional[str] = None
    query_ms: float = 0.0
    cache: Optional[str] = None
    plan: Optional[str] = None
    query_plan: Optional[object] = None  # anything with a ``digest``
    generation: Optional[int] = None
    span_id: Optional[str] = None
    operators: List[dict] = field(default_factory=list)
    misestimates: int = 0
    cache_ms: float = 0.0
    parse_ms: float = 0.0
    plan_ms: float = 0.0
    execute_ms: float = 0.0
    serialize_ms: float = 0.0
    write_ms: float = 0.0

    def server_timing(self) -> str:
        """The ``Server-Timing`` header value: the layer stamps as sent."""
        return (f"cache;dur={self.cache_ms:.3f}, parse;dur={self.parse_ms:.3f}, "
                f"plan;dur={self.plan_ms:.3f}, exec;dur={self.execute_ms:.3f}, "
                f"ser;dur={self.serialize_ms:.3f}")

    def to_dict(self) -> Dict:
        """The JSON-ready record (bounded: the query text is truncated
        and hashed here, not when it was stamped)."""
        timings = {
            "cache": round(self.cache_ms, 3),
            "parse": round(self.parse_ms, 3),
            "plan": round(self.plan_ms, 3),
            "exec": round(self.execute_ms, 3),
            "ser": round(self.serialize_ms, 3),
        }
        out: Dict = {
            "ts": round(self.ts, 3),
            "trace_id": self.trace_id,
            "route": self.route,
            "status": self.status,
            "duration_ms": round(self.duration_ms, 3),
            "unattributed_ms": round(self.duration_ms - sum(timings.values()), 3),
            "timings_ms": dict(timings, write=round(self.write_ms, 3)),
        }
        if self.query is not None:
            out.update(
                query_sha256=hashlib.sha256(self.query.encode("utf-8")).hexdigest(),
                query=self.query[:200],
                query_ms=round(self.query_ms, 3),
                cache=self.cache,
                plan=self.plan,
                plan_digest=None if self.query_plan is None else self.query_plan.digest,
                generation=self.generation,
                span_id=self.span_id,
                operators=self.operators,
                misestimates=self.misestimates,
            )
        return out


class RequestRing:
    """The retained records, bounded by count, ordered by admission.

    Two requests may share a ``traceparent``, so the ring is a plain
    sequence, not a map: both stay listed and :meth:`get` answers the
    newest.  ``get`` answers ``None`` for ids never retained *or already
    evicted* — the ``/trace/<id>`` 404.
    """

    def __init__(self, slow_ms: Optional[float] = None,
                 capacity: int = RING_CAPACITY):
        if capacity <= 0:
            raise ValueError("request ring capacity must be positive")
        self.slow_ms = DEFAULT_SLOW_MS if slow_ms is None else float(slow_ms)
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._records: deque = deque(maxlen=self.capacity)
        self._admitted = 0  # records ever admitted ...
        self._recorded = 0  # ... and those of them that ran a query

    def retains(self, status: int, duration_ms: float) -> bool:
        return status >= 400 or duration_ms >= self.slow_ms

    def admit(self, entry: Dict) -> None:
        """Append one finalised record; at capacity the oldest drops off."""
        with self._lock:
            self._records.append(entry)
            self._admitted += 1
            self._recorded += "query" in entry

    def get(self, trace_id: str) -> Optional[Dict]:
        """The newest retained record stamped *trace_id*."""
        with self._lock:
            for record in reversed(self._records):
                if record["trace_id"] == trace_id:
                    return record
        return None

    def trace_ids(self) -> List[str]:
        with self._lock:
            return [record["trace_id"] for record in self._records]

    def queries(self) -> List[Dict]:
        """The retained records that ran a query, oldest first — the
        ``/slowlog`` entries."""
        with self._lock:
            return [r for r in self._records if "query" in r]

    def info(self) -> Dict:
        """Ring counters for ``/trace`` and ``/stats``."""
        with self._lock:
            current = len(self._records)
            return {"capacity": self.capacity, "current": current,
                    "admitted": self._admitted,
                    "evicted": self._admitted - current}

    def query_info(self) -> Dict:
        """The same counters over the records that ran a query, under the
        names ``/slowlog`` and ``/stats.slow_queries`` publish."""
        with self._lock:
            current = sum("query" in r for r in self._records)
            return {"threshold_ms": self.slow_ms, "capacity": self.capacity,
                    "current": current, "recorded": self._recorded,
                    "evicted": self._recorded - current}
