"""SPARQL protocol endpoint over a corpus dataset.

Section 6 of the paper lists "providing access to the corpus via a SPARQL
endpoint and web interfaces" as future work; this module implements it as
an extension.  A :class:`SparqlEndpoint` wraps a graph or dataset with a
minimal SPARQL 1.1 Protocol surface on the stdlib's ``ThreadingHTTPServer``
with a request reader of its own (see below):

* ``GET /sparql?query=...`` and ``POST /sparql`` (form-encoded or
  ``application/sparql-query``, any declared charset) evaluate a query;
* SELECT results return the SPARQL JSON results format
  (``application/sparql-results+json``), or CSV when ``Accept`` gives
  ``text/csv`` the higher q-value (a tie goes to JSON);
* ASK results return the JSON boolean form;
* ``GET /`` returns a small service description with corpus statistics;
* ``GET /stats`` exposes the query-result cache counters, the source's
  version, per-request timing, and a snapshot of the metrics registry;
* ``GET /metrics`` serves the process metrics registry in Prometheus
  text exposition format (query cache, WAL fsyncs, store cache mirrors,
  per-route/status request counters, per-route request seconds);
* ``GET /healthz`` is the liveness probe: 200 plus the store generation;
* ``GET /slowlog`` lists the retained requests that ran a query (enabled
  by constructing the endpoint with ``slow_query_ms``);
* ``GET /trace/<trace_id>`` returns one retained request's record (see
  below);
* ``GET /debug/profile?seconds=N`` samples the live process over a
  window and returns collapsed (folded) stacks.

Every request has one record (see :mod:`repro.obs.request`), the only
in-process account of it, which the handler and the engine write onto.
Its trace id continues an inbound W3C ``traceparent`` header (malformed
→ fresh root trace, per spec) and is echoed on **every** response —
success and error alike — as ``X-Trace-Id``, alongside
``X-Query-Duration-ms``; ``/sparql`` answers add ``Server-Timing`` with
the record's ``cache`` / ``parse`` / ``plan`` / ``exec`` / ``ser`` layer
times.  Retention is tail-based: only a request that errored (status ≥
400) or took at least ``slow_query_ms`` (100 ms when unset) keeps its
record, in one bounded ring — ``GET /trace/<id>`` answers 404 once a
record is evicted or was never retained.  Spans are opened only under a
``tracer`` (``serve --trace FILE``): the request then runs in an active
:class:`~repro.obs.tracectx.TraceContext` under the record's trace id,
so its ``http.request`` → ``sparql.query`` spans in the trace file carry
that id.

Connections are persistent (HTTP/1.1): one handler thread per connection
answers request after request until the client sends ``Connection:
close`` (or speaks HTTP/1.0), goes quiet for ``SOCKET_TIMEOUT_S`` — the
idle connection is then closed without an answer and without being
counted as a request — or the endpoint stops (:meth:`SparqlEndpoint.stop`
shuts every live connection).  Every response carries ``Content-Length``
and leaves in one socket write, head and body together, with
``TCP_NODELAY`` set; two writes would stall each reused-connection answer
on Nagle × delayed ACK.  A response written while declared request body
is still unread — malformed, negative or oversized ``Content-Length``
(400 / 413), a stalled or short body (408 / 400), a body on a route that
takes none — says ``Connection: close`` and closes, so leftover body
bytes are never parsed as the next request.
``repro_http_connections_total`` beside ``repro_http_requests_total``
gives connections per request.

Requests are read by :meth:`_Handler.parse_request`, not the stdlib's
``email.parser``: the request line by the stdlib's rules, the header
block into a plain dict keyed by lower-cased name, at most
``MAX_LINE_BYTES`` a line and ``MAX_HEADER_LINES`` lines (431 beyond),
and with 400 and ``Connection: close`` for what RFC 9112 has a server
refuse — a line without ``:``, whitespace before the ``:``, an obs-fold
continuation line, a repeated ``Content-Length``, a field value holding
a bare CR or a NUL.  The ``query``
parameter of a GET query string or form body is extracted by
:func:`_form_value`, which equals ``urllib.parse.parse_qs`` on it and
decodes a clean value's escapes in one C call.  A request's clock starts
once its request line is read, so its duration covers the header block.

SELECT answers are serialised once: the encoded body is memoised per
media type on the immutable :class:`~repro.sparql.results.ResultTable`
(:meth:`~repro.sparql.results.ResultTable.encoded`), so a result-cache
hit writes the bytes its miss produced (``Server-Timing: ser`` ≈ 0), the
bytes are evicted with their cache entry, and ``cache_size=0`` serialises
every answer afresh.

The server is a ``ThreadingHTTPServer`` sharing one
:class:`~repro.sparql.evaluator.QueryEngine` across worker threads — the
engine's result/statistics caches are lock-protected.  Request latency
has one account, the ``repro_endpoint_request_seconds{route}`` histogram
observed at the response choke point (:meth:`_Handler._finish_request`),
so 4xx/5xx responses count toward the ``/stats`` averages exactly like
successes.  The engine's result-cache counters are plain ints that a
registry collector mirrors into ``repro_query_cache_total``, so
``/metrics`` and ``/stats.result_cache`` read the same numbers.

The server runs on a background thread (:meth:`SparqlEndpoint.start`) so
tests and examples can exercise it in-process.
"""

from __future__ import annotations

import codecs
import json
import math
import socket
import sys
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Union

from ..obs import events as _events
from ..obs import metrics as _metrics
from ..obs import profiler as _profiler
from ..obs import tracectx as _tracectx
from ..obs.request import RequestRecord, RequestRing
from ..obs.trace import span as _span
from ..store import wal as _wal  # noqa: F401  (declares the WAL metric families)
from ..rdf.graph import Dataset, Graph
from ..rdf.turtle import serialize_turtle
from ..sparql.evaluator import DEFAULT_RESULT_CACHE_SIZE, QueryEngine
from ..sparql.results import CSV, SPARQL_JSON, ResultTable
from ..sparql.tokenizer import SparqlSyntaxError

__all__ = ["SparqlEndpoint"]

#: Largest POST body the endpoint reads.  Query texts are a few KB; a
#: larger declared length is answered 413 before a byte of it is read.
MAX_BODY_BYTES = 1 << 20

#: Longest header line the endpoint reads, its line end included; a
#: longer one is answered 431.  (The stdlib's ``handle_one_request`` holds
#: the request line to the same 65,536 bytes and answers 414.)
MAX_LINE_BYTES = 65536

#: Most lines a request's header block may take, the blank line that
#: ends it included; a longer block is answered 431.
MAX_HEADER_LINES = 100

#: Longest the endpoint waits on a client's socket, in seconds.  A client
#: that connects and goes quiet, or sends less body than it declared,
#: would otherwise hold its handler thread for as long as it likes.
SOCKET_TIMEOUT_S = 30.0

_KNOWN_ROUTES = ("/", "/sparql", "/stats", "/metrics", "/healthz", "/slowlog",
                 "/trace", "/debug/profile")

_HTTP_REQUESTS = _metrics.counter(
    "repro_http_requests_total", "HTTP requests served", labels=("route", "status")
)
_HTTP_CONNECTIONS = _metrics.counter(
    "repro_http_connections_total", "TCP connections accepted"
)
_HTTP_INFLIGHT = _metrics.gauge(
    "repro_endpoint_inflight_requests",
    "HTTP requests currently being handled",
)
# The route label is bounded: _KNOWN_ROUTES plus "other".
_REQUEST_SECONDS = _metrics.histogram(
    "repro_endpoint_request_seconds", "HTTP request wall time", labels=("route",)
)

# Mirrors of plain-int counters: the engine's result cache, and the
# store's (decode LRU, dictionary intern/lookup, segment bisect probes).
# Those ints live on the hot read path where per-op registry locking
# would be measurable, so a collector copies them in just before each
# /metrics render or /stats snapshot — both views read the same
# underlying numbers.
_CACHE_EVENTS = _metrics.counter(
    "repro_query_cache_total", "Query result cache events", labels=("event",)
)
for _event in ("hit", "miss", "eviction"):
    _CACHE_EVENTS.labels(_event)
del _event
_STORE_DECODE_CACHE = _metrics.counter(
    "repro_store_decode_cache_total", "Store decode-LRU lookups", labels=("result",)
)
_STORE_INTERN = _metrics.counter(
    "repro_store_dictionary_intern_total",
    "Term dictionary intern operations",
    labels=("result",),
)
_STORE_LOOKUP = _metrics.counter(
    "repro_store_dictionary_lookup_total",
    "Term dictionary read-path lookups",
    labels=("result",),
)
_STORE_PROBES = _metrics.counter(
    "repro_store_segment_probes_total",
    "Segment binary-search record probes",
    labels=("segment",),
)
_STORE_QUADS = _metrics.gauge("repro_store_quads", "Quads in the attached store")
_STORE_TERMS = _metrics.gauge("repro_store_terms", "Terms in the attached store dictionary")
_STORE_GENERATION = _metrics.gauge(
    "repro_store_generation", "Compaction generation of the attached store"
)


def _unquote_plus(text: str) -> str:
    """``urllib.parse.unquote_plus(text)``.  An ASCII text whose every
    ``%`` starts a ``%XX`` escape — any query a client encoded itself —
    is decoded in one C call: each backslash is doubled, each ``%``
    becomes ``\\x`` and ``codecs.escape_decode`` turns the escapes into
    bytes, refusing (``ValueError``) a ``\\x`` without two hex digits
    after it.  Any other text takes the stdlib's per-escape loop."""
    if text.isascii():
        escaped = text.replace("\\", "\\\\").replace("%", "\\x").replace("+", " ")
        try:
            return codecs.escape_decode(escaped)[0].decode("utf-8", "replace")
        except ValueError:  # a % that starts no %XX escape
            pass
    return urllib.parse.unquote_plus(text)


def _form_value(text: str, key: str) -> Optional[str]:
    """The first non-empty *key* field of the form-encoded *text*, or
    None: ``urllib.parse.parse_qs(text).get(key, [None])[0]`` without
    decoding the values it does not return."""
    for field in text.split("&"):
        name, _, value = field.partition("=")
        if value and _unquote_plus(name) == key:
            return _unquote_plus(value)
    return None


def _http_version(word: str) -> Optional[tuple]:
    """``(major, minor)`` of an ``HTTP/x.y`` version word, None when it
    is malformed: one dot, and at most ten digits on either side."""
    if not word.startswith("HTTP/"):
        return None
    numbers = word[5:].split(".")
    if len(numbers) != 2 or not all(
            n.isascii() and n.isdigit() and len(n) <= 10 for n in numbers):
        return None
    return int(numbers[0]), int(numbers[1])


def _prefers_csv(accept: str) -> bool:
    """Does the ``Accept`` header *accept* rank CSV strictly above SPARQL
    JSON?  Each type takes the q-value (default 1) of its most specific
    matching range — exact, then ``type/*``, then ``*/*`` — and 0 when no
    range matches; q=0, or a malformed q, means not acceptable.  A tie
    goes to JSON."""
    ranges = []
    for media_range in accept.split(","):
        media_type, *params = media_range.split(";")
        q = 1.0
        for param in params:
            name, _, value = param.partition("=")
            if name.strip().lower() == "q":
                try:
                    q = float(value)
                except ValueError:
                    q = 0.0
                if not 0.0 <= q <= 1.0:
                    q = 0.0
        ranges.append((media_type.strip().lower(), q))
    return _quality(ranges, CSV) > _quality(ranges, SPARQL_JSON)


def _quality(ranges, media_type: str) -> float:
    ranks = {media_type: 2, media_type.split("/")[0] + "/*": 1, "*/*": 0}
    best_rank, best_q = -1, 0.0
    for media_range, q in ranges:
        rank = ranks.get(media_range, -1)
        if rank > best_rank:
            best_rank, best_q = rank, q
    return best_q


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to an engine via the server instance."""

    server_version = "ProvBenchSPARQL/1.1"
    # Persistent connections: the stdlib keeps reading requests off the
    # socket until ``close_connection`` is set — by the client's
    # ``Connection: close`` or HTTP/1.0 request line, by ``_send`` for an
    # answer that leaves request body unread, or by the idle timeout.
    protocol_version = "HTTP/1.1"
    # A response is one small-to-medium write with nothing behind it to
    # coalesce with: Nagle could only ever delay it.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # keep test output clean

    def setup(self):
        # The stdlib applies ``timeout`` to the connection here; a quiet
        # client — before its first request or between two — then times
        # out of the request-line/header read inside
        # ``handle_one_request``, which closes the connection unanswered
        # and uncounted.
        self.timeout = SOCKET_TIMEOUT_S
        super().setup()
        _HTTP_CONNECTIONS.inc()

    # -- protocol ------------------------------------------------------------

    def parse_request(self) -> bool:
        """Read the request whose line ``handle_one_request`` has just
        taken off the socket: ``command``, ``path``, ``request_version``
        and ``headers``, a plain dict keyed by lower-cased field name.
        False once an error is answered (or, for a blank line, when the
        connection is to close unanswered).

        The request line follows the stdlib's rules: 400 for bad syntax
        or version, 505 for HTTP/2.0 and later, a two-word line is an
        HTTP/0.9 GET, a leading ``//`` collapses to ``/``, and HTTP/1.0
        closes unless it asks to keep alive.  A line refused before its
        version is accepted is answered as HTTP/1.0 — status line and
        headers — not as the stdlib's bare HTTP/0.9 document.  Header
        lines are read up to the blank line (or EOF), each split at its
        first ``:`` and trimmed of surrounding whitespace; a repeated
        field keeps its first value.  Refused with 431: a line over
        ``MAX_LINE_BYTES``, a block over ``MAX_HEADER_LINES``.  Refused
        with 400 (RFC 9112 §5.1, §5.2, §6.3; RFC 9110 §5.5): a line
        without ``:``, whitespace before the ``:``, an obs-fold
        continuation line, a repeated ``Content-Length``, a value holding
        a bare CR or a NUL.  Every refusal closes the connection.

        The request's clock starts here, so reading the headers counts
        toward its duration."""
        self._started = time.perf_counter()
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = _http_version(version)
            if number is None:
                return self._refuse_line(400, f"Bad request version ({version!r})")
            if number >= (2, 0):
                return self._refuse_line(505, f"Invalid HTTP version ({version[5:]})")
            self.close_connection = number < (1, 1)
            self.request_version = version
        if not 2 <= len(words) <= 3:
            return self._refuse_line(400, f"Bad request syntax ({requestline!r})")
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                return self._refuse_line(400, f"Bad HTTP/0.9 request type ({command!r})")
        if path.startswith("//"):
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path
        headers = self._read_headers()
        if headers is None:
            return False
        self.headers = headers
        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (headers.get("expect", "").lower() == "100-continue"
                and self.request_version >= "HTTP/1.1"):
            return self.handle_expect_100()
        return True

    def _refuse_line(self, status: int, message: str) -> bool:
        """Answer a refused request line with a status line and headers,
        then close.  A line whose version was never accepted is answered
        as HTTP/1.0: the stdlib would send an HTTP/0.9 document, which a
        client reads as a broken response, not as the refusal."""
        if self.request_version == self.default_request_version:
            self.request_version = self.protocol_version = "HTTP/1.0"
        self.send_error(status, message)
        return False

    def _read_headers(self) -> Optional[dict]:
        """The header block as ``{lower-cased name: value}``, or None
        once its refusal is answered (see :meth:`parse_request`)."""
        readline = self.rfile.readline
        headers: dict = {}
        for _ in range(MAX_HEADER_LINES):
            line = readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                self.send_error(431, "Line too long")
                return None
            if line in (b"\r\n", b"\n", b""):
                return headers
            name, colon, value = str(line, "iso-8859-1").partition(":")
            name = name.lower()
            value = value.strip(" \t\r\n")
            if name.startswith((" ", "\t")):
                problem = "obs-fold continuation line"
            elif not colon:
                problem = "header line without ':'"
            elif not name or name.endswith((" ", "\t")):
                problem = "whitespace or nothing before ':'"
            elif name == "content-length" and name in headers:
                problem = "repeated Content-Length"
            elif not value.isprintable() and ("\r" in value or "\0" in value):
                problem = "bare CR or NUL in a field value"
            else:
                headers.setdefault(name, value)
                continue
            self.send_error(400, f"Bad header: {problem}")
            return None
        self.send_error(431, "Too many headers")
        return None

    def do_GET(self):
        self._handle("GET", self._do_get)

    def do_POST(self):
        self._handle("POST", self._do_post)

    def _handle(self, method: str, respond) -> None:
        """One request, one record: open it under a trace id (continuing
        an inbound ``traceparent``, malformed tolerated), answer,
        finalise it.  Under a tracer the answer runs in the activated
        trace context and an ``http.request`` span; without one no span
        is opened.

        Finalisation runs whatever happened — a request an exception
        ended before any response counts as a 500, so whatever begins is
        counted exactly once and the inflight gauge comes back down —
        after the response is written, outside every engine lock: a
        retained record enters the ring and is the event line, any other
        leaves its four endpoint fields.  The request's clock started in
        :meth:`parse_request`."""
        # A declared request body sits unread on the socket until
        # ``_do_post`` has taken all of it.  An answer written before
        # then (``_send``) closes the connection, so leftover body bytes
        # are never parsed as the next request.
        headers = self.headers
        self._body_unread = "content-length" in headers or "transfer-encoding" in headers
        parsed = urllib.parse.urlparse(self.path)
        path = parsed.path
        if path == "/trace" or path.startswith("/trace/"):
            route = "/trace"
        elif path in _KNOWN_ROUTES:
            route = path
        else:
            route = "/" if path == "" else "other"
        endpoint: "SparqlEndpoint" = self.server.endpoint  # type: ignore[attr-defined]
        ctx = _tracectx.start_trace(headers.get("traceparent"))
        record = self._record = RequestRecord(
            route, ctx.trace_id, profile=endpoint.slow_query_ms is not None)
        tracer = endpoint.tracer
        token = None if tracer is None else _tracectx.activate(ctx)
        _HTTP_INFLIGHT.inc()
        try:
            with _span(tracer, "http.request", cat="endpoint",
                       method=method, route=route) as request_span:
                respond(parsed)
                request_span.set(status=record.status)
        finally:
            if record.status is None:
                self._finish_request(500)
            if token is not None:
                _tracectx.deactivate(token)
            if endpoint.requests.retains(record.status, record.duration_ms):
                entry = record.to_dict()
                _events.emit("endpoint.request", **entry)
                endpoint.requests.admit(entry)
            else:
                _events.emit("endpoint.request", trace_id=record.trace_id,
                             route=route, status=record.status,
                             duration_ms=round(record.duration_ms, 3))

    def _do_get(self, parsed):
        if parsed.path in ("", "/"):
            self._send_service_description()
        elif parsed.path == "/stats":
            self._send_stats()
        elif parsed.path == "/metrics":
            self._send_metrics()
        elif parsed.path == "/healthz":
            self._send_healthz()
        elif parsed.path == "/slowlog":
            self._send_slowlog()
        elif parsed.path == "/trace" or parsed.path.startswith("/trace/"):
            self._send_trace(parsed.path)
        elif parsed.path == "/debug/profile":
            self._send_profile(parsed.query)
        elif parsed.path != "/sparql":
            self._send_error(404, "not found: use /sparql")
        else:
            query = _form_value(parsed.query, "query")
            if query is None:
                self._send_error(400, "missing 'query' parameter")
            else:
                self._run_query(query)

    def _do_post(self, parsed):
        if parsed.path != "/sparql":
            self._send_error(404, "not found: use /sparql")
            return
        try:
            length = int(self.headers.get("content-length", "0"))
        except ValueError:
            self._send_error(400, "malformed Content-Length header")
            return
        # rfile.read(-1) would block until the client hangs up, and an
        # unchecked length lets one request buffer whatever it declares.
        if length < 0:
            self._send_error(400, f"negative Content-Length: {length}")
            return
        if length > MAX_BODY_BYTES:
            self._send_error(
                413, f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit")
            return
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            self._send_error(
                408, f"body not received within {SOCKET_TIMEOUT_S:g} s")
            return
        if len(raw) != length:
            # A short read means the client hung up or lied about the
            # length — a client error, not a server failure.
            self._send_error(
                400,
                f"incomplete body: Content-Length {length}, received {len(raw)} bytes",
            )
            return
        # all of the declared length is read; a chunked body never is
        self._body_unread = "transfer-encoding" in self.headers
        content_type, type_params = self._parse_content_type()
        charset = type_params.get("charset", "utf-8")
        try:
            body = raw.decode(charset)
        except (LookupError, UnicodeDecodeError) as exc:
            self._send_error(400, f"cannot decode body as {charset!r}: {exc}")
            return
        if content_type == "application/sparql-query":
            query = body
        else:
            query = _form_value(body, "query")
            if query is None:
                self._send_error(400, "missing 'query' parameter")
                return
        self._run_query(query)

    def _parse_content_type(self):
        """Split Content-Type into (media type, {param: value})."""
        header = self.headers.get("content-type", "")
        parts = header.split(";")
        params = {}
        for part in parts[1:]:
            name, _, value = part.partition("=")
            params[name.strip().lower()] = value.strip().strip('"')
        return parts[0].strip().lower(), params

    # -- internals ----------------------------------------------------------------

    def _finish_request(self, status: int) -> None:
        """Stamp the request's outcome exactly once, whatever status it
        ends with: ``_send`` funnels every response through here before
        the first byte is written.  The record gets its ``status`` and
        ``duration_ms``; the request counter and latency histogram are
        fed from it."""
        record = self._record
        if record.status is not None:
            return
        record.status = status
        _HTTP_INFLIGHT.dec()
        elapsed_s = time.perf_counter() - self._started
        record.duration_ms = elapsed_s * 1000.0
        _HTTP_REQUESTS.labels(record.route, status).inc()
        _REQUEST_SECONDS.labels(record.route).observe(elapsed_s)

    def _run_query(self, query: str):
        engine: QueryEngine = self.server.engine  # type: ignore[attr-defined]
        record = self._record
        started = time.perf_counter()
        try:
            result = engine.query(query, record=record)
        except SparqlSyntaxError as exc:
            self._send_error(400, f"malformed query: {exc}")
            return
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            self._send_error(500, f"query evaluation failed: {exc}")
            return
        answered = time.perf_counter()
        record.query_ms = (answered - started) * 1000.0
        if isinstance(result, bool):
            content_type = SPARQL_JSON
            payload = json.dumps({"head": {}, "boolean": result})
        elif isinstance(result, ResultTable):
            # Serialised once per table and media type: a result-cache
            # hit hands back the table of the miss, bytes included.
            accept = self.headers.get("accept", "")
            # Only a header that names CSV at all is worth parsing.
            content_type = CSV if CSV in accept and _prefers_csv(accept) else SPARQL_JSON
            payload = result.encoded(content_type)
        elif isinstance(result, Graph):
            # CONSTRUCT / DESCRIBE results are graphs, served as Turtle.
            content_type, payload = "text/turtle", serialize_turtle(result)
        else:
            self._send_error(500, "unsupported result type")
            return
        record.serialize_ms = (time.perf_counter() - answered) * 1000.0
        self._send(200, content_type, payload, {
            "X-Query-Duration-ms": f"{record.query_ms:.3f}",
            "Server-Timing": record.server_timing(),
        })

    def _send_service_description(self):
        endpoint: "SparqlEndpoint" = self.server.endpoint  # type: ignore[attr-defined]
        payload = json.dumps(
            {
                "service": "ProvBench Wf4Ever-PROV corpus SPARQL endpoint",
                "sparql": "/sparql",
                "stats": "/stats",
                "triples": endpoint.triple_count,
                "named_graphs": endpoint.named_graph_count,
            },
            indent=2,
        )
        self._send(200, "application/json", payload)

    def _send_stats(self):
        endpoint: "SparqlEndpoint" = self.server.endpoint  # type: ignore[attr-defined]
        self._send(200, "application/json", json.dumps(endpoint.stats(), indent=2))

    def _send_metrics(self):
        # Record this request *before* rendering so the scrape that asks
        # for the counters is itself included in them.
        self._finish_request(200)
        self._send(200, "text/plain; version=0.0.4",
                   _metrics.get_registry().render_prometheus())

    def _send_slowlog(self):
        endpoint: "SparqlEndpoint" = self.server.endpoint  # type: ignore[attr-defined]
        if endpoint.slow_query_ms is None:
            payload = {"enabled": False, "entries": []}
        else:
            requests = endpoint.requests
            payload = {"enabled": True, **requests.query_info(),
                       "entries": requests.queries()}
        self._send(200, "application/json", json.dumps(payload, indent=2))

    def _send_healthz(self):
        engine: QueryEngine = self.server.engine  # type: ignore[attr-defined]
        payload = json.dumps({"status": "ok", "generation": engine.source_version()})
        self._send(200, "application/json", payload)

    def _send_trace(self, path: str):
        """``GET /trace/<trace_id>``: one retained request's record."""
        requests = self.server.endpoint.requests  # type: ignore[attr-defined]
        trace_id = path[len("/trace/"):].strip("/") if path.startswith("/trace/") else ""
        if not trace_id:
            payload = {
                "ring": requests.info(),
                "slow_ms": requests.slow_ms,
                "trace_ids": requests.trace_ids(),
            }
            self._send(200, "application/json", json.dumps(payload, indent=2))
            return
        record = requests.get(trace_id)
        if record is None:
            self._send_error(404, f"unknown or evicted trace id: {trace_id}")
            return
        self._send(200, "application/json", json.dumps(record, indent=2))

    def _send_profile(self, query: str):
        """``GET /debug/profile?seconds=N``: folded stacks of a profiler
        sampling the process over the window."""
        try:
            seconds = float(_form_value(query, "seconds") or "2")
            if not math.isfinite(seconds):
                raise ValueError(seconds)
        except ValueError:
            self._send_error(400, "malformed 'seconds' parameter")
            return
        seconds = min(max(seconds, 0.05), 60.0)
        counts, snap = _profiler.profile_window(seconds)
        extra = {
            "X-Profile-Samples": str(snap["samples_kept"]),
            "X-Profile-Dropped": str(snap["samples_dropped"]),
            "X-Profile-Hz": f"{snap['hz']:g}",
        }
        self._send(200, "text/plain", _profiler.render_folded(counts), extra)

    def _send(self, status: int, content_type: str, body: Union[str, bytes],
              extra_headers=None):
        """Write one response: head and body in a single socket write.

        On a reused connection the stdlib's two writes (``end_headers()``,
        then the body) would leave the body waiting on the client's
        delayed ACK of the head — ~40 ms per response under Nagle."""
        self._finish_request(status)
        data = body.encode("utf-8") if isinstance(body, str) else body
        started = time.perf_counter()
        # Every response, 4xx/5xx included, carries the record's id and
        # duration; a query answer's extras (engine-only time) override.
        record = self._record
        headers = {"Server": self.version_string(),
                   "Date": self.date_time_string(),
                   "Content-Type": f"{content_type}; charset=utf-8",
                   "Content-Length": str(len(data)),
                   "X-Trace-Id": record.trace_id,
                   "X-Query-Duration-ms": f"{record.duration_ms:.3f}",
                   **(extra_headers or {})}
        if self._body_unread:
            self.close_connection = True
        if self.close_connection:
            headers["Connection"] = "close"
        head = [f"{self.protocol_version} {status} {self.responses[status][0]}"]
        head += [f"{name}: {value}" for name, value in headers.items()]
        head += ["", ""]
        self.wfile.write("\r\n".join(head).encode("latin-1") + data)
        record.write_ms = (time.perf_counter() - started) * 1000.0

    def _send_error(self, status: int, message: str):
        self._send(status, "application/json", json.dumps({"error": message}))


class _EndpointServer(ThreadingHTTPServer):
    # TCPServer's default backlog of 5 drops connections when many clients
    # connect at once; size it for the concurrent workloads we advertise.
    request_queue_size = 128

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Accepted sockets not yet shut down.  Their handler threads are
        # daemons that may be parked on a kept-alive socket for
        # SOCKET_TIMEOUT_S, so stopping the accept loop alone would leave
        # them answering.
        self._connections: set = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address):
        # runs on the accept thread, so nothing is added once
        # ``shutdown()`` has returned
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address):
        # A connection its client reset, or ``close_connections`` shut
        # under a handler, is no server fault: no traceback on stderr.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def close_connections(self) -> None:
        """Shut every live connection down, both directions: a handler
        parked on one reads EOF and ends, one mid-answer fails its write."""
        with self._connections_lock:
            live = list(self._connections)
        for connection in live:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # its handler closed it first


class SparqlEndpoint:
    """An HTTP SPARQL endpoint over a corpus graph or dataset."""

    def __init__(
        self,
        source: Union[Graph, Dataset],
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
        tracer=None,
        slow_query_ms: Optional[float] = None,
        obs_dir: Optional[str] = None,
    ):
        self.source = source
        self.tracer = tracer
        # Tail-based retention: only requests at least slow_query_ms slow
        # (100 ms when unset; 0 retains all) or ending in an error keep
        # their record, in one bounded ring.  Setting slow_query_ms also
        # turns /slowlog on and makes every miss collect operator rows.
        self.slow_query_ms = slow_query_ms
        self.requests = RequestRing(slow_query_ms)
        # With an obs_dir, every request appends one line to the JSONL
        # event log there.
        self.obs_dir = obs_dir
        if obs_dir is not None:
            _events.configure(obs_dir)
        self.engine = QueryEngine(source, cache_size=cache_size, tracer=tracer)
        if isinstance(source, Dataset):
            self.triple_count = len(source)
            self.named_graph_count = len(source.graph_names())
        else:
            self.triple_count = len(source)
            self.named_graph_count = 0
        self._server = _EndpointServer((host, port), _Handler)
        self._server.engine = self.engine  # type: ignore[attr-defined]
        self._server.endpoint = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._collector = self._make_collector()
        _metrics.get_registry().register_collector(self._collector)

    def _make_collector(self):
        """A registry collector mirroring the plain-int counters of the
        engine's result cache and, for a store source, of the store."""
        engine = self.engine
        store_info = getattr(self.source, "store_info", None)
        if not callable(store_info):
            store_info = None

        def collect(registry) -> None:
            cache = engine.cache_info()
            _CACHE_EVENTS.labels("hit").set_total(cache["hits"])
            _CACHE_EVENTS.labels("miss").set_total(cache["misses"])
            _CACHE_EVENTS.labels("eviction").set_total(cache["evictions"])
            if store_info is None:
                return
            info = store_info()
            decode = info["decoded_term_cache"]
            _STORE_DECODE_CACHE.labels("hit").set_total(decode["hits"])
            _STORE_DECODE_CACHE.labels("miss").set_total(decode["misses"])
            dictionary = info["term_dictionary"]
            _STORE_INTERN.labels("hit").set_total(dictionary["intern_hits"])
            _STORE_INTERN.labels("miss").set_total(dictionary["intern_misses"])
            _STORE_LOOKUP.labels("hit").set_total(dictionary["lookup_hits"])
            _STORE_LOOKUP.labels("miss").set_total(dictionary["lookup_misses"])
            for name, probes in info["segment_probes"].items():
                _STORE_PROBES.labels(name).set_total(probes)
            _STORE_QUADS.set(info["quads"])
            _STORE_TERMS.set(info["terms"])
            _STORE_GENERATION.set(info["generation"])

        return collect

    def stats(self) -> dict:
        """Cache + timing counters served at ``GET /stats``."""
        metrics = _metrics.snapshot()
        # /sparql timing is read off the latency histogram, errors off the
        # request counter (both process-wide): nothing is booked twice.
        sparql = _REQUEST_SECONDS.labels("/sparql").snapshot()
        count = sparql["count"]
        total_ms = sparql["sum"] * 1000.0
        errors = sum(
            sample["value"]
            for sample in metrics["repro_http_requests_total"]["samples"]
            if sample["labels"]["route"] == "/sparql"
            and int(sample["labels"]["status"]) >= 400
        )
        payload = {
            "version": self.engine.source_version(),
            "result_cache": self.engine.cache_info(),
            "requests": {
                "count": count,
                "errors": int(errors),
                "total_ms": round(total_ms, 3),
                "avg_ms": round(total_ms / count, 3) if count else 0.0,
            },
            "metrics": metrics,
        }
        if self.slow_query_ms is not None:
            payload["slow_queries"] = self.requests.query_info()
        payload["tracing"] = {
            "slow_ms": self.requests.slow_ms,
            "ring": self.requests.info(),
        }
        # Store-backed sources (repro.store.StoreDataset) report segment,
        # dictionary, and decoded-term-cache sizes alongside cache counters.
        store_info = getattr(self.source, "store_info", None)
        if callable(store_info):
            payload["store"] = store_info()
        return payload

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def query_url(self) -> str:
        return f"{self.url}/sparql"

    @property
    def stats_url(self) -> str:
        return f"{self.url}/stats"

    @property
    def metrics_url(self) -> str:
        return f"{self.url}/metrics"

    @property
    def healthz_url(self) -> str:
        return f"{self.url}/healthz"

    @property
    def slowlog_url(self) -> str:
        return f"{self.url}/slowlog"

    @property
    def trace_url(self) -> str:
        return f"{self.url}/trace"

    def start(self) -> "SparqlEndpoint":
        """Serve on a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("endpoint already started")
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, then shut every live connection: nothing is
        answered once this returns, kept-alive sockets included."""
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._server.close_connections()
        self._server.server_close()
        if self._collector is not None:
            _metrics.get_registry().unregister_collector(self._collector)
            self._collector = None

    def __enter__(self) -> "SparqlEndpoint":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
