"""End-to-end request tracing and profiling on the SPARQL endpoint.

One record per request, one id: the ``traceparent`` a client sends
comes back as ``X-Trace-Id`` (on errors too) and names the same retained
record at ``/slowlog``, at ``GET /trace/<id>`` and in the event log.
Spans exist only under a tracer, stamped with that id.
"""

import json
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.endpoint import SparqlEndpoint
from repro.obs import RequestRing, Tracer, read_events
from repro.rdf import Graph, Namespace, PROV, RDF

EX = Namespace("http://example.org/")

TRACEPARENT = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
TRACE_ID = "4bf92f3577b34da6a3ce929d0e0e4736"


@pytest.fixture()
def endpoint():
    g = Graph()
    g.namespaces.bind("ex", EX)
    g.add((EX.r1, RDF.type, PROV.Activity))
    # slow_query_ms=0 retains every request's record, so tests can
    # retrieve them deterministically.
    server = SparqlEndpoint(g, slow_query_ms=0.0).start()
    yield server
    server.stop()


def _get(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    return urllib.request.urlopen(request, timeout=10)


def _wait_admitted(server, trace_id, timeout=5.0):
    """A record is finalised just *after* the response is written, so a
    client that immediately asks for it can race that; wait it out."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if server.requests.get(trace_id) is not None:
            return
        time.sleep(0.005)
    raise AssertionError(f"trace {trace_id} never admitted to the ring")


def _query_url(endpoint, query="SELECT ?x WHERE { ?x a prov:Activity }"):
    return endpoint.query_url + "?" + urllib.parse.urlencode({"query": query})


class TestTraceHeaders:
    def test_inbound_traceparent_echoed(self, endpoint):
        with _get(_query_url(endpoint), {"traceparent": TRACEPARENT}) as response:
            assert response.headers["X-Trace-Id"] == TRACE_ID
            assert float(response.headers["X-Query-Duration-ms"]) >= 0.0

    def test_fresh_root_without_traceparent(self, endpoint):
        with _get(_query_url(endpoint)) as response:
            trace_id = response.headers["X-Trace-Id"]
        assert len(trace_id) == 32
        assert trace_id != "0" * 32

    def test_malformed_traceparent_restarts_trace(self, endpoint):
        with _get(_query_url(endpoint), {"traceparent": "00-000-bad"}) as response:
            trace_id = response.headers["X-Trace-Id"]
        assert len(trace_id) == 32
        assert trace_id != "000"

    def test_error_responses_carry_headers(self, endpoint):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(endpoint.query_url)  # missing query parameter → 400
        error = excinfo.value
        assert error.code == 400
        assert len(error.headers["X-Trace-Id"]) == 32
        assert float(error.headers["X-Query-Duration-ms"]) >= 0.0

    def test_404_carries_headers(self, endpoint):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(endpoint.url + "/nope", {"traceparent": TRACEPARENT})
        assert excinfo.value.code == 404
        assert excinfo.value.headers["X-Trace-Id"] == TRACE_ID


class TestTraceRing:
    def test_record_retrievable_by_trace_id(self, endpoint):
        """``/trace/<id>`` is the retained record, as ``/slowlog`` lists it."""
        with _get(_query_url(endpoint), {"traceparent": TRACEPARENT}):
            pass
        _wait_admitted(endpoint, TRACE_ID)
        with _get(endpoint.url + "/trace/" + TRACE_ID) as response:
            record = json.loads(response.read())
        assert record["trace_id"] == TRACE_ID
        assert record["route"] == "/sparql"
        assert record["status"] == 200
        assert record["cache"] == "miss"
        assert set(record["timings_ms"]) == {"cache", "parse", "plan", "exec", "ser", "write"}
        with _get(endpoint.url + "/slowlog") as response:
            (entry,) = json.loads(response.read())["entries"]
        assert entry == record

    def test_trace_spans_are_the_tracer_events(self):
        """A request's spans live in the tracer alone, stamped with its
        record's trace id and nested request → query; the record names
        its query span."""
        g = Graph()
        g.add((EX.r1, RDF.type, PROV.Activity))
        tracer = Tracer()
        server = SparqlEndpoint(g, tracer=tracer, slow_query_ms=0.0).start()
        try:
            with _get(_query_url(server), {"traceparent": TRACEPARENT}):
                pass
            _wait_admitted(server, TRACE_ID)
            with _get(server.url + "/trace/" + TRACE_ID) as response:
                record = json.loads(response.read())
        finally:
            server.stop()
        assert "spans" not in record
        spans = {e["name"]: e for e in tracer.events()
                 if e["args"].get("trace_id") == TRACE_ID}
        assert set(spans) >= {"http.request", "sparql.query"}
        request, query = spans["http.request"], spans["sparql.query"]
        assert request["args"]["parent_id"] == "00f067aa0ba902b7"  # the inbound span
        assert query["args"]["parent_id"] == request["args"]["span_id"]
        assert record["span_id"] == query["args"]["span_id"]
        for span in spans.values():
            assert span["ph"] == "X"
            assert isinstance(span["ts"], int) and isinstance(span["dur"], int)

    def test_unknown_trace_id_404(self, endpoint):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(endpoint.url + "/trace/" + "ab" * 16)
        assert excinfo.value.code == 404

    def test_evicted_trace_id_404(self, endpoint):
        endpoint.requests = RequestRing(slow_ms=0.0, capacity=1)
        ids = []
        for _ in range(2):
            with _get(_query_url(endpoint)) as response:
                ids.append(response.headers["X-Trace-Id"])
        first, second = ids
        _wait_admitted(endpoint, second)  # admitting the 2nd evicts the 1st
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(endpoint.url + "/trace/" + first)
        assert excinfo.value.code == 404

    def test_trace_index_lists_ids(self, endpoint):
        with _get(_query_url(endpoint), {"traceparent": TRACEPARENT}):
            pass
        _wait_admitted(endpoint, TRACE_ID)
        with _get(endpoint.url + "/trace") as response:
            payload = json.loads(response.read())
        assert TRACE_ID in payload["trace_ids"]
        assert payload["ring"]["admitted"] >= 1

    def test_fast_requests_not_admitted(self):
        g = Graph()
        g.add((EX.r1, RDF.type, PROV.Activity))
        server = SparqlEndpoint(g, slow_query_ms=60_000.0).start()
        try:
            with _get(_query_url(server), {"traceparent": TRACEPARENT}):
                pass
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/trace/" + TRACE_ID)
            assert excinfo.value.code == 404
        finally:
            server.stop()

    def test_errors_admitted_even_when_fast(self):
        g = Graph()
        g.add((EX.r1, RDF.type, PROV.Activity))
        server = SparqlEndpoint(g, slow_query_ms=60_000.0).start()
        try:
            with pytest.raises(urllib.error.HTTPError):
                _get(server.query_url, {"traceparent": TRACEPARENT})  # 400
            _wait_admitted(server, TRACE_ID)
            with _get(server.url + "/trace/" + TRACE_ID) as response:
                record = json.loads(response.read())
            assert record["status"] == 400
        finally:
            server.stop()


class TestSlowlogJoin:
    def test_slowlog_record_carries_trace_id(self, endpoint):
        with _get(_query_url(endpoint), {"traceparent": TRACEPARENT}):
            pass
        _wait_admitted(endpoint, TRACE_ID)
        with _get(endpoint.url + "/slowlog") as response:
            payload = json.loads(response.read())
        assert any(e.get("trace_id") == TRACE_ID for e in payload["entries"])

    def test_shared_traceparent_lists_both_requests(self, endpoint):
        for limit in (1, 2):
            with _get(_query_url(endpoint, f"SELECT ?x WHERE {{ ?x a prov:Activity }} LIMIT {limit}"),
                      {"traceparent": TRACEPARENT}):
                pass
        deadline = time.monotonic() + 5.0
        while endpoint.requests.info()["admitted"] < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        with _get(endpoint.url + "/slowlog") as response:
            entries = json.loads(response.read())["entries"]
        shared = [e for e in entries if e["trace_id"] == TRACE_ID]
        assert len(shared) == 2
        # one ring: /trace lists both too, and /trace/<id> answers the newest
        with _get(endpoint.url + "/trace") as response:
            assert json.loads(response.read())["trace_ids"].count(TRACE_ID) == 2
        with _get(endpoint.url + "/trace/" + TRACE_ID) as response:
            assert json.loads(response.read())["query"] == shared[-1]["query"]


class TestServerTiming:
    @staticmethod
    def _parts(header):
        parts = {}
        for part in header.split(","):
            name, _, dur = part.strip().partition(";dur=")
            assert len(dur.partition(".")[2]) == 3, part  # three decimals
            parts[name] = float(dur)
        return parts

    def test_layer_timings_published_and_bounded(self, endpoint):
        seen = []
        for _ in range(2):  # a miss, then a hit on the same text
            with _get(_query_url(endpoint)) as response:
                response.read()
                seen.append((response.headers["X-Trace-Id"],
                             self._parts(response.headers["Server-Timing"]),
                             float(response.headers["X-Query-Duration-ms"])))
        for trace_id, parts, query_ms in seen:
            assert list(parts) == ["cache", "parse", "plan", "exec", "ser"]
            assert all(value >= 0.0 for value in parts.values())
            assert parts["parse"] + parts["plan"] + parts["exec"] <= query_ms
            _wait_admitted(endpoint, trace_id)
            record = endpoint.requests.get(trace_id)
            assert sum(parts.values()) <= record["duration_ms"] + 0.003  # 5 roundings
            timings = record["timings_ms"]
            assert {name: timings[name] for name in parts} == parts
            assert timings["write"] >= 0.0
            assert record["unattributed_ms"] == pytest.approx(
                record["duration_ms"] - sum(parts.values()), abs=0.004)
        (_, miss, _), (_, hit, _) = seen
        assert miss["parse"] > 0.0 and miss["plan"] > 0.0 and miss["exec"] > 0.0
        assert hit["parse"] == hit["plan"] == hit["exec"] == 0.0

    def test_only_query_answers_carry_it(self, endpoint):
        with _get(endpoint.url + "/healthz") as response:
            assert "Server-Timing" not in response.headers


class TestRequestEvents:
    def test_one_line_per_request_carrying_the_trace_id(self, tmp_path):
        g = Graph()
        g.add((EX.r1, RDF.type, PROV.Activity))
        # nothing here is slow: every request leaves its four-field line,
        # the errored one its whole record
        server = SparqlEndpoint(g, slow_query_ms=60_000.0, obs_dir=str(tmp_path)).start()
        try:
            sent = []
            with _get(_query_url(server)) as response:
                sent.append(("/sparql", 200, response.headers["X-Trace-Id"]))
            with _get(server.url + "/healthz") as response:
                sent.append(("/healthz", 200, response.headers["X-Trace-Id"]))
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.query_url)  # missing query parameter → 400
            sent.append(("/sparql", 400, excinfo.value.headers["X-Trace-Id"]))
            # lines are written as each handler finalises, after its
            # response: wait for the last, in whatever order they land
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                lines = list(read_events(str(tmp_path)))
                if len(lines) >= len(sent):
                    break
                time.sleep(0.005)
        finally:
            server.stop()
        assert [line["kind"] for line in lines] == ["endpoint.request"] * len(sent)
        by_id = {line["trace_id"]: line for line in lines}
        assert sorted((l["route"], l["status"], l["trace_id"]) for l in lines) == sorted(sent)
        assert set(by_id[sent[0][2]]) == {"v", "ts", "pid", "kind", "trace_id",
                                          "route", "status", "duration_ms"}
        assert "timings_ms" in by_id[sent[2][2]]  # retained: the whole record


class TestProfileRoute:
    def test_folded_output(self, endpoint):
        with _get(endpoint.url + "/debug/profile?seconds=0.2") as response:
            folded = response.read().decode()
            assert int(response.headers["X-Profile-Samples"]) >= 1
        assert folded.strip(), "sampling a live process must see stacks"
        for line in folded.strip().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and count.isdigit()

    def test_bad_params_400(self, endpoint):
        for query in ("seconds=nope", "seconds=inf", "seconds=nan"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(endpoint.url + "/debug/profile?" + query)
            assert excinfo.value.code == 400

    def test_stats_reports_tracing_and_profiler(self, endpoint):
        """The ring is on ``/stats``; a profiler runs only inside a
        ``/debug/profile`` window, so there is no profiler section."""
        with _get(endpoint.url + "/stats") as response:
            stats = json.loads(response.read())
        assert stats["tracing"]["slow_ms"] == 0.0
        assert "admitted" in stats["tracing"]["ring"]
        assert "profiler" not in stats

    def test_handler_frame_names_the_route(self, endpoint):
        """The thread serving the window is sampled inside its handler."""
        with _get(endpoint.url + "/debug/profile?seconds=0.2") as response:
            folded = response.read().decode()
        assert any("_send_profile (endpoint/server.py:" in line
                   for line in folded.splitlines())


def _cache_series(server):
    with _get(server.metrics_url) as response:
        text = response.read().decode()
    prefix = 'repro_query_cache_total{event="'
    series = {}
    for line in text.splitlines():
        if line.startswith(prefix):
            event, _, value = line[len(prefix):].partition('"} ')
            series[event] = float(value)
    return series


class TestOneAccount:
    """A request is told once: its record, not spans, without a tracer,
    and each result-cache fact is one plain int that ``/metrics`` and
    ``/stats`` both read."""

    def test_untraced_requests_construct_no_span(self, endpoint, monkeypatch):
        from repro.obs import trace

        made = []
        real_init = trace.Span.__init__

        def counting_init(span, *args, **kwargs):
            made.append(args)
            real_init(span, *args, **kwargs)

        monkeypatch.setattr(trace.Span, "__init__", counting_init)
        for _ in range(2):  # a cold request, then a cached one
            with _get(_query_url(endpoint)) as response:
                response.read()
                assert len(response.headers["X-Trace-Id"]) == 32
                assert response.headers["Server-Timing"].startswith("cache;dur=")
        info = endpoint.engine.cache_info()
        assert (info["misses"], info["hits"]) == (1, 1)
        assert made == []

    def test_metrics_cache_series_equal_stats(self):
        g = Graph()
        g.add((EX.r1, RDF.type, PROV.Activity))
        with SparqlEndpoint(g, cache_size=1) as server:
            for limit in (1, 1, 2, 1):  # miss, hit, miss + eviction, miss + eviction
                query = f"SELECT ?x WHERE {{ ?x a prov:Activity }} LIMIT {limit}"
                with _get(_query_url(server, query)) as response:
                    response.read()
            series = _cache_series(server)
            with _get(server.stats_url) as response:
                cache = json.loads(response.read())["result_cache"]
        assert (cache["hits"], cache["misses"], cache["evictions"]) == (1, 3, 2)
        assert series == {"hit": cache["hits"], "miss": cache["misses"],
                          "eviction": cache["evictions"]}


class TestRequestClock:
    """A request's duration runs from the moment its request line has
    been read: the header block is part of what it reports."""

    class _SlowHeaders:
        """The handler's ``rfile``, stalling on the first header line."""

        def __init__(self, rfile):
            self._rfile = rfile
            self._lines = 0

        def readline(self, *args):
            self._lines += 1
            if self._lines == 2:  # line 1 is the request line
                time.sleep(0.05)
            return self._rfile.readline(*args)

        def read(self, *args):
            return self._rfile.read(*args)

        def close(self):
            self._rfile.close()

    def test_header_read_counts_toward_duration(self, endpoint, monkeypatch):
        from repro.endpoint import server as endpoint_server

        original_setup = endpoint_server._Handler.setup

        def setup(handler):
            original_setup(handler)
            handler.rfile = self._SlowHeaders(handler.rfile)

        monkeypatch.setattr(endpoint_server._Handler, "setup", setup)
        with _get(endpoint.url + "/healthz", {"traceparent": TRACEPARENT}) as response:
            duration_ms = float(response.headers["X-Query-Duration-ms"])
        assert duration_ms >= 50.0
        _wait_admitted(endpoint, TRACE_ID)
        assert endpoint.requests.get(TRACE_ID)["duration_ms"] >= 50.0
