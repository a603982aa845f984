"""End-to-end request tracing and profiling on the SPARQL endpoint.

One record per request, one id: the ``traceparent`` a client sends
comes back as ``X-Trace-Id`` (on errors too) and names the same retained
record at ``/slowlog``, at ``GET /trace/<id>`` and in the event log.
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
    def test_span_tree_retrievable_by_trace_id(self, endpoint):
        with _get(_query_url(endpoint), {"traceparent": TRACEPARENT}):
            pass
        _wait_admitted(endpoint, TRACE_ID)
        with _get(endpoint.url + "/trace/" + TRACE_ID) as response:
            record = json.loads(response.read())
        assert record["trace_id"] == TRACE_ID
        assert record["route"] == "/sparql"
        assert record["status"] == 200
        names = {span["name"] for span in record["spans"]}
        assert "http.request" in names
        assert "sparql.query" in names
        (root,) = record["tree"]
        assert root["name"] == "http.request"
        assert root["children"], "query spans must nest under the request"

    def test_trace_spans_are_the_tracer_events(self):
        """One span shape: the ring's span list is the tracer's events."""
        g = Graph()
        g.add((EX.r1, RDF.type, PROV.Activity))
        tracer = Tracer()
        server = SparqlEndpoint(g, tracer=tracer, slow_query_ms=0.0).start()
        try:
            with _get(_query_url(server), {"traceparent": TRACEPARENT}):
                pass
            _wait_admitted(server, TRACE_ID)
            with _get(server.url + "/trace/" + TRACE_ID) as response:
                spans = json.loads(response.read())["spans"]
        finally:
            server.stop()
        traced = [e for e in tracer.events() if e["args"].get("trace_id") == TRACE_ID]
        assert spans == traced
        assert {span["name"] for span in spans} >= {"http.request", "sparql.query"}
        for span in spans:
            assert span["ph"] == "X"
            assert isinstance(span["ts"], int) and isinstance(span["dur"], int)
            assert span["args"]["span_id"]

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
        with _get(endpoint.url + "/stats") as response:
            stats = json.loads(response.read())
        assert stats["tracing"]["slow_ms"] == 0.0
        assert "admitted" in stats["tracing"]["ring"]
        assert stats["profiler"] == {"running": False}

    def test_always_on_profiler_lifecycle(self):
        from repro.obs import profiler as profiler_mod

        g = Graph()
        g.add((EX.r1, RDF.type, PROV.Activity))
        server = SparqlEndpoint(g, profile_hz=100.0).start()
        try:
            with _get(server.url + "/stats") as response:
                stats = json.loads(response.read())
            assert stats["profiler"]["running"] is True
            assert stats["profiler"]["hz"] == 100.0
            with _get(server.url + "/debug/profile?seconds=0.2") as response:
                assert response.read().decode().strip()
        finally:
            server.stop()
        assert profiler_mod.get_profiler() is None
