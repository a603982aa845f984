"""The request record: ring, engine integration, /slowlog route and file form."""

import json
import threading
import time
import urllib.parse
import urllib.request

import pytest

from repro.endpoint import SparqlEndpoint
from repro.obs import RequestRecord, RequestRing, Tracer, read_events, tracectx
from repro.rdf import Graph, Namespace, PROV, RDF
from repro.sparql import QueryEngine

EX = Namespace("http://example.org/")


def _tiny_graph():
    g = Graph()
    g.namespaces.bind("ex", EX)
    for i in range(4):
        g.add((EX[f"run{i}"], RDF.type, PROV.Activity))
        g.add((EX[f"run{i}"], PROV.used, EX[f"data{i}"]))
        g.add((EX[f"data{i}"], RDF.type, PROV.Entity))
    return g


ACTIVITY_QUERY = "SELECT ?r WHERE { ?r a prov:Activity } ORDER BY ?r"


def _entry(n, query=True):
    entry = {"trace_id": f"t{n}", "n": n}
    if query:
        entry["query"] = f"q{n}"
    return entry


def _run(engine, text, profile=True):
    """One query onto a request record, as the endpoint runs it; returns
    the record's dict."""
    record = RequestRecord("/sparql", "0" * 31 + "1", profile=profile)
    engine.query(text, record=record)
    record.status = 200
    return record.to_dict()


def _get_json(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return json.loads(response.read())


def _query(server, text, headers=None):
    url = server.query_url + "?" + urllib.parse.urlencode({"query": text})
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request, timeout=10) as response:
        response.read()
        return response.headers


def _wait_retained(server, count, timeout=5.0):
    """A record is finalised just *after* its response is written, so a
    client that immediately asks for it can race that; wait it out."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if server.requests.query_info()["recorded"] >= count:
            return
        time.sleep(0.005)
    raise AssertionError(f"fewer than {count} query records were retained")


class TestRingBuffer:
    def test_eviction_keeps_newest_in_order(self):
        ring = RequestRing(slow_ms=0, capacity=3)
        for i in range(5):
            ring.admit(_entry(i, query=i != 1))
        assert [e["n"] for e in ring.queries()] == [2, 3, 4]
        assert ring.trace_ids() == ["t2", "t3", "t4"]
        assert ring.info() == {"capacity": 3, "current": 3, "admitted": 5, "evicted": 2}
        info = ring.query_info()
        # entry 1 ran no query: /slowlog's counters never saw it
        assert info["recorded"] == 4
        assert info["evicted"] == 1
        assert info["current"] == 3

    def test_threshold_gate(self):
        ring = RequestRing(slow_ms=50)
        assert ring.retains(200, 50.0)
        assert ring.retains(200, 51.0)
        assert not ring.retains(200, 49.9)
        assert ring.retains(400, 0.0)  # errors are kept however fast

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            RequestRing(capacity=0)

    def test_jsonl_round_trip(self, tmp_path):
        """The file form of /slowlog: a retained request's event line
        equals its /slowlog entry field for field."""
        with SparqlEndpoint(_tiny_graph(), slow_query_ms=0,
                            obs_dir=str(tmp_path)) as server:
            _query(server, ACTIVITY_QUERY)
            _query(server, ACTIVITY_QUERY)
            _wait_retained(server, 2)
            entries = server.requests.queries()
        lines = [e for e in read_events(str(tmp_path), kind="endpoint.request")
                 if "query" in e]
        assert len(lines) == len(entries) == 2
        by_id = {line["trace_id"]: line for line in lines}
        for entry in entries:
            for field, value in entry.items():
                assert by_id[entry["trace_id"]].get(field) == value, field

    def test_empty_jsonl_round_trip(self, tmp_path):
        (tmp_path / "events.jsonl").write_text("")
        assert list(read_events(str(tmp_path), kind="endpoint.request")) == []


class TestEngineIntegration:
    def test_threshold_zero_records_every_query(self):
        engine = QueryEngine(_tiny_graph())
        record = _run(engine, ACTIVITY_QUERY)
        assert RequestRing(slow_ms=0).retains(record["status"], record["duration_ms"])
        assert record["cache"] == "miss"
        assert record["plan_digest"]
        assert record["query_sha256"]
        assert record["duration_ms"] >= 0
        # miss records carry full operator statistics with row counts
        scans = [op for op in record["operators"] if op["op"] == "scan"]
        assert scans and scans[-1]["rows_out"] == 4

    def test_high_threshold_records_nothing(self):
        engine = QueryEngine(_tiny_graph())
        record = _run(engine, ACTIVITY_QUERY)
        assert not RequestRing(slow_ms=60_000).retains(
            record["status"], record["duration_ms"])

    def test_unprofiled_record_carries_no_operators(self):
        engine = QueryEngine(_tiny_graph())
        record = _run(engine, ACTIVITY_QUERY, profile=False)
        assert record["cache"] == "miss"
        assert record["plan_digest"]
        assert record["operators"] == []
        # the plan cache keeps the compiled shape, and the record says so
        assert record["plan"] == "miss"
        assert engine.cache_info()["plans"] == {"size": 1, "hits": 0, "misses": 1,
                                                "evictions": 0}

    def test_engine_without_record_writes_nowhere(self):
        engine = QueryEngine(_tiny_graph())
        assert len(engine.query(ACTIVITY_QUERY)) == 4
        # no record: nothing renders a digest, but the plan is cached all the same
        assert engine.cache_info()["plans"]["size"] == 1

    def test_cache_hit_recorded_as_hit(self):
        engine = QueryEngine(_tiny_graph())
        miss = _run(engine, ACTIVITY_QUERY)
        hit = _run(engine, ACTIVITY_QUERY)
        assert [miss["cache"], hit["cache"]] == ["miss", "hit"]
        # a hit skipped evaluation: no operator rows, and its digest is
        # the one the miss that filled the cache memoised
        assert hit["plan_digest"] == miss["plan_digest"]
        assert hit["operators"] == []
        assert hit["plan"] is None  # a result-cache hit needs no plan
        assert hit["timings_ms"]["parse"] == hit["timings_ms"]["plan"] == 0
        assert hit["timings_ms"]["exec"] == 0

    def test_record_digest_matches_explain(self):
        engine = QueryEngine(_tiny_graph())
        record = _run(engine, ACTIVITY_QUERY)
        assert record["plan_digest"] == engine.explain(ACTIVITY_QUERY).digest

    def test_span_id_cross_references_trace(self, tmp_path):
        """Under a tracer and an active trace context, as a traced
        endpoint runs a query, the record names its query span."""
        tracer = Tracer()
        engine = QueryEngine(_tiny_graph(), tracer=tracer)
        token = tracectx.activate(tracectx.start_trace())
        try:
            span_id = _run(engine, ACTIVITY_QUERY)["span_id"]
        finally:
            tracectx.deactivate(token)
        assert len(span_id) == 16  # the W3C id, not a tracer-local integer
        trace_path = tmp_path / "trace.json"
        tracer.write(trace_path)
        from repro.obs import read_trace

        matching = [e for e in read_trace(trace_path)
                    if e["args"].get("span_id") == span_id]
        assert len(matching) == 1
        assert matching[0]["name"] == "sparql.query"

    def test_plan_built_at_most_once_per_text_and_version(self, monkeypatch):
        """A miss compiles its operator tree exactly once — the execution,
        the digest and the operator rows share it; a repeat miss of the
        same text at the same version compiles nothing (the plan cache
        hands back the tree), gives the same digest and still carries
        operator rows."""
        from repro.sparql import evaluator

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        real = evaluator._Compiler.query
        monkeypatch.setattr(evaluator._Compiler, "query", counting)
        with SparqlEndpoint(_tiny_graph(), slow_query_ms=0, cache_size=0) as server:
            _query(server, ACTIVITY_QUERY)
            assert calls == [1]
            del calls[:]
            _query(server, ACTIVITY_QUERY)
            assert calls == []
            _wait_retained(server, 2)
            first, repeat = server.requests.queries()
        assert first["cache"] == repeat["cache"] == "miss"
        assert [first["plan"], repeat["plan"]] == ["miss", "hit"]
        assert first["plan_digest"] == repeat["plan_digest"]
        assert [op["op"] for op in repeat["operators"]] == \
            [op["op"] for op in first["operators"]]
        assert [op for op in repeat["operators"] if op["op"] == "scan"][-1]["rows_out"] == 4

    def test_engine_lock_free_while_telemetry_is_written(self, tmp_path, monkeypatch):
        """No request's event line is written with the engine lock held:
        from inside ``EventLog.emit`` another thread can take the lock,
        for a miss and for a hit."""
        from repro.obs import events

        real_emit = events.EventLog.emit
        with SparqlEndpoint(_tiny_graph(), slow_query_ms=0,
                            obs_dir=str(tmp_path)) as server:
            lock = server.engine._lock
            probes = []

            def probing_emit(self, kind, **fields):
                if kind.startswith("endpoint.") and fields.get("route", "/sparql") == "/sparql":
                    def probe():
                        acquired = lock.acquire(blocking=False)
                        if acquired:
                            lock.release()
                        probes.append((fields.get("cache"), acquired))

                    helper = threading.Thread(target=probe)
                    helper.start()
                    helper.join(timeout=5)
                    assert not helper.is_alive()
                return real_emit(self, kind, **fields)

            monkeypatch.setattr(events.EventLog, "emit", probing_emit)
            _query(server, ACTIVITY_QUERY)
            _query(server, ACTIVITY_QUERY)
            _wait_retained(server, 2)
        assert {cache for cache, _ in probes} >= {"miss", "hit"}
        assert all(acquired for _, acquired in probes), probes


class TestSlowlogRoute:
    def test_disabled_endpoint_reports_disabled(self):
        with SparqlEndpoint(_tiny_graph()) as server:
            payload = _get_json(server.slowlog_url)
        assert payload == {"enabled": False, "entries": []}

    def test_route_parity_with_buffer_under_concurrency(self):
        with SparqlEndpoint(_tiny_graph(), slow_query_ms=0) as server:
            queries = [
                f"SELECT ?r WHERE {{ ?r a prov:Activity }} LIMIT {n}"
                for n in range(1, 9)
            ]
            threads = [threading.Thread(target=_query, args=(server, q))
                       for q in queries]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
            _wait_retained(server, len(queries))
            payload = _get_json(server.slowlog_url)
            assert payload["enabled"] is True
            assert payload["recorded"] == len(queries)
            assert payload["entries"] == server.requests.queries()
            hashes = {e["query_sha256"] for e in payload["entries"]}
            assert len(hashes) == len(queries)
            # every record carries the introspection fields ...
            for entry in payload["entries"]:
                assert entry["plan_digest"]
                assert entry["operators"]
                # ... and, one ring, resolves at /trace/<id> to the same record
                assert _get_json(f"{server.trace_url}/{entry['trace_id']}") == entry

    def test_entries_keep_the_published_fields(self):
        with SparqlEndpoint(_tiny_graph(), slow_query_ms=0) as server:
            _query(server, ACTIVITY_QUERY)
            _wait_retained(server, 1)
            payload = _get_json(server.slowlog_url)
        assert set(payload) == {"enabled", "threshold_ms", "capacity", "current",
                                "recorded", "evicted", "entries"}
        (entry,) = payload["entries"]
        assert set(entry) >= {"ts", "query_sha256", "query", "duration_ms", "cache",
                              "plan", "plan_digest", "generation", "trace_id", "span_id",
                              "operators", "misestimates"}

    def test_stats_reports_slowlog_section(self):
        with SparqlEndpoint(_tiny_graph(), slow_query_ms=0) as server:
            _query(server, ACTIVITY_QUERY)
            _wait_retained(server, 1)
            stats = _get_json(server.stats_url)
        assert stats["slow_queries"]["capacity"] == 128
        assert stats["slow_queries"]["recorded"] == 1
