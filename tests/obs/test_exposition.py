"""HTTP exposition tests: ``/metrics``, ``/healthz``, and stats parity.

These go through the process-global registry (shared with every other
test in the session), so counter assertions are deltas or floors —
never exact totals.  Format validity reuses the line grammar from
``test_metrics.assert_prometheus_valid``.
"""

from __future__ import annotations

import json
import re
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.endpoint import SparqlClient, SparqlEndpoint
from repro.rdf import Graph, Namespace, PROV, RDF

from .test_metrics import assert_prometheus_valid

EX = Namespace("http://example.org/")


def _get(url):
    with urllib.request.urlopen(url) as response:
        return response.status, response.headers.get("Content-Type"), response.read()


def _metric_value(body: str, name: str, labels: str = "") -> float:
    series = f"{name}{{{labels}}}" if labels else name
    for line in body.splitlines():
        if line.startswith(series + " "):
            return float(line.split()[-1])
    raise AssertionError(f"series {series!r} not found in exposition")


def _bad_query(query_url: str) -> int:
    try:
        urllib.request.urlopen(query_url + "?query=" + urllib.parse.quote("NOT SPARQL"))
    except urllib.error.HTTPError as err:
        return err.code
    raise AssertionError("malformed query unexpectedly succeeded")


@pytest.fixture(scope="module")
def endpoint():
    g = Graph()
    g.namespaces.bind("ex", EX)
    g.add((EX.r1, RDF.type, PROV.Activity))
    g.add((EX.e1, RDF.type, PROV.Entity))
    server = SparqlEndpoint(g).start()
    yield server
    server.stop()


@pytest.fixture(scope="module")
def client(endpoint):
    return SparqlClient(endpoint.query_url)


class TestMetricsRoute:
    def test_serves_valid_prometheus_text(self, endpoint, client):
        client.query("ASK { ?x a prov:Activity }")
        status, content_type, body = _get(endpoint.metrics_url)
        assert status == 200
        assert content_type.startswith("text/plain; version=0.0.4")
        text = body.decode("utf-8")
        assert_prometheus_valid(text)
        for family in (
            "repro_http_requests_total",
            "repro_endpoint_request_seconds",
            "repro_query_cache_total",
            "repro_query_seconds",
            "repro_store_wal_fsync_total",
        ):
            assert f"# TYPE {family}" in text

    def test_request_counter_has_per_status_children(self, endpoint, client):
        client.query("SELECT ?x WHERE { ?x a prov:Activity }")
        assert _bad_query(endpoint.query_url) == 400
        text = _get(endpoint.metrics_url)[2].decode("utf-8")
        ok = _metric_value(text, "repro_http_requests_total",
                           'route="/sparql",status="200"')
        bad = _metric_value(text, "repro_http_requests_total",
                            'route="/sparql",status="400"')
        assert ok >= 1 and bad >= 1

    def test_scrape_includes_itself(self, endpoint):
        first = _metric_value(_get(endpoint.metrics_url)[2].decode("utf-8"),
                              "repro_http_requests_total",
                              'route="/metrics",status="200"')
        second = _metric_value(_get(endpoint.metrics_url)[2].decode("utf-8"),
                               "repro_http_requests_total",
                               'route="/metrics",status="200"')
        assert second == first + 1

    def test_query_cache_metrics_move_on_hit(self, endpoint, client):
        text = _get(endpoint.metrics_url)[2].decode("utf-8")
        before_hits = _metric_value(text, "repro_query_cache_total", 'event="hit"')
        query = "SELECT ?x WHERE { ?x a prov:Entity }"
        client.query(query)
        client.query(query)
        text = _get(endpoint.metrics_url)[2].decode("utf-8")
        assert _metric_value(text, "repro_query_cache_total", 'event="hit"') > before_hits


class TestHealthz:
    def test_healthz_reports_ok_and_generation(self, endpoint):
        status, content_type, body = _get(endpoint.healthz_url)
        assert status == 200
        assert content_type.startswith("application/json")
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert "generation" in payload


class TestStatsTiming:
    def test_failed_requests_count_toward_timing(self, endpoint, client):
        before = client.stats()["requests"]
        assert _bad_query(endpoint.query_url) == 400
        after = client.stats()["requests"]
        # The 400 must land in count, errors, and the latency aggregates
        # (before this fix only 2xx responses were timed).
        assert after["count"] == before["count"] + 1
        assert after["errors"] == before["errors"] + 1
        assert after["total_ms"] > before["total_ms"]

    def test_stats_carries_registry_snapshot(self, endpoint, client):
        stats = client.stats()
        assert "repro_http_requests_total" in stats["metrics"]
        assert stats["metrics"]["repro_http_requests_total"]["type"] == "counter"


class TestStoreBackedParity:
    @pytest.fixture()
    def store_endpoint(self, tmp_path):
        from repro.store import QuadStore, StoreDataset

        store = QuadStore(tmp_path / "store")
        store.begin_file("t.ttl", "00" * 32)
        ids = [store.add_term(t)
               for t in (EX.r1, RDF.type, PROV.Activity, EX.e1, PROV.Entity)]
        store.add_quad(ids[0], ids[1], ids[2])
        store.add_quad(ids[3], ids[1], ids[4])
        store.commit_file()
        store.compact()
        with SparqlEndpoint(StoreDataset(store)) as server:
            yield server
        store.close()

    def test_stats_and_metrics_agree_on_store_counters(self, store_endpoint):
        client = SparqlClient(store_endpoint.query_url)
        client.query("SELECT ?x WHERE { ?x a prov:Activity }")
        client.query("ASK { ?x a prov:Entity }")
        text = _get(store_endpoint.metrics_url)[2].decode("utf-8")
        stats = client.stats()

        cache = stats["store"]["decoded_term_cache"]
        assert _metric_value(text, "repro_store_decode_cache_total",
                             'result="hit"') == cache["hits"]
        assert _metric_value(text, "repro_store_decode_cache_total",
                             'result="miss"') == cache["misses"]

        dictionary = stats["store"]["term_dictionary"]
        for family, prefix in (
            ("repro_store_dictionary_intern_total", "intern"),
            ("repro_store_dictionary_lookup_total", "lookup"),
        ):
            for result, key in (("hit", "hits"), ("miss", "misses")):
                assert _metric_value(text, family, f'result="{result}"') == (
                    dictionary[f"{prefix}_{key}"]
                ), (family, result)

        probes = sum(stats["store"]["segment_probes"].values())
        total = sum(
            float(line.split()[-1]) for line in text.splitlines()
            if line.startswith("repro_store_segment_probes_total{")
        )
        assert total == probes

        assert _metric_value(text, "repro_store_quads") == stats["store"]["quads"]
        assert _metric_value(text, "repro_store_generation") == stats["store"]["generation"]

    def test_healthz_reports_store_generation(self, store_endpoint):
        payload = json.loads(_get(store_endpoint.healthz_url)[2])
        assert payload == {"status": "ok", "generation": 1}
