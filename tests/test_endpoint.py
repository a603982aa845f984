"""Tests for the SPARQL endpoint (server + client)."""

import io
import json
import socket
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.endpoint import SparqlClient, SparqlEndpoint
from repro.endpoint import server as endpoint_server
from repro.obs import metrics
from repro.rdf import Dataset, Graph, Namespace, PROV, RDF

EX = Namespace("http://example.org/")


@pytest.fixture(scope="module")
def endpoint():
    g = Graph()
    g.namespaces.bind("ex", EX)
    g.add((EX.r1, RDF.type, PROV.Activity))
    g.add((EX.r2, RDF.type, PROV.Activity))
    g.add((EX.e1, RDF.type, PROV.Entity))
    server = SparqlEndpoint(g).start()
    yield server
    server.stop()


@pytest.fixture(scope="module")
def client(endpoint):
    return SparqlClient(endpoint.query_url)


class TestProtocol:
    def test_get_select(self, client):
        rows = client.query("SELECT ?x WHERE { ?x a prov:Activity } ORDER BY ?x")
        assert [r["x"] for r in rows] == ["http://example.org/r1", "http://example.org/r2"]

    def test_post_sparql_query_body(self, client):
        rows = client.query("SELECT (COUNT(?x) AS ?n) WHERE { ?x a prov:Activity }",
                            method="POST")
        assert rows[0]["n"] == 2

    def test_post_form_encoded(self, endpoint):
        import urllib.parse

        body = urllib.parse.urlencode({"query": "ASK { ?x a prov:Entity }"}).encode()
        request = urllib.request.Request(
            endpoint.query_url, data=body,
            headers={"Content-Type": "application/x-www-form-urlencoded"},
        )
        with urllib.request.urlopen(request, timeout=5) as response:
            assert json.loads(response.read())["boolean"] is True

    def test_ask(self, client):
        assert client.query("ASK { ?x a prov:Activity }") is True
        assert client.query("ASK { ?x prov:used ?y }") is False

    def test_csv_accept_header(self, endpoint):
        import urllib.parse

        url = endpoint.query_url + "?" + urllib.parse.urlencode(
            {"query": "SELECT ?x WHERE { ?x a prov:Entity }"}
        )
        request = urllib.request.Request(url, headers={"Accept": "text/csv"})
        with urllib.request.urlopen(request, timeout=5) as response:
            text = response.read().decode()
        assert text.splitlines()[0] == "x"

    @pytest.mark.parametrize("accept,served", [
        ("text/csv", "text/csv"),
        ("text/csv;charset=utf-8", "text/csv"),
        ("application/sparql-results+json, text/csv;q=0.1",
         "application/sparql-results+json"),
        ("text/csv;q=0", "application/sparql-results+json"),
        ("text/csv;q=0.5, application/sparql-results+json;q=0.4", "text/csv"),
        ("text/csv; q=1.0 , application/sparql-results+json;q=0.9", "text/csv"),
        # a tie goes to JSON
        ("application/sparql-results+json;q=0.5, text/csv;q=0.5",
         "application/sparql-results+json"),
        # the most specific range decides a type's q
        ("*/*;q=0.1, text/csv", "text/csv"),
        ("text/*;q=0.9, text/csv;q=0.2, application/*;q=0.5",
         "application/sparql-results+json"),
        # a malformed or out-of-range q is not acceptable
        ("text/csv;q=abc", "application/sparql-results+json"),
        ("text/csv;q=2", "application/sparql-results+json"),
    ])
    def test_accept_q_values(self, endpoint, accept, served):
        url = endpoint.query_url + "?" + urllib.parse.urlencode(
            {"query": "SELECT ?x WHERE { ?x a prov:Entity }"}
        )
        request = urllib.request.Request(url, headers={"Accept": accept})
        with urllib.request.urlopen(request, timeout=5) as response:
            content_type = response.headers["Content-Type"]
            body = response.read().decode()
        assert content_type.split(";")[0] == served
        if served == "text/csv":
            assert body.splitlines() == ["x", "http://example.org/e1"]
        else:
            assert json.loads(body)["head"]["vars"] == ["x"]

    def test_service_description(self, endpoint):
        with urllib.request.urlopen(endpoint.url + "/", timeout=5) as response:
            payload = json.loads(response.read())
        assert payload["sparql"] == "/sparql"
        assert payload["triples"] == 3

    def test_malformed_query_400(self, endpoint):
        import urllib.parse

        url = endpoint.query_url + "?" + urllib.parse.urlencode({"query": "SELEC bogus"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(url, timeout=5)
        assert err.value.code == 400

    def test_malformed_string_escape_400(self, endpoint):
        """An escape the grammar has no meaning for is a malformed query
        (400 with its position), not an evaluation failure (500)."""
        for literal in ('"a\\q"', '"\\u00ZZ"'):
            text = f"SELECT * {{ ?s ?p {literal} }}"
            url = endpoint.query_url + "?" + urllib.parse.urlencode({"query": text})
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(url, timeout=5)
            assert err.value.code == 400
            assert b"line 1, column 18: malformed string escape" in err.value.read()

    def test_grouped_projection_400(self, endpoint):
        """A projected variable outside GROUP BY is a malformed query
        (SPARQL 1.1 §11.4): 400 before any scan, not a 500 from the
        evaluator — whether or not the WHERE matches."""
        for where in ("?r a prov:Activity", "?r prov:wasDerivedFrom ?x"):
            text = f"SELECT (COUNT(?r) AS ?n) ?x WHERE {{ {where} }} GROUP BY ?r"
            url = endpoint.query_url + "?" + urllib.parse.urlencode({"query": text})
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(url, timeout=5)
            assert err.value.code == 400
            assert b"GROUP BY" in err.value.read()

    def test_scope_errors_400(self, endpoint):
        """BIND and aggregate scope errors are malformed queries: the
        compiler's 400, before any scan."""
        from tests.sparql.test_evaluator import SCOPE_ERRORS

        for text, message in SCOPE_ERRORS.values():
            url = endpoint.query_url + "?" + urllib.parse.urlencode({"query": text})
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(url, timeout=5)
            assert err.value.code == 400
            assert message.encode() in err.value.read()

    def test_missing_query_param_400(self, endpoint):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(endpoint.query_url, timeout=5)
        assert err.value.code == 400

    def test_unknown_path_404(self, endpoint):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(endpoint.url + "/other", timeout=5)
        assert err.value.code == 404

    def test_client_decodes_numbers(self, client):
        rows = client.query("SELECT (COUNT(?x) AS ?n) WHERE { ?x ?p ?o }")
        assert isinstance(rows[0]["n"], int)

    def test_post_honors_declared_charset(self, endpoint):
        query = "SELECT ?x WHERE { ?x a prov:Activity } ORDER BY ?x"
        request = urllib.request.Request(
            endpoint.query_url,
            data=query.encode("utf-16"),
            headers={"Content-Type": "application/sparql-query; charset=utf-16"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=5) as response:
            payload = json.loads(response.read())
        assert len(payload["results"]["bindings"]) == 2

    def test_post_undecodable_body_400(self, endpoint):
        request = urllib.request.Request(
            endpoint.query_url,
            data=b"\xff\xfe\xff invalid",
            headers={"Content-Type": "application/sparql-query; charset=utf-8"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=5)
        assert err.value.code == 400

    @staticmethod
    def _raw_post_status(endpoint, content_length, body=b"", half_close=False):
        """Status line of a hand-written POST /sparql.  Unless
        *half_close*, the client keeps its side open, so a server that
        waits on the socket for more body shows up as a recv timeout."""
        host, port = endpoint._server.server_address[:2]
        request = (
            b"POST /sparql HTTP/1.1\r\n"
            b"Host: test\r\n"
            b"Content-Type: application/x-www-form-urlencoded\r\n"
            + f"Content-Length: {content_length}\r\n".encode()
            + b"Connection: close\r\n\r\n"
            + body
        )
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(request)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            response = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                response += chunk
        return response.split(b"\r\n", 1)[0]

    def test_post_content_length_mismatch_400(self, endpoint):
        """A body shorter than its declared Content-Length is a client error."""
        body = b"query=ASK%20%7B%20%3Fx%20a%20prov%3AEntity%20%7D"
        status_line = self._raw_post_status(
            endpoint, len(body) + 50, body,
            half_close=True)  # short body: server sees EOF early
        assert b"400" in status_line, status_line

    def test_post_negative_content_length_400(self, endpoint):
        """`Content-Length: -1` must not reach rfile.read(-1), which
        parks the handler thread until the client hangs up."""
        body = b"query=ASK%20%7B%20%3Fx%20a%20prov%3AEntity%20%7D"
        status_line = self._raw_post_status(endpoint, -1, body)
        assert b"400" in status_line, status_line

    def test_post_oversized_body_413(self, endpoint):
        """A declared length over the cap is refused before any of the
        body is read — none is sent here, so a server that tried to
        read it would never answer."""
        from repro.endpoint.server import MAX_BODY_BYTES

        status_line = self._raw_post_status(endpoint, MAX_BODY_BYTES + 1)
        assert b"413" in status_line, status_line
        ok = self._raw_post_status(
            endpoint, MAX_BODY_BYTES, b"query=ASK%20%7B%7D", half_close=True)
        assert b"400" in ok, ok  # at the cap: read, found short, not refused

    @staticmethod
    def _inflight():
        return metrics.value("repro_endpoint_inflight_requests") or 0

    @staticmethod
    def _requests_total(route, status):
        labels = {"route": route, "status": status}
        return metrics.value("repro_http_requests_total", labels) or 0

    def test_post_stalled_body_408(self, endpoint, monkeypatch):
        """Three bytes of a declared ten, socket held open: the server
        gives up after SOCKET_TIMEOUT_S, answers 408 and counts it."""
        monkeypatch.setattr(endpoint_server, "SOCKET_TIMEOUT_S", 0.2)
        before = self._requests_total("/sparql", "408")
        status_line = self._raw_post_status(endpoint, 10, b"que")
        assert b"408" in status_line, status_line
        assert self._requests_total("/sparql", "408") == before + 1
        assert self._inflight() == 0

    def test_request_ended_by_exception_counted_once(self, endpoint, monkeypatch):
        """A handler that raises before any response still records its
        request (as a 500) and gives the inflight gauge back."""
        def boom():
            raise RuntimeError("stats exploded")

        monkeypatch.setattr(endpoint, "stats", boom)
        before = self._requests_total("/stats", "500")
        with pytest.raises(OSError):  # connection dropped without a response
            urllib.request.urlopen(endpoint.url + "/stats", timeout=5)
        assert self._requests_total("/stats", "500") == before + 1
        assert self._inflight() == 0

    def test_idle_connection_closed(self, endpoint, monkeypatch):
        """A client that connects and sends nothing is hung up on."""
        monkeypatch.setattr(endpoint_server, "SOCKET_TIMEOUT_S", 0.2)
        host, port = endpoint._server.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as sock:
            assert sock.recv(4096) == b""  # EOF, not a recv timeout
        assert self._inflight() == 0

    def test_stats_route(self, endpoint, client):
        client.query("ASK { ?x a prov:Activity }")
        client.query("ASK { ?x a prov:Activity }")
        stats = client.stats()
        assert stats["result_cache"]["hits"] >= 1
        assert stats["result_cache"]["maxsize"] > 0
        assert stats["requests"]["count"] >= 2
        assert stats["requests"]["avg_ms"] >= 0
        assert stats["version"] >= 0

    def test_query_duration_header(self, endpoint):
        url = endpoint.query_url + "?" + urllib.parse.urlencode(
            {"query": "ASK { ?x a prov:Entity }"}
        )
        with urllib.request.urlopen(url, timeout=5) as response:
            assert float(response.headers["X-Query-Duration-ms"]) >= 0

    def test_slowlog_route_disabled_by_default(self, endpoint):
        with urllib.request.urlopen(endpoint.url + "/slowlog", timeout=5) as response:
            payload = json.loads(response.read())
        assert payload["enabled"] is False
        assert payload["entries"] == []

    def test_inflight_gauge_zero_at_rest(self, endpoint):
        # The handler already dec'd by the time the body is written, so a
        # scrape observing itself still reports 0 once responses finish.
        with urllib.request.urlopen(endpoint.url + "/metrics", timeout=5) as response:
            body = response.read().decode()
        lines = [l for l in body.splitlines()
                 if l.startswith("repro_endpoint_inflight_requests")
                 and not l.startswith("repro_endpoint_inflight_requests{")]
        values = [float(l.split()[-1]) for l in lines if not l.startswith("#")]
        assert values == [0.0]


def _get(path, *headers, version="HTTP/1.1"):
    """Bytes of one hand-written GET (no ``Connection`` header unless given)."""
    lines = [f"GET {path} {version}", "Host: test", *headers, "", ""]
    return "\r\n".join(lines).encode("ascii")


def _post(content_length, body=b""):
    """Bytes of one hand-written ``POST /sparql`` declaring *content_length*."""
    head = (
        "POST /sparql HTTP/1.1\r\nHost: test\r\n"
        "Content-Type: application/sparql-query\r\n"
        f"Content-Length: {content_length}\r\n\r\n"
    )
    return head.encode("ascii") + body


def _sparql_path(text):
    return "/sparql?" + urllib.parse.urlencode({"query": text})


def _read_response(sock):
    """One response off *sock*: (status, lower-cased headers, body).
    Reads exactly ``Content-Length`` body bytes and not one more, so the
    socket is left at the start of whatever the server sends next."""
    buffer = b""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        assert chunk, f"EOF inside the response head: {buffer!r}"
        buffer += chunk
    head, _, body = buffer.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("iso-8859-1").split("\r\n")
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers["content-length"])
    assert len(body) <= length, "bytes past the declared body"
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        assert chunk, "EOF inside the response body"
        body += chunk
    return int(status_line.split(" ")[1]), headers, body


def _connect(endpoint):
    return socket.create_connection(endpoint._server.server_address[:2], timeout=5)


def _requests_by_status():
    """``repro_http_requests_total`` summed over routes, by status."""
    totals = {}
    for sample in metrics.snapshot()["repro_http_requests_total"]["samples"]:
        status = sample["labels"]["status"]
        totals[status] = totals.get(status, 0) + sample["value"]
    return totals


def _connections_total():
    return metrics.value("repro_http_connections_total") or 0


class TestPersistentConnections:
    """HTTP/1.1 keep-alive: many requests per connection, one write per
    response, and no way for unread bytes to become a request."""

    ACTIVITIES = "SELECT ?x WHERE { ?x a prov:Activity } ORDER BY ?x"

    def test_sequential_requests_share_one_connection(self, endpoint):
        connections, requests = _connections_total(), _requests_by_status()
        with _connect(endpoint) as sock:
            for _ in range(5):
                sock.sendall(_get(_sparql_path(self.ACTIVITIES)))
                status, headers, body = _read_response(sock)
                assert status == 200 and "connection" not in headers
                values = [b["x"]["value"] for b in json.loads(body)["results"]["bindings"]]
                assert values == ["http://example.org/r1", "http://example.org/r2"]
            sock.sendall(_get("/healthz"))
            assert _read_response(sock)[0] == 200
        assert _connections_total() == connections + 1
        after = _requests_by_status()
        assert after.pop("200") == requests.pop("200", 0) + 6
        assert after == requests  # nothing else was counted
        assert TestProtocol._inflight() == 0

    def test_one_socket_write_per_response(self, endpoint, monkeypatch):
        """Head and body leave in one send.  Two would put Nagle and the
        client's delayed ACK (~40 ms) into every reused-connection answer;
        TCP_NODELAY is set besides."""
        sends, nodelay = [], []

        class CountingWriter(io.BufferedIOBase):
            """The handler's unbuffered ``wfile``, counting what it sends."""

            def __init__(self, connection):
                self._connection = connection

            def writable(self):
                return True

            def write(self, data):
                sends.append(len(data))
                self._connection.sendall(data)
                return len(data)

        original_setup = endpoint_server._Handler.setup

        def setup(handler):
            original_setup(handler)
            handler.wfile = CountingWriter(handler.connection)
            nodelay.append(handler.connection.getsockopt(socket.IPPROTO_TCP,
                                                         socket.TCP_NODELAY))

        monkeypatch.setattr(endpoint_server._Handler, "setup", setup)
        received = []
        with _connect(endpoint) as sock:
            for path in (_sparql_path(self.ACTIVITIES), "/stats", "/sparql", "/nowhere"):
                sock.sendall(_get(path))
                status, headers, body = _read_response(sock)
                received.append(int(headers["content-length"]))
            assert status == 404
        assert len(sends) == 4, sends
        # each send is a whole response: its body plus a head
        assert all(sent > length for sent, length in zip(sends, received))
        assert len(nodelay) == 1 and nodelay[0] != 0

    def test_idle_kept_alive_connection_closed_uncounted(self, endpoint, monkeypatch):
        """After an answer the client goes quiet: the server hangs up at
        SOCKET_TIMEOUT_S without a 408, a 500 or any other request."""
        monkeypatch.setattr(endpoint_server, "SOCKET_TIMEOUT_S", 0.2)
        requests = _requests_by_status()
        with _connect(endpoint) as sock:
            sock.sendall(_get("/healthz"))
            assert _read_response(sock)[0] == 200
            assert sock.recv(4096) == b""  # EOF, not a response and not a recv timeout
        after = _requests_by_status()
        assert after.pop("200") == requests.pop("200", 0) + 1
        assert after == requests
        assert TestProtocol._inflight() == 0

    @pytest.mark.parametrize("request_bytes", [
        _get("/healthz", "Connection: close"),
        _get("/healthz", version="HTTP/1.0"),
    ], ids=["connection-close", "http-1.0"])
    def test_one_answer_then_eof_when_the_client_asks(self, endpoint, request_bytes):
        with _connect(endpoint) as sock:
            sock.sendall(request_bytes)
            status, headers, _ = _read_response(sock)
            assert status == 200 and headers["connection"] == "close"
            assert sock.recv(4096) == b""

    def test_refused_body_cannot_become_the_next_request(self, endpoint):
        """413 is sent with the body unread; a pipelined GET behind it
        (or the body itself) must not be answered."""
        from repro.endpoint.server import MAX_BODY_BYTES

        with _connect(endpoint) as sock:
            sock.sendall(_post(MAX_BODY_BYTES + 1) + _get("/healthz"))
            status, headers, _ = _read_response(sock)
            assert status == 413 and headers["connection"] == "close"
            assert sock.recv(4096) == b""

    @pytest.mark.parametrize("content_length", ["nonsense", "-1"])
    def test_unreadable_length_closes(self, endpoint, content_length):
        with _connect(endpoint) as sock:
            sock.sendall(_post(content_length) + _get("/healthz"))
            status, headers, _ = _read_response(sock)
            assert status == 400 and headers["connection"] == "close"
            assert sock.recv(4096) == b""

    def test_post_body_fully_read_keeps_the_connection(self, endpoint):
        body = b"ASK { ?x a prov:Entity }"
        with _connect(endpoint) as sock:
            for _ in range(2):
                sock.sendall(_post(len(body), body))
                status, headers, answer = _read_response(sock)
                assert status == 200 and "connection" not in headers
                assert json.loads(answer)["boolean"] is True

    def test_stop_closes_kept_alive_connections(self):
        g = Graph()
        g.add((EX.r1, RDF.type, PROV.Activity))
        server = SparqlEndpoint(g).start()
        try:
            with _connect(server) as sock:
                sock.sendall(_get("/healthz"))
                assert _read_response(sock)[0] == 200
                server.stop()
                try:
                    sock.sendall(_get("/healthz"))
                    answer = sock.recv(4096)
                except ConnectionError:
                    answer = b""
                assert answer == b""  # EOF or reset, never a 200
        finally:
            server.stop()

    def test_connections_counter_on_metrics_and_stats(self, endpoint, client):
        with urllib.request.urlopen(endpoint.url + "/metrics", timeout=5) as response:
            exposition = response.read().decode()
        assert "# TYPE repro_http_connections_total counter" in exposition
        counted = client.stats()["metrics"]["repro_http_connections_total"]
        assert counted["samples"][0]["value"] >= 2  # at least these two requests'


class TestSerialiseOnce:
    """A cached table is encoded once per media type and served as bytes."""

    TEXT = "SELECT ?run ?start WHERE { ?run a wfprov:WorkflowRun ; prov:startedAtTime ?start } ORDER BY ?start"

    @staticmethod
    def _fetch(sock, text, accept):
        sock.sendall(_get(_sparql_path(text), f"Accept: {accept}"))
        status, headers, body = _read_response(sock)
        assert status == 200
        return headers["content-type"], body

    def test_negotiated_bodies_identical_across_hits_and_fresh_after_a_write(self):
        from repro.sparql import QueryEngine

        ds = _run_dataset(3)
        uncached = QueryEngine(ds, cache_size=0)
        with SparqlEndpoint(ds) as server, _connect(server) as sock:
            as_json = uncached.query(self.TEXT).to_json().encode("utf-8")
            as_csv = uncached.query(self.TEXT).to_csv().encode("utf-8")
            for media_type, expected in [
                ("application/sparql-results+json", as_json), ("text/csv", as_csv),
                ("application/sparql-results+json", as_json), ("text/csv", as_csv),
            ]:
                content_type, body = self._fetch(sock, self.TEXT, media_type)
                assert content_type == f"{media_type}; charset=utf-8"
                assert body == expected
            assert server.engine.cache_info()["hits"] == 3
            # the hit hands out the stored bytes themselves
            table = server.engine.query(self.TEXT)
            assert table.encoded("text/csv") is table.encoded("text/csv")

            _add_run(ds, 3)  # generation bump: the old table, and its bytes, are unreachable
            _, body = self._fetch(sock, self.TEXT, "application/sparql-results+json")
            assert body == uncached.query(self.TEXT).to_json().encode("utf-8")
            assert len(json.loads(body)["results"]["bindings"]) == 4

    def test_unknown_media_type_refused(self):
        from repro.sparql import ResultTable

        with pytest.raises(ValueError):
            ResultTable(["x"], []).encoded("text/html")


class TestCorpusEndpoint:
    def test_exemplar_query_over_http(self, corpus_dataset):
        from repro.queries import Q1_WORKFLOW_RUNS

        with SparqlEndpoint(corpus_dataset) as server:
            client = SparqlClient(server.query_url)
            rows = client.query(Q1_WORKFLOW_RUNS)
        assert len(rows) == 198


def _run_dataset(n_runs: int) -> Dataset:
    """A miniature wfprov dataset: n top-level runs with start times."""
    from repro.rdf import WFPROV, from_python
    import datetime as dt

    ds = Dataset()
    ds.namespaces.bind("ex", EX)
    for i in range(n_runs):
        _add_run(ds, i)
    return ds


def _add_run(ds: Dataset, i: int) -> None:
    from repro.rdf import WFPROV, from_python
    import datetime as dt

    run = EX[f"run{i}"]
    ds.default.add((run, RDF.type, WFPROV.WorkflowRun))
    ds.default.add((run, PROV.startedAtTime, from_python(dt.datetime(2013, 1, 1) + dt.timedelta(minutes=i))))
    ds.default.add((run, PROV.wasAssociatedWith, EX.engine))
    ds.default.add((EX[f"out{i}"], PROV.wasGeneratedBy, run))


class TestCacheInvalidationOverHttp:
    def test_mutation_between_requests_observed_via_stats(self):
        """A write between two identical requests must bump the version
        seen at /stats and force a recompute (miss), never a stale hit."""
        from repro.queries import Q1_WORKFLOW_RUNS

        ds = _run_dataset(3)
        with SparqlEndpoint(ds) as server:
            client = SparqlClient(server.query_url)
            assert len(client.query(Q1_WORKFLOW_RUNS)) == 3
            assert len(client.query(Q1_WORKFLOW_RUNS)) == 3  # warm hit
            stats_before = client.stats()
            assert stats_before["result_cache"]["hits"] == 1
            _add_run(ds, 3)  # writer mutates the live dataset
            assert len(client.query(Q1_WORKFLOW_RUNS)) == 4  # not stale
            stats_after = client.stats()
            assert stats_after["version"] > stats_before["version"]
            assert stats_after["result_cache"]["hits"] == 1  # miss, not hit
            assert stats_after["result_cache"]["misses"] > stats_before["result_cache"]["misses"]


@pytest.mark.slow
class TestConcurrentEndpoint:
    def test_sixteen_readers_with_live_writer(self):
        """16 threads hammer /sparql with mixed exemplar-style queries
        while a writer keeps adding runs; nobody may see a result older
        than the committed state at the time their request started."""
        ds = _run_dataset(4)
        queries = [
            # Q1-style: runs with start times
            "SELECT ?run ?start WHERE { ?run a wfprov:WorkflowRun ; prov:startedAtTime ?start } ORDER BY ?start",
            # Q2-style: aggregate count of runs
            "SELECT (COUNT(?run) AS ?n) WHERE { ?run a wfprov:WorkflowRun }",
            # Q3-style: runs with outputs
            "SELECT ?run ?out WHERE { ?run a wfprov:WorkflowRun . OPTIONAL { ?out prov:wasGeneratedBy ?run } }",
            # Q5-style: who executed
            "SELECT DISTINCT ?agent WHERE { ?run prov:wasAssociatedWith ?agent }",
            # ASK flavor
            "ASK { ?run a wfprov:WorkflowRun }",
            # CONSTRUCT flavor
            "CONSTRUCT { ?run a prov:Activity } WHERE { ?run a wfprov:WorkflowRun }",
        ]
        committed = [4]
        errors = []
        stop = threading.Event()

        with SparqlEndpoint(ds) as server:
            count_url = server.query_url + "?" + urllib.parse.urlencode(
                {"query": "SELECT (COUNT(?run) AS ?n) WHERE { ?run a wfprov:WorkflowRun }"}
            )

            def reader(worker: int):
                client = SparqlClient(server.query_url)
                k = 0
                while not stop.is_set():
                    floor = committed[-1]
                    query = queries[(worker + k) % len(queries)]
                    k += 1
                    try:
                        if query.startswith("CONSTRUCT"):
                            url = server.query_url + "?" + urllib.parse.urlencode({"query": query})
                            with urllib.request.urlopen(url, timeout=10) as response:
                                response.read()  # Turtle body, not JSON-decodable
                        else:
                            client.query(query, method="GET" if k % 2 else "POST")
                        with urllib.request.urlopen(count_url, timeout=10) as response:
                            payload = json.loads(response.read())
                        n = int(payload["results"]["bindings"][0]["n"]["value"])
                    except Exception as exc:  # noqa: BLE001 - fail the test
                        errors.append(f"worker {worker}: {exc!r}")
                        return
                    if n < floor:
                        errors.append(f"worker {worker}: stale count {n} < {floor}")
                        return

            threads = [threading.Thread(target=reader, args=(w,)) for w in range(16)]
            for t in threads:
                t.start()
            for i in range(4, 40):
                _add_run(ds, i)
                committed.append(i + 1)
            stop.set()
            for t in threads:
                t.join(timeout=30)
            assert not errors, errors[:5]
            stats = server.stats()
            assert stats["requests"]["count"] > 0
            assert stats["result_cache"]["hits"] + stats["result_cache"]["misses"] > 0


class TestStoreBackedEndpoint:
    """The endpoint served from a persistent quad store (read path only)."""

    @pytest.fixture()
    def store_endpoint(self, tmp_path):
        from repro.store import QuadStore, StoreDataset

        store = QuadStore(tmp_path / "store")
        store.begin_file("t.ttl", "00" * 32)
        ids = [store.add_term(t) for t in (EX.r1, RDF.type, PROV.Activity, EX.e1, PROV.Entity)]
        store.add_quad(ids[0], ids[1], ids[2])
        store.add_quad(ids[3], ids[1], ids[4])
        store.commit_file()
        store.compact()
        with SparqlEndpoint(StoreDataset(store)) as server:
            yield server
        store.close()

    def test_queries_answer_from_store(self, store_endpoint):
        client = SparqlClient(store_endpoint.query_url)
        rows = client.query("SELECT ?x WHERE { ?x a prov:Activity }")
        assert [r["x"] for r in rows] == ["http://example.org/r1"]
        assert client.query("ASK { ?x a prov:Entity }") is True

    def test_stats_reports_store_section(self, store_endpoint):
        client = SparqlClient(store_endpoint.query_url)
        client.query("ASK { ?x a prov:Activity }")
        stats = client.stats()
        assert stats["store"]["quads"] == 2
        assert stats["store"]["segments"]["spog"]["records"] == 2
        assert stats["store"]["decoded_term_cache"]["maxsize"] > 0
        assert stats["version"] == stats["store"]["generation"]

    def test_in_memory_endpoint_has_no_store_section(self, endpoint, client):
        assert "store" not in client.stats()


class TestObservedEndpoint:
    """The endpoint with an obs dir: same scrape, plus the event log."""

    @pytest.fixture()
    def obs_endpoint(self, tmp_path):
        from repro.obs import events

        g = Graph()
        g.namespaces.bind("ex", EX)
        g.add((EX.r1, RDF.type, PROV.Activity))
        with SparqlEndpoint(g, obs_dir=str(tmp_path / "obs")) as server:
            yield server, tmp_path / "obs"
        events.unconfigure()

    def _scrape(self, server):
        with urllib.request.urlopen(server.url + "/metrics", timeout=5) as response:
            return response.read().decode()

    def test_metrics_families_same_with_and_without_obs_dir(self, obs_endpoint, endpoint):
        """/metrics has one code path: an obs dir adds the event log,
        never a different exposition."""

        def families(server):
            SparqlClient(server.query_url).query("ASK { ?x a prov:Activity }")
            return [line for line in self._scrape(server).splitlines()
                    if line.startswith("# TYPE ")]

        observed, _ = obs_endpoint
        assert families(observed) == families(endpoint)
        assert any("repro_endpoint_request_seconds histogram" in f for f in families(endpoint))

    def test_stats_request_count_is_the_histogram_count(self, obs_endpoint):
        server, _ = obs_endpoint
        client = SparqlClient(server.query_url)
        for _ in range(5):
            client.query("ASK { ?x a prov:Activity }")
        requests = client.stats()["requests"]
        body = self._scrape(server)
        assert "# TYPE repro_endpoint_request_seconds histogram" in body
        # One source: /stats reads the histogram /metrics renders.
        prefix = 'repro_endpoint_request_seconds_count{route="/sparql"} '
        (line,) = [l for l in body.splitlines() if l.startswith(prefix)]
        assert requests["count"] == int(line[len(prefix):]) >= 5
        assert set(requests) == {"count", "errors", "total_ms", "avg_ms"}

    def test_unobserved_endpoint_has_no_obs_section(self, endpoint, client):
        stats = client.stats()
        assert "obs" not in stats
        assert "latency_quantiles" not in stats
