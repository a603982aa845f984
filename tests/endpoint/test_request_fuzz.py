"""Hostile request bytes: the endpoint answers them or hangs up, never a 500.

Requests seeded from the seven texts of the ``serve_warm`` benchmark (the
exemplar queries Q1–Q6, Q5 for a Taverna and a Wings run), sent as a GET,
a form POST and a ``application/sparql-query`` POST, are mutated — cut
short, repeated, a byte flipped, a CR, LF or NUL injected, a line or the
header block blown past its limit — and sent on one connection each.
Whatever the bytes:

* no answer is a 500 and no handler dies of an exception;
* ``repro_endpoint_inflight_requests`` comes back to 0;
* the server closes the connection within ``SOCKET_TIMEOUT_S`` (here
  0.5 s) of the client's last byte, plus scheduling slack.
"""

import re
import socket
import sys
import time
import urllib.parse

import pytest
from hypothesis import given, settings, strategies as st

from repro.endpoint import SparqlEndpoint
from repro.endpoint import server as endpoint_server
from repro.obs import metrics
from repro.queries import OPMW_EXPORT_NS, exemplar_queries, q5_who_executed
from repro.rdf import Graph, Namespace, PROV, RDF

EX = Namespace("http://example.org/")

TIMEOUT_S = 0.5
#: Scheduling slack on top of the timeout before a connection counts as held.
SLACK_S = 1.5


@pytest.fixture(scope="module")
def seed_texts(corpus):
    texts = list(exemplar_queries(corpus).values())
    wings = next(t for t in corpus.by_system("wings") if not t.failed)
    texts.append(q5_who_executed(OPMW_EXPORT_NS.term(
        f"WorkflowExecutionAccount/{wings.run_id}")))
    assert len(set(texts)) == 7
    return texts


@pytest.fixture(scope="module")
def endpoint():
    g = Graph()
    g.add((EX.r1, RDF.type, PROV.Activity))
    g.add((EX.e1, RDF.type, PROV.Entity))
    errors = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(endpoint_server, "SOCKET_TIMEOUT_S", TIMEOUT_S)
        server = SparqlEndpoint(g)

        def handle_error(request, client_address):
            # what the server would print as a traceback: a handler died
            if not isinstance(sys.exc_info()[1], ConnectionError):
                errors.append(repr(sys.exc_info()[1]))

        server._server.handle_error = handle_error
        with server:
            server.handler_errors = errors
            yield server


def _requests(text):
    """The three ways a client sends *text*, as the benchmark's client would."""
    form = urllib.parse.urlencode({"query": text}).encode("ascii")
    raw = text.encode("utf-8")
    return [
        (b"GET /sparql?" + form + b" HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         b"Accept: application/sparql-results+json\r\nConnection: keep-alive\r\n\r\n"),
        (b"POST /sparql HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         b"Content-Type: application/x-www-form-urlencoded\r\n"
         + b"Content-Length: %d\r\n\r\n" % len(form) + form),
        (b"POST /sparql HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         b"Content-Type: application/sparql-query; charset=utf-8\r\n"
         + b"Content-Length: %d\r\n\r\n" % len(raw) + raw),
    ]


@st.composite
def _mutated(draw, seed_texts):
    data = draw(st.sampled_from(_requests(draw(st.sampled_from(seed_texts)))))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "duplicate", "flip", "inject",
                                     "long-line", "many-headers"]))
        at = draw(st.integers(0, len(data)))
        if kind == "truncate":
            data = data[:at]
        elif kind == "duplicate":
            end = draw(st.integers(at, len(data)))
            data = data[:end] + data[at:]
        elif kind == "flip" and at < len(data):
            flipped = data[at] ^ draw(st.integers(1, 255))
            data = data[:at] + bytes([flipped]) + data[at + 1:]
        elif kind == "inject":
            data = data[:at] + draw(st.sampled_from([b"\r", b"\n", b"\r\n", b"\x00"])) + data[at:]
        elif kind == "long-line":
            data = data[:at] + b"a" * draw(st.sampled_from([65_536, 70_000])) + data[at:]
        elif kind == "many-headers":
            head_end = data.find(b"\r\n") + 2
            data = data[:head_end] + b"X-Filler: 1\r\n" * 101 + data[head_end:]
    return data, draw(st.booleans())


def _statuses(answer):
    """Every status the answer carries: status lines, and the code named
    by a bare error document (a refusal before the request's version)."""
    found = [int(m) for m in re.findall(rb"(?:^|\r\n)HTTP/1\.1 (\d{3}) ", answer)]
    found += [int(m) for m in re.findall(rb"<p>Error code: (\d{3})</p>", answer)]
    return found


def _wait_for(condition, seconds=2.0):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


def _requests_total(status):
    return sum(sample["value"]
               for sample in metrics.snapshot()["repro_http_requests_total"]["samples"]
               if sample["labels"]["status"] == status)


def test_mutated_requests_never_500_nor_held(endpoint, seed_texts):
    @settings(max_examples=60, deadline=None)
    @given(_mutated(seed_texts))
    def check(mutation):
        data, half_close = mutation
        before_500 = _requests_total("500")
        answer = b""
        with socket.create_connection(endpoint._server.server_address[:2],
                                      timeout=TIMEOUT_S + SLACK_S) as sock:
            try:
                sock.sendall(data)
                if half_close:
                    sock.shutdown(socket.SHUT_WR)
            except OSError:  # reset or not connected: the server already hung up
                pass
            sent = time.monotonic()
            try:
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    answer += chunk
            except ConnectionResetError:
                pass  # closed with request bytes unread: a hang-up all the same
            except TimeoutError:
                pass  # held open: the assertion below reports it
            held = time.monotonic() - sent
        assert held < TIMEOUT_S + SLACK_S, (held, data[:200])
        assert 500 not in _statuses(answer), answer[:300]
        assert _wait_for(lambda: not endpoint._server._connections)
        assert _wait_for(lambda: (metrics.value("repro_endpoint_inflight_requests") or 0) == 0)
        assert _requests_total("500") == before_500
        assert endpoint.handler_errors == []

    check()
