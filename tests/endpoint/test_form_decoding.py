"""The endpoint's ``query`` parameter decoder against ``urllib.parse.parse_qs``.

The endpoint reads the ``query`` field of a GET query string or of a
form-encoded POST body with its own decoder, which decodes a clean value's
``%XX`` escapes in one C call.  Whatever the text, it must extract what
``parse_qs(text).get("query", [None])[0]`` would: the first field whose
name decodes to ``query`` and whose raw value is not empty, with ``+`` as a
space and every escape decoded as UTF-8, malformed bytes replaced.
"""

import json
import socket
import urllib.parse

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.endpoint import SparqlEndpoint
from repro.endpoint import server as endpoint_server
from repro.rdf import Graph

# Escapes, almost-escapes, the separators and non-ASCII text, which the
# C path must hand back to the stdlib.
_ENCODABLE = [
    "%", "%2", "%41", "%4g", "%zz", "%C3%A9", "%E2%82", "%E2%82%AC", "%FF", "%5C",
    "%25", "%2B", "%26", "%3D", "+", "&", "=", "\\", "\\x41", "\\%41", "query",
    "qu%65ry", "%71uery", "query+", "a", "0", "f", "F", "é", "€", "𝄞",
]
_NAMES = st.sampled_from(["query", "qu%65ry", "%71uery", "query+", "QUERY", "", "q"])


def _texts(pieces):
    """Texts joined from *pieces* and free runs of escape characters, and
    form-shaped texts whose fields are such texts."""
    text = st.lists(st.one_of(st.sampled_from(pieces),
                              st.text(alphabet="%0123456789abcdefABCDEF+&=\\é",
                                      max_size=6)),
                    max_size=12).map("".join)
    forms = st.lists(st.tuples(_NAMES, st.sampled_from(["=", ""]), text), max_size=4).map(
        lambda fields: "&".join(name + eq + value for name, eq, value in fields))
    return st.one_of(text, forms)


# A lone surrogate is text no UTF-8 encoder takes: only a direct call sees it.
_ANY_TEXT = _texts(_ENCODABLE + ["\ud800"])
_HTTP_TEXT = _texts(_ENCODABLE)


def _expected(text, key="query"):
    return urllib.parse.parse_qs(text).get(key, [None])[0]


@settings(max_examples=600, deadline=None)
@given(_ANY_TEXT)
@example("query=%41%zz")  # a malformed escape: the stdlib decodes the rest
@example("query=%C3\ud800")  # non-ASCII: never fed to the C decoder
@example("query=\\x41%41")
@example("query=&query=%2B+&query=x")
def test_form_value_is_parse_qs(text):
    assert endpoint_server._form_value(text, "query") == _expected(text)


@settings(max_examples=200, deadline=None)
@given(_ANY_TEXT)
def test_form_value_for_any_key(text):
    for key in ("q", "QUERY", "query "):
        assert endpoint_server._form_value(text, key) == _expected(text, key)


@given(st.text(max_size=40))
def test_unquote_plus_is_the_stdlib(text):
    assert endpoint_server._unquote_plus(text) == urllib.parse.unquote_plus(text)


class _EchoHandler(endpoint_server._Handler):
    """Answers every query request with the text it extracted."""

    def _run_query(self, query):
        self._send(200, "application/json", json.dumps({"query": query}))


@pytest.fixture(scope="module")
def echo_endpoint():
    server = SparqlEndpoint(Graph())
    server._server.RequestHandlerClass = _EchoHandler
    with server:
        yield server


def _ask(endpoint, request):
    """(status, extracted query or None) for one request, on its own connection."""
    with socket.create_connection(endpoint._server.server_address[:2], timeout=5) as sock:
        sock.sendall(request)
        answer = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            answer += chunk
    head, _, body = answer.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body).get("query") if status == 200 else None


@settings(max_examples=120, deadline=None)
@given(_HTTP_TEXT)
def test_get_query_string_extracted_as_parse_qs(echo_endpoint, text):
    # the request line travels as bytes and is read back as ISO-8859-1
    target = b"/sparql?" + text.encode("utf-8")
    status, query = _ask(echo_endpoint,
                         b"GET " + target + b" HTTP/1.1\r\nConnection: close\r\n\r\n")
    seen = urllib.parse.urlparse(target.decode("iso-8859-1")).query
    expected = _expected(seen)
    assert (status, query) == ((400, None) if expected is None else (200, expected))


@settings(max_examples=120, deadline=None)
@given(_HTTP_TEXT)
def test_form_body_extracted_as_parse_qs(echo_endpoint, text):
    body = text.encode("utf-8")
    request = (b"POST /sparql HTTP/1.1\r\nConnection: close\r\n"
               b"Content-Type: application/x-www-form-urlencoded\r\n"
               + f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
    status, query = _ask(echo_endpoint, request)
    expected = _expected(text)
    assert (status, query) == ((400, None) if expected is None else (200, expected))
