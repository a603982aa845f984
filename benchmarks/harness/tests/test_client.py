"""Keep-alive reuse against stub servers that do and do not permit it,
and failure accounting on an injected 500 / short body."""

import socket
import socketserver
import threading
from contextlib import contextmanager

import pytest

from benchmarks.harness.client import Client
from benchmarks.harness.schedule import Request
from benchmarks.harness.serving import Driver

BODY = b'{"head": {"vars": []}, "results": {"bindings": []}}'


class _Stub(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, responder):
        self.responder = responder
        self.accepted = 0
        self.served = 0
        super().__init__(("127.0.0.1", 0), _Handler)


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        self.server.accepted += 1
        sock: socket.socket = self.request
        buffer = b""
        while True:
            while b"\r\n\r\n" not in buffer:
                chunk = sock.recv(65536)
                if not chunk:
                    return
                buffer += chunk
            head, _, buffer = buffer.partition(b"\r\n\r\n")
            self.server.served += 1
            reply, keep = self.server.responder(head, self.server.served)
            sock.sendall(reply)
            if not keep:
                return


def _reply(version, status=200, body=BODY, connection=None, length=None):
    lines = [f"{version} {status} X", f"Content-Length: {len(body) if length is None else length}",
             "X-Query-Duration-ms: 0.5"]
    if connection:
        lines.append(f"Connection: {connection}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


@contextmanager
def stub(responder):
    server = _Stub(responder)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_http10_close_means_one_connection_per_request():
    with stub(lambda head, n: (_reply("HTTP/1.0"), False)) as server:
        with Client("127.0.0.1", server.server_address[1]) as client:
            for _ in range(5):
                assert client.get("/healthz").body == BODY
            assert (client.requests, client.connections) == (5, 5)
        assert server.accepted == 5


def test_http11_keep_alive_reuses_the_socket():
    with stub(lambda head, n: (_reply("HTTP/1.1"), True)) as server:
        with Client("127.0.0.1", server.server_address[1]) as client:
            responses = [client.get("/healthz") for _ in range(5)]
            assert [r.connected for r in responses] == [True, False, False, False, False]
            assert (client.requests, client.connections) == (5, 1)
        assert server.accepted == 1 and server.served == 5


def test_http10_with_keep_alive_header_is_reused_and_11_close_is_not():
    with stub(lambda head, n: (_reply("HTTP/1.0", connection="keep-alive"), True)) as server:
        with Client("127.0.0.1", server.server_address[1]) as client:
            client.get("/a"), client.get("/b")
            assert client.connections == 1
    with stub(lambda head, n: (_reply("HTTP/1.1", connection="close"), False)) as server:
        with Client("127.0.0.1", server.server_address[1]) as client:
            client.get("/a"), client.get("/b")
            assert client.connections == 2


def test_request_announces_keep_alive():
    seen = []

    def responder(head, n):
        seen.append(head)
        return _reply("HTTP/1.0"), False

    with stub(responder) as server:
        with Client("127.0.0.1", server.server_address[1]) as client:
            client.get("/sparql?query=x")
    assert seen[0].startswith(b"GET /sparql?query=x HTTP/1.1\r\n")
    assert b"connection: keep-alive" in seen[0].lower()


def test_dropped_idle_socket_is_retried_on_a_fresh_connection():
    # the server promises keep-alive, then hangs up after every response
    with stub(lambda head, n: (_reply("HTTP/1.1"), False)) as server:
        with Client("127.0.0.1", server.server_address[1]) as client:
            assert client.get("/a").status == 200
            second = client.get("/b")
            assert second.status == 200 and second.connected
            assert (client.requests, client.connections) == (2, 2)


class _FakeServer:
    """What Driver needs of a Server: a port, a client and a CPU clock."""

    def __init__(self, port):
        self.port = port

    def client(self):
        return Client("127.0.0.1", self.port)

    def cpu_seconds(self):
        return 0.0


@pytest.mark.parametrize("fault", ["500", "short body", "wrong length"])
def test_ops_failed_counts_an_injected_fault(fault):
    schedule = [Request("Q5", f"Q5:run{i}", f"SELECT {i}") for i in range(6)]

    def responder(head, n):
        if n == 4:  # the 4th request of the pass
            if fault == "500":
                return _reply("HTTP/1.0", status=500, body=b'{"error": "boom"}'), False
            if fault == "short body":
                return _reply("HTTP/1.0", body=BODY[:10], length=len(BODY)), False
            return _reply("HTTP/1.0", body=BODY + b" "), False
        return _reply("HTTP/1.0"), False

    with stub(responder) as server:
        driver = Driver(_FakeServer(server.server_address[1]), pins={})
        driver.expected_length = {request.key: len(BODY) for request in schedule}
        done = driver.timed_pass(schedule)
        driver.close()
    assert done.failed == [3]
    assert len(done.latencies) == len(schedule)
    assert done.response_bytes == 5 * len(BODY)
    assert done.connections == 6
