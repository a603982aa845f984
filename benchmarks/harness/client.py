"""A minimal HTTP/1.1 client that reuses its socket when the server allows.

One client, one connection at a time, closed loop.  Requests announce
``Connection: keep-alive``; after each response the socket is kept only
if the response permits it (HTTP/1.1 without ``Connection: close``, or
HTTP/1.0 with ``Connection: keep-alive``, and a ``Content-Length``).  The
served program answers ``HTTP/1.0`` and closes today, so
``connections / requests`` is exactly 1.0; a server-side keep-alive shows
up here without editing the benchmark.

Written on raw sockets so the generator stays a small share of the
measured time and every phase has a timestamp.
"""

from __future__ import annotations

import socket
import time
import urllib.parse
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


class HttpError(OSError):
    """The response could not be read as HTTP."""


@dataclass
class Response:
    status: int
    headers: Dict[str, str]
    body: bytes
    #: perf_counter instants: request handed to the socket, first
    #: response byte seen, body fully read.
    sent_at: float
    first_byte_at: float
    done_at: float
    #: whether this request had to open a new connection
    connected: bool


def get_request(path: str, host: str) -> bytes:
    return (
        f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
        "Accept: application/sparql-results+json\r\n"
        "Connection: keep-alive\r\n\r\n"
    ).encode("ascii")


def sparql_path(text: str) -> str:
    return "/sparql?" + urllib.parse.urlencode({"query": text})


#: Seconds a connect or a read may take before the request counts as failed.
TIMEOUT = 60.0


class Client:
    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.requests = 0
        self.connections = 0
        self._sock: Optional[socket.socket] = None

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def get(self, path: str) -> Response:
        return self.send(get_request(path, f"{self.host}:{self.port}"))

    def send(self, request: bytes) -> Response:
        """Send pre-encoded request bytes; the clock starts before connect."""
        self.requests += 1
        started = time.perf_counter()
        reused = self._sock is not None
        if reused:
            try:
                return self._exchange(request, started, connected=False)
            except (HttpError, ConnectionError):
                # the server dropped an idle kept-alive socket: a retry on
                # a fresh connection is what any HTTP client does
                self.close()
        return self._exchange(request, started, connected=True)

    def _exchange(self, request: bytes, started: float, connected: bool) -> Response:
        if self._sock is None:
            self._sock = socket.create_connection((self.host, self.port), TIMEOUT)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.connections += 1
        sock = self._sock
        try:
            sock.sendall(request)
            head, rest, first_byte_at = self._read_head(sock)
            version, status, headers = _parse_head(head)
            length = headers.get("content-length")
            if "chunked" in headers.get("transfer-encoding", ""):
                raise HttpError("chunked responses are not supported")
            if length is not None:
                body = self._read_exact(sock, int(length), rest)
            else:
                body = self._read_to_eof(sock, rest)
        except BaseException:
            self.close()
            raise
        done_at = time.perf_counter()
        connection = headers.get("connection", "").lower()
        keep = (
            length is not None
            and len(body) == int(length)
            and (connection == "keep-alive" if version == "HTTP/1.0" else connection != "close")
        )
        if not keep:
            self.close()
        return Response(status, headers, body, started, first_byte_at, done_at, connected)

    @staticmethod
    def _read_head(sock: socket.socket) -> Tuple[bytes, bytes, float]:
        buffer = b""
        first_byte_at = 0.0
        while True:
            chunk = sock.recv(65536)
            if not buffer:
                first_byte_at = time.perf_counter()
            if not chunk:
                raise HttpError("connection closed before the response head")
            buffer += chunk
            end = buffer.find(b"\r\n\r\n")
            if end >= 0:
                return buffer[:end], buffer[end + 4:], first_byte_at

    @staticmethod
    def _read_exact(sock: socket.socket, length: int, have: bytes) -> bytes:
        parts = [have]
        missing = length - len(have)
        while missing > 0:
            chunk = sock.recv(min(missing, 1 << 20))
            if not chunk:
                break  # short body: the caller sees len(body) != Content-Length
            parts.append(chunk)
            missing -= len(chunk)
        return b"".join(parts)

    @staticmethod
    def _read_to_eof(sock: socket.socket, have: bytes) -> bytes:
        parts = [have]
        while True:
            chunk = sock.recv(1 << 20)
            if not chunk:
                return b"".join(parts)
            parts.append(chunk)


def _parse_head(head: bytes) -> Tuple[str, int, Dict[str, str]]:
    lines = head.decode("iso-8859-1").split("\r\n")
    try:
        version, status, *_ = lines[0].split(" ", 2)
        code = int(status)
    except ValueError as exc:
        raise HttpError(f"malformed status line: {lines[0]!r}") from exc
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return version, code, headers
