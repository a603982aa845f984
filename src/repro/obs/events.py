"""Structured JSONL event log with size-bounded rotation.

Trace spans answer "how long did this take", metrics answer "how many",
but neither records *what happened* — which run spilled, when a
compaction folded how many segments, which request carried which query
digest.  :class:`EventLog` appends one JSON object per line to
``events.jsonl`` inside the observability directory, so build, ingest,
compaction, spill, and endpoint request paths leave a durable,
greppable record that cross-references trace spans by ``trace_id`` /
``span_id`` and query digest.

Record schema (version 1): every record carries ``v`` (schema
version), ``ts`` (unix seconds, float), ``pid``, and ``kind``
(dot-namespaced, e.g. ``ingest.file``, ``store.compaction``,
``endpoint.request`` — one per request, see :mod:`repro.obs.request`);
everything else is kind-specific.
Writes are single ``os.write`` calls on an ``O_APPEND`` descriptor, so
concurrent processes (a build and the endpoint sharing one directory)
interleave whole lines, never torn ones.

Rotation is size-bounded: when ``events.jsonl`` would exceed
``max_bytes`` the log renames it to ``events.jsonl.1`` (shifting older
generations up, keeping ``keep`` of them) and starts fresh — a long
endpoint run cannot fill the disk.  :func:`read_events` reads each
generation with ``read_trace``'s tolerant line reader: a crashed
writer's truncated trailing line is skipped with a warning, not an
exception.

Module-level :func:`configure` / :func:`emit` give call sites a
zero-argument fast path: ``emit()`` is a no-op unless an observability
directory was configured, so instrumented code pays one attribute
check when observability is off.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Callable, Dict, Iterator, Optional

from .trace import read_trace

__all__ = [
    "SCHEMA_VERSION",
    "EVENTS_FILE",
    "EventLog",
    "configure",
    "emit",
    "read_events",
    "unconfigure",
]

SCHEMA_VERSION = 1
EVENTS_FILE = "events.jsonl"
DEFAULT_MAX_BYTES = 16 * 1024 * 1024
DEFAULT_KEEP = 2


class EventLog:
    """Append-only JSONL event sink for one observability directory."""

    def __init__(
        self,
        obs_dir: str,
        max_bytes: int = DEFAULT_MAX_BYTES,
        keep: int = DEFAULT_KEEP,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.obs_dir = obs_dir
        self.path = os.path.join(obs_dir, EVENTS_FILE)
        self.max_bytes = max_bytes
        self.keep = keep
        self._clock = clock or time.time
        self._lock = threading.Lock()
        self._fd: Optional[int] = None
        self._written = 0  # bytes written through our fd since open/rotate
        os.makedirs(obs_dir, exist_ok=True)

    # -- writing -------------------------------------------------------

    def _open(self) -> int:
        if self._fd is None:
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                self._written = os.fstat(self._fd).st_size
            except OSError:
                self._written = 0
        return self._fd

    def _rotate_locked(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        # Another process may already have rotated; only shift if the
        # live file is actually oversized.
        try:
            if os.path.getsize(self.path) < self.max_bytes:
                return
        except OSError:
            return
        for n in range(self.keep, 0, -1):
            older = f"{self.path}.{n}"
            newer = f"{self.path}.{n - 1}" if n > 1 else self.path
            try:
                os.replace(newer, older)
            except OSError:
                pass

    def emit(self, kind: str, **fields) -> None:
        """Append one schema-versioned event record."""
        record: Dict = {
            "v": SCHEMA_VERSION,
            "ts": round(self._clock(), 6),
            "pid": os.getpid(),
            "kind": kind,
        }
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        line = (
            json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        with self._lock:
            if self._written + len(line) > self.max_bytes:
                self._rotate_locked()
                self._written = 0
            try:
                os.write(self._open(), line)
                self._written += len(line)
            except OSError:
                # Telemetry must never take down the operation it observes.
                pass

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- reading -----------------------------------------------------------


def read_events(
    path: str,
    kind: Optional[str] = None,
    warn: Optional[Callable[[str], None]] = None,
) -> Iterator[Dict]:
    """Yield event records from a JSONL event file, oldest first.

    *path* may be the events file itself or an observability directory
    (rotated generations ``events.jsonl.N`` are read first so the
    stream stays chronological).  Malformed or truncated lines — the
    signature a crashed writer leaves — are skipped with a warning.
    """
    base = os.path.join(path, EVENTS_FILE) if os.path.isdir(path) else path
    generations = 0
    while os.path.exists(f"{base}.{generations + 1}"):
        generations += 1
    files = [f"{base}.{n}" for n in range(generations, 0, -1)]
    if os.path.exists(base):
        files.append(base)
    for file_path in files:
        for record in read_trace(file_path, warn=warn):
            if kind is None or record.get("kind") == kind:
                yield record


# -- module-level convenience -----------------------------------------

_log: Optional[EventLog] = None
_log_pid: Optional[int] = None


def configure(obs_dir: str, max_bytes: int = DEFAULT_MAX_BYTES,
              keep: int = DEFAULT_KEEP) -> EventLog:
    """Open (or re-open) the process-wide event log under *obs_dir*."""
    global _log, _log_pid
    if _log is not None:
        _log.close()
    _log = EventLog(obs_dir, max_bytes=max_bytes, keep=keep)
    _log_pid = os.getpid()
    return _log


def emit(kind: str, **fields) -> None:
    """Emit through the process-wide log; no-op when unconfigured."""
    global _log, _log_pid
    log = _log
    if log is None:
        return
    if _log_pid != os.getpid():
        # Forked child inherited the parent's fd/lock; reopen cleanly.
        _log = log = EventLog(log.obs_dir, max_bytes=log.max_bytes,
                              keep=log.keep)
        _log_pid = os.getpid()
    log.emit(kind, **fields)


def unconfigure() -> None:
    global _log, _log_pid
    if _log is not None:
        _log.close()
    _log = None
    _log_pid = None
