"""Start, observe and stop the served program — through its public CLI only.

``python -m repro.cli serve --store … --port 0`` runs as a child process;
the harness learns the port from the banner the CLI prints, waits for
``/healthz``, reads ``/proc/<pid>`` for memory and CPU, and stops the
child with SIGINT (the CLI's documented Ctrl-C path), waiting until it
has ended.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from .client import Client

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
#: Everything the harness writes (fixtures, traces, raw samples, logs).
OUT = Path(__file__).resolve().parent / "out"
HOST = "127.0.0.1"

#: Seconds ``serve`` may take from spawn to its first ``/healthz`` 200.
START_TIMEOUT = 60.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def program_env() -> dict:
    """The environment every child of the harness runs the program in."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    # str hashing must not differ between the two sides of a comparison
    env["PYTHONHASHSEED"] = "0"
    # the program starts from cached bytecode, as an installed one does; a
    # sandbox that forbids writing it would put a compile of every module
    # into every set-up (the cache lands in the checkout's __pycache__)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class ServerError(RuntimeError):
    pass


class Server:
    """One ``repro-corpus serve`` child process."""

    def __init__(self, store: Path, cache_size: Optional[int]):
        self.store = store
        self.cache_size = cache_size
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        #: spawn → first ``/healthz`` 200, seconds
        self.start_s = 0.0
        self.stderr_log = OUT / "serve-stderr.log"

    def command(self) -> List[str]:
        argv = [sys.executable, "-m", "repro.cli", "serve",
                "--store", str(self.store), "--host", HOST, "--port", "0"]
        if self.cache_size is not None:
            argv += ["--cache-size", str(self.cache_size)]
        return argv

    def start(self) -> "Server":
        spawned = time.perf_counter()
        # a file, not a pipe: nobody drains stderr while the server runs
        with open(self.stderr_log, "wb") as stderr:
            self.process = subprocess.Popen(
                self.command(), env=program_env(), cwd=str(REPO_ROOT),
                stdout=subprocess.PIPE, stderr=stderr,
            )
        try:
            self.port = self._read_port(spawned + START_TIMEOUT)
            with self.client() as client:
                while True:
                    try:
                        if client.get("/healthz").status == 200:
                            break
                    except OSError:
                        pass
                    if time.perf_counter() > spawned + START_TIMEOUT:
                        raise ServerError("serve did not answer /healthz in time")
                    time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - spawned
        return self

    def _read_port(self, deadline: float) -> int:
        """The port from the banner line (``… at http://host:port/sparql …``)."""
        stdout = self.process.stdout
        buffer = b""
        while b"\n" not in buffer:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise ServerError("serve printed no banner in time")
            ready, _, _ = select.select([stdout], [], [], remaining)
            chunk = os.read(stdout.fileno(), 4096) if ready else b""
            if ready and not chunk:
                error = self.stderr_log.read_text(errors="replace")
                raise ServerError(f"serve exited during start-up: {error.strip()[-2000:]}")
            buffer += chunk
        match = re.search(rb"http://[^/:\s]+:(\d+)/sparql", buffer)
        if match is None:
            raise ServerError(f"no endpoint URL in banner: {buffer[:200]!r}")
        return int(match.group(1))

    def client(self) -> Client:
        return Client(HOST, self.port)

    def stop(self) -> None:
        """SIGINT, then wait for the process to end (SIGKILL if it will not)."""
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()

    # -- /proc ---------------------------------------------------------------

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the serve process, in MB (10**6 bytes)."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
        if match is None:
            raise ServerError("no VmHWM in /proc/<pid>/status")
        return int(match.group(1)) * 1024 / 1e6

    def cpu_seconds(self) -> float:
        """utime + stime of the serve process so far."""
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        # the command name may hold spaces; fields are counted after ")"
        fields = stat[stat.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
