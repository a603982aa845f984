"""The serving workloads: ``repro-corpus serve`` driven over real HTTP.

One client, one connection at a time, closed loop; the served program
gets the other core.  A run is

1. set-up, repeated ``SETUP_REPEATS`` times: spawn ``serve`` → first
   ``/healthz`` 200 → first verified Q1 answer (the last server stays up);
2. an untimed warm-up pass that sends every distinct text of the
   schedule once and verifies the full answer against ``golden.json``;
3. K timed passes over the fixed schedule, checking status and body
   length only;
4. an untimed post-pass that verifies every distinct text again.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from . import golden
from .env import calibration_ms
from .client import Client, Response, get_request, sparql_path
from .fixture import Fixture
from .layers import live_probes
from .schedule import Request, build_schedule, distinct, request_for
from .server import HOST, Server
from .spec import SETUP_REPEATS, Workload
from .stats import percentile


#: Set-ups of a traced run, which reports none of them as ``setup_s``.
TRACED_SETUP_REPEATS = 3


@dataclass
class Pass:
    """One timed pass over the schedule."""

    latencies: List[float]  # seconds, schedule order; failed requests included
    failed: List[int]  # schedule positions of failed requests
    elapsed: float
    client_cpu_s: float
    server_cpu_s: float
    connections: int
    response_bytes: int
    #: the noise witness, taken right before the pass (``env.calibration_ms``)
    calibration_ms: float = 0.0
    #: traced passes only: per request, seconds until the first response
    #: byte and the server's own ``X-Query-Duration-ms``
    first_byte: List[float] = field(default_factory=list)
    server_ms: List[float] = field(default_factory=list)


@dataclass
class ServingRun:
    workload: Workload
    schedule: List[Request]
    setups: List[float]
    starts: List[float]
    passes: List[Pass]
    verify_failures: List[str]
    peak_rss_mb: float
    stats_before: Dict
    stats_after: Dict
    #: requests sent by the two verification passes
    verified: int
    #: traced runs: what ``layers.live_probes`` measured while the server was up
    probes: Dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.schedule) * len(self.passes) + self.verified

    @property
    def failed(self) -> int:
        return sum(len(p.failed) for p in self.passes) + len(self.verify_failures)


class Driver:
    """Sends schedule requests to one server and checks what comes back."""

    def __init__(self, server: Server, pins: Dict):
        self.server = server
        self.client: Client = server.client()
        self.pins = pins
        self._encoded: Dict[str, bytes] = {}
        #: golden key → body length of the verified warm-up answer
        self.expected_length: Dict[str, int] = {}

    def close(self) -> None:
        self.client.close()

    def encoded(self, request: Request) -> bytes:
        data = self._encoded.get(request.key)
        if data is None:
            data = get_request(sparql_path(request.text), f"{HOST}:{self.server.port}")
            self._encoded[request.key] = data
        return data

    def verify(self, requests: Sequence[Request]) -> List[str]:
        """Send each request once and compare the full answer with its pin."""
        problems = []
        for request in requests:
            try:
                response = self.client.send(self.encoded(request))
            except OSError as exc:
                problems.append(f"{request.key}: {exc}")
                continue
            if response.status != 200:
                problems.append(f"{request.key}: HTTP {response.status}")
                continue
            problem = golden.check(self.pins, request.key, response.body)
            if problem:
                problems.append(problem)
                continue
            known = self.expected_length.setdefault(request.key, len(response.body))
            if known != len(response.body):
                problems.append(
                    f"{request.key}: body length {len(response.body)}, was {known}"
                )
        return problems

    def timed_pass(self, schedule: Sequence[Request], traced: bool = False) -> Pass:
        """One closed-loop pass; the timed body checks status + length only."""
        send = self.client.send
        expected = self.expected_length
        requests = [(self.encoded(r), expected[r.key]) for r in schedule]
        latencies: List[float] = []
        failed: List[int] = []
        first_byte: List[float] = []
        server_ms: List[float] = []
        response_bytes = 0
        calibration = min(calibration_ms() for _ in range(2))
        connections_before = self.client.connections
        server_cpu_before = self.server.cpu_seconds()
        cpu_before = time.process_time()
        started = time.perf_counter()
        for position, (data, length) in enumerate(requests):
            sent = time.perf_counter()
            try:
                response: Optional[Response] = send(data)
            except OSError:
                response = None
            latencies.append(time.perf_counter() - sent)
            if response is None or response.status != 200 or len(response.body) != length:
                failed.append(position)
                continue
            response_bytes += length
            if traced:
                first_byte.append(response.first_byte_at - response.sent_at)
                server_ms.append(float(response.headers.get("x-query-duration-ms", "nan")))
        elapsed = time.perf_counter() - started
        return Pass(
            latencies=latencies,
            failed=failed,
            elapsed=elapsed,
            client_cpu_s=time.process_time() - cpu_before,
            server_cpu_s=self.server.cpu_seconds() - server_cpu_before,
            connections=self.client.connections - connections_before,
            response_bytes=response_bytes,
            calibration_ms=calibration,
            first_byte=first_byte,
            server_ms=server_ms,
        )

    def stats(self) -> Dict:
        return json.loads(self.client.get("/stats").body)


def set_up(fixture: Fixture, workload: Workload, pins: Dict, repeats: int):
    """Start ``serve`` *repeats* times; returns (setup times, start times, last server).

    One set-up is spawn → ``/healthz`` 200 → first verified Q1 answer,
    which also pays the lazy first-touch of segments and dictionary.
    """
    first = request_for("Q1")
    setups, starts = [], []
    server = None
    for repeat in range(repeats):
        spawned = time.perf_counter()
        server = Server(fixture.store, workload.cache_size).start()
        try:
            driver = Driver(server, pins)
            problems = driver.verify([first])
            driver.close()
            if problems:
                raise RuntimeError(f"set-up answer wrong: {problems[0]}")
        except BaseException:
            server.stop()
            raise
        setups.append(time.perf_counter() - spawned)
        starts.append(server.start_s)
        if repeat < repeats - 1:
            server.stop()
    return setups, starts, server


def run(workload: Workload, fixture: Fixture, seed: int, passes: int,
        traced: bool = False) -> ServingRun:
    """One serving run of *passes* timed passes.

    A traced run sets up fewer times (it reports no ``setup_s``), adds one
    pass that keeps per-request timestamps and the server's own
    ``X-Query-Duration-ms``, and takes the live probes before the server stops.
    """
    pins = golden.load()
    schedule = build_schedule(workload, fixture.traces(), seed)
    texts = distinct(schedule)
    setups, starts, server = set_up(
        fixture, workload, pins, TRACED_SETUP_REPEATS if traced else SETUP_REPEATS)
    try:
        driver = Driver(server, pins)
        verify_failures = driver.verify(texts)
        stats_before = driver.stats()
        done: List[Pass] = []
        if not verify_failures:  # without verified lengths there is nothing to time
            for _ in range(passes):
                done.append(driver.timed_pass(schedule))
            if traced:
                done.append(driver.timed_pass(schedule, traced=True))
            verify_failures += driver.verify(texts)
        stats_after = driver.stats()
        peak_rss_mb = server.peak_rss_mb()
        probes = live_probes(driver) if traced else {}
        driver.close()
    finally:
        server.stop()
    return ServingRun(
        workload=workload, schedule=schedule, setups=setups, starts=starts,
        passes=done, verify_failures=verify_failures, peak_rss_mb=peak_rss_mb,
        stats_before=stats_before, stats_after=stats_after,
        verified=2 * len(texts), probes=probes,
    )


def envelope(schedule: Sequence[Request], passes: Sequence[Pass]) -> List[float]:
    """Every request of the schedule at the fastest its text was ever answered.

    Interference only ever adds time, so the minimum over all observations
    of one text (every pass, every position that sends it) converges on
    the program's own cost from above — within a burst that inflates a
    whole pass, and within a slow spell of the box in which only one
    observation in ten is clean.
    """
    floor: Dict[str, float] = {}
    for done in passes:
        for request, latency in zip(schedule, done.latencies):
            if latency < floor.get(request.key, float("inf")):
                floor[request.key] = latency
    return [floor[request.key] for request in schedule]


def end_to_end(run_: ServingRun, fixture: Fixture) -> Dict[str, float]:
    """The end-to-end metrics of a serving run, from the envelope of its passes.

    All three timings are floors: what the schedule costs when every
    request is answered as fast as its text ever was.  ``ops_per_s_ceiling``
    is therefore a rate no pass ran at; what the passes really took is in
    the run's notes and, ungated, in ``endpoint.pass_ops_per_s``.
    """
    quads = run_.stats_after["store"]["quads"]
    floors = envelope(run_.schedule, run_.passes)
    return {
        "setup_s": statistics.median(run_.setups),
        "ops_per_s_ceiling": len(floors) / sum(floors),
        "latency_floor_ms_p50": percentile(floors, 0.50) * 1e3,
        "latency_floor_ms_p99": percentile(floors, 0.99) * 1e3,
        "peak_rss_mb": run_.peak_rss_mb,
        "store_bytes_per_quad": fixture.store_bytes() / quads,
    }


def raw_samples(run_: ServingRun) -> Dict:
    """Per-request samples of every pass, in schedule order."""
    return {
        "classes": [r.cls for r in run_.schedule],
        "setups": run_.setups,
        "passes": [
            {"elapsed": p.elapsed, "latencies": p.latencies, "failed": p.failed,
             "client_cpu_s": p.client_cpu_s, "server_cpu_s": p.server_cpu_s,
             "calibration_ms": p.calibration_ms}
            for p in run_.passes
        ],
    }
