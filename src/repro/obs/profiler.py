"""Always-on statistical profiler: folded stacks from ``sys._current_frames``.

A single daemon thread wakes ``hz`` times per second, snapshots every
thread's current Python stack via :func:`sys._current_frames`, and
folds each stack into an aggregated counter keyed by
``(attribution, frame tuple)``.  No tracing hooks, no interpreter
slowdown between samples — the steady-state cost is the sampling
thread's own work, which the profiler *accounts for* (cumulative
``overhead_s``) and the benchmark gate bounds at ≤1.05× on the
heaviest instrumented path.

Attribution: request-serving threads register themselves in a
thread→route registry (:func:`register_thread`); samples landing on a
registered thread are folded under that route, everything else under
``"-"``.  One profile therefore answers both "where does wall-clock go
overall" and "where does ``/sparql`` time go".

Output is one format, folded stacks (:func:`render_folded`): Brendan
Gregg's collapsed format — ``route;root;caller;leaf 42``, one stack per
line — which ``flamegraph.pl`` and speedscope both import as is.

Sampling fidelity is bookkept, not assumed: when one sampling pass
overruns the tick interval the missed ticks count as *dropped*
samples, and ``repro_profiler_samples_total{state=kept|dropped}``,
``repro_profiler_overhead_seconds`` and the sampling-interval gauge
mirror the live counters onto ``/metrics`` through a registry
collector.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from . import metrics as _metrics

__all__ = [
    "DEFAULT_HZ",
    "StackProfiler",
    "get_profiler",
    "profile_window",
    "register_thread",
    "render_folded",
    "start",
    "stop",
    "unregister_thread",
]

DEFAULT_HZ = 67.0
_UNATTRIBUTED = "-"

_SAMPLES = _metrics.counter(
    "repro_profiler_samples_total",
    "Profiler sampling ticks by outcome",
    labels=("state",),
)
for _state in ("kept", "dropped"):
    _SAMPLES.labels(_state)
del _state
_OVERHEAD = _metrics.counter(
    "repro_profiler_overhead_seconds",
    "Cumulative wall time spent inside the profiler's sampling passes",
)
_INTERVAL = _metrics.gauge(
    "repro_profiler_interval_seconds",
    "Configured sampling interval of the running profiler (0 = stopped)",
)

# -- thread → route registry ------------------------------------------

_registry_lock = threading.Lock()
_thread_requests: Dict[int, str] = {}


def register_thread(route: str) -> None:
    """Attribute the calling thread's samples to *route*."""
    with _registry_lock:
        _thread_requests[threading.get_ident()] = route


def unregister_thread() -> None:
    with _registry_lock:
        _thread_requests.pop(threading.get_ident(), None)


def _frame_label(code) -> str:
    """A stable per-function frame label: ``name (tail/of/path.py:line)``.

    Keyed on the function (``co_firstlineno``), not the executing line,
    so one hot function folds into one frame instead of fanning out
    per-line.
    """
    filename = code.co_filename.replace("\\", "/")
    parts = filename.rsplit("/", 2)
    short = "/".join(parts[-2:]) if len(parts) > 1 else filename
    return f"{code.co_name} ({short}:{code.co_firstlineno})"


class StackProfiler:
    """Samples all threads' stacks into aggregated collapsed counts."""

    def __init__(self, hz: float = DEFAULT_HZ, max_depth: int = 64):
        if hz <= 0:
            raise ValueError("profiler hz must be positive")
        self.hz = float(hz)
        self.interval = 1.0 / self.hz
        self.max_depth = int(max_depth)
        self._lock = threading.Lock()
        self._counts: Dict[Tuple[str, Tuple[str, ...]], int] = {}
        self._kept = 0
        self._dropped = 0
        self._overhead_s = 0.0
        self._started_at: Optional[float] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._collector = None
        self._label_cache: Dict[object, str] = {}

    # -- lifecycle -----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "StackProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._stop.clear()
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._loop, name="repro-profiler", daemon=True
        )
        self._collector = self._make_collector()
        _metrics.get_registry().register_collector(self._collector)
        _INTERVAL.set(self.interval)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5)
        self._thread = None
        if self._collector is not None:
            # Mirror the final values, then detach.
            self._collector(_metrics.get_registry())
            _metrics.get_registry().unregister_collector(self._collector)
            self._collector = None
        _INTERVAL.set(0.0)

    def __enter__(self) -> "StackProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _make_collector(self):
        def collect(registry) -> None:
            with self._lock:
                kept, dropped, overhead = self._kept, self._dropped, self._overhead_s
            _SAMPLES.labels("kept").set_total(kept)
            _SAMPLES.labels("dropped").set_total(dropped)
            _OVERHEAD.set_total(round(overhead, 6))

        return collect

    # -- sampling ------------------------------------------------------

    def _loop(self) -> None:
        own_id = threading.get_ident()
        next_tick = time.monotonic() + self.interval
        while not self._stop.is_set():
            delay = next_tick - time.monotonic()
            if delay > 0 and self._stop.wait(delay):
                break
            started = time.monotonic()
            try:
                self.sample_once(skip_thread=own_id)
            except Exception:
                # The profiler must never take down the process it
                # observes; a failed pass counts as dropped.
                with self._lock:
                    self._dropped += 1
            cost = time.monotonic() - started
            next_tick += self.interval
            now = time.monotonic()
            if now > next_tick:
                # The pass overran one or more ticks: account for the
                # samples that never happened instead of bursting to
                # catch up (bursting would bias the profile toward
                # whatever runs right after a slow pass).
                missed = int((now - next_tick) / self.interval) + 1
                with self._lock:
                    self._dropped += missed
                next_tick += missed * self.interval

    def sample_once(self, skip_thread: Optional[int] = None) -> int:
        """Take one sampling pass over all threads; returns stacks kept.

        Exposed for deterministic tests — the background loop calls
        this once per tick.
        """
        started = time.monotonic()
        frames = sys._current_frames()
        with _registry_lock:
            attribution = dict(_thread_requests)
        stacks: List[Tuple[str, Tuple[str, ...]]] = []
        for tid, frame in frames.items():
            if tid == skip_thread:
                continue
            labels: List[str] = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                code = frame.f_code
                label = self._label_cache.get(code)
                if label is None:
                    label = _frame_label(code)
                    self._label_cache[code] = label
                labels.append(label)
                frame = frame.f_back
                depth += 1
            if not labels:
                continue
            labels.reverse()  # root → leaf, the folded-stack order
            stacks.append((attribution.get(tid, _UNATTRIBUTED), tuple(labels)))
        cost = time.monotonic() - started
        with self._lock:
            for key in stacks:
                self._counts[key] = self._counts.get(key, 0) + 1
            self._kept += 1
            self._overhead_s += cost
        return len(stacks)

    # -- reading -------------------------------------------------------

    def counts(self) -> Dict[Tuple[str, Tuple[str, ...]], int]:
        with self._lock:
            return dict(self._counts)

    def snapshot(self) -> Dict:
        with self._lock:
            elapsed = (
                time.monotonic() - self._started_at
                if self._started_at is not None
                else 0.0
            )
            return {
                "hz": self.hz,
                "interval_s": round(self.interval, 6),
                "running": self.running,
                "samples_kept": self._kept,
                "samples_dropped": self._dropped,
                "overhead_s": round(self._overhead_s, 6),
                "overhead_ratio": (
                    round(self._overhead_s / elapsed, 6) if elapsed > 0 else 0.0
                ),
                "distinct_stacks": len(self._counts),
                "elapsed_s": round(elapsed, 3),
            }

    def window(self, seconds: float) -> Dict[Tuple[str, Tuple[str, ...]], int]:
        """Stack counts accumulated over the next *seconds* only.

        Diff of two snapshots around a sleep — the way
        ``GET /debug/profile?seconds=N`` carves a window out of the
        always-on profiler without resetting it.
        """
        before = self.counts()
        time.sleep(max(0.0, seconds))
        after = self.counts()
        delta: Dict[Tuple[str, Tuple[str, ...]], int] = {}
        for key, count in after.items():
            diff = count - before.get(key, 0)
            if diff > 0:
                delta[key] = diff
        return delta


def render_folded(counts: Dict[Tuple[str, Tuple[str, ...]], int]) -> str:
    """Collapsed-stack text for ``{(attr, frames): count}`` aggregates."""
    lines = sorted(
        (route, stack, count) for (route, stack), count in counts.items()
    )
    return "\n".join(
        ";".join((route,) + stack) + f" {count}" for route, stack, count in lines
    ) + ("\n" if lines else "")


# -- module-level singleton -------------------------------------------

_profiler: Optional[StackProfiler] = None
_profiler_lock = threading.Lock()


def get_profiler() -> Optional[StackProfiler]:
    return _profiler


def start(hz: float = DEFAULT_HZ) -> StackProfiler:
    """Start (or return) the process-wide always-on profiler."""
    global _profiler
    with _profiler_lock:
        if _profiler is not None and _profiler.running:
            return _profiler
        _profiler = StackProfiler(hz=hz).start()
        return _profiler


def stop() -> None:
    global _profiler
    with _profiler_lock:
        if _profiler is not None:
            _profiler.stop()
            _profiler = None


def profile_window(seconds: float, hz: float = DEFAULT_HZ):
    """Folded-stack counts for the next *seconds*.

    Uses the always-on profiler's window when one is running; otherwise
    spins up a temporary profiler for exactly the window.  Returns
    ``(counts, snapshot)``.
    """
    active = get_profiler()
    if active is not None and active.running:
        before = active.snapshot()
        counts = active.window(seconds)
        snapshot = active.snapshot()
        # Scope the counters to the window: the always-on profiler's
        # cumulative totals would misreport a 2 s request as the whole
        # process lifetime.
        for key in ("samples_kept", "samples_dropped"):
            snapshot[key] -= before[key]
        snapshot["overhead_s"] = round(
            max(0.0, snapshot["overhead_s"] - before["overhead_s"]), 6
        )
        snapshot["elapsed_s"] = round(max(0.0, seconds), 3)
        snapshot["overhead_ratio"] = (
            round(snapshot["overhead_s"] / seconds, 6) if seconds > 0 else 0.0
        )
        snapshot["distinct_stacks"] = len(counts)
        return counts, snapshot
    temporary = StackProfiler(hz=hz)
    with temporary:
        time.sleep(max(0.0, seconds))
    return temporary.counts(), temporary.snapshot()
