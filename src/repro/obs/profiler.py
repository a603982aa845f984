"""Statistical profiler: folded stacks from ``sys._current_frames``.

While it runs, a daemon thread wakes ``hz`` times per second, snapshots
every other thread's current Python stack via
:func:`sys._current_frames`, and folds each stack into an aggregated
counter keyed by its frame tuple.  No tracing hooks, no interpreter
slowdown between samples — the cost is the sampling thread's own work,
which the profiler *accounts for* (cumulative ``overhead_s``) and the
benchmark gate bounds at ≤1.05× on the heaviest instrumented path.

It runs only when asked: ``GET /debug/profile?seconds=N`` samples a
temporary profiler over exactly its window (:func:`profile_window`).
Nothing registers a thread: a request-serving thread's stack holds the
endpoint handler's frames (``_run_query``, ``_send_stats``, ...), which
name the route it is serving.

Output is one format, folded stacks (:func:`render_folded`): Brendan
Gregg's collapsed format — ``root;caller;leaf 42``, one stack per line —
which ``flamegraph.pl`` and speedscope both import as is.

Sampling fidelity is bookkept, not assumed: when one sampling pass
overruns the tick interval the missed ticks count as *dropped* samples
in :meth:`StackProfiler.snapshot`.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

__all__ = ["DEFAULT_HZ", "StackProfiler", "profile_window", "render_folded"]

DEFAULT_HZ = 67.0


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
        self._counts: Dict[Tuple[str, ...], int] = {}
        self._kept = 0
        self._dropped = 0
        self._overhead_s = 0.0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._label_cache: Dict[object, str] = {}

    # -- lifecycle -----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "StackProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5)
        self._thread = None

    def __enter__(self) -> "StackProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- sampling ------------------------------------------------------

    def _loop(self) -> None:
        own_id = threading.get_ident()
        next_tick = time.monotonic() + self.interval
        while not self._stop.is_set():
            delay = next_tick - time.monotonic()
            if delay > 0 and self._stop.wait(delay):
                break
            try:
                self.sample_once(skip_thread=own_id)
            except Exception:
                # The profiler must never take down the process it
                # observes; a failed pass counts as dropped.
                with self._lock:
                    self._dropped += 1
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
        stacks: List[Tuple[str, ...]] = []
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
            stacks.append(tuple(labels))
        cost = time.monotonic() - started
        with self._lock:
            for key in stacks:
                self._counts[key] = self._counts.get(key, 0) + 1
            self._kept += 1
            self._overhead_s += cost
        return len(stacks)

    # -- reading -------------------------------------------------------

    def counts(self) -> Dict[Tuple[str, ...], int]:
        with self._lock:
            return dict(self._counts)

    def snapshot(self) -> Dict:
        with self._lock:
            return {
                "hz": self.hz,
                "running": self.running,
                "samples_kept": self._kept,
                "samples_dropped": self._dropped,
                "overhead_s": round(self._overhead_s, 6),
                "distinct_stacks": len(self._counts),
            }


def render_folded(counts: Dict[Tuple[str, ...], int]) -> str:
    """Collapsed-stack text for ``{frames: count}`` aggregates."""
    return "".join(";".join(stack) + f" {count}\n"
                   for stack, count in sorted(counts.items()))


def profile_window(seconds: float, hz: float = DEFAULT_HZ):
    """Folded-stack counts of a temporary profiler run for *seconds*:
    ``(counts, snapshot)``."""
    with StackProfiler(hz=hz) as profiler:
        time.sleep(max(0.0, seconds))
    return profiler.counts(), profiler.snapshot()
