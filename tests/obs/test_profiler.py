"""Statistical profiler: folded output, attribution by frame, accounting.

``sample_once`` is the deterministic seam: tests drive sampling passes
directly instead of racing the background thread, so attribution and
accounting assertions never flake on scheduler timing.
"""

import threading
import time

import pytest

from repro.obs import profiler
from repro.obs.profiler import StackProfiler, render_folded


class TestFoldedFormat:
    COUNTS = {
        ("main (a.py:1)", "run (b.py:2)"): 5,
        ("idle (c.py:3)",): 2,
        ("main (a.py:1)",): 1,
    }

    def test_render_is_sorted_lines_with_counts(self):
        text = render_folded(self.COUNTS)
        assert text.splitlines() == [
            "idle (c.py:3) 2",
            "main (a.py:1) 1",
            "main (a.py:1);run (b.py:2) 5",
        ]
        assert text.endswith("\n")

    def test_empty_counts_render_empty(self):
        assert render_folded({}) == ""


class TestSampling:
    def test_sample_once_captures_this_thread(self):
        prof = StackProfiler(hz=50)
        kept = prof.sample_once()
        assert kept >= 1
        flat = ";".join(label for stack in prof.counts() for label in stack)
        assert "test_sample_once_captures_this_thread" in flat

    def test_thread_attribution(self):
        """No registry: a thread's own frames say what it was serving."""
        prof = StackProfiler(hz=50)
        ready = threading.Event()
        done = threading.Event()

        def busy_request():
            ready.set()
            done.wait(5)

        worker = threading.Thread(target=busy_request, daemon=True)
        worker.start()
        assert ready.wait(5)
        try:
            prof.sample_once()
        finally:
            done.set()
            worker.join(5)
        assert any(label.startswith("busy_request (")
                   for stack in prof.counts() for label in stack)

    def test_unregistered_threads_are_unattributed(self):
        """Every folded stack starts at its thread's root frame: no route
        or other label is prefixed to it."""
        prof = StackProfiler(hz=50)
        prof.sample_once()
        assert prof.counts()
        assert all(stack[0].endswith(")") and " (" in stack[0]
                   for stack in prof.counts())

    def test_background_loop_collects(self):
        with StackProfiler(hz=100) as prof:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if prof.snapshot()["samples_kept"] >= 3:
                    break
                time.sleep(0.01)
        snap = prof.snapshot()
        assert snap["samples_kept"] >= 3
        assert not snap["running"]
        assert prof.counts()

    def test_max_depth_truncates(self):
        prof = StackProfiler(hz=50, max_depth=2)
        prof.sample_once()
        assert all(len(stack) <= 2 for stack in prof.counts())

    def test_hz_must_be_positive(self):
        with pytest.raises(ValueError):
            StackProfiler(hz=0)


class TestAccounting:
    def test_overhead_and_kept_counters(self):
        prof = StackProfiler(hz=50)
        for _ in range(3):
            prof.sample_once()
        snap = prof.snapshot()
        assert snap["samples_kept"] == 3
        assert snap["samples_dropped"] == 0
        assert snap["overhead_s"] >= 0.0
        assert snap["distinct_stacks"] >= 1


class TestModuleSingleton:
    """The module-level window: a profiler that lives for one window."""

    def test_profile_window_without_running_profiler(self):
        threads = threading.active_count()
        counts, snap = profiler.profile_window(0.06, hz=100)
        assert snap["samples_kept"] >= 1
        assert counts  # this thread's sleep is visible in the window
        assert not snap["running"]  # temporary, torn down
        assert threading.active_count() == threads
