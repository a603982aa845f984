"""Statistical profiler: folded output, attribution, accounting.

``sample_once`` is the deterministic seam: tests drive sampling passes
directly instead of racing the background thread, so attribution and
accounting assertions never flake on scheduler timing.
"""

import threading
import time

import pytest

from repro.obs import metrics as _metrics
from repro.obs import profiler
from repro.obs.profiler import StackProfiler, render_folded


class TestFoldedFormat:
    COUNTS = {
        ("/sparql", ("main (a.py:1)", "run (b.py:2)")): 5,
        ("-", ("idle (c.py:3)",)): 2,
        ("/sparql", ("main (a.py:1)",)): 1,
    }

    def test_render_is_sorted_lines_with_counts(self):
        text = render_folded(self.COUNTS)
        assert text.splitlines() == [
            "-;idle (c.py:3) 2",
            "/sparql;main (a.py:1) 1",
            "/sparql;main (a.py:1);run (b.py:2) 5",
        ]
        assert text.endswith("\n")

    def test_empty_counts_render_empty(self):
        assert render_folded({}) == ""


class TestSampling:
    def test_sample_once_captures_this_thread(self):
        prof = StackProfiler(hz=50)
        kept = prof.sample_once()
        assert kept >= 1
        stacks = [stack for (_, stack) in prof.counts()]
        flat = ";".join(label for stack in stacks for label in stack)
        assert "test_sample_once_captures_this_thread" in flat

    def test_thread_attribution(self):
        prof = StackProfiler(hz=50)
        ready = threading.Event()
        done = threading.Event()

        def busy_request():
            profiler.register_thread("/sparql")
            try:
                ready.set()
                done.wait(5)
            finally:
                profiler.unregister_thread()

        worker = threading.Thread(target=busy_request, daemon=True)
        worker.start()
        assert ready.wait(5)
        try:
            prof.sample_once()
        finally:
            done.set()
            worker.join(5)
        routes = {route for (route, _) in prof.counts()}
        assert "/sparql" in routes

    def test_unregistered_threads_are_unattributed(self):
        prof = StackProfiler(hz=50)
        prof.sample_once()
        assert all(route == "-" for (route, _) in prof.counts())

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
        assert all(len(stack) <= 2 for (_, stack) in prof.counts())

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

    def test_metrics_mirrored_while_running(self):
        with StackProfiler(hz=100) as prof:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if prof.snapshot()["samples_kept"] >= 2:
                    break
                time.sleep(0.01)
            snapshot = _metrics.snapshot()
            interval = snapshot["repro_profiler_interval_seconds"]["samples"][0]
            assert interval["value"] == pytest.approx(0.01)
        # final values mirrored on stop, gauge reset to 0
        snapshot = _metrics.snapshot()
        interval = snapshot["repro_profiler_interval_seconds"]["samples"][0]
        assert interval["value"] == 0.0
        families = snapshot["repro_profiler_samples_total"]["samples"]
        kept = {tuple(sorted(s["labels"].items())): s["value"] for s in families}
        assert kept[(("state", "kept"),)] >= 2

    def test_window_diffs_counts(self):
        prof = StackProfiler(hz=50)
        prof.sample_once()
        before = dict(prof.counts())
        window_counts = prof.window(0.0)  # no sleep, no new samples
        assert window_counts == {}
        prof.sample_once()
        # everything sampled after `before` shows up as a positive delta
        after = prof.counts()
        assert sum(after.values()) > sum(before.values())


class TestModuleSingleton:
    def test_start_stop_idempotent(self):
        prof = profiler.start(hz=100)
        try:
            assert profiler.get_profiler() is prof
            assert profiler.start(hz=100) is prof  # already running
        finally:
            profiler.stop()
        assert profiler.get_profiler() is None
        profiler.stop()  # second stop is a no-op

    def test_profile_window_without_running_profiler(self):
        assert profiler.get_profiler() is None
        counts, snap = profiler.profile_window(0.06, hz=100)
        assert snap["samples_kept"] >= 1
        assert counts  # this thread's sleep is visible in the window
        assert profiler.get_profiler() is None  # temporary, torn down

    def test_profile_window_scopes_always_on_counters(self):
        prof = profiler.start(hz=100)
        try:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if prof.snapshot()["samples_kept"] >= 20:
                    break
                time.sleep(0.01)
            cumulative = prof.snapshot()["samples_kept"]
            assert cumulative >= 20
            _, snap = profiler.profile_window(0.05)
            # the window must not report the profiler's lifetime totals
            assert snap["samples_kept"] < cumulative
            assert snap["samples_dropped"] <= prof.snapshot()["samples_dropped"]
            assert snap["elapsed_s"] == 0.05
        finally:
            profiler.stop()
