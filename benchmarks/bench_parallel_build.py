"""Observability overhead gate: instrumentation and profiler ≤ 1.05×.

The one check on the build path that no tier-1 test and no harness
metric holds yet: a full 198-run serial build with the metrics registry
enabled, a span tracer active and one ``/metrics`` render per round —
and, separately, under the statistical profiler — may cost at most 1.05×
the bare build, best-of-3 against best-of-3.  (That ``--jobs N`` output is
byte-identical to serial is asserted by ``tests/corpus/test_parallel_build.py``,
``tests/store/test_parallel_ingest.py`` and the CI ``diff -r``.)

A plain script — no pytest entry point, no artifact::

    PYTHONPATH=src python benchmarks/bench_parallel_build.py

Exits non-zero when either ratio exceeds the limit.
"""

import json
import sys
import time
from pathlib import Path

OVERHEAD_LIMIT = 1.05
ROUNDS = 3


def measure_instrumentation_overhead() -> dict:
    """Best-of-N serial build with metrics disabled vs. fully observed.

    The observability layer promises that instrumentation is cheap: every
    registry mutation starts with a single enabled-flag check, and hot
    loops count into plain ints that collectors mirror later.  This
    measures that promise on the heaviest instrumented path — the full
    198-run build — with the registry disabled versus enabled *plus* an
    active span tracer *plus* one Prometheus render of the registry per
    round (a scrape), and reports the wall-clock ratio.
    """
    from repro.corpus import CorpusBuilder
    from repro.obs import metrics
    from repro.obs.trace import Tracer

    registry = metrics.get_registry()
    was_enabled = registry.enabled
    disabled_s = None
    instrumented_s = None
    span_events = 0
    try:
        # One warmup build, then alternate the two sides, as the profiler
        # leg does: a fresh process's first build is its fastest, and heap
        # growth and machine-load drift then hit both sides equally.
        CorpusBuilder(seed=2013).build()
        for _ in range(ROUNDS):
            registry.set_enabled(False)
            elapsed = _timed(lambda: CorpusBuilder(seed=2013).build())
            if disabled_s is None or elapsed < disabled_s:
                disabled_s = elapsed
            registry.set_enabled(True)
            tracer = Tracer()

            def observed_build():
                CorpusBuilder(seed=2013).build(tracer=tracer)
                registry.render_prometheus()

            elapsed = _timed(observed_build)
            span_events = len(tracer.events())
            if instrumented_s is None or elapsed < instrumented_s:
                instrumented_s = elapsed
        scrape_series = sum(
            len(family["samples"]) for family in registry.snapshot().values()
        )
    finally:
        registry.set_enabled(was_enabled)
    return {
        "rounds": ROUNDS,
        "disabled_s": round(disabled_s, 3),
        "instrumented_s": round(instrumented_s, 3),
        "overhead_ratio": round(instrumented_s / disabled_s, 4),
        "span_events": span_events,
        "scrape_series": scrape_series,
    }


def measure_profiler_overhead() -> dict:
    """Best-of-N serial build bare vs. under the statistical profiler.

    The profiler's cost model: one ``sys._current_frames()`` walk per
    tick on a background thread, zero instrumentation on the observed
    code.  Measured at the default rate on the heaviest path (the full
    198-run build) the wall-clock ratio must stay within the same
    ≤1.05× envelope the metrics/tracer instrumentation promises.
    """
    from repro.corpus import CorpusBuilder
    from repro.obs.profiler import DEFAULT_HZ, StackProfiler

    # One warmup build (caches, imports), then alternate bare/profiled
    # rounds so machine-load drift hits both sides equally; best-of-N
    # against best-of-N isolates the profiler's own cost from noise.
    CorpusBuilder(seed=2013).build()
    bare_s = None
    profiled_s = None
    snapshot = {}
    for _ in range(ROUNDS):
        elapsed = _timed(lambda: CorpusBuilder(seed=2013).build())
        if bare_s is None or elapsed < bare_s:
            bare_s = elapsed
        with StackProfiler(hz=DEFAULT_HZ) as prof:
            elapsed = _timed(lambda: CorpusBuilder(seed=2013).build())
        snapshot = prof.snapshot()
        if profiled_s is None or elapsed < profiled_s:
            profiled_s = elapsed
    return {
        "rounds": ROUNDS,
        "hz": DEFAULT_HZ,
        "bare_s": round(bare_s, 3),
        "profiled_s": round(profiled_s, 3),
        "overhead_ratio": round(profiled_s / bare_s, 4),
        "samples_kept": snapshot.get("samples_kept", 0),
        "samples_dropped": snapshot.get("samples_dropped", 0),
        "profiler_self_s": snapshot.get("overhead_s", 0.0),
    }


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    result = {
        "instrumentation": measure_instrumentation_overhead(),
        "profiler": measure_profiler_overhead(),
    }
    print(json.dumps(result, indent=2))
    failed = False
    for name, measured in result.items():
        ratio = measured["overhead_ratio"]
        if ratio > OVERHEAD_LIMIT:
            print(f"FAIL: {name} overhead {ratio:.3f}x exceeds {OVERHEAD_LIMIT}x",
                  file=sys.stderr)
            failed = True
    if result["instrumentation"]["span_events"] == 0:
        print("FAIL: the traced build emitted no spans", file=sys.stderr)
        failed = True
    if result["profiler"]["samples_kept"] == 0:
        print("FAIL: the profiler kept no samples", file=sys.stderr)
        failed = True
    if not failed:
        print("gate OK: instrumentation overhead "
              f"{result['instrumentation']['overhead_ratio']:.3f}x; profiler overhead "
              f"{result['profiler']['overhead_ratio']:.3f}x")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(_main())
