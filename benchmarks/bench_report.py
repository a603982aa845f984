"""The one-shot reproduction report: regenerated as a benchmark artifact.

Produces ``_artifacts/reproduction_report.md`` — every paper artifact in
one reviewable document — and measures the end-to-end report build (all
tables, coverage with inference, applications, profile, maintenance).
"""

import datetime as dt
import json

import pytest

from repro.corpus import profile_corpus
from repro.report import build_report
from .conftest import write_artifact


def test_full_report(corpus, benchmark, artifacts_dir):
    text = benchmark.pedantic(build_report, args=(corpus,), rounds=2, iterations=1)

    assert "DEVIATES" not in text
    assert "**identical to the paper**" in text
    assert "corpus aligned" in text
    write_artifact(artifacts_dir, "reproduction_report.md", text)


def test_corpus_profile_artifact(corpus, benchmark, artifacts_dir):
    profile = benchmark.pedantic(profile_corpus, args=(corpus,), rounds=2, iterations=1)

    summary = profile.summary()
    assert summary["traces"] == 198
    write_artifact(artifacts_dir, "corpus_profile.json",
                   json.dumps(summary, indent=2, sort_keys=True))


def _registry_metrics() -> dict:
    """Headline observability counters at trajectory-record time.

    The benchmark session runs everything in one process, so the global
    metrics registry has accumulated the WAL fsyncs and query-cache
    traffic of every bench that ran before this file was collected.
    Recording the snapshot next to the timings lets future PRs correlate
    a latency move with a behavioural one (e.g. hit ratio collapsed).
    """
    from repro.obs import metrics

    hits = metrics.value("repro_query_cache_total", {"event": "hit"}) or 0
    misses = metrics.value("repro_query_cache_total", {"event": "miss"}) or 0
    evictions = metrics.value("repro_query_cache_total", {"event": "eviction"}) or 0
    lookups = hits + misses
    return {
        "wal_fsyncs": metrics.value("repro_store_wal_fsync_total") or 0,
        "query_cache_hits": hits,
        "query_cache_misses": misses,
        "query_cache_evictions": evictions,
        "query_cache_hit_ratio": round(hits / lookups, 4) if lookups else None,
    }


def test_query_cache_trajectory(artifacts_dir):
    """Fold this run's query-cache numbers into the cross-PR trajectory.

    ``bench_query_cache.py`` (collected before this file) writes
    ``query_cache.json``; here we append its headline numbers to
    ``query_cache_trajectory.json`` so future PRs can see whether the
    cold/warm latencies and concurrent throughput move.
    """
    current = artifacts_dir / "query_cache.json"
    if not current.exists():
        pytest.skip("bench_query_cache.py did not run in this session")
    data = json.loads(current.read_text())
    assert data["overall_speedup"] >= 5
    entry = {
        "recorded_at": dt.datetime.now().isoformat(timespec="seconds"),
        "cold_total_ms": data["cold_total_ms"],
        "warm_total_ms": data["warm_total_ms"],
        "overall_speedup": data["overall_speedup"],
        "throughput_qps": data.get("concurrent_endpoint", {}).get("throughput_qps"),
        "metrics": _registry_metrics(),
    }
    trajectory_path = artifacts_dir / "query_cache_trajectory.json"
    trajectory = json.loads(trajectory_path.read_text()) if trajectory_path.exists() else []
    trajectory.append(entry)
    write_artifact(artifacts_dir, "query_cache_trajectory.json",
                   json.dumps(trajectory[-50:], indent=2))


def test_parallel_build_trajectory(artifacts_dir):
    """Fold this run's parallel-pipeline numbers into the trajectory.

    ``bench_parallel_build.py`` writes ``parallel_build.json``; its
    headline numbers (serial/parallel build and ingest wall time, the
    speedups, and the CPU count they were measured on) are appended to
    ``parallel_build_trajectory.json`` so future PRs can see whether the
    parallel fan-out or the serial baselines move.
    """
    current = artifacts_dir / "parallel_build.json"
    if not current.exists():
        pytest.skip("bench_parallel_build.py did not run in this session")
    data = json.loads(current.read_text())
    assert data["corpus_identical"] and data["store_identical"]
    entry = {
        "recorded_at": dt.datetime.now().isoformat(timespec="seconds"),
        "cpu_count": data["cpu_count"],
        "jobs": data["jobs"],
        "serial_build_s": data["serial_build_s"],
        "parallel_build_s": data["parallel_build_s"],
        "build_speedup": data["build_speedup"],
        "serial_ingest_s": data["serial_ingest_s"],
        "parallel_ingest_s": data["parallel_ingest_s"],
        "ingest_speedup": data["ingest_speedup"],
        "metrics": _registry_metrics(),
    }
    trajectory_path = artifacts_dir / "parallel_build_trajectory.json"
    trajectory = json.loads(trajectory_path.read_text()) if trajectory_path.exists() else []
    trajectory.append(entry)
    write_artifact(artifacts_dir, "parallel_build_trajectory.json",
                   json.dumps(trajectory[-50:], indent=2))


def test_query_plan_trajectory(artifacts_dir):
    """Fold this run's EXPLAIN plan digests into the trajectory.

    ``bench_queries.py`` writes ``query_plans.json``; recording the
    Q1–Q6 digests per PR makes planner changes show up as an explicit
    digest flip in ``query_plan_trajectory.json`` instead of only as an
    unexplained latency move.
    """
    current = artifacts_dir / "query_plans.json"
    if not current.exists():
        pytest.skip("bench_queries.py did not run in this session")
    data = json.loads(current.read_text())
    assert sorted(data) == ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]
    entry = {
        "recorded_at": dt.datetime.now().isoformat(timespec="seconds"),
        "digests": {name: payload["digest"] for name, payload in sorted(data.items())},
    }
    trajectory_path = artifacts_dir / "query_plan_trajectory.json"
    trajectory = json.loads(trajectory_path.read_text()) if trajectory_path.exists() else []
    trajectory.append(entry)
    write_artifact(artifacts_dir, "query_plan_trajectory.json",
                   json.dumps(trajectory[-50:], indent=2))


def test_paths_trajectory(artifacts_dir):
    """Fold this run's path-index numbers into the trajectory.

    ``bench_paths.py`` writes ``paths_bench.json``; the deep-lineage
    speedup and the trie mining cost are appended to
    ``paths_trajectory.json`` so future PRs can see whether the index
    keeps paying for itself.
    """
    current = artifacts_dir / "paths_bench.json"
    if not current.exists():
        pytest.skip("bench_paths.py did not run in this session")
    data = json.loads(current.read_text())
    assert data["deep_lineage"]["speedup"] >= 5
    entry = {
        "recorded_at": dt.datetime.now().isoformat(timespec="seconds"),
        "deep_lineage_speedup": data["deep_lineage"]["speedup"],
        "deep_lineage_queries": data["deep_lineage"]["queries"],
        "frequent_patterns": data["frequent_patterns"]["patterns"],
        "trie_mine_s": data["frequent_patterns"]["trie_mine_s"],
        "metrics": _registry_metrics(),
    }
    trajectory_path = artifacts_dir / "paths_trajectory.json"
    trajectory = json.loads(trajectory_path.read_text()) if trajectory_path.exists() else []
    trajectory.append(entry)
    write_artifact(artifacts_dir, "paths_trajectory.json",
                   json.dumps(trajectory[-50:], indent=2))


def test_scale_trajectory(artifacts_dir):
    """Fold this run's scale-out numbers into the trajectory.

    ``bench_scale.py`` writes ``scale_bench.json``; the per-scale ingest
    throughput, peak RSS, and Q1–Q6 cold latencies are appended to
    ``scale_trajectory.json`` so future PRs can see whether the
    streaming pipeline keeps its flat-memory, flat-throughput promise as
    the corpus grows.
    """
    current = artifacts_dir / "scale_bench.json"
    if not current.exists():
        pytest.skip("bench_scale.py did not run in this session")
    data = json.loads(current.read_text())
    assert len(data["points"]) >= 3
    assert data["rss_ratio"] < data["size_ratio"], "peak RSS grew superlinearly"
    entry = {
        "recorded_at": dt.datetime.now().isoformat(timespec="seconds"),
        "cpu_count": data["cpu_count"],
        "scales": data["scales"],
        "rss_ratio": data["rss_ratio"],
        "size_ratio": data["size_ratio"],
        "points": [
            {
                "scale": point["scale"],
                "quads": point["quads"],
                "ingest_quads_per_s": point["ingest_quads_per_s"],
                "peak_rss_mb": point["peak_rss_mb"],
                "q_cold_ms": {
                    name: q["cold_ms"] for name, q in sorted(point["queries"].items())
                },
            }
            for point in data["points"]
        ],
        "intern_terms_per_s": data["intern"]["terms_per_s"],
        "max_fold_s": data["intern"]["max_fold_s"],
        "metrics": _registry_metrics(),
    }
    trajectory_path = artifacts_dir / "scale_trajectory.json"
    trajectory = json.loads(trajectory_path.read_text()) if trajectory_path.exists() else []
    trajectory.append(entry)
    write_artifact(artifacts_dir, "scale_trajectory.json",
                   json.dumps(trajectory[-50:], indent=2))


def test_store_trajectory(artifacts_dir):
    """Fold this run's persistent-store numbers into the trajectory.

    ``bench_store.py`` writes ``store_bench.json``; its headline numbers
    (cold ingest, no-op re-ingest, store-backed Q1) are appended to
    ``store_trajectory.json`` so future PRs can see whether ingest cost
    or the mmap read path move.
    """
    current = artifacts_dir / "store_bench.json"
    if not current.exists():
        pytest.skip("bench_store.py did not run in this session")
    data = json.loads(current.read_text())
    assert data["cold_ingest"]["parsed_files"] == 198
    assert data["noop_reingest"]["parsed_files"] == 0
    entry = {
        "recorded_at": dt.datetime.now().isoformat(timespec="seconds"),
        "cold_ingest_s": data["cold_ingest"]["duration_s"],
        "noop_reingest_s": data["noop_reingest"]["duration_s"],
        "quads": data.get("query", {}).get("quads"),
        "q1_cold_ms": data.get("query", {}).get("q1_cold_ms"),
        "q1_warm_ms": data.get("query", {}).get("q1_warm_ms"),
        "metrics": _registry_metrics(),
    }
    trajectory_path = artifacts_dir / "store_trajectory.json"
    trajectory = json.loads(trajectory_path.read_text()) if trajectory_path.exists() else []
    trajectory.append(entry)
    write_artifact(artifacts_dir, "store_trajectory.json",
                   json.dumps(trajectory[-50:], indent=2))
