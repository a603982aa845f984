"""One record per task: pool-worker metrics reach the parent's registry.

A ``--jobs N`` build or ingest used to lose every counter incremented
inside a worker process.  Each task now returns one record — payload,
spans and the worker registry's additive deltas — and the parent absorbs
the deltas as it folds the records, so *with no observability directory
at all* a parallel run leaves exactly the serial run's registry deltas
(the per-task code is the same either way).
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro import parallel
from repro.obs import events
from repro.obs import metrics as _metrics
from repro.parallel import ObsConfig, Task, map_tasks
from repro.store import QuadStore, ingest_corpus

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the parallel pipelines rely on the fork start method",
)

_PARSE_COUNTERS = (
    ("repro_ingest_parse_quads_total", None),
    ("repro_ingest_parse_terms_total", {"result": "miss"}),
    ("repro_ingest_parse_terms_total", {"result": "hit"}),
)


def _parse_values():
    return tuple(_metrics.value(name, labels) or 0.0 for name, labels in _PARSE_COUNTERS)


def _ingest_deltas(corpus_dir, store_dir, jobs):
    before = _parse_values()
    with QuadStore(store_dir) as store:
        ingest_corpus(store, corpus_dir, jobs=jobs)
    return tuple(a - b for a, b in zip(_parse_values(), before))


def test_jobs2_worker_counters_sum_to_serial(tiny_corpus_dir, tmp_path):
    serial = _ingest_deltas(tiny_corpus_dir, tmp_path / "store-serial", 1)
    assert all(value > 0 for value in serial), "fixture must parse quads and terms"
    assert _ingest_deltas(tiny_corpus_dir, tmp_path / "store-j2", 2) == serial


def _build_runs():
    family = _metrics.snapshot()["repro_build_runs_total"]["samples"]
    return {tuple(sorted(s["labels"].items())): s["value"] for s in family}


def test_jobs2_build_counters_equal_serial(monkeypatch):
    from repro.corpus import CorpusBuilder

    def build_deltas(jobs):
        builder = CorpusBuilder(seed=2013)
        by_id, plan = builder.plan()
        taverna = [e for e in plan if by_id[e.template_id].system == "taverna"]
        wings = [e for e in plan if by_id[e.template_id].system == "wings"]
        failing = [e for e in plan if e.will_fail]
        short = taverna[:3] + wings[:3] + failing[:2]
        monkeypatch.setattr(builder, "plan", lambda: (by_id, short))
        before = _build_runs()
        builder.build(jobs=jobs)
        return {key: value - before.get(key, 0.0)
                for key, value in _build_runs().items() if value != before.get(key, 0.0)}

    serial = build_deltas(1)
    assert sum(serial.values()) == 8
    assert {dict(key)["status"] for key in serial} == {"ok", "failed"}
    assert build_deltas(2) == serial


@pytest.fixture()
def event_log(tmp_path):
    events.configure(str(tmp_path / "obs"))
    yield tmp_path / "obs"
    events.unconfigure()


def _done_counters(obs_dir):
    return [record["counters"] for record in events.read_events(str(obs_dir))
            if record["kind"] == "ingest.done"]


def test_serial_ingest_with_obs_dir_matches_registry(tiny_corpus_dir, tmp_path, event_log):
    # The ingest.done line carries the counters that moved during the
    # command — the same numbers the registry gained.
    deltas = _ingest_deltas(tiny_corpus_dir, tmp_path / "store", 1)
    (counters,) = _done_counters(event_log)
    assert (
        counters["repro_ingest_parse_quads_total"],
        counters['repro_ingest_parse_terms_total{result="miss"}'],
        counters['repro_ingest_parse_terms_total{result="hit"}'],
    ) == deltas
    assert counters['repro_ingest_files_total{result="parsed"}'] == 3
    assert all(isinstance(value, int) for value in counters.values())


def test_done_event_counters_equal_across_jobs(tiny_corpus_dir, tmp_path, event_log):
    _ingest_deltas(tiny_corpus_dir, tmp_path / "store-j1", 1)
    _ingest_deltas(tiny_corpus_dir, tmp_path / "store-j2", 2)
    serial, parallel_ = _done_counters(event_log)
    assert serial == parallel_


# -- the task record itself ---------------------------------------------------

_TICKS = _metrics.counter("test_task_record_ticks_total", "ticks", labels=("who",))
_SECONDS = _metrics.histogram("test_task_record_seconds", "observations")
_LEVEL = _metrics.gauge("test_task_record_level", "a level")


def _tick(state, args, tracer):
    (amount,) = args
    _TICKS.labels("task").inc(amount)
    _SECONDS.observe(0.002)
    _LEVEL.set(41)
    if amount == 13:
        raise ValueError("unlucky")
    return amount


def _tasks(*amounts):
    return [Task(f"t{i}", f"task t{i}", (amount,)) for i, amount in enumerate(amounts)]


def _no_state():
    return None


def test_fork_inherited_value_is_not_counted_again():
    # The parent's own 5 is in every forked worker's registry; only what
    # the tasks add may come back.
    _TICKS.labels("task").inc(5)
    before = _TICKS.labels("task").value
    assert list(map_tasks("test", _tasks(1, 2, 3, 4), 2, _no_state, (), _tick)) == [1, 2, 3, 4]
    assert _TICKS.labels("task").value == before + 10


def test_failing_task_deltas_arrive_with_its_remote_error():
    before = _TICKS.labels("task").value
    with pytest.raises(ValueError, match="task t1: unlucky"):
        list(map_tasks("test", _tasks(1, 13), 2, _no_state, (), _tick))
    assert _TICKS.labels("task").value == before + 14


@pytest.fixture()
def record(monkeypatch):
    """One task run through the worker-side wrapper, in this process."""
    monkeypatch.setattr(parallel, "_WORKER", None)
    _TICKS.labels("bystander").inc()  # before the baseline: never shipped
    parallel._init_worker(ObsConfig(), _no_state, (), _tick)
    return parallel._run_task(Task("t0", "task t0", (2,)))


def test_record_ships_only_what_the_task_moved(record):
    assert record.key == "t0" and record.payload == 2 and record.spans is None
    kind, _, label_names, _, series = record.deltas["test_task_record_ticks_total"]
    assert (kind, label_names) == ("counter", ("who",))
    assert series == {("task",): (2.0,)}


def test_histogram_delta_keeps_its_full_edge_set(record):
    kind, _, _, edges, series = record.deltas["test_task_record_seconds"]
    assert kind == "histogram" and edges == _SECONDS._buckets
    (vector,) = series.values()
    *buckets, total, count = vector
    assert len(buckets) == len(edges)
    assert sum(buckets) == count == 1 and total == pytest.approx(0.002)
    # Absorbed into an empty registry, the exposition has every edge.
    fresh = _metrics.MetricsRegistry()
    fresh.absorb(record.deltas)
    body = fresh.render_prometheus()
    assert body.count("test_task_record_seconds_bucket{") == len(edges)
    assert "test_task_record_seconds_count 1" in body


def test_gauge_is_never_shipped(record):
    assert _LEVEL.value == 41
    assert "test_task_record_level" not in record.deltas
    assert all(kind != "gauge" for kind, *_ in record.deltas.values())
