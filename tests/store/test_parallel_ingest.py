"""Parallel corpus ingest: byte-identical segments and failure context.

Workers only parse; the parent stays the single dictionary/WAL writer
and commits batches in file order, so every on-disk artifact (dict heap,
segment files, manifest) must be byte-for-byte what a serial ingest
writes.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.rdf.turtle import TurtleError
from repro.store import QuadStore, ingest_corpus

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel ingest tests rely on fork start method",
)


def _store_bytes(root):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.iterdir())
        if path.is_file()
    }


def _ingest(tmp_path, corpus_dir, jobs, tag):
    with QuadStore(tmp_path / f"store-{tag}") as store:
        report = ingest_corpus(store, corpus_dir, jobs=jobs)
    return (tmp_path / f"store-{tag}"), report


@pytest.mark.parametrize("jobs", [2, 4])
def test_parallel_ingest_byte_identical(jobs, tiny_corpus_dir, tmp_path):
    serial_root, serial_report = _ingest(tmp_path, tiny_corpus_dir, 1, "serial")
    parallel_root, parallel_report = _ingest(tmp_path, tiny_corpus_dir, jobs, f"j{jobs}")
    assert _store_bytes(parallel_root) == _store_bytes(serial_root)
    assert parallel_report.parsed == serial_report.parsed
    assert parallel_report.quads_added == serial_report.quads_added


@pytest.mark.slow
def test_parallel_ingest_full_corpus_byte_identical(built_corpus_dir, tmp_path):
    serial_root, serial_report = _ingest(tmp_path, built_corpus_dir, 1, "serial")
    parallel_root, parallel_report = _ingest(tmp_path, built_corpus_dir, 2, "j2")
    assert len(parallel_report.parsed) == 198
    assert _store_bytes(parallel_root) == _store_bytes(serial_root)


def test_parallel_reingest_is_noop(tiny_corpus_dir, tmp_path):
    with QuadStore(tmp_path / "store") as store:
        ingest_corpus(store, tiny_corpus_dir, jobs=2)
        report = ingest_corpus(store, tiny_corpus_dir, jobs=2)
    assert report.no_op
    assert len(report.skipped) == 2


def test_parse_failure_in_worker_names_the_file(tiny_corpus_dir, tmp_path):
    bad = tiny_corpus_dir / "Taverna" / "dom" / "t-1" / "broken.prov.ttl"
    bad.write_text("@prefix ex: <http://example.org/> .\nex:run4 a ;;; garbage\n")
    with QuadStore(tmp_path / "store") as store:
        with pytest.raises(TurtleError) as excinfo:
            ingest_corpus(store, tiny_corpus_dir, jobs=2)
    # The original exception class crosses the process boundary with its
    # parse location intact; the ingest context rides along as metadata.
    assert "broken.prov.ttl" in str(excinfo.value)
    assert excinfo.value.lineno == 2
    assert getattr(excinfo.value, "remote_context", "").startswith("while ingesting")
    assert "Traceback" in getattr(excinfo.value, "remote_traceback", "")


def test_killed_worker_raises_instead_of_hanging(tiny_corpus_dir, tmp_path, monkeypatch,
                                                 hang_guard):
    """A parse worker that dies without returning (SIGKILL, OOM) fails the
    ingest in seconds, naming the pipeline and the first unfinished file.

    The worker parsing run2 dies only once run1 has been committed, so
    run2 is the first unfinished task by construction: a death that beat
    run1's commit would, truthfully, name run1 instead."""
    from repro.store import ingest

    real = ingest._parse_batch_inner
    committed = tmp_path / "run1-committed"

    def die_on_run2(root, relpath, rdf_format):
        if relpath.endswith("run2.prov.trig"):
            deadline = time.monotonic() + 10
            while not committed.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            os.kill(os.getpid(), signal.SIGKILL)
        return real(root, relpath, rdf_format)

    def on_file(done, total, quads):
        if done == 1:
            committed.touch()

    monkeypatch.setattr(ingest, "_parse_batch_inner", die_on_run2)  # inherited via fork
    started = time.monotonic()
    with QuadStore(tmp_path / "store") as store:
        with pytest.raises(BrokenProcessPool, match="ingest: .*unfinished task: parse:Wings/dom/w-1/run2"):
            ingest_corpus(store, tiny_corpus_dir, jobs=2, on_file=on_file)
    assert time.monotonic() - started < 30
