"""Parallel corpus build: deterministic merge and failure propagation.

The contract under test is byte-identity: a ``build(jobs=N)`` corpus,
written to disk, must be indistinguishable file-by-file (sha256,
manifest included) from the serial build the rest of the suite uses.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.corpus import CorpusBuilder, write_corpus
from repro.workflow.errors import WorkflowError


def _tree_digests(root):
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="module")
def serial_tree(tmp_path_factory, corpus):
    """The session corpus (built with jobs=1) written once, hashed."""
    root = tmp_path_factory.mktemp("serial-corpus")
    write_corpus(corpus, root)
    return _tree_digests(root)


@pytest.mark.parametrize("jobs", [2, 4])
def test_parallel_build_byte_identical(jobs, corpus, serial_tree, tmp_path):
    parallel = CorpusBuilder(seed=corpus.seed).build(jobs=jobs)
    root = tmp_path / f"corpus-j{jobs}"
    write_corpus(parallel, root)
    tree = _tree_digests(root)
    assert tree == serial_tree
    # The in-memory merge must preserve plan order and metadata too.
    assert [t.run_id for t in parallel.traces] == [t.run_id for t in corpus.traces]
    assert [t.started for t in parallel.traces] == [t.started for t in corpus.traces]
    assert parallel.statistics() == corpus.statistics()


def test_resolve_jobs_contract():
    """jobs=None/0 resolve to the CPU count; explicit counts pass through."""
    from repro.parallel import resolve_jobs

    assert resolve_jobs(3) == 3
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker-failure propagation test relies on fork inheritance",
)
def test_worker_failure_carries_run_context(monkeypatch):
    """A run failing inside a worker surfaces the original exception class
    with the failing run and template named — not a bare pool traceback."""

    def broken_export(*args, **kwargs):
        raise WorkflowError("synthetic export failure")

    # Export only happens in the produce phase (the workers); the parent's
    # schedule pass executes but never exports, so patching here exercises
    # the worker error path specifically.  Workers inherit the patch via
    # fork.
    monkeypatch.setattr("repro.corpus.builder.taverna_export", broken_export)
    with pytest.raises(WorkflowError) as excinfo:
        CorpusBuilder(seed=2013).build(jobs=2)
    message = str(excinfo.value)
    assert "failed in worker" in message
    assert "synthetic export failure" in message
    assert "run t-" in message and "template t-" in message
    assert "Traceback" in getattr(excinfo.value, "remote_traceback", "")


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the kill is patched into workers through fork inheritance",
)
def test_killed_worker_raises_instead_of_hanging(monkeypatch, hang_guard):
    """A worker that dies without returning (SIGKILL, OOM) fails the build
    in seconds, naming the pipeline and the first unfinished run."""

    def die(*args, **kwargs):
        os.kill(os.getpid(), signal.SIGKILL)

    # Export runs in workers only (see above), so the parent survives.
    monkeypatch.setattr("repro.corpus.builder.taverna_export", die)
    builder = CorpusBuilder(seed=2013)
    first = builder.plan()[1][0].run_id
    started = time.monotonic()
    with pytest.raises(BrokenProcessPool, match=f"build: .*unfinished task: {first}"):
        builder.build(jobs=2)
    assert time.monotonic() - started < 30


def test_schedule_pass_failure_carries_run_context(monkeypatch):
    """A failure during the parent's schedule pass names the run too."""

    def broken_run(*args, **kwargs):
        raise WorkflowError("synthetic execute failure")

    from repro.taverna.engine import TavernaEngine

    monkeypatch.setattr(TavernaEngine, "run", broken_run)
    with pytest.raises(WorkflowError) as excinfo:
        CorpusBuilder(seed=2013).build(jobs=2)
    message = str(excinfo.value)
    assert "run t-" in message and "template t-" in message
    assert "synthetic execute failure" in message


class TestCorpusIndexes:
    """The lazy run-id/template/domain indexes behind trace() and friends."""

    def test_trace_lookup(self, corpus):
        sample = corpus.traces[123]
        assert corpus.trace(sample.run_id) is sample

    def test_trace_unknown_run_raises_keyerror(self, corpus):
        with pytest.raises(KeyError, match="no-such-run"):
            corpus.trace("no-such-run")

    def test_by_template_matches_scan(self, corpus):
        template_id = corpus.traces[0].template_id
        expected = [t for t in corpus.traces if t.template_id == template_id]
        assert corpus.by_template(template_id) == expected

    def test_by_domain_matches_scan(self, corpus):
        expected = [t for t in corpus.traces if t.domain == "astronomy"]
        assert corpus.by_domain("astronomy") == expected
        assert corpus.by_domain("no-such-domain") == []
