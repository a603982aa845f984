"""Tests for incremental corpus ingest: hashing, no-ops, rebuilds."""

import hashlib
import threading
import time

import pytest

from repro.rdf import Namespace
from repro.rdf.turtle import TurtleError
from repro.store import QuadStore, StoreDataset, ingest_corpus, open_corpus_store

EX = Namespace("http://example.org/")

NEW_TRACE = """\
@prefix ex: <http://example.org/> .
@prefix prov: <http://www.w3.org/ns/prov#> .
ex:run3 a prov:Activity ; prov:used ex:data9 .
"""


@pytest.fixture
def store(tmp_path):
    with QuadStore(tmp_path / "store") as s:
        yield s


class TestIncrementalIngest:
    def test_first_ingest_parses_everything(self, store, tiny_corpus_dir):
        report = ingest_corpus(store, tiny_corpus_dir)
        assert len(report.parsed) == 2
        assert report.skipped == []
        assert not report.rebuilt
        assert report.quads_added == store.quad_count > 0

    def test_second_ingest_is_noop(self, store, tiny_corpus_dir):
        ingest_corpus(store, tiny_corpus_dir)
        generation = store.generation
        report = ingest_corpus(store, tiny_corpus_dir)
        assert report.no_op
        assert report.parsed == []
        assert len(report.skipped) == 2
        assert store.generation == generation

    def test_new_file_ingested_incrementally(self, store, tiny_corpus_dir):
        ingest_corpus(store, tiny_corpus_dir)
        before = store.quad_count
        new = tiny_corpus_dir / "Taverna" / "dom" / "t-1" / "run3.prov.ttl"
        new.write_text(NEW_TRACE)
        report = ingest_corpus(store, tiny_corpus_dir)
        assert not report.rebuilt  # additive: no rebuild needed
        assert report.parsed == ["Taverna/dom/t-1/run3.prov.ttl"]
        assert len(report.skipped) == 2
        assert store.quad_count == before + 2

    def test_changed_file_triggers_rebuild(self, store, tiny_corpus_dir):
        ingest_corpus(store, tiny_corpus_dir)
        target = tiny_corpus_dir / "Taverna" / "dom" / "t-1" / "run1.prov.ttl"
        target.write_text(NEW_TRACE)
        report = ingest_corpus(store, tiny_corpus_dir)
        assert report.rebuilt
        assert len(report.parsed) == 2  # everything re-parsed
        # stale quads from the old file contents are gone
        ds = StoreDataset(store)
        assert list(ds.union_graph().triples(EX.run1, None, None)) == []
        assert len(list(ds.union_graph().triples(EX.run3, None, None))) == 2

    def test_removed_file_triggers_rebuild(self, store, tiny_corpus_dir):
        ingest_corpus(store, tiny_corpus_dir)
        (tiny_corpus_dir / "Wings" / "dom" / "w-1" / "run2.prov.trig").unlink()
        report = ingest_corpus(store, tiny_corpus_dir)
        assert report.rebuilt
        assert report.removed == ["Wings/dom/w-1/run2.prov.trig"]
        assert store.files.keys() == {"Taverna/dom/t-1/run1.prov.ttl"}
        assert StoreDataset(store).graph_names() == []

    def test_parse_error_aborts_cleanly(self, store, tiny_corpus_dir):
        ingest_corpus(store, tiny_corpus_dir)
        quads = store.quad_count
        files = store.files
        bad = tiny_corpus_dir / "Taverna" / "dom" / "t-1" / "bad.prov.ttl"
        bad.write_text("@prefix ex: <http://example.org/ .\nex:a ex:b ???")
        with pytest.raises(TurtleError) as excinfo:
            ingest_corpus(store, tiny_corpus_dir)
        assert "Taverna/dom/t-1/bad.prov.ttl" in str(excinfo.value)
        # the failed file left no trace in the store
        store.compact()
        assert store.quad_count == quads
        assert store.files == files
        # fixing the file makes the next ingest succeed
        bad.write_text(NEW_TRACE)
        report = ingest_corpus(store, tiny_corpus_dir)
        assert report.parsed == ["Taverna/dom/t-1/bad.prov.ttl"]

    def test_committed_digest_is_of_the_bytes_parsed(self, store, tiny_corpus_dir):
        # the second trace is rewritten after discovery hashed it but
        # before it is parsed: what is recorded must describe what was read
        second = tiny_corpus_dir / "Wings" / "dom" / "w-1" / "run2.prov.trig"

        def rewrite_second(done, total, quads):
            if done == 1:
                second.write_text(NEW_TRACE, encoding="utf-8")

        report = ingest_corpus(store, tiny_corpus_dir, on_file=rewrite_second)
        assert report.parsed[1] == "Wings/dom/w-1/run2.prov.trig"
        assert store.files[report.parsed[1]] == hashlib.sha256(NEW_TRACE.encode()).hexdigest()
        union = StoreDataset(store).union_graph()
        assert len(list(union.triples(EX.run3, None, None))) == 2
        # ... so the store is in step with the directory, not one rebuild behind
        assert ingest_corpus(store, tiny_corpus_dir).no_op

    def test_missing_corpus_dir_rejected(self, store, tmp_path):
        with pytest.raises(FileNotFoundError):
            ingest_corpus(store, tmp_path / "nowhere")

    def test_prefixes_captured(self, store, tiny_corpus_dir):
        ingest_corpus(store, tiny_corpus_dir)
        assert store.prefixes.get("prov") == "http://www.w3.org/ns/prov#"
        ds = StoreDataset(store)
        assert ds.namespaces.expand("prov:used").value == "http://www.w3.org/ns/prov#used"

    def test_report_summary_fields(self, store, tiny_corpus_dir):
        summary = ingest_corpus(store, tiny_corpus_dir).summary()
        assert summary["parsed_files"] == 2
        assert summary["rebuilt"] is False
        assert summary["quads_added"] == store.quad_count
        assert summary["duration_s"] >= 0


class TestOpenCorpusStore:
    def test_defaults_next_to_corpus(self, tiny_corpus_dir):
        store, report = open_corpus_store(tiny_corpus_dir)
        with store:
            assert store.path == tiny_corpus_dir / ".store"
            assert len(report.parsed) == 2
        store, report = open_corpus_store(tiny_corpus_dir)
        store.close()
        assert report.no_op

    def test_missing_corpus_creates_nothing(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no corpus directory at"):
            open_corpus_store(tmp_path / "nope", tmp_path / "store")
        assert sorted(tmp_path.iterdir()) == []

    def test_concurrent_syncs_serialize(self, tiny_corpus_dir, tmp_path):
        """A second sync that starts while the first is between files
        waits for it, then finds nothing to do.  ``flock`` locks belong to
        an open file description, so two threads opening the store
        directory contend exactly as two processes do."""
        store_dir = tmp_path / "store"
        paused, second_started = threading.Event(), threading.Event()
        first = {}

        def pause_after_first_file(done, total, quads):
            if done == 1:
                paused.set()
                second_started.wait(10)
                time.sleep(0.2)  # room for an unserialized second sync to run

        def first_sync():
            store, first["report"] = open_corpus_store(
                tiny_corpus_dir, store_dir, on_file=pause_after_first_file)
            store.close()

        thread = threading.Thread(target=first_sync)
        thread.start()
        assert paused.wait(10)
        second_started.set()
        store, report = open_corpus_store(tiny_corpus_dir, store_dir)
        thread.join(10)
        with store:
            assert report.summary()["parsed_files"] == 0
            assert store.generation == 1  # what one serial sync leaves
        assert len(first["report"].parsed) == 2
