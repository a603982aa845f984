"""Index build determinism, manifest integration, and lifecycle."""

from __future__ import annotations

import json

import pytest

from repro.pathindex import (
    FWD_FILE,
    INV_FILE,
    MANIFEST_FILE,
    build_path_index,
    load_path_index,
    store_files_sha,
)

INDEX_FILES = (FWD_FILE, INV_FILE)


def test_index_bytes_identical_across_jobs(store_dir_j1, store_dir_j2):
    for name in INDEX_FILES:
        assert (store_dir_j1 / name).read_bytes() == (store_dir_j2 / name).read_bytes()
    manifest_j1 = json.loads((store_dir_j1 / MANIFEST_FILE).read_text())
    manifest_j2 = json.loads((store_dir_j2 / MANIFEST_FILE).read_text())
    assert manifest_j1 == manifest_j2


def test_rebuild_is_deterministic(indexed_store, store_dir_j1):
    before = {name: (store_dir_j1 / name).read_bytes() for name in INDEX_FILES}
    manifest = build_path_index(indexed_store)
    assert manifest["generation"] == indexed_store.generation
    for name in INDEX_FILES:
        assert (store_dir_j1 / name).read_bytes() == before[name]


def test_manifest_records_rebuild_key(indexed_store, store_dir_j1):
    manifest = json.loads((store_dir_j1 / MANIFEST_FILE).read_text())
    assert manifest["files_sha"] == store_files_sha(indexed_store)
    assert manifest["edge_count"] > 0
    assert "trie" not in manifest
    # Every relation is self-described.
    assert "http://www.w3.org/ns/prov#used" in manifest["relations"]
    assert "http://www.w3.org/ns/prov#wasGeneratedBy" in manifest["relations"]


def test_store_info_embeds_index_summary(indexed_store):
    info = indexed_store.store_info()
    assert info["path_index"] is not None
    assert info["path_index"]["generation"] == indexed_store.generation
    assert info["path_index"]["edges"] > 0


def test_noop_reingest_keeps_index_fresh(indexed_store, pathindex_corpus_dir):
    from repro.store import ingest_corpus

    report = ingest_corpus(indexed_store, pathindex_corpus_dir)
    assert report.no_op
    assert report.path_index == "fresh"


def test_stale_generation_is_rejected(tmp_path, pathindex_corpus_dir):
    from repro.store import QuadStore, ingest_corpus

    with QuadStore(tmp_path / "store") as store:
        ingest_corpus(store, pathindex_corpus_dir)
        assert store.path_index() is not None
        manifest_path = store.path / MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        manifest["generation"] += 1
        manifest_path.write_text(json.dumps(manifest))
    with QuadStore(tmp_path / "store") as reopened:
        assert reopened.path_index() is None  # stale → invisible


def test_missing_edge_file_is_rejected(tmp_path, pathindex_corpus_dir):
    from repro.store import QuadStore, ingest_corpus

    with QuadStore(tmp_path / "store") as store:
        ingest_corpus(store, pathindex_corpus_dir)
        (store.path / FWD_FILE).unlink()
        assert load_path_index(store.path) is None


def test_reset_clears_index(tmp_path, pathindex_corpus_dir):
    from repro.store import QuadStore, ingest_corpus

    with QuadStore(tmp_path / "store") as store:
        ingest_corpus(store, pathindex_corpus_dir)
        assert store.path_index() is not None
        store.reset()
        assert store.path_index() is None
        for name in INDEX_FILES + (MANIFEST_FILE,):
            assert not (store.path / name).exists()


def test_build_requires_compacted_store(tmp_path, pathindex_corpus_dir):
    from repro.store import QuadStore, ingest_corpus

    with QuadStore(tmp_path / "store") as store:
        ingest_corpus(store, pathindex_corpus_dir, compact=False,
                      path_index=False)
        if store.has_pending():
            with pytest.raises(RuntimeError):
                build_path_index(store)
        else:  # pragma: no cover - compaction policy changed
            pytest.skip("store compacted despite compact=False")
