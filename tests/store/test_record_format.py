"""The store's bytes, pinned absolutely, and torn record files refused.

Every other byte-identity check in the suite is relative (serial vs
parallel, spilled vs in-memory, rebuild vs build): a writer change that
moved the bytes consistently would pass them all.  The digests below
were recorded from the seed-2013 corpus before the record writers were
unified; run this file after any change under ``store/`` or
``pathindex/``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.pathindex import FWD_FILE, build_path_index, load_path_index
from repro.store import QuadStore, StoreError, ingest_corpus

STORE_SHA256 = {
    "spog.seg": "5662ff7651d769184bbdfc128485e953180d887076e404070d1fd629f5d23aa5",
    "posg.seg": "3bcd69df94b23eccb5d554e2b3b000c20c4451f16933c73d1aec3ca1505f1140",
    "ospg.seg": "c1f722e7ec89f1cc9d569210f5a18621f74498a35b265722bf1769930294ba42",
    "gspo.seg": "a71a18957a2ec5b954b74891cc97bbc75b88deb64dabc0c3b1e962f82d4b0914",
    "paths.fwd": "86fab195a9d758af312cc915304719ba863b4fd96c9ad9cb5a21bda6dca6b893",
    "paths.inv": "3f06c420b86b37fcf724384385163ce4ffe1cc7dd579e53664c12e1515e8efd1",
    "dict.heap": "9b51ed3657dcb6f5ab0c3cc8d7907b220d269082ffb1d5405d9d3cca5851b91f",
    "dict.off": "8d087d369e0f66b263433bd6d88d3e7b826ab90f60497299e6b6cda9cb7eff61",
    "dict.hash": "179f13b74553cf42cba1f4f0c2411e8f2b022fff71dd27a040a7d83ab55dcd90",
    "store.json": "1338263159c71425ee527d390e718660cf9772c579bcac5ca96ae0ff6c7a3964",
    "pathindex.json": "88a23a22b65e5b8777007e937c23cfcd72df260183aadd4aac28929cd45db3fc",
}
STORE_BYTES = 4_153_178  # 40,589 quads: the harness's 102.32 B/quad


def _digests(store_path):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in store_path.iterdir()
        if path.stat().st_size  # the cleared WAL is the one empty file
    }


class TestFormatPin:
    def test_unspilled_store_bytes(self, built_corpus_dir, tmp_path):
        with QuadStore(tmp_path / "store") as store:
            ingest_corpus(store, built_corpus_dir)
        assert _digests(tmp_path / "store") == STORE_SHA256
        assert sum(p.stat().st_size for p in (tmp_path / "store").iterdir()) == STORE_BYTES

    def test_spilled_store_bytes(self, built_corpus_dir, tmp_path):
        with QuadStore(tmp_path / "store", spill_quad_budget=120) as store:
            ingest_corpus(store, built_corpus_dir, path_index=False)
            build_path_index(store, spill_edge_budget=64)
        assert _digests(tmp_path / "store") == STORE_SHA256


class TestTornRecordFile:
    """A record file whose size is not a multiple of its width is an
    interrupted copy or a foreign file — never a shorter valid one."""

    def test_torn_segment_refuses_the_open(self, tiny_corpus_dir, tmp_path):
        with QuadStore(tmp_path / "store") as store:
            ingest_corpus(store, tiny_corpus_dir)
            records = len(store.segment("spog"))
        with open(tmp_path / "store" / "spog.seg", "ab") as handle:
            handle.write(b"\0" * 5)
        with pytest.raises(StoreError) as raised:
            QuadStore(tmp_path / "store")
        message = str(raised.value)
        assert "spog.seg" in message and str(16 * records + 5) in message

    def test_torn_edge_file_means_no_index(self, tiny_corpus_dir, tmp_path):
        with QuadStore(tmp_path / "store") as store:
            ingest_corpus(store, tiny_corpus_dir)
            assert store.path_index() is not None
        with open(tmp_path / "store" / FWD_FILE, "ab") as handle:
            handle.write(b"\0" * 7)
        assert load_path_index(tmp_path / "store") is None
        with QuadStore(tmp_path / "store") as store:
            assert store.path_index() is None
