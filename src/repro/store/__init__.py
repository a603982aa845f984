"""Persistent dictionary-encoded quad store.

The disk-backed storage layer under the SPARQL query stack: a
:class:`~repro.store.quadstore.QuadStore` persists a corpus as integer
id-quads in sorted, mmap-read segment files plus a term dictionary,
written through a crash-safe WAL;
:func:`~repro.store.ingest.ingest_corpus` fills it incrementally from a
ProvBench corpus directory (:func:`~repro.store.ingest.open_corpus_store`
opens and syncs a corpus's store in one locked step); and
:class:`~repro.store.views.StoreDataset` exposes the result through the
standard ``Dataset``/``Graph`` API so
:class:`~repro.sparql.evaluator.QueryEngine` and the HTTP endpoint run
on it unchanged.
"""

from .dictionary import TermDictionary, decode_term, encode_term
from .ingest import IngestReport, ingest_corpus, open_corpus_store
from .quadstore import DEFAULT_SPILL_QUAD_BUDGET, QuadStore, StoreError
from .views import StoreDataset, StoreGraph, StoreWriteError
from .wal import WriteAheadLog

__all__ = [
    "QuadStore",
    "StoreError",
    "DEFAULT_SPILL_QUAD_BUDGET",
    "StoreDataset",
    "StoreGraph",
    "StoreWriteError",
    "TermDictionary",
    "WriteAheadLog",
    "IngestReport",
    "ingest_corpus",
    "open_corpus_store",
    "encode_term",
    "decode_term",
]
