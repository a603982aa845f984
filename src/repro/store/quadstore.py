"""The persistent quad store: dictionary + WAL + sorted segments.

One :class:`QuadStore` owns a directory:

    <store>/
      store.json   manifest: generation, counts, graph ids, prefixes,
                   ingested-file content hashes, segment record counts
      wal.log      append-only write-ahead log (see repro.store.wal)
      dict.heap / dict.off / dict.hash    term dictionary files
      spog.seg / posg.seg / ospg.seg / gspo.seg   sorted id-quad segments
      spill.json / spill-NNNNNN.<ordering>.run    spill state + sorted
                   run files, present only mid-ingest (see repro.store.spill)

Lifecycle
---------
``QuadStore(path)`` opens (creating an empty store if needed), replays
any committed WAL tail, and — if the WAL was non-empty — immediately
compacts it into fresh segments.  That replay-then-compact *is* the
crash-recovery path: a process that died mid-ingest left committed
per-file records in the WAL, and the next open folds them in; an
uncommitted tail (no trailing FILE marker, short write, bad CRC) is
truncated away and the affected source file re-ingested later because
its hash never reached the manifest.

Writes go through :meth:`begin_file` / :meth:`commit_file`; readers use
the pattern-matching accessors, which the view layer
(:mod:`repro.store.views`) adapts to the ``Graph``/``Dataset`` API.

Compaction (:meth:`compact`, called from :meth:`close`) merges the
segment records with the WAL quads, rewrites the four orderings and the
dictionary files (tmp + atomic rename each), then commits the new
generation by atomically replacing ``store.json`` and clearing the WAL.
The manifest write is the commit point; a crash anywhere before it
leaves the previous generation fully intact.

Invariants the readers rely on:

* term ids are dense, start at 1, and are never reassigned; id 0 is the
  default graph in quad position ``g``;
* every segment holds the same quad set, permuted per ordering, sorted,
  and duplicate-free;
* ``manifest["generation"]`` increases on every compaction that changed
  anything — the SPARQL result cache keys on it via
  :attr:`~repro.store.views.StoreDataset.version`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..obs import events as _events
from ..obs import metrics as _metrics
from ..rdf.terms import Term
from . import spill as _spill_io
from .dictionary import TermDictionary, decode_term
from .segments import (
    ACCESS_PATHS,
    ORDERINGS,
    AccessPath,
    SegmentReader,
    StoreError,
    atomic_write_json,
    iter_records,
    merge_distinct,
    permute,
    segment_filename,
    write_records,
)
from .wal import WriteAheadLog

__all__ = [
    "QuadStore", "StoreError", "MANIFEST_FILE", "FORMAT_VERSION",
    "DEFAULT_SPILL_QUAD_BUDGET",
]

MANIFEST_FILE = "store.json"
FORMAT_VERSION = 1

#: Pending quads held in memory before they spill to sorted run files.
#: ~500k quad tuples is on the order of 100 MB of interpreter objects —
#: the RSS plateau of an arbitrarily large ingest.
DEFAULT_SPILL_QUAD_BUDGET = 500_000

_COMPACTION_TOTAL = _metrics.counter(
    "repro_store_compaction_total", "Store compactions that rewrote segments"
)
_COMPACTION_SECONDS = _metrics.histogram(
    "repro_store_compaction_seconds", "Store compaction wall time in seconds"
)
_SPILL_TOTAL = _metrics.counter(
    "repro_store_spill_total", "Pending-quad batches spilled to sorted run files"
)
_SPILL_QUADS = _metrics.counter(
    "repro_store_spill_quads_total", "Quad records written to spill runs"
)

Quad = Tuple[int, int, int, int]  # (s, p, o, g); g == 0 means default graph


def _empty_manifest() -> Dict:
    return {
        "format_version": FORMAT_VERSION,
        "generation": 0,
        "term_count": 0,
        "quad_count": 0,
        "graphs": [],
        "prefixes": {},
        "files": {},
        "segments": {},
    }


class QuadStore:
    """A single-directory persistent quad store (see module docstring)."""

    def __init__(
        self,
        path: Path,
        spill_quad_budget: Optional[int] = DEFAULT_SPILL_QUAD_BUDGET,
    ):
        self.path = Path(path)
        # None or 0 disables spilling (pending quads stay in memory
        # until compaction, as before); tests force tiny budgets to
        # exercise the external-merge path on small corpora.
        self.spill_quad_budget = spill_quad_budget or 0
        self.path.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._closed = False
        manifest_path = self.path / MANIFEST_FILE
        if manifest_path.exists():
            self.manifest = json.loads(manifest_path.read_text())
            if self.manifest.get("format_version") != FORMAT_VERSION:
                raise StoreError(
                    f"unsupported store format {self.manifest.get('format_version')!r} "
                    f"at {self.path} (expected {FORMAT_VERSION})"
                )
        else:
            self.manifest = _empty_manifest()
        self._segments: Dict[str, SegmentReader] = {}
        # Cumulative bisect probes from readers retired by compaction;
        # keeps store_info() monotonic across segment rewrites.
        self._probe_totals: Dict[str, int] = dict.fromkeys(ORDERINGS, 0)
        # Readers superseded by a compaction/reset but possibly still
        # iterated by an in-flight scan.  Their mmaps stay valid after
        # the segment file is atomically replaced (the mapping pins the
        # old inode), so retiring instead of closing gives every scan a
        # consistent snapshot; close() releases them all.
        self._retired_readers: List[SegmentReader] = []
        # Before the dictionary and WAL: a torn segment refuses the open
        # with nothing else held.
        self._open_segments()
        self.dictionary = TermDictionary(self.path)
        self.wal = WriteAheadLog(self.path)
        # Pending (WAL-committed but uncompacted) state.  Files and
        # prefixes stay cumulative across spills (they are tiny); quads
        # are flushed to spill runs whenever they exceed the budget.
        self._pending_quads: List[Quad] = []
        self._pending_files: Dict[str, str] = {}
        self._pending_prefixes: List[Tuple[str, str]] = []
        # Committed spill state (see repro.store.spill).
        self._spill_state = _spill_io.read_spill_state(self.path)
        _spill_io.remove_orphan_runs(self.path, self._spill_state)
        # Lazily opened path/pattern index for the current generation
        # (see path_index()); stale handles are closed and re-probed.
        self._path_index = None
        # In-flight file (begun, not committed).
        self._file_quads: Optional[Set[Quad]] = None
        self._file_relpath: Optional[str] = None
        self._file_digest: Optional[str] = None
        self._file_term_watermark = 0
        self._file_prefix_watermark = 0
        self._recover()

    # -- lifecycle ----------------------------------------------------------

    def _open_segments(self) -> None:
        for name, reader in self._segments.items():
            self._probe_totals[name] += reader.probes
            reader.probes = 0  # harvested; avoid double counting at close
            self._retired_readers.append(reader)
        self._segments = {
            name: SegmentReader(self.path / segment_filename(name)) for name in ORDERINGS
        }

    def _recover(self) -> None:
        # State a previous process spilled out of the WAL: the quads sit
        # in run files (merged at compaction); the file digests and
        # prefixes re-enter the pending maps here.
        spilled = bool(self._spill_state["batches"])
        if spilled:
            self._pending_files.update(self._spill_state.get("files", {}))
            for prefix, base in self._spill_state.get("prefixes", ()):
                if not any(p == prefix for p, _ in self._pending_prefixes):
                    self._pending_prefixes.append((prefix, base))
        replay = self.wal.replay()
        if replay.truncated:
            self.wal.truncate_to(replay.committed_bytes)
        if replay.empty and not spilled:
            return
        # Replay interns with dedup (add_bytes, not add_encoded): a crash
        # between a spill's state commit and its WAL clear leaves TERM
        # records for terms the spill already folded into the dictionary;
        # they must map back to their existing ids, not allocate new ones.
        for encoded in replay.terms:
            self.dictionary.add_bytes(encoded)
        self._pending_quads.extend(replay.quads)
        self._pending_files.update(replay.files)
        self._pending_prefixes.extend(
            (p, b) for p, b in replay.prefixes
            if not any(q == p for q, _ in self._pending_prefixes)
        )
        self.compact()

    def close(self) -> None:
        """Compact any pending state and release all file handles."""
        with self._lock:
            if self._closed:
                return
            if self._file_relpath is not None:
                raise StoreError(
                    f"close() during uncommitted ingest of {self._file_relpath!r}"
                )
            if self.has_pending():
                self.compact()
            if self._path_index is not None:
                self._path_index.close()
                self._path_index = None
            self.wal.close()
            self.dictionary.close()
            for reader in self._segments.values():
                reader.close()
            for reader in self._retired_readers:
                reader.close()
            self._retired_readers = []
            self._closed = True

    def __enter__(self) -> "QuadStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- identity / observability -------------------------------------------

    @property
    def generation(self) -> int:
        return self.manifest["generation"]

    @property
    def quad_count(self) -> int:
        return self.manifest["quad_count"]

    @property
    def graph_ids(self) -> List[int]:
        return list(self.manifest["graphs"])

    @property
    def prefixes(self) -> Dict[str, str]:
        return dict(self.manifest["prefixes"])

    @property
    def files(self) -> Dict[str, str]:
        """Ingested source files: relative path → sha256 content hash."""
        return dict(self.manifest["files"])

    def store_info(self) -> Dict:
        """Sizes and counters for the endpoint's ``/stats`` route.

        Holds the store lock: ``compact()``/``reset()`` swap the reader
        dict and rewrite the files this reads, so an unlocked snapshot
        could mix generations (or, before readers were retired instead
        of closed, hit a closed mmap).
        """
        with self._lock:
            return self._store_info_locked()

    def _store_info_locked(self) -> Dict:
        index = self.path_index()
        segment_sizes = {
            name: {
                "records": len(self._segments[name]),
                "bytes": (self.path / segment_filename(name)).stat().st_size
                if (self.path / segment_filename(name)).exists()
                else 0,
            }
            for name in ORDERINGS
        }
        # Runtime counters live apart from the structural sizes above:
        # "segments" must be reproducible across reopen, probe counts are
        # a property of the queries this process happened to run.
        return {
            "path": str(self.path),
            "generation": self.generation,
            "quads": self.quad_count,
            "graphs": len(self.manifest["graphs"]),
            "files": len(self.manifest["files"]),
            "terms": len(self.dictionary),
            "dictionary_bytes": self.dictionary.file_sizes(),
            "decoded_term_cache": self.dictionary.cache_info(),
            "term_dictionary": self.dictionary.intern_info(),
            "wal": {"fsyncs": self.wal.fsync_count},
            "spill": {
                "budget": self.spill_quad_budget,
                "batches": len(self._spill_state["batches"]),
                "quad_records": self._spill_state.get("quad_records", 0),
            },
            "segments": segment_sizes,
            "segment_probes": self._segment_probes(),
            "path_index": index.info() if index is not None else None,
        }

    def runtime_counters(self) -> Tuple[int, int]:
        """``(total bisect probes, decode-LRU hits)`` as plain ints.

        The query profiler samples this before/after each scan batch to
        attribute store work to individual triple patterns; both values
        are monotonically increasing process-lifetime counters, so a
        delta between two samples is the cost of the work in between.
        """
        with self._lock:
            return sum(self._segment_probes().values()), self.dictionary.cache_hits

    def _segment_probes(self) -> Dict[str, int]:
        """Per-ordering bisect probes: retired readers' plus the live one's."""
        return {
            name: self._probe_totals[name] + self._segments[name].probes
            for name in ORDERINGS
        }

    # -- ingest (single-writer) ---------------------------------------------

    def begin_file(self, relpath: str, sha256_hex: str) -> None:
        """Start the atomic ingest of one source file."""
        with self._lock:
            if self._file_relpath is not None:
                raise StoreError(f"file ingest already in progress: {self._file_relpath!r}")
            self._file_relpath = relpath
            self._file_digest = sha256_hex
            self._file_quads = set()
            self._file_term_watermark = len(self.dictionary)
            self._file_prefix_watermark = len(self._pending_prefixes)

    def add_term(self, term: Term) -> int:
        """Intern a term, WAL-logging it if new; returns its id."""
        encoded_before = len(self.dictionary)
        term_id = self.dictionary.add(term)
        if len(self.dictionary) != encoded_before:  # newly allocated
            self.wal.append_term(self.dictionary.encoded(term_id))
        return term_id

    def add_term_encoded(self, data: bytes) -> int:
        """Intern a pre-encoded term (parallel ingest workers encode
        off-process; see :func:`repro.store.dictionary.encode_term`)."""
        encoded_before = len(self.dictionary)
        term_id = self.dictionary.add_bytes(data)
        if len(self.dictionary) != encoded_before:
            self.wal.append_term(data)
        return term_id

    def add_quad(self, s: int, p: int, o: int, g: int = 0) -> bool:
        """Add an id-quad to the in-flight file; returns True if new."""
        if self._file_quads is None:
            raise StoreError("add_quad() outside begin_file()/commit_file()")
        quad = (s, p, o, g)
        if quad in self._file_quads:
            return False
        self._file_quads.add(quad)
        self.wal.append_quad(s, p, o, g)
        return True

    def add_prefix(self, prefix: str, base: str) -> None:
        """Record a namespace binding (first binding of a prefix wins)."""
        if prefix in self.manifest["prefixes"]:
            return
        if any(p == prefix for p, _ in self._pending_prefixes):
            return
        self._pending_prefixes.append((prefix, base))
        self.wal.append_prefix(prefix, base)

    def commit_file(self) -> int:
        """Commit the in-flight file (WAL FILE marker + fsync)."""
        with self._lock:
            if self._file_relpath is None or self._file_quads is None:
                raise StoreError("commit_file() without begin_file()")
            self.wal.commit_file(self._file_relpath, self._file_digest)
            added = len(self._file_quads)
            self._pending_quads.extend(sorted(self._file_quads))
            self._pending_files[self._file_relpath] = self._file_digest
            self._file_relpath = None
            self._file_digest = None
            self._file_quads = None
            if (self.spill_quad_budget
                    and len(self._pending_quads) >= self.spill_quad_budget):
                self._spill_pending()
            return added

    def abort_file(self) -> None:
        """Drop the in-flight file: truncate the WAL back to the last
        committed FILE marker so its TERM/QUAD records never replay."""
        with self._lock:
            self._file_relpath = None
            self._file_digest = None
            self._file_quads = None
            self.dictionary.rollback_to(self._file_term_watermark)
            # Prefixes recorded during the aborted file must roll back
            # with their (truncated) WAL records, or the next compact()
            # would persist state a crash-replay would not reproduce.
            del self._pending_prefixes[self._file_prefix_watermark:]
            self.wal.close()
            replay = self.wal.replay()
            self.wal.truncate_to(replay.committed_bytes)

    def reset(self) -> None:
        """Wipe the store to empty (used when source files changed or
        disappeared and incremental append can no longer be correct)."""
        with self._lock:
            if self._file_relpath is not None:
                raise StoreError("reset() during an in-flight file ingest")
            generation = self.generation
            if self._path_index is not None:
                # Index files are unlinked with everything else below;
                # the handle would only ever report itself stale.
                self._path_index.close()
                self._path_index = None
            self.wal.close()
            self.dictionary.close()
            # Readers are retired (not closed) by _open_segments() below;
            # unlinking a mapped segment file leaves the mapping valid.
            for name in list(os.listdir(self.path)):
                if name == MANIFEST_FILE:
                    continue
                target = self.path / name
                if target.is_file():
                    target.unlink()
            self.manifest = _empty_manifest()
            # Keep the generation moving forward so version-keyed caches
            # over the old contents can never collide with the rebuild.
            self.manifest["generation"] = generation + 1
            self._write_manifest()
            self.dictionary = TermDictionary(self.path)
            self.wal = WriteAheadLog(self.path)
            self._open_segments()
            self._pending_quads = []
            self._pending_files = {}
            self._pending_prefixes = []
            # Spill runs and spill.json were unlinked with everything else.
            self._spill_state = _spill_io.read_spill_state(self.path)

    # -- spilling -----------------------------------------------------------

    def _spill_pending(self) -> None:
        """Flush pending quads to sorted run files and truncate the WAL.

        Called (under the store lock) from :meth:`commit_file` when the
        pending set exceeds ``spill_quad_budget``.  The dictionary delta
        is folded into the persisted dict files at the same time, so
        after a spill the only O(corpus)-shaped memory left is gone:
        pending quads are on disk, terms are mmap'd.  ``spill.json`` is
        the commit point; the WAL clear after it is what keeps the WAL
        and the runs from double-holding the same quads on disk.
        """
        batch_id = len(self._spill_state["batches"])
        # Runs deduplicate within the batch; cross-batch duplicates fall
        # out in the compaction merge.
        counts = {
            name: write_records(
                _spill_io.spill_run_path(self.path, batch_id, name),
                self._pending_records(name), 4,
            )
            for name in ORDERINGS
        }
        self.dictionary.fold_delta()
        state = {
            "format_version": _spill_io.SPILL_FORMAT_VERSION,
            "batches": self._spill_state["batches"]
            + [{"id": batch_id, "records": counts}],
            "files": dict(self._pending_files),
            "prefixes": [list(p) for p in self._pending_prefixes],
            "quad_records": self._spill_state.get("quad_records", 0)
            + counts["spog"],
        }
        _spill_io.write_spill_state(self.path, state)
        self._spill_state = state
        self.wal.clear()
        self._pending_quads = []
        _SPILL_TOTAL.inc()
        _SPILL_QUADS.inc(counts["spog"])
        _events.emit(
            "store.spill",
            store=str(self.path),
            batch=batch_id,
            quads=counts["spog"],
        )

    def _pending_records(self, name: str) -> List[Tuple[int, int, int, int]]:
        """The pending quads as sorted distinct records of ordering *name*."""
        return sorted({permute(q, name) for q in self._pending_quads})

    def _merged_records(self, name: str) -> Iterator[Tuple[int, int, int, int]]:
        """All records for ordering *name*: current segment, every spill
        run, and the residual pending set, k-way merged and deduplicated."""
        sources = [self._segments[name].scan()]
        for batch in self._spill_state["batches"]:
            run = _spill_io.spill_run_path(self.path, batch["id"], name)
            sources.append(iter_records(run, 4))
        sources.append(self._pending_records(name))
        return merge_distinct(*sources)

    # -- compaction ---------------------------------------------------------

    def compact(self) -> None:
        """Fold WAL + spill state into the segment + dictionary files and
        commit a new generation.  A no-op when nothing is pending."""
        with self._lock:
            if self._file_relpath is not None:
                raise StoreError("compact() during an in-flight file ingest")
            if not self.has_pending():
                return
            compact_started = time.perf_counter()
            # Each ordering streams through an external merge of the
            # current segment, the spill runs, and the residual pending
            # set — nothing corpus-sized is materialized.  The current
            # readers stay open across the rewrite: the tmp file +
            # atomic rename leaves their mapped inode intact, and
            # _open_segments() retires them after the new generation is
            # committed.
            segment_counts = {
                name: write_records(
                    self.path / segment_filename(name), self._merged_records(name), 4
                )
                for name in ORDERINGS
            }
            quad_count = segment_counts["spog"]
            # gspo's leading field is the graph id: the named graphs are
            # its distinct non-zero values, a bisect jump apiece.
            gspo = SegmentReader(self.path / segment_filename("gspo"))
            try:
                graphs = [g for g in gspo.distinct() if g != 0]
            finally:
                gspo.close()
            self.dictionary.compact()
            prefixes = dict(self.manifest["prefixes"])
            for prefix, base in self._pending_prefixes:
                prefixes.setdefault(prefix, base)
            files = dict(self.manifest["files"])
            files.update(self._pending_files)
            self.manifest = {
                "format_version": FORMAT_VERSION,
                "generation": self.generation + 1,
                "term_count": len(self.dictionary),
                "quad_count": quad_count,
                "graphs": graphs,
                "prefixes": prefixes,
                "files": files,
                "segments": segment_counts,
            }
            self._write_manifest()
            self.wal.clear()
            # The manifest committed the merged segments; the runs (and
            # spill.json) are now redundant and their disk comes back.
            _spill_io.remove_spill_files(self.path)
            self._spill_state = _spill_io.read_spill_state(self.path)
            self._pending_quads = []
            self._pending_files = {}
            self._pending_prefixes = []
            self._open_segments()
            _COMPACTION_TOTAL.inc()
            compact_elapsed = time.perf_counter() - compact_started
            _COMPACTION_SECONDS.observe(compact_elapsed)
            _events.emit(
                "store.compaction",
                store=str(self.path),
                generation=self.manifest["generation"],
                quads=quad_count,
                duration_s=round(compact_elapsed, 6),
            )

    def _write_manifest(self) -> None:
        atomic_write_json(self.path / MANIFEST_FILE, self.manifest)

    # -- read path -----------------------------------------------------------

    def segment(self, name: str) -> SegmentReader:
        """The current reader for *name* — a stable snapshot: even if a
        compaction supersedes it mid-scan, the reader stays open (and
        its mmap valid) until :meth:`close`."""
        with self._lock:
            return self._segments[name]

    def locate(
        self, s: Optional[int], p: Optional[int], o: Optional[int],
        graph_id: Optional[int] = None,
    ) -> Tuple[AccessPath, SegmentReader, int, int]:
        """The access path answering a pattern of bound ids (``None`` =
        free) in a scope (``None`` = union of all graphs), the reader of
        its ordering, and the record range ``[lo, hi)`` of its prefix."""
        path = ACCESS_PATHS[(s is not None, p is not None, o is not None,
                             graph_id is not None)]
        reader = self.segment(path.ordering)
        quad = (s, p, o, graph_id)
        lo, hi = reader.range_for_prefix(tuple(quad[i] for i in path.prefix))
        return path, reader, lo, hi

    def match_ids(
        self, s: Optional[int], p: Optional[int], o: Optional[int],
        graph_id: Optional[int] = None,
    ) -> Iterator[Tuple[int, int, int]]:
        """Distinct (s, p, o) id triples matching the bound ids."""
        path, reader, lo, hi = self.locate(s, p, o, graph_id)
        return path.triples(reader, lo, hi, graph_id)

    def path_index(self):
        """The live :class:`~repro.pathindex.index.PathIndex` for the
        current generation, or None when absent or stale — what
        :meth:`store_info` reports; no query reads its edges.

        Generation keying is the whole consistency story: the index
        manifest records the generation it was built from, compaction
        and reset move the store's generation, so a stale index is
        never reported — it is simply invisible until
        :func:`~repro.pathindex.build.build_path_index` runs again
        (``ingest_corpus`` does this after its compaction).
        """
        with self._lock:
            cached = self._path_index
            if cached is not None:
                if cached.generation == self.generation:
                    return cached
                cached.close()
                self._path_index = None
            from ..pathindex import load_path_index

            index = load_path_index(self.path)
            if index is not None and index.generation != self.generation:
                index.close()
                index = None
            self._path_index = index
            return index

    def term_id(self, term: Term) -> Optional[int]:
        """Read-only term → id lookup (None when the term is unknown)."""
        return self.dictionary.lookup(term)

    def term(self, term_id: int) -> Term:
        """id → term through the bounded decode cache."""
        return self.dictionary.decode(term_id)

    def has_pending(self) -> bool:
        return bool(self._pending_quads or self._pending_files
                    or self._pending_prefixes or self._spill_state["batches"])
