"""Incremental corpus ingest: trace files → dictionary-encoded quads.

:func:`ingest_corpus` walks a ProvBench corpus directory (the layout
:func:`repro.corpus.storage.write_corpus` produces), hashes every trace
file, and parses **only** the files whose content hash is missing from
the store manifest.  Re-running ingest over an unchanged corpus is a
no-op — zero files parsed, zero WAL records written, generation
untouched — which is what makes ``repro-corpus store ingest`` cheap to
run after every corpus sync.

Changed or deleted files void the incremental path: segments carry no
per-file quad attribution (quads from many files merge into shared
sorted runs), so subtracting one file's contribution is impossible
without a rebuild.  In that case the store is reset and every current
file re-ingested; corpus traces are write-once artifacts in practice,
so this is the rare path and the report says when it was taken.

Each file commits atomically through the WAL (terms + quads + FILE
marker, fsynced); a crash mid-ingest loses at most the in-flight file,
which the next run re-parses because its hash never reached the
manifest.

:func:`open_corpus_store` is the one way a command reaches a corpus's
store: it opens ``<corpus>/.store`` (or a given location) and syncs it
under an exclusive ``flock`` on the store directory, so two processes
syncing one store run one after the other and the second finds nothing
to do.
"""

from __future__ import annotations

import hashlib
import io
import os
import time
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from ..obs import events as _events
from ..obs import metrics as _metrics
from ..obs import tracectx as _tracectx
from ..obs.trace import span
from ..parallel import Task, map_tasks, resolve_jobs, task_scope
from ..rdf.graph import Dataset
from ..rdf.trig import parse_trig
from ..rdf.turtle import TurtleError, parse_turtle
from .dictionary import encode_term
from .quadstore import DEFAULT_SPILL_QUAD_BUDGET, QuadStore

__all__ = ["ingest_corpus", "open_corpus_store", "IngestReport", "TRACE_SUFFIXES"]

_INGEST_FILES = _metrics.counter(
    "repro_ingest_files_total", "Trace files seen by ingest", labels=("result",)
)
for _result in ("parsed", "skipped"):
    _INGEST_FILES.labels(_result)
del _result
_INGEST_QUADS = _metrics.counter(
    "repro_ingest_quads_total", "Quads added to the store by ingest"
)
# Parse-path counters tick inside _parse_batch_inner, which is the
# *same code* whether it runs in-process (serial) or in a pool worker
# (--jobs N) — so once each task record's deltas are absorbed, a
# parallel ingest leaves exactly the serial run's totals.
_PARSE_QUADS = _metrics.counter(
    "repro_ingest_parse_quads_total",
    "Quads produced by the trace parser (pre-dedup, any process)",
)
_PARSE_TERMS = _metrics.counter(
    "repro_ingest_parse_terms_total",
    "Term intern lookups in the trace parser, by batch-local result",
    labels=("result",),
)
for _result in ("hit", "miss"):
    _PARSE_TERMS.labels(_result)
del _result

#: Trace file suffixes recognized by the ingester, mapped to RDF format.
TRACE_SUFFIXES = {".prov.ttl": "turtle", ".prov.trig": "trig"}


@dataclass
class IngestReport:
    """What one :func:`ingest_corpus` run did."""

    corpus_root: str
    store_path: str
    parsed: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    rebuilt: bool = False
    quads_added: int = 0
    duration_s: float = 0.0
    #: What happened to the path/pattern index: "built" (derived fresh
    #: for this generation), "fresh" (already valid, untouched),
    #: "deferred" (store left uncompacted), or "skipped" (disabled).
    path_index: str = "skipped"

    @property
    def no_op(self) -> bool:
        """True when the corpus was already fully ingested."""
        return not (self.parsed or self.removed or self.rebuilt)

    def summary(self) -> Dict:
        return {
            "corpus": self.corpus_root,
            "store": self.store_path,
            "parsed_files": len(self.parsed),
            "skipped_files": len(self.skipped),
            "removed_files": len(self.removed),
            "rebuilt": self.rebuilt,
            "quads_added": self.quads_added,
            "duration_s": round(self.duration_s, 3),
            "path_index": self.path_index,
        }


def _discover_traces(root: Path) -> List[Tuple[str, str]]:
    """(relative path, format) for every trace file, in stable order."""
    traces: List[Tuple[str, str]] = []
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        for suffix, rdf_format in TRACE_SUFFIXES.items():
            if path.name.endswith(suffix):
                traces.append((path.relative_to(root).as_posix(), rdf_format))
                break
    return traces


def _file_digest(path: Path) -> str:
    """Streaming sha256 — constant memory regardless of trace size."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class _ParsedBatch:
    """One trace file parsed off-process into an encoded quad batch.

    ``terms`` holds the dictionary-encoded bytes of every distinct term,
    in **first-encounter order under the serial traversal** (TriG graph
    names first, then subject/predicate/object per triple) — the parent
    interns them in that exact order, so id assignment matches a serial
    ingest byte for byte.  ``quads`` reference terms by local index;
    graph position ``-1`` marks the default graph.
    """

    relpath: str
    digest: str
    terms: List[bytes]
    quads: List[Tuple[int, int, int, int]]
    prefixes: List[Tuple[str, str]]


def _parse_batch(root: Path, relpath: str, rdf_format: str, tracer=None) -> _ParsedBatch:
    """Tokenize + parse one trace into encoded terms and local-id quads.

    Uses the same traversal and term encounter order as the writer-side
    :func:`_apply_batch` intern loop, but against a process-local
    interner instead of the store, so it can run anywhere — the serial
    path calls it in-process, the parallel path in pool workers.
    """
    with span(tracer, "parse", cat="ingest", file=relpath) as parse_span:
        batch = _parse_batch_inner(root, relpath, rdf_format)
        parse_span.set(terms=len(batch.terms), quads=len(batch.quads))
    return batch


def _parse_batch_inner(root: Path, relpath: str, rdf_format: str) -> _ParsedBatch:
    # One read: the digest committed with the batch is that of the very
    # bytes parsed, whatever happened to the file since discovery.
    data = (root / relpath).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    # decoded as read_text(encoding="utf-8") would: universal newlines
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    terms: List[bytes] = []
    index: Dict[object, int] = {}  # term -> position in ``terms``
    lookups = 0

    def intern(term) -> int:
        nonlocal lookups
        lookups += 1
        local = index.get(term)
        if local is None:
            # equal terms encode to equal bytes and unequal terms to
            # unequal bytes, so keying on the term numbers them as keying
            # on the bytes would
            local = index[term] = len(terms)
            terms.append(encode_term(term))
        return local

    if rdf_format == "turtle":
        graph = parse_turtle(text, source=relpath)
        sources = [(-1, graph)]
        namespaces = graph.namespaces
    else:
        dataset: Dataset = parse_trig(text, source=relpath)
        sources = [(-1, dataset.default)]
        for name in dataset.graph_names():
            sources.append((intern(name), dataset.graph(name)))
        namespaces = dataset.namespaces
    prefixes = list(namespaces.namespaces())
    quads: List[Tuple[int, int, int, int]] = []
    for gid, graph in sources:
        for t in graph:
            quads.append((intern(t.subject), intern(t.predicate), intern(t.object), gid))
    _PARSE_QUADS.inc(len(quads))
    _PARSE_TERMS.labels("miss").inc(len(terms))
    _PARSE_TERMS.labels("hit").inc(lookups - len(terms))
    return _ParsedBatch(relpath, digest, terms, quads, prefixes)


def _parse_task(root: Path, args, tracer) -> _ParsedBatch:
    """Pool task: parse one file (the worker's state is the corpus root)."""
    return _parse_batch(root, *args, tracer=tracer)


def _parse_serially(root: Path, pending, tracer) -> Iterator[_ParsedBatch]:
    for relpath, rdf_format in pending:
        # Phase-scoped trace derivation ("parse:<file>", then
        # "apply:<file>" around the commit), entered exactly as a pool
        # worker enters it, so both phases mint the same span ids at any
        # worker count.
        with task_scope(tracer, f"parse:{relpath}"):
            batch = _parse_batch(root, relpath, rdf_format, tracer=tracer)
        yield batch


def _apply_batch(store: QuadStore, batch: _ParsedBatch, tracer=None) -> int:
    """Commit one parsed batch: single-writer intern + WAL."""
    store.begin_file(batch.relpath, batch.digest)
    try:
        with span(tracer, "intern", cat="ingest", file=batch.relpath) as intern_span:
            ids = [store.add_term_encoded(data) for data in batch.terms]
            for prefix, base in batch.prefixes:
                store.add_prefix(prefix, base)
            added = 0
            for s, p, o, g in batch.quads:
                gid = 0 if g < 0 else ids[g]
                if store.add_quad(ids[s], ids[p], ids[o], gid):
                    added += 1
            intern_span.set(terms=len(batch.terms), quads=added)
    except Exception:
        store.abort_file()
        raise
    with span(tracer, "wal-commit", cat="ingest", file=batch.relpath):
        store.commit_file()
    return added


def ingest_corpus(
    store: QuadStore, corpus_root: Path, compact: bool = True, jobs: int = 1,
    tracer=None, path_index: bool = True, on_file=None,
) -> IngestReport:
    """Bring *store* up to date with the trace files under *corpus_root*.

    With ``compact=True`` (the default) the new state is folded into the
    segment files before returning, so the store is immediately
    queryable; pass ``False`` to batch several ingests into one
    compaction (``store.close()`` always compacts).

    With ``jobs > 1`` (``None``/``0`` = one worker per CPU), trace files
    are tokenized and parsed into encoded quad batches in worker
    processes — parsing is pure CPU — while this process stays the
    single writer: it owns the :class:`TermDictionary` and WAL, interning
    and committing each batch in deterministic file order, so segments
    come out byte-identical to a serial ingest.

    With a *tracer*, each file emits ``parse`` / ``intern`` /
    ``wal-commit`` spans (plus one ``compact`` span per run); parallel
    workers forward their parse spans with each batch, so the merged
    trace covers every file regardless of job count.

    With ``path_index=True`` (the default) the path/pattern index is
    (re)built after compaction whenever the committed generation has no
    valid index — an unchanged corpus keeps generation and index alike,
    so the no-op re-ingest stays a no-op.  The index derives purely from
    the segment files, so it is byte-identical at any job count.

    *on_file*, when given, is called as ``on_file(done, total,
    quads_added)`` after each file commits (progress reporting); the
    ``repro_ingest_quads_total`` counter also ticks per file, so a
    :class:`repro.obs.Progress` can rate the live ingest off it.
    """
    started = time.perf_counter()
    root = Path(corpus_root)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")
    registry = _metrics.get_registry()
    counters_base = registry.additive()
    report = IngestReport(corpus_root=str(root), store_path=str(store.path))
    traces = _discover_traces(root)
    known = store.files
    digests = {relpath: _file_digest(root / relpath) for relpath, _ in traces}
    on_disk = set(digests)
    changed = [rp for rp in on_disk & set(known) if digests[rp] != known[rp]]
    removed = sorted(set(known) - on_disk)
    if changed or removed:
        # Incremental append can no longer be correct: stale quads from
        # the old file contents have no per-file attribution to subtract.
        report.rebuilt = True
        report.removed = removed
        store.reset()
        known = {}
    pending = [
        (relpath, rdf_format)
        for relpath, rdf_format in traces
        if known.get(relpath) != digests[relpath]
    ]
    report.skipped = [rp for rp, _ in traces if known.get(rp) == digests[rp]]
    effective = jobs if jobs == 1 else min(resolve_jobs(jobs), max(1, len(pending)))
    if effective <= 1 or len(pending) < 2:
        batches = _parse_serially(root, pending, tracer)
    else:
        # Batches come back in task order, so they commit in the same
        # deterministic file order a serial ingest uses.
        batches = map_tasks(
            "ingest",
            [Task(f"parse:{relpath}", f"while ingesting {relpath}", (relpath, rdf_format))
             for relpath, rdf_format in pending],
            effective, Path, (str(root),), _parse_task,  # worker state: the root
            tracer=tracer, fallback=TurtleError,
        )
    with closing(batches):
        for batch in batches:
            with _tracectx.task_scope(f"apply:{batch.relpath}"):
                added = _apply_batch(store, batch, tracer=tracer)
            report.quads_added += added
            report.parsed.append(batch.relpath)
            _INGEST_QUADS.inc(added)
            if on_file is not None:
                on_file(len(report.parsed), len(pending), report.quads_added)
    if compact and store.has_pending():
        with span(tracer, "compact", cat="ingest", files=len(report.parsed)):
            store.compact()
    if path_index:
        if store.has_pending():
            # Compaction was deferred; the index can only describe a
            # committed generation, so it is built at the next compacted
            # ingest (or stays stale-and-invisible until then).
            report.path_index = "deferred"
        elif store.path_index() is not None:
            # Generation unchanged (sha-incremental no-op or already
            # indexed) — the committed index is still valid as-is.
            report.path_index = "fresh"
        else:
            from ..pathindex import build_path_index

            with span(tracer, "path-index", cat="ingest"):
                build_path_index(store)
            report.path_index = "built"
    report.duration_s = time.perf_counter() - started
    _INGEST_FILES.labels("parsed").inc(len(report.parsed))
    _INGEST_FILES.labels("skipped").inc(len(report.skipped))
    _events.emit(
        "ingest.done",
        store=str(store.path),
        generation=store.generation,
        parsed=len(report.parsed),
        skipped=len(report.skipped),
        quads=report.quads_added,
        rebuilt=report.rebuilt,
        jobs=effective,
        duration_s=round(report.duration_s, 6),
        counters=registry.counters_since(counters_base),
    )
    return report


def open_corpus_store(
    corpus_root: Path, store_path: Optional[Path] = None, jobs: int = 1,
    tracer=None, on_file=None,
    spill_quad_budget: Optional[int] = DEFAULT_SPILL_QUAD_BUDGET,
) -> Tuple[QuadStore, IngestReport]:
    """``(store, report)``: the store at *store_path* (default
    ``<corpus_root>/.store``), open and synced with the trace files.

    A missing corpus directory is refused before anything is created.  An
    exclusive ``flock`` is held from before the open (which may replay
    and compact a WAL) until the sync is done; it locks the directory's
    own descriptor because :meth:`QuadStore.reset` unlinks every file in
    it but ``store.json``.  The caller closes the store.
    """
    import fcntl  # here, not at the top: a read-only open never loads it

    root = Path(corpus_root)
    if not root.is_dir():
        raise FileNotFoundError(f"no corpus directory at {root}")
    path = Path(store_path) if store_path is not None else root / ".store"
    path.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        store = QuadStore(path, spill_quad_budget=spill_quad_budget)
        try:
            report = ingest_corpus(store, root, jobs=jobs, tracer=tracer,
                                   on_file=on_file)
        except Exception:
            store.close()
            raise
    finally:
        os.close(fd)  # releases the lock
    return store, report
