"""Dictionary encoding of RDF terms to dense integer ids.

The quad store never writes terms into its segment files — every quad is
four ``uint32`` ids, and this module owns the id ↔ term mapping.  On disk
the dictionary is three files:

* ``dict.heap`` — the string heap: one length-prefixed record per term,
  ``[u32 length][kind byte][payload]``, appended in id order (id *n* is
  the *n*-th record, ids start at 1; id 0 is reserved for the default
  graph in quad position ``g``);
* ``dict.off`` — a flat ``u64`` array mapping id → heap offset, so a
  decode is one seek instead of a heap scan;
* ``dict.hash`` — an open-addressing hash index of
  ``[u64 term-hash][u32 id]`` slots over the encoded term bytes, so an
  encode probe reads O(1) slots plus one heap record to confirm, without
  ever loading the full term set into memory.

All three files are read through ``mmap``; the only unbounded in-memory
state is the *delta* — terms added since the last compaction — which
:meth:`TermDictionary.compact` folds back into the persisted files.
Decoded terms are held in an LRU cache bounded by
:data:`DEFAULT_DECODE_CACHE_SIZE`, so a store-backed endpoint's memory
stays flat no matter how large the dictionary grows.

Term hashing uses BLAKE2b (8-byte digest), not Python's ``hash()``:
the index is persisted, so the hash function must be stable across
processes (``PYTHONHASHSEED`` is not).
"""

from __future__ import annotations

import hashlib
import mmap
import os
import struct
import threading
import time
from array import array
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional

from ..rdf.terms import BlankNode, IRI, Literal, Term, XSD

__all__ = ["TermDictionary", "encode_term", "decode_term"]

# Encoded-term kind tags (first payload byte).
_KIND_IRI = 0x01
_KIND_BNODE = 0x02
_KIND_PLAIN = 0x03  # xsd:string literal, no language
_KIND_TYPED = 0x04  # any other datatype
_KIND_LANG = 0x05  # language-tagged string

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_SLOT = struct.Struct("<QI")  # (term hash, id); id 0 = empty slot

HEAP_FILE = "dict.heap"
OFFSETS_FILE = "dict.off"
HASH_FILE = "dict.hash"

#: Capacity of the id → Term decode LRU (read when a dictionary opens).
DEFAULT_DECODE_CACHE_SIZE = 65536


def encode_term(term: Term) -> bytes:
    """Serialize a term to its canonical dictionary byte form."""
    if isinstance(term, IRI):
        return bytes([_KIND_IRI]) + term.value.encode("utf-8")
    if isinstance(term, BlankNode):
        return bytes([_KIND_BNODE]) + term.id.encode("utf-8")
    if isinstance(term, Literal):
        if term.language is not None:
            lang = term.language.encode("utf-8")
            return (
                bytes([_KIND_LANG, len(lang)]) + lang + term.lexical.encode("utf-8")
            )
        if term.datatype.value == XSD.STRING:
            return bytes([_KIND_PLAIN]) + term.lexical.encode("utf-8")
        dt = term.datatype.value.encode("utf-8")
        return (
            bytes([_KIND_TYPED])
            + struct.pack("<H", len(dt))
            + dt
            + term.lexical.encode("utf-8")
        )
    raise TypeError(f"cannot dictionary-encode {type(term).__name__}")


def decode_term(data: bytes) -> Term:
    """Inverse of :func:`encode_term`."""
    kind = data[0]
    if kind == _KIND_IRI:
        return IRI(data[1:].decode("utf-8"))
    if kind == _KIND_BNODE:
        return BlankNode(data[1:].decode("utf-8"))
    if kind == _KIND_PLAIN:
        return Literal(data[1:].decode("utf-8"))
    if kind == _KIND_LANG:
        lang_len = data[1]
        lang = data[2 : 2 + lang_len].decode("utf-8")
        return Literal(data[2 + lang_len :].decode("utf-8"), language=lang)
    if kind == _KIND_TYPED:
        (dt_len,) = struct.unpack_from("<H", data, 1)
        dt = data[3 : 3 + dt_len].decode("utf-8")
        return Literal(data[3 + dt_len :].decode("utf-8"), datatype=dt)
    raise ValueError(f"unknown term kind byte {kind:#x}")


def _term_hash(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


class TermDictionary:
    """The persisted term ↔ id mapping of one quad store.

    Lookups against the persisted portion go through the mmap'd hash
    index; terms added since the last :meth:`compact` live in the delta
    dict.  Thread-safe for concurrent readers (the endpoint shares one
    dictionary across worker threads); writes are expected from a single
    ingest thread.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self._lock = threading.Lock()
        self._decode_cache: "OrderedDict[int, Term]" = OrderedDict()
        self.decode_cache_size = DEFAULT_DECODE_CACHE_SIZE
        self.cache_hits = 0
        self.cache_misses = 0
        # Intern/lookup counters: plain ints on the hot path; mirrored
        # into the metrics registry by the endpoint's collector.
        self.intern_hits = 0  # add()/add_bytes() found an existing id
        self.intern_misses = 0  # a new id was allocated
        self.lookup_hits = 0
        self.lookup_misses = 0
        # Incremental-fold counters (see fold_delta): folds since open,
        # how many of them grew (re-bucketed) the hash table, and the
        # total wall time spent folding.
        self.fold_count = 0
        self.rehash_count = 0
        self.fold_seconds = 0.0
        # True once a fold may have left the hash table in a
        # non-canonical slot layout; compact() then rebuilds it in
        # id-insertion order so the on-disk bytes are identical to a
        # never-folded dictionary's.
        self._needs_canonical = False
        # Persisted state (mmap'd; refreshed by _open_files).
        self._heap: Optional[mmap.mmap] = None
        self._offsets: Optional[mmap.mmap] = None
        self._hash: Optional[mmap.mmap] = None
        self._hash_slots = 0
        self._persisted_count = 0
        # Delta: terms allocated since the last compaction.
        self._delta_terms: List[bytes] = []
        self._delta_lookup: Dict[bytes, int] = {}
        self._open_files()

    # -- lifecycle ----------------------------------------------------------

    def _close_maps(self) -> None:
        for attr in ("_heap", "_offsets", "_hash"):
            m = getattr(self, attr)
            if m is not None:
                m.close()
                setattr(self, attr, None)

    def _open_files(self) -> None:
        self._close_maps()
        heap_path = self.directory / HEAP_FILE
        off_path = self.directory / OFFSETS_FILE
        hash_path = self.directory / HASH_FILE
        if heap_path.exists() and heap_path.stat().st_size:
            self._heap = self._map(heap_path)
        if off_path.exists() and off_path.stat().st_size:
            self._offsets = self._map(off_path)
            self._persisted_count = len(self._offsets) // _U64.size
        else:
            self._persisted_count = 0
        if hash_path.exists() and hash_path.stat().st_size:
            self._hash = self._map(hash_path)
            self._hash_slots = len(self._hash) // _SLOT.size
        else:
            self._hash_slots = 0

    @staticmethod
    def _map(path: Path) -> mmap.mmap:
        with open(path, "rb") as handle:
            return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)

    def close(self) -> None:
        self._close_maps()

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return self._persisted_count + len(self._delta_terms)

    @property
    def persisted_count(self) -> int:
        return self._persisted_count

    @property
    def delta_count(self) -> int:
        return len(self._delta_terms)

    def cache_info(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": len(self._decode_cache),
                "maxsize": self.decode_cache_size,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
            }

    def intern_info(self) -> Dict[str, int]:
        """Intern/lookup hit-miss counters (process-lifetime, not persisted)."""
        return {
            "terms": len(self),
            "intern_hits": self.intern_hits,
            "intern_misses": self.intern_misses,
            "lookup_hits": self.lookup_hits,
            "lookup_misses": self.lookup_misses,
            "folds": self.fold_count,
            "rehashes": self.rehash_count,
            "fold_seconds": round(self.fold_seconds, 6),
        }

    def file_sizes(self) -> Dict[str, int]:
        sizes = {}
        for name in (HEAP_FILE, OFFSETS_FILE, HASH_FILE):
            path = self.directory / name
            sizes[name] = path.stat().st_size if path.exists() else 0
        return sizes

    # -- encode (term → id) -------------------------------------------------

    def lookup(self, term: Term) -> Optional[int]:
        """The id of *term*, or None if it has never been added."""
        data = encode_term(term)
        delta_id = self._delta_lookup.get(data)
        if delta_id is None:
            delta_id = self._probe(data)
        if delta_id is None:
            self.lookup_misses += 1
        else:
            self.lookup_hits += 1
        return delta_id

    def add(self, term: Term) -> int:
        """The id of *term*, allocating the next id if it is new."""
        return self.add_bytes(encode_term(term))

    def add_bytes(self, data: bytes) -> int:
        """The id of an already-encoded term, allocating if it is new.

        The encode step is pure (:func:`encode_term`), so parallel
        ingest workers encode terms off-process and the single-writer
        parent interns the raw bytes here.
        """
        existing = self._delta_lookup.get(data)
        if existing is None:
            existing = self._probe(data)
        if existing is not None:
            self.intern_hits += 1
            return existing
        self.intern_misses += 1
        return self.add_encoded(data)

    def add_encoded(self, data: bytes) -> int:
        """Append an encoded term to the delta; returns its new id.

        Callers (WAL replay) must guarantee the term is not already
        present — replayed TERM records were deduplicated at write time.
        """
        term_id = self._persisted_count + len(self._delta_terms) + 1
        self._delta_terms.append(data)
        self._delta_lookup[data] = term_id
        return term_id

    def rollback_to(self, count: int) -> None:
        """Discard delta terms with ids above *count* (ingest aborts).

        Only delta terms can be rolled back; persisted ids are immutable.
        """
        if count < self._persisted_count:
            raise ValueError("cannot roll back persisted terms")
        while len(self) > count:
            data = self._delta_terms.pop()
            self._delta_lookup.pop(data, None)
            with self._lock:
                self._decode_cache.pop(len(self) + 1, None)

    def _probe(self, data: bytes) -> Optional[int]:
        if self._hash is None or not self._hash_slots:
            return None
        h = _term_hash(data)
        slot = h % self._hash_slots
        for _ in range(self._hash_slots):
            stored_hash, stored_id = _SLOT.unpack_from(self._hash, slot * _SLOT.size)
            if stored_id == 0:
                return None
            # Ids beyond the persisted count are stale-future entries: a
            # crash between a fold's hash-table rename and its offsets
            # rename (the commit point) leaves them.  They are skipped,
            # not treated as hits — the terms replay from the WAL.
            if (stored_hash == h and stored_id <= self._persisted_count
                    and self._heap_record(stored_id) == data):
                return stored_id
            slot = (slot + 1) % self._hash_slots
        return None

    # -- decode (id → term) -------------------------------------------------

    def _heap_record(self, term_id: int) -> bytes:
        offset = _U64.unpack_from(self._offsets, (term_id - 1) * _U64.size)[0]
        (length,) = _U32.unpack_from(self._heap, offset)
        start = offset + _U32.size
        return self._heap[start : start + length]

    def encoded(self, term_id: int) -> bytes:
        """The raw encoded bytes of an id (persisted or delta)."""
        if term_id <= 0 or term_id > len(self):
            raise KeyError(f"term id {term_id} out of range (1..{len(self)})")
        if term_id <= self._persisted_count:
            return self._heap_record(term_id)
        return self._delta_terms[term_id - self._persisted_count - 1]

    def decode(self, term_id: int) -> Term:
        """The term for an id, via the bounded LRU decode cache."""
        with self._lock:
            cached = self._decode_cache.get(term_id)
            if cached is not None:
                self._decode_cache.move_to_end(term_id)
                self.cache_hits += 1
                return cached
            self.cache_misses += 1
        term = decode_term(self.encoded(term_id))
        if self.decode_cache_size:
            with self._lock:
                self._decode_cache[term_id] = term
                while len(self._decode_cache) > self.decode_cache_size:
                    self._decode_cache.popitem(last=False)
        return term

    # -- incremental fold ---------------------------------------------------

    def _valid_heap_end(self) -> int:
        """Bytes of the heap covered by the offsets file.

        Computed from the last offset + its record length — never from
        the heap's file size, which may carry an orphan tail from a
        fold that crashed before committing its offsets.
        """
        if not self._persisted_count or self._offsets is None or self._heap is None:
            return 0
        last = _U64.unpack_from(
            self._offsets, (self._persisted_count - 1) * _U64.size
        )[0]
        (length,) = _U32.unpack_from(self._heap, last)
        return last + _U32.size + length

    def fold_delta(self) -> None:
        """Append the delta to the persisted files without a full rewrite.

        The spill-time counterpart of :meth:`compact`, O(delta) instead
        of O(total) where possible:

        * heap — delta records are appended in place (readers' mmaps of
          the old region stay valid; an orphan tail is truncated first);
        * offsets — old array copied (small: 8 bytes/term) + delta
          appended, to a tmp file;
        * hash — if the table still has room (load factor ≤ 1/2 after
          the delta) the file bytes are copied and only delta entries
          inserted; at a 2^k growth boundary the old table's (hash, id)
          pairs are re-bucketed directly — no BLAKE2b recompute, no heap
          reads — so the stall at the boundary is bounded by pure
          integer work, not hashing.

        Rename order is hash → offsets, with **offsets as the commit
        point** (``persisted_count`` is derived from its length).  A
        crash after the hash rename leaves entries pointing above the
        committed count; :meth:`_probe` skips those, and the terms
        replay from the WAL.
        """
        if not self._delta_terms:
            return
        started = time.perf_counter()
        total = len(self)
        heap_end = self._valid_heap_end()
        # New hash table (in memory first).
        needed = _next_power_of_two(max(8, total * 2))
        if needed > self._hash_slots:
            table = bytearray(needed * _SLOT.size)
            slots = needed
            if self._hash is not None:
                for h, tid in _SLOT.iter_unpack(self._hash):
                    if tid == 0:
                        continue
                    _insert_slot(table, slots, h, tid)
            self.rehash_count += 1
        else:
            slots = self._hash_slots
            table = bytearray(self._hash)
        delta_offsets = bytearray()
        heap_tail = bytearray()
        position = heap_end
        for index, data in enumerate(self._delta_terms):
            term_id = self._persisted_count + index + 1
            _insert_slot(table, slots, _term_hash(data), term_id)
            delta_offsets += _U64.pack(position)
            heap_tail += _U32.pack(len(data))
            heap_tail += data
            position += _U32.size + len(data)
        old_offsets = (
            bytes(self._offsets[: self._persisted_count * _U64.size])
            if self._offsets is not None
            else b""
        )
        self._close_maps()
        heap_path = self.directory / HEAP_FILE
        with open(heap_path, "r+b" if heap_path.exists() else "wb") as heap:
            heap.truncate(heap_end)
            heap.seek(heap_end)
            heap.write(heap_tail)
            heap.flush()
            os.fsync(heap.fileno())
        hash_tmp = self.directory / (HASH_FILE + ".tmp")
        with open(hash_tmp, "wb") as hashed:
            hashed.write(bytes(table))
            hashed.flush()
            os.fsync(hashed.fileno())
        os.replace(hash_tmp, self.directory / HASH_FILE)
        off_tmp = self.directory / (OFFSETS_FILE + ".tmp")
        with open(off_tmp, "wb") as off:
            off.write(old_offsets)
            off.write(delta_offsets)
            off.flush()
            os.fsync(off.fileno())
        os.replace(off_tmp, self.directory / OFFSETS_FILE)
        self._delta_terms.clear()
        self._delta_lookup.clear()
        self._open_files()
        self._needs_canonical = True
        self.fold_count += 1
        self.fold_seconds += time.perf_counter() - started

    # -- compaction ---------------------------------------------------------

    def compact(self) -> None:
        """Fold the delta into the persisted heap/offsets/hash files.

        Each file is rewritten to a ``.tmp`` sibling and atomically
        renamed into place; a crash mid-compaction leaves the previous
        generation intact (the store manifest is what commits a
        generation — see :mod:`repro.store.quadstore`).

        The rewrite streams record-at-a-time and rebuilds the hash
        table by inserting ids in id order (harvesting each persisted
        id's hash from the current table rather than recomputing it),
        so the output bytes are canonical — identical whether or not
        :meth:`fold_delta` ran in between — and memory stays bounded
        by the hash table, not the heap.
        """
        if (not self._delta_terms and not self._needs_canonical
                and self._heap is not None):
            return
        total = len(self)
        heap_tmp = self.directory / (HEAP_FILE + ".tmp")
        off_tmp = self.directory / (OFFSETS_FILE + ".tmp")
        hash_tmp = self.directory / (HASH_FILE + ".tmp")
        with open(heap_tmp, "wb") as heap, open(off_tmp, "wb") as off:
            position = 0
            for term_id in range(1, total + 1):
                data = self.encoded(term_id)
                off.write(_U64.pack(position))
                heap.write(_U32.pack(len(data)))
                heap.write(data)
                position += _U32.size + len(data)
            heap.flush()
            os.fsync(heap.fileno())
            off.flush()
            os.fsync(off.fileno())
        # Hashes by id: harvested from the live table for persisted ids
        # (0 is a legal-but-improbable hash; recomputed on demand below),
        # computed fresh only for the delta.
        hashes = array("Q", bytes(_U64.size * total))
        if self._hash is not None:
            for h, tid in _SLOT.iter_unpack(self._hash):
                if tid and tid <= self._persisted_count:
                    hashes[tid - 1] = h
        for index, data in enumerate(self._delta_terms):
            hashes[self._persisted_count + index] = _term_hash(data)
        slots = _next_power_of_two(max(8, total * 2))
        table = bytearray(slots * _SLOT.size)
        for term_id in range(1, total + 1):
            h = hashes[term_id - 1]
            if h == 0:
                h = _term_hash(self.encoded(term_id))
            _insert_slot(table, slots, h, term_id)
        with open(hash_tmp, "wb") as hashed:
            hashed.write(bytes(table))
            hashed.flush()
            os.fsync(hashed.fileno())
        self._close_maps()
        os.replace(heap_tmp, self.directory / HEAP_FILE)
        os.replace(off_tmp, self.directory / OFFSETS_FILE)
        os.replace(hash_tmp, self.directory / HASH_FILE)
        self._delta_terms.clear()
        self._delta_lookup.clear()
        self._needs_canonical = False
        self._open_files()


def _insert_slot(table: bytearray, slots: int, h: int, term_id: int) -> None:
    slot = h % slots
    while _SLOT.unpack_from(table, slot * _SLOT.size)[1] != 0:
        slot = (slot + 1) % slots
    _SLOT.pack_into(table, slot * _SLOT.size, h, term_id)


def _next_power_of_two(value: int) -> int:
    power = 1
    while power < value:
        power <<= 1
    return power
