"""Sorted ``u32``-record files: the one writer, reader, merge and access table.

Every flat index file in a store directory — the four quad segments, the
spill runs they are merged from, the path index's ``paths.fwd`` /
``paths.inv`` and its scratch spool runs — is the same thing: fixed-width
records of little-endian ``u32`` values, sorted lexicographically.  This
module owns that format at any width:

* :func:`atomic_write` — tmp file + flush + fsync + rename, the only way
  a committed file (record file or JSON manifest) reaches its name;
* :func:`pack_records` / :func:`write_records` — the streaming writer;
* :func:`iter_records` — stream a run back in bounded chunks;
* :func:`merge_distinct` — k-way merge of sorted sources with a
  one-record lookbehind, so the output is sorted and duplicate-free;
* :class:`RecordReader` — mmap + binary search; a prefix of bound values
  maps to one contiguous record range.

Quad segments are width four.  The store keeps one per *ordering*; each
stores the quad's fields already permuted into its sort order:

    spog  (subject, predicate, object, graph)
    posg  (predicate, object, subject, graph)
    ospg  (object, subject, predicate, graph)
    gspo  (graph, subject, predicate, object)

The first three answer any triple pattern over the union of all graphs;
because the graph id sorts *last*, the same (s, p, o) asserted in
several graphs yields adjacent records, which is what lets the union
view deduplicate with a one-record lookbehind instead of a hash set.
``gspo`` serves ``GRAPH``-scoped patterns: the graph id is the leading
field, so a per-graph scan is a range, not a filter.
:data:`ACCESS_PATHS` is the single statement of which ordering and
prefix answers which pattern, and :meth:`AccessPath.triples` of how a
record range of that ordering becomes (s, p, o) ids.

Readers mmap the file and unpack records on demand — opening a store
costs O(1) memory regardless of corpus size.
"""

from __future__ import annotations

import heapq
import json
import mmap
import os
import struct
from contextlib import contextmanager
from itertools import chain, product
from pathlib import Path
from typing import (
    BinaryIO, Dict, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple,
)

__all__ = [
    "ORDERINGS", "ACCESS_PATHS", "AccessPath", "StoreError",
    "RecordReader", "SegmentReader",
    "atomic_write", "atomic_write_json", "record_struct",
    "pack_records", "write_records", "iter_records", "merge_distinct",
    "permute", "segment_filename",
]


class StoreError(RuntimeError):
    """Raised on store misuse or an unreadable/incompatible store."""


# -- the record format --------------------------------------------------------

_READ_RECORDS = 65536  # records per read() when streaming a run
_RANGE_RECORDS = 4096  # records per mmap slice when reading a range
_CONSTANT_RANGES = 4096  # memoised constants-only ranges per reader
_WRITE_BUFFER = 1 << 20  # bytes packed before a write() when streaming one out


def record_struct(width: int) -> struct.Struct:
    """The codec for *width* little-endian ``u32`` fields."""
    return struct.Struct(f"<{width}I")


@contextmanager
def atomic_write(path: Path) -> Iterator[BinaryIO]:
    """Open ``<path>.tmp`` for writing; on a clean exit flush, fsync and
    rename it over *path*, so *path* only ever names a complete file."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def atomic_write_json(path: Path, payload: Dict) -> None:
    """Commit a JSON manifest (canonical: indented, keys sorted)."""
    with atomic_write(path) as handle:
        handle.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def pack_records(handle: BinaryIO, records: Iterable[Sequence[int]], width: int) -> int:
    """Stream *records* into *handle*, never holding more than a
    megabyte of output in memory.  Returns the record count."""
    count = 0
    buffer = bytearray()
    pack = record_struct(width).pack
    for fields in records:
        buffer += pack(*fields)
        count += 1
        if len(buffer) >= _WRITE_BUFFER:
            handle.write(buffer)
            del buffer[:]
    if buffer:
        handle.write(buffer)
    return count


def write_records(path: Path, records: Iterable[Sequence[int]], width: int) -> int:
    """Stream pre-sorted records to *path* through :func:`atomic_write`.

    *records* is typically a :func:`merge_distinct` over scans and runs,
    so a corpus-sized file is written in bounded memory.
    """
    with atomic_write(path) as handle:
        return pack_records(handle, records, width)


def iter_records(path: Path, width: int) -> Iterator[Tuple[int, ...]]:
    """Stream one record file in order, in bounded chunks."""
    record = record_struct(width)
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_READ_RECORDS * record.size)
            if not chunk:
                return
            yield from record.iter_unpack(chunk)


def merge_distinct(*sources: Iterable[Tuple[int, ...]]) -> Iterator[Tuple[int, ...]]:
    """K-way merge of individually sorted sources, duplicates collapsed.

    The one-record lookbehind yields exactly ``sorted(set(all records))``
    — which is why a file built from any number of spilled runs has the
    same bytes as one sorted in memory.
    """
    last = None
    for record in heapq.merge(*sources):
        if record != last:
            last = record
            yield record


class RecordReader:
    """mmap + binary-search access to one sorted record file.

    Width-specialised subclasses set ``_RECORD`` and restate the two-line
    :meth:`record` over a module-level ``Struct`` (cheaper to reach from
    their scan loops than an attribute); every algorithm is inherited.
    The search loops serve both widths, so they call the codec directly:
    two ``record`` functions behind one call site is a site the
    interpreter cannot specialise for either.
    """

    _RECORD: struct.Struct

    def __init__(self, path: Path):
        self.path = Path(path)
        self._map: Optional[mmap.mmap] = None
        self.record_count = 0
        # Binary-search record probes (comparisons). A plain int rather
        # than a registry counter: bisect runs in the innermost query
        # loop, and per-op registry locking would be measurable.  The
        # store aggregates these into store_info(); the endpoint mirrors
        # them into /metrics via a collector.
        self.probes = 0
        self._constant_ranges: Dict[Tuple[int, ...], Tuple[int, int]] = {}
        size = self.path.stat().st_size if self.path.exists() else 0
        if size % self._RECORD.size:
            # A torn copy or a foreign file must not be answered from as
            # if it were a shorter valid one.
            raise StoreError(
                f"{self.path} is {size} bytes, not a multiple of its "
                f"{self._RECORD.size}-byte record width"
            )
        if size:
            with open(self.path, "rb") as handle:
                self._map = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            self.record_count = size // self._RECORD.size

    def close(self) -> None:
        if self._map is not None:
            self._map.close()
            self._map = None

    def record(self, index: int) -> Tuple[int, ...]:
        return self._RECORD.unpack_from(self._map, index * self._RECORD.size)

    def __len__(self) -> int:
        return self.record_count

    def records(self, lo: int, hi: int) -> Iterator[Tuple[int, ...]]:
        """Records ``[lo, hi)`` in order, unpacked with ``iter_unpack``
        over bounded copies of their bytes — past a couple of records,
        cheaper per record than :meth:`record`, and no buffer of the map
        stays exported while a caller holds the iterator."""
        size, data = self._RECORD.size, self._map
        unpack = self._RECORD.iter_unpack
        if hi - lo <= _RANGE_RECORDS:
            return unpack(data[lo * size:hi * size]) if lo < hi else ()
        return chain.from_iterable(
            unpack(data[start * size:min(hi, start + _RANGE_RECORDS) * size])
            for start in range(lo, hi, _RANGE_RECORDS))

    def bisect_left(self, key: Tuple[int, ...]) -> int:
        """First index whose record (prefix) is >= *key*."""
        lo, hi = 0, self.record_count
        width = len(key)
        unpack, data, size = self._RECORD.unpack_from, self._map, self._RECORD.size
        probes = 0
        while lo < hi:
            probes += 1
            mid = (lo + hi) // 2
            if unpack(data, mid * size)[:width] < key:
                lo = mid + 1
            else:
                hi = mid
        self.probes += probes
        return lo

    def gallop_left(self, key: Tuple[int, ...], lo: int = 0) -> int:
        """First index >= *lo* whose record (prefix) is >= *key*.

        Exponential (galloping) search from *lo*, then bisect inside the
        bracket.  A merge join probes successive sorted keys with the
        previous hit as *lo*, so each probe costs O(log distance) rather
        than O(log n) — the monotone-cursor counterpart to
        :meth:`bisect_left`.  Probes are counted identically.
        """
        n = self.record_count
        if lo >= n:
            return n
        width = len(key)
        unpack, data, size = self._RECORD.unpack_from, self._map, self._RECORD.size
        probes = 1
        if unpack(data, lo * size)[:width] >= key:
            self.probes += probes
            return lo
        offset = 1
        while lo + offset < n:
            probes += 1
            if unpack(data, (lo + offset) * size)[:width] >= key:
                break
            offset <<= 1
        left = lo + (offset >> 1) + 1
        right = min(lo + offset, n)
        while left < right:
            probes += 1
            mid = (left + right) // 2
            if unpack(data, mid * size)[:width] < key:
                left = mid + 1
            else:
                right = mid
        self.probes += probes
        return left

    def range_for_prefix(self, prefix: Tuple[int, ...]) -> Tuple[int, int]:
        """The [lo, hi) record range matching a bound-field prefix."""
        if not prefix:
            return (0, self.record_count)
        lo = self.bisect_left(prefix)
        hi = self.bisect_left(prefix[:-1] + (prefix[-1] + 1,))
        return (lo, hi)

    def constant_range(self, prefix: Tuple[int, ...]) -> Tuple[int, int]:
        """:meth:`range_for_prefix`, memoised: for a pattern's constants,
        which recur from query to query.  The file never changes under a
        reader; the memo is cleared wholesale when it fills."""
        memo = self._constant_ranges
        found = memo.get(prefix)
        if found is None:
            if len(memo) >= _CONSTANT_RANGES:
                memo.clear()
            found = memo[prefix] = self.range_for_prefix(prefix)
        return found

    def count_prefix(self, prefix: Tuple[int, ...]) -> int:
        lo, hi = self.range_for_prefix(prefix)
        return hi - lo

    def scan(self, prefix: Tuple[int, ...] = ()) -> Iterator[Tuple[int, ...]]:
        """Yield records in the prefix range, in sort order."""
        lo, hi = self.range_for_prefix(prefix)
        for index in range(lo, hi):
            yield self.record(index)

    def distinct(self, prefix: Tuple[int, ...] = ()) -> Iterator[int]:
        """Distinct values of the field following *prefix*, by bisect jumps.

        Skipping from one value to the next with a binary search makes
        e.g. "all predicates" O(distinct · log n) instead of O(n).
        """
        position = len(prefix)
        lo, hi = self.range_for_prefix(prefix)
        while lo < hi:
            value = self.record(lo)[position]
            yield value
            lo = self.bisect_left(prefix + (value + 1,))


# -- quad segments ------------------------------------------------------------

_QUAD = record_struct(4)
_QUAD_SIZE = _QUAD.size

#: ordering name -> permutation applied to an (s, p, o, g) quad.
ORDERINGS = {
    "spog": (0, 1, 2, 3),
    "posg": (1, 2, 0, 3),
    "ospg": (2, 0, 1, 3),
    "gspo": (3, 0, 1, 2),
}


def segment_filename(ordering: str) -> str:
    return f"{ordering}.seg"


def permute(quad: Sequence[int], ordering: str) -> Tuple[int, int, int, int]:
    a, b, c, d = ORDERINGS[ordering]
    return (quad[a], quad[b], quad[c], quad[d])


class SegmentReader(RecordReader):
    """Binary-search access to one sorted quad segment."""

    _RECORD = _QUAD

    def record(self, index: int) -> Tuple[int, int, int, int]:
        return _QUAD.unpack_from(self._map, index * _QUAD_SIZE)


class AccessPath(NamedTuple):
    """How one (bound positions, scope) class of triple patterns is read."""

    #: Segment whose sort prefix is exactly the bound positions.
    ordering: str
    #: Quad positions (0 s, 1 p, 2 o, 3 g) forming the probe key, in the
    #: ordering's sort order; 3 stands for the scope's graph id.
    prefix: Tuple[int, ...]
    #: Record fields holding s, p and o (the permutation, inverted).
    fields: Tuple[int, int, int]
    #: Union scope: the graph id sorts last, so one triple asserted in
    #: several graphs is adjacent records — collapse them.
    collapse: bool
    #: Single-graph scope over a union ordering: the range spans every
    #: graph, keep the records of this one.
    filter: bool

    def triples(
        self, reader: SegmentReader, lo: int, hi: int, graph_id: Optional[int]
    ) -> Iterator[Tuple[int, int, int]]:
        """Distinct (s, p, o) ids of records ``[lo, hi)`` of this path's
        ordering, in record order."""
        s, p, o = self.fields
        if self.collapse:
            last = None
            for rec in reader.records(lo, hi):
                head = rec[:3]
                if head != last:
                    last = head
                    yield (rec[s], rec[p], rec[o])
        elif self.filter:
            for rec in reader.records(lo, hi):
                if rec[3] == graph_id:
                    yield (rec[s], rec[p], rec[o])
        else:
            for rec in reader.records(lo, hi):
                yield (rec[s], rec[p], rec[o])


def _access_paths() -> Dict[Tuple[bool, bool, bool, bool], AccessPath]:
    table = {}
    for bound_mask in product((False, True), repeat=3):
        bound = {position for position in range(3) if bound_mask[position]}
        # Every subset of {s, p, o} is the sort prefix of exactly one
        # graph-last ordering when probed in declaration order.
        union = next(
            name for name, perm in ORDERINGS.items()
            if set(perm[:len(bound)]) == bound
        )
        for single_graph in (False, True):
            if single_graph and bound == set(range(len(bound))):
                # An (s[, p[, o]]) chain rides gspo's (g, s, p, o) prefix:
                # the graph id leads the key, the range is the answer.
                name = "gspo"
                prefix = ORDERINGS[name][:len(bound) + 1]
            else:
                name = union
                prefix = ORDERINGS[name][:len(bound)]
            perm = ORDERINGS[name]
            table[bound_mask + (single_graph,)] = AccessPath(
                name, prefix, tuple(perm.index(position) for position in range(3)),
                collapse=not single_graph,
                filter=single_graph and name != "gspo",
            )
    return table


#: (s bound?, p bound?, o bound?, single-graph scope?) -> :class:`AccessPath`.
#: Built once at import: the per-pattern dispatch is one dict lookup.
ACCESS_PATHS = _access_paths()
