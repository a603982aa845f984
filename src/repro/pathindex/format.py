"""On-disk format of the persistent path/pattern index.

The index lives beside a store's segment files as three flat files plus
a JSON manifest, all derived purely from the current segment generation:

    pathindex.json   manifest: format version, the store generation the
                     index was built from, a sha over the store's
                     ingested-file hashes, relation table, record counts
    paths.fwd        sorted edge records (rel, src, dst) — forward
                     adjacency per relation
    paths.inv        sorted edge records (rel, dst, src) — inverse
                     adjacency per relation
    paths.trie       generalized trie over per-run activity sequences
                     (see :mod:`repro.pathindex.trie`)

Edge records are width-three record files of :mod:`repro.store.segments`
— 12-byte rows of three little-endian ``u32`` values, sorted
lexicographically, read by mmap + binary search — so a ``(rel, node)``
prefix maps to one contiguous neighbor range.  Every file is committed
through ``atomic_write``; the manifest is written last and is the commit
point.

Relations are small integer codes, fixed by the format:

====  =======================  ========================================
code  name                     edge direction
====  =======================  ========================================
0     used                     activity → entity (``prov:used``)
1     wasGeneratedBy           entity → activity (``prov:wasGeneratedBy``)
2     wasDerivedFrom           asserted ``prov:wasDerivedFrom`` only
3     hadPrimarySource         asserted subproperty
4     wasQuotedFrom            asserted subproperty
5     wasRevisionOf            asserted subproperty
6     derivation               product → source: the usage→generation
                               composition plus every asserted
                               derivation (sub)property with an IRI
                               object — the apps-layer dependency DAG
====  =======================  ========================================

Codes 0–5 mirror raw predicates one-to-one so the SPARQL property-path
evaluator can replay its BFS discovery order in id space byte for byte;
code 6 is the pre-composed relation the applications traverse.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, Optional, Tuple

from ..store.segments import RecordReader, atomic_write_json, record_struct

__all__ = [
    "INDEX_FORMAT_VERSION",
    "MANIFEST_FILE",
    "FWD_FILE",
    "INV_FILE",
    "TRIE_FILE",
    "REL_USED",
    "REL_GENERATED_BY",
    "REL_WAS_DERIVED_FROM",
    "REL_HAD_PRIMARY_SOURCE",
    "REL_WAS_QUOTED_FROM",
    "REL_WAS_REVISION_OF",
    "REL_DERIVATION",
    "RELATION_NAMES",
    "AdjacencyReader",
    "write_index_manifest",
    "read_index_manifest",
]

INDEX_FORMAT_VERSION = 1

MANIFEST_FILE = "pathindex.json"
FWD_FILE = "paths.fwd"
INV_FILE = "paths.inv"
TRIE_FILE = "paths.trie"

REL_USED = 0
REL_GENERATED_BY = 1
REL_WAS_DERIVED_FROM = 2
REL_HAD_PRIMARY_SOURCE = 3
REL_WAS_QUOTED_FROM = 4
REL_WAS_REVISION_OF = 5
REL_DERIVATION = 6

#: code → stable name (manifest and diagnostics).
RELATION_NAMES = {
    REL_USED: "used",
    REL_GENERATED_BY: "wasGeneratedBy",
    REL_WAS_DERIVED_FROM: "wasDerivedFrom",
    REL_HAD_PRIMARY_SOURCE: "hadPrimarySource",
    REL_WAS_QUOTED_FROM: "wasQuotedFrom",
    REL_WAS_REVISION_OF: "wasRevisionOf",
    REL_DERIVATION: "derivation",
}

_EDGE = record_struct(3)
EDGE_SIZE = _EDGE.size


class AdjacencyReader(RecordReader):
    """Binary-search access to one sorted edge file.

    Records are ``(rel, a, b)`` sorted lexicographically, so the
    neighbors of ``a`` under ``rel`` are the contiguous ``(rel, a)``
    prefix range, already in ascending ``b`` order.
    """

    _RECORD = _EDGE

    def record(self, index: int) -> Tuple[int, int, int]:
        return _EDGE.unpack_from(self._map, index * EDGE_SIZE)

    def neighbors(self, rel: int, node: int) -> Iterator[int]:
        """Ascending third-field values of the ``(rel, node)`` range."""
        lo, hi = self.range_for_prefix((rel, node))
        for index in range(lo, hi):
            yield self.record(index)[2]

    def pairs(self, rel: int) -> Iterator[Tuple[int, int]]:
        """All ``(a, b)`` pairs of one relation, in (a, b) sort order."""
        lo, hi = self.range_for_prefix((rel,))
        for index in range(lo, hi):
            yield self.record(index)[1:]

    def has(self, rel: int, a: int, b: int) -> bool:
        return self.count_prefix((rel, a, b)) > 0

    def firsts(self, rel: int) -> Iterator[int]:
        """Distinct second-field values under *rel*, by bisect jumps."""
        return self.distinct((rel,))

    def degree(self, rel: int, node: int) -> int:
        return self.count_prefix((rel, node))


def write_index_manifest(directory: Path, manifest: dict) -> None:
    """Atomically commit the index manifest (the index's commit point)."""
    atomic_write_json(Path(directory) / MANIFEST_FILE, manifest)


def read_index_manifest(directory: Path) -> Optional[dict]:
    """The committed manifest, or None when absent/unreadable/foreign."""
    path = Path(directory) / MANIFEST_FILE
    if not path.exists():
        return None
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(manifest, dict):
        return None
    if manifest.get("format_version") != INDEX_FORMAT_VERSION:
        return None
    return manifest
