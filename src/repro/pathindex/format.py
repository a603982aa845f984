"""On-disk format of the persistent path/pattern index.

The index lives beside a store's segment files as two flat files plus
a JSON manifest, all derived purely from the current segment generation:

    pathindex.json   manifest: format version, the store generation the
                     index was built from, a sha over the store's
                     ingested-file hashes, relation table, record counts
    paths.fwd        sorted edge records (rel, src, dst) — forward
                     adjacency per relation
    paths.inv        sorted edge records (rel, dst, src) — inverse
                     adjacency per relation

Edge records are width-three record files of :mod:`repro.store.segments`
— 12-byte rows of three little-endian ``u32`` values, sorted
lexicographically — so a ``(rel, node)`` prefix is one contiguous
neighbor range.  Every file is committed through ``atomic_write``; the
manifest is written last and is the commit point.

Nothing in the program reads the edges: property paths and the
applications walk the store's own ``spog`` / ``posg`` orderings.  The
files are written, identified and sized (``store_info()["path_index"]``)
only.

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

Codes 0–5 mirror raw predicates one-to-one; code 6 pre-composes the
relation :mod:`repro.apps.dependencies` defines as two path texts.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from ..store.segments import RecordReader, atomic_write_json, record_struct

__all__ = [
    "INDEX_FORMAT_VERSION",
    "MANIFEST_FILE",
    "FWD_FILE",
    "INV_FILE",
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


class AdjacencyReader(RecordReader):
    """One sorted edge file, ``(rel, a, b)`` records: opening it refuses
    a torn copy; its length is the edge count."""

    _RECORD = _EDGE


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
