"""Persistent path index: the derivation edges, written at ingest.

Built at ingest from a store's compacted segments (see
:func:`~repro.pathindex.build.build_path_index`), persisted beside the
segment files, and opened read-only through
:func:`~repro.pathindex.index.load_path_index` for its identity and
sizes.  Nothing in the program reads its edges: SPARQL property paths
and the applications layer walk the store's own ``spog`` / ``posg``
orderings (``StoreGraph.path_edges()``).
"""

from .build import build_path_index, store_files_sha
from .format import FWD_FILE, INV_FILE, MANIFEST_FILE
from .index import PathIndex, load_path_index

__all__ = [
    "build_path_index",
    "store_files_sha",
    "load_path_index",
    "PathIndex",
    "MANIFEST_FILE",
    "FWD_FILE",
    "INV_FILE",
]
