"""The persisted path index, opened: its identity and its sizes.

Nothing in the program reads the index's edges — property paths and the
applications walk the store's own orderings.  :class:`PathIndex` stays
so a store can report the files it writes: ``QuadStore.path_index()``
opens the committed index of the live generation, and ``store_info()``
carries its :meth:`PathIndex.info`.

Staleness is generation-keyed: :func:`load_path_index` returns whatever
generation is committed on disk, and the store's accessor rejects any
index whose recorded generation differs from the live store's — after a
compaction or reset the index simply disappears until rebuilt.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional

from ..store.segments import StoreError
from .format import (
    FWD_FILE,
    INV_FILE,
    MANIFEST_FILE,
    AdjacencyReader,
    read_index_manifest,
)

__all__ = ["PathIndex", "load_path_index"]


class PathIndex:
    """One open index: its forward and inverse edge files."""

    def __init__(self, directory: Path, manifest: Dict):
        self.path = Path(directory)
        self.manifest = manifest
        self._fwd = AdjacencyReader(self.path / FWD_FILE)
        try:
            self._inv = AdjacencyReader(self.path / INV_FILE)
        except StoreError:
            self._fwd.close()
            raise

    @property
    def generation(self) -> int:
        return self.manifest.get("generation", -1)

    @property
    def edge_count(self) -> int:
        return len(self._fwd)

    def close(self) -> None:
        self._fwd.close()
        self._inv.close()

    def probes(self) -> int:
        """Cumulative bisect probes of the edge files (plain int)."""
        return self._fwd.probes + self._inv.probes

    def info(self) -> Dict:
        """Structural summary for ``store_info()`` / diagnostics."""
        sizes = {}
        for name in (FWD_FILE, INV_FILE, MANIFEST_FILE):
            target = self.path / name
            sizes[name] = target.stat().st_size if target.exists() else 0
        return {
            "generation": self.generation,
            "edges": self.edge_count,
            "bytes": sizes,
        }

    def __repr__(self) -> str:
        return (
            f"<PathIndex {self.path} gen={self.generation} "
            f"edges={self.edge_count}>"
        )


def load_path_index(directory: Path) -> Optional[PathIndex]:
    """Open the committed index under *directory*, or None when no valid
    index is present (missing/foreign manifest, missing or torn edge
    files)."""
    directory = Path(directory)
    manifest = read_index_manifest(directory)
    if manifest is None:
        return None
    for name in (FWD_FILE, INV_FILE):
        if not (directory / name).exists():
            return None
    try:
        return PathIndex(directory, manifest)
    except StoreError:
        return None
