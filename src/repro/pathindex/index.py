"""Read access to a persisted path/pattern index.

:class:`PathIndex` is the object the rest of the stack programs against.
It is deliberately self-describing — predicate IRIs map to relation
codes through the manifest, never through the term dictionary — so the
SPARQL layer can duck-type on it (via ``graph.path_index()``, the same
capability pattern as ``encoded_scope()``) without importing either this
package or ``repro.store``.

Staleness is generation-keyed: :func:`load_path_index` returns whatever
generation is committed on disk, and the store's accessor rejects any
index whose recorded generation differs from the live store's — after a
compaction or reset the index simply disappears until rebuilt, and every
consumer falls back to BFS over the graph API.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..store.segments import StoreError
from .format import (
    FWD_FILE,
    INV_FILE,
    MANIFEST_FILE,
    REL_DERIVATION,
    REL_GENERATED_BY,
    REL_USED,
    TRIE_FILE,
    AdjacencyReader,
    read_index_manifest,
)
from .trie import TrieReader

__all__ = ["PathIndex", "load_path_index"]


class PathIndex:
    """One open index: forward/inverse adjacency plus the pattern trie."""

    #: Relation-code attributes, re-exported so consumers can say
    #: ``index.DERIVATION`` without importing repro.pathindex.
    USED = REL_USED
    GENERATED_BY = REL_GENERATED_BY
    DERIVATION = REL_DERIVATION

    def __init__(self, directory: Path, manifest: Dict):
        self.path = Path(directory)
        self.manifest = manifest
        self._relations: Dict[str, int] = dict(manifest.get("relations", {}))
        self._fwd = AdjacencyReader(self.path / FWD_FILE)
        try:
            self._inv = AdjacencyReader(self.path / INV_FILE)
        except StoreError:
            self._fwd.close()
            raise
        self._trie: Optional[TrieReader] = None

    # -- identity ------------------------------------------------------------

    @property
    def generation(self) -> int:
        return self.manifest.get("generation", -1)

    @property
    def edge_count(self) -> int:
        return len(self._fwd)

    def close(self) -> None:
        self._fwd.close()
        self._inv.close()
        if self._trie is not None:
            self._trie.close()
            self._trie = None

    def probes(self) -> int:
        """Cumulative adjacency bisect probes (plain int, hot path)."""
        return self._fwd.probes + self._inv.probes

    def info(self) -> Dict:
        """Structural summary for ``store_info()`` / diagnostics."""
        sizes = {}
        for name in (FWD_FILE, INV_FILE, TRIE_FILE, MANIFEST_FILE):
            target = self.path / name
            sizes[name] = target.stat().st_size if target.exists() else 0
        return {
            "generation": self.generation,
            "edges": self.edge_count,
            "sequences": self.manifest.get("trie", {}).get("sequences", 0),
            "bytes": sizes,
        }

    # -- relations -----------------------------------------------------------

    def rel_for(self, predicate_value: str) -> Optional[int]:
        """Relation code for a predicate IRI value, or None when the
        predicate is not indexed (the caller then falls back to BFS)."""
        return self._relations.get(predicate_value)

    # -- adjacency -----------------------------------------------------------

    def neighbors(self, rel: int, node: int) -> Iterator[int]:
        """Forward neighbors of *node* under *rel*, ascending ids."""
        return self._fwd.neighbors(rel, node)

    def neighbors_inv(self, rel: int, node: int) -> Iterator[int]:
        """Inverse neighbors (sources pointing at *node*), ascending."""
        return self._inv.neighbors(rel, node)

    def pairs(self, rel: int) -> Iterator[Tuple[int, int]]:
        """(src, dst) pairs of *rel* ordered by (dst, src) — the same
        order a union posg scan yields the predicate's triples, which is
        what keeps full-scan path evaluation order-identical to BFS."""
        for dst, src in self._inv.pairs(rel):
            yield (src, dst)

    def has_edge(self, rel: int, src: int, dst: int) -> bool:
        return self._fwd.has(rel, src, dst)

    def sources(self, rel: int) -> Iterator[int]:
        """Distinct source nodes of *rel*, ascending."""
        return self._fwd.firsts(rel)

    def targets(self, rel: int) -> Iterator[int]:
        """Distinct target nodes of *rel*, ascending."""
        return self._inv.firsts(rel)

    def degree(self, rel: int, node: int) -> int:
        return self._fwd.degree(rel, node)

    def in_dag(self, rel: int, node: int) -> bool:
        """Does *node* participate in *rel* at all (either direction)?"""
        return self._fwd.degree(rel, node) > 0 or self._inv.degree(rel, node) > 0

    # -- trie ----------------------------------------------------------------

    @property
    def trie(self) -> TrieReader:
        if self._trie is None:
            self._trie = TrieReader(self.path / TRIE_FILE)
        return self._trie

    def runs_matching(self, labels: Sequence[int]) -> List[int]:
        return self.trie.runs_matching(labels)

    def frequent_patterns(
        self, min_support: int = 2, min_length: int = 2,
        max_patterns: Optional[int] = None,
    ) -> List[Tuple[Tuple[int, ...], int]]:
        return self.trie.frequent_patterns(min_support, min_length, max_patterns)

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
    for name in (FWD_FILE, INV_FILE, TRIE_FILE):
        if not (directory / name).exists():
            return None
    try:
        return PathIndex(directory, manifest)
    except StoreError:
        return None
