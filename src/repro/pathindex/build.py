"""Build the persistent path/pattern index from a store's segments.

:func:`build_path_index` derives everything from the store's **current
compacted generation** — sorted segment scans in id space plus one decode per asserted derivation
object — and writes the two edge files followed by the manifest (the
commit point).  Because segment files are
byte-identical across serial and parallel ingest, so is the index.

Edge derivation (see :mod:`repro.pathindex.format` for the relation
table):

* relations 0–5 copy the raw predicate extensions — ``prov:used``,
  ``prov:wasGeneratedBy``, asserted ``prov:wasDerivedFrom`` and its
  subproperties — over the union scope (distinct (s, o) pairs across
  graphs, exactly what a plain BGP matches);
* relation 6 (``derivation``) composes usage through generation:
  ``product --wasGeneratedBy--> activity --used--> source`` yields
  product → source for every source ≠ product, merged with every
  asserted derivation (sub)property edge whose object is an IRI — the
  same relation :class:`repro.apps.dependencies.DependencyAnalyzer`
  derives per query, materialized once.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from ..prov.constants import DERIVATION_SUBPROPERTIES
from ..rdf.namespace import PROV
from ..rdf.terms import IRI
from ..store.segments import iter_records, merge_distinct, pack_records, write_records
from .format import (
    FWD_FILE,
    INDEX_FORMAT_VERSION,
    INV_FILE,
    REL_DERIVATION,
    REL_GENERATED_BY,
    REL_HAD_PRIMARY_SOURCE,
    REL_USED,
    REL_WAS_DERIVED_FROM,
    REL_WAS_QUOTED_FROM,
    REL_WAS_REVISION_OF,
    RELATION_NAMES,
    write_index_manifest,
)

__all__ = ["build_path_index", "store_files_sha", "DEFAULT_EDGE_BUDGET"]

#: In-memory edge cap before the spool spills a sorted run to disk.
#: Sized like the store's spill budget: high enough that the default
#: corpus (≈50k quads) never spills, low enough that a scale-50 build's
#: peak RSS stays flat.  ``None``/``0`` disables spilling (pure
#: in-memory sort — the pre-spool behaviour).
DEFAULT_EDGE_BUDGET = 500_000

#: Asserted derivation predicates → relation code (wasDerivedFrom plus
#: its PROV-O subproperties, in the constants' order).
_ASSERTED_RELS: List[Tuple[IRI, int]] = [
    (PROV.wasDerivedFrom, REL_WAS_DERIVED_FROM),
    (DERIVATION_SUBPROPERTIES[0], REL_HAD_PRIMARY_SOURCE),   # hadPrimarySource
    (DERIVATION_SUBPROPERTIES[1], REL_WAS_QUOTED_FROM),      # wasQuotedFrom
    (DERIVATION_SUBPROPERTIES[2], REL_WAS_REVISION_OF),      # wasRevisionOf
]


def store_files_sha(store) -> str:
    """sha256 over the store's ingested-file hash map — the incremental
    rebuild key: an unchanged corpus re-ingest keeps it (and the store
    generation) fixed, so the index stays valid without a rebuild."""
    canonical = json.dumps(store.files, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _union_pairs(store, predicate: IRI) -> Iterator[Tuple[int, int]]:
    """Distinct (s, o) id pairs of *predicate* over the union scope, in
    the (o, s) order a predicate-bound pattern is read in.  A generator
    over the mmap'd segment — never materializes the predicate's full
    extension."""
    pid = store.term_id(predicate)
    if pid is None:
        return
    for s, _, o in store.match_ids(None, pid, None):
        yield (s, o)


class _EdgeSpool:
    """Bounded-memory accumulator for distinct (rel, src, dst) edges.

    Edges collect in an in-memory set; when the set reaches *budget*, it
    spills as two sorted scratch runs — one in forward (rel, src, dst)
    order, one permuted to the inverse (rel, dst, src) order — so both
    final files come out of a ``merge_distinct`` over their runs plus
    the residual set.  The merged streams are byte-identical to sorting
    the whole edge set in memory, which is what keeps the index
    reproducible regardless of budget.  Scratch runs are plain transient
    files (not ``atomic_write``: a crashed build leaves no commit, and
    leftovers are swept on the next build).
    """

    def __init__(self, directory: Path, budget: Optional[int]):
        self._dir = Path(directory)
        self._budget = budget or 0
        self._edges: set = set()
        self.spill_runs = 0  # spilled run count (tests/diagnostics)

    def _run_path(self, batch: int, inverse: bool) -> Path:
        suffix = "inv" if inverse else "fwd"
        return self._dir / f"paths.spool-{batch:04d}.{suffix}"

    def _sorted(self, inverse: bool) -> List[Tuple[int, int, int]]:
        if inverse:
            return sorted((r, d, s) for r, s, d in self._edges)
        return sorted(self._edges)

    def add(self, rel: int, src: int, dst: int) -> None:
        self._edges.add((rel, src, dst))
        if self._budget and len(self._edges) >= self._budget:
            for inverse in (False, True):
                with open(self._run_path(self.spill_runs, inverse), "wb") as handle:
                    pack_records(handle, self._sorted(inverse), 3)
            self._edges.clear()
            self.spill_runs += 1

    def merged(self, inverse: bool = False) -> Iterator[Tuple[int, int, int]]:
        """Sorted, duplicate-free edge stream (leaves the spool reusable,
        so the forward and inverse merges run over the same state)."""
        runs = [iter_records(self._run_path(batch, inverse), 3)
                for batch in range(self.spill_runs)]
        return merge_distinct(*runs, self._sorted(inverse))

    def cleanup(self) -> None:
        for name in os.listdir(self._dir):
            if name.startswith("paths.spool-"):
                (self._dir / name).unlink()


def build_path_index(store, spill_edge_budget: Optional[int] = DEFAULT_EDGE_BUDGET) -> Dict:
    """Derive and persist the index for the store's current generation;
    returns the committed manifest.

    Requires a compacted store (no pending WAL state): the index is a
    pure function of the segment files it scans.

    Memory is bounded by *spill_edge_budget*: edges stream from segment
    scans into an :class:`_EdgeSpool` that spills sorted runs to disk
    and k-way merges them into the final files, and the usage→generation
    composition resolves each generating activity's used entities with a
    (s, p) prefix bisect instead of a corpus-wide ``used_of`` map.  The
    output bytes do not depend on the budget.
    """
    if store.has_pending():
        raise RuntimeError("build_path_index() requires a compacted store")

    spool = _EdgeSpool(store.path, spill_edge_budget)
    spool.cleanup()  # sweep scratch runs a crashed build left behind
    try:
        used_pid = store.term_id(PROV.used)

        for activity, entity in _union_pairs(store, PROV.used):
            spool.add(REL_USED, activity, entity)

        for entity, activity in _union_pairs(store, PROV.wasGeneratedBy):
            spool.add(REL_GENERATED_BY, entity, activity)
            # Compose product --wasGeneratedBy--> activity --used--> source
            # via an (s, p) prefix scan per generating activity; duplicates
            # across activities fall out in the spool's merge.
            if used_pid is None:
                continue
            for _, _, source in store.match_ids(activity, used_pid, None):
                if source != entity:
                    spool.add(REL_DERIVATION, entity, source)

        for predicate, rel in _ASSERTED_RELS:
            for subject, obj in _union_pairs(store, predicate):
                spool.add(rel, subject, obj)
                # The apps-layer DAG only follows IRI-valued derivations.
                if isinstance(store.term(obj), IRI):
                    spool.add(REL_DERIVATION, subject, obj)

        edge_count = write_records(store.path / FWD_FILE, spool.merged(inverse=False), 3)
        write_records(store.path / INV_FILE, spool.merged(inverse=True), 3)
    finally:
        spool.cleanup()

    relations = {}
    for predicate, rel in [(PROV.used, REL_USED), (PROV.wasGeneratedBy, REL_GENERATED_BY)] + _ASSERTED_RELS:
        relations[predicate.value] = rel
    manifest = {
        "format_version": INDEX_FORMAT_VERSION,
        "generation": store.generation,
        "files_sha": store_files_sha(store),
        "edge_count": edge_count,
        "relations": relations,
        "relation_names": {name: code for code, name in RELATION_NAMES.items()},
    }
    write_index_manifest(store.path, manifest)
    return manifest
