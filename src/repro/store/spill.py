"""Spill-run naming and the ``spill.json`` commit point.

When an ingest accumulates more pending (WAL-committed, uncompacted)
quads than the store's ``spill_quad_budget``, the pending set is flushed
to *spill runs*: one sorted run file per segment ordering, holding the
batch's quads already permuted into that ordering's sort order — plain
width-four record files written and read back through
:mod:`repro.store.segments`.  Compaction then k-way merges the current
segment with every run (plus the residual pending set) into the new
segment — the same sorted, duplicate-free record stream the in-memory
sort produced, so segment bytes are identical either way.  This module
owns what is particular to spilling: how runs are named, the state file
that commits them, and the sweep of runs no state file lists.

Durability
----------
``spill.json`` is the mini commit point of a spill:

1. run files for the batch are written (``atomic_write``);
2. the dictionary delta is folded into the persisted dict files;
3. ``spill.json`` is atomically replaced, now listing the batch along
   with the cumulative ingested-file digests and prefix bindings that
   until now lived only in the WAL;
4. the WAL is cleared — this is what stops WAL and spill runs from
   double-holding the same quads on disk.

A crash before step 3 leaves orphan run files (removed at next open —
they are not listed in ``spill.json``) and an intact WAL: nothing was
lost.  A crash between steps 3 and 4 leaves a WAL whose records
duplicate spilled state; replay is idempotent — terms re-intern to
their existing ids, quads deduplicate in the compaction merge, file
digests and prefixes are map-merged.  Run files are only deleted after
the *store* manifest commits a compaction that folded them in.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict

from .segments import ORDERINGS, atomic_write_json

__all__ = [
    "SPILL_STATE_FILE",
    "SPILL_FORMAT_VERSION",
    "spill_run_path",
    "read_spill_state",
    "write_spill_state",
    "remove_spill_files",
    "remove_orphan_runs",
]

SPILL_STATE_FILE = "spill.json"
SPILL_FORMAT_VERSION = 1


def spill_run_path(directory: Path, batch_id: int, ordering: str) -> Path:
    return Path(directory) / f"spill-{batch_id:06d}.{ordering}.run"


# -- spill state (the mini commit point) ------------------------------------


def read_spill_state(directory: Path) -> Dict:
    """The committed spill state, or an empty state if none exists."""
    path = Path(directory) / SPILL_STATE_FILE
    if not path.exists():
        return {"format_version": SPILL_FORMAT_VERSION, "batches": [],
                "files": {}, "prefixes": [], "quad_records": 0}
    return json.loads(path.read_text())


def write_spill_state(directory: Path, state: Dict) -> None:
    atomic_write_json(Path(directory) / SPILL_STATE_FILE, state)


def remove_spill_files(directory: Path) -> None:
    """Delete every run file and the state file (post-compaction)."""
    remove_orphan_runs(directory, {})  # no state: every run is an orphan
    for name in (SPILL_STATE_FILE, SPILL_STATE_FILE + ".tmp"):
        (Path(directory) / name).unlink(missing_ok=True)


def remove_orphan_runs(directory: Path, state: Dict) -> None:
    """Delete run files not committed in *state* (crash before the
    state write left them; their quads are still in the WAL)."""
    directory = Path(directory)
    committed = {
        spill_run_path(directory, batch["id"], ordering).name
        for batch in state.get("batches", ())
        for ordering in ORDERINGS
    }
    for name in os.listdir(directory):
        if name.startswith("spill-") and name.endswith(".run") and name not in committed:
            (directory / name).unlink()
        elif name.startswith("spill-") and name.endswith(".run.tmp"):
            (directory / name).unlink()
