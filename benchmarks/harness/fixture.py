"""The corpus and store the serving workloads read — built once per checkout.

Building the seed-2013 corpus and ingesting it takes ~6 s; the serving
workloads treat the result as an input, so it is built by the program's
own write path (``build_and_write`` → ``ingest_corpus``, default
settings) on first use and kept under ``out/``, keyed by a digest of the
program's source so an edited checkout never serves a stale store.  The
cost of that write path is what ``pipeline_write`` measures.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from .server import OUT, SRC
from .spec import CORPUS_SEED


@dataclass(frozen=True)
class Fixture:
    corpus: Path
    store: Path

    def traces(self) -> List[Dict]:
        return json.loads((self.corpus / "manifest.json").read_text())["traces"]

    def store_bytes(self) -> int:
        return dir_bytes(self.store)


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def source_digest() -> str:
    """sha256 over every file of the program's package, by relative path."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_fixture() -> Fixture:
    from repro.corpus import CorpusBuilder
    from repro.corpus.storage import build_and_write
    from repro.store import QuadStore, ingest_corpus

    home = OUT / f"fixture-{source_digest()}"
    fixture = Fixture(home / "corpus", home / "store")
    if home.is_dir():
        return fixture
    for stale in OUT.glob("fixture-*"):
        shutil.rmtree(stale, ignore_errors=True)
    staging = OUT / f"fixture-staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    try:
        build_and_write(CorpusBuilder(seed=CORPUS_SEED), staging / "corpus", jobs=1)
        with QuadStore(staging / "store") as store:
            ingest_corpus(store, staging / "corpus")
        staging.rename(home)  # the commit point: a half-built fixture is never seen
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return fixture
