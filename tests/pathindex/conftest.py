"""Fixtures for the path-index and id-space path-walk tests.

The session corpus on disk, whose serial ingest (`indexed_store`) the
top-level conftest shares, is ingested once more with two workers, so
byte-level determinism of the index files can be asserted directly.
`store_union` and `memory_union` are the same corpus on the two
backends: the store's path walk reads its own orderings, the in-memory
one walks terms.
"""

from __future__ import annotations

import pytest

from tests.conftest import ingest_store


@pytest.fixture(scope="session")
def store_dir_j2(tmp_path_factory, pathindex_corpus_dir):
    return ingest_store(tmp_path_factory, pathindex_corpus_dir, jobs=2)


@pytest.fixture(scope="session")
def store_union(indexed_store):
    from repro.store import StoreDataset

    return StoreDataset(indexed_store).union_graph()


@pytest.fixture(scope="session")
def memory_union(corpus_dataset):
    return corpus_dataset.union_graph()


@pytest.fixture(scope="session")
def lineage_run(corpus):
    """The run IRI of the corpus's first successful Taverna trace."""
    from repro.taverna.engine import TAVERNA_RUN_NS

    trace = next(t for t in corpus.by_system("taverna") if not t.failed)
    return TAVERNA_RUN_NS.term(f"{trace.run_id}/")


@pytest.fixture(scope="session")
def lineage_query(lineage_run):
    """The lineage of every output of that run: two plain steps feeding a
    bound closure its ``?out`` column."""
    return (f"SELECT ?out ?src WHERE {{ ?p wfprov:wasPartOfWorkflowRun {lineage_run.n3()} . "
            "?out prov:wasGeneratedBy ?p . ?out (prov:wasGeneratedBy/prov:used)+ ?src }")
