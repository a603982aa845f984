"""Fixtures for the path/pattern index tests.

The session corpus on disk, whose serial ingest (`indexed_store`) the
top-level conftest shares, is ingested once more with two workers, so
byte-level determinism of the index can be asserted directly.
`indexed_store` / `store_union` serve the read-side tests.  A third
ingest with `path_index=False` leaves a store with no index files: over
it the engine can only walk the graph, which makes `bfs_union` the BFS
baseline the indexed stores must match pair for pair.
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
def bfs_store(tmp_path_factory, pathindex_corpus_dir):
    from repro.store import QuadStore

    directory = ingest_store(tmp_path_factory, pathindex_corpus_dir, jobs=1,
                             path_index=False)
    with QuadStore(directory) as store:
        assert store.path_index() is None
        yield store


@pytest.fixture(scope="session")
def bfs_union(bfs_store):
    from repro.store import StoreDataset

    return StoreDataset(bfs_store).union_graph()


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
