"""Engine-level parity and introspection for path queries over a store."""

from __future__ import annotations

import pytest

from repro.sparql import QueryEngine

LINEAGE = """
PREFIX prov: <http://www.w3.org/ns/prov#>
SELECT ?out ?src WHERE { ?out (prov:used|^prov:wasGeneratedBy)+ ?src }
"""
SEQUENCE = """
PREFIX prov: <http://www.w3.org/ns/prov#>
SELECT ?a ?b WHERE { ?a (prov:used/prov:wasGeneratedBy)+ ?b }
"""
STAR = """
PREFIX prov: <http://www.w3.org/ns/prov#>
SELECT ?a ?b WHERE { ?a prov:used* ?b }
"""
QUERIES = {"lineage": LINEAGE, "sequence": SEQUENCE, "star": STAR}


def _rows(engine, text):
    return [str(row) for row in engine.query(text)]


@pytest.fixture(scope="module")
def store_dataset(indexed_store):
    from repro.store import StoreDataset

    return StoreDataset(indexed_store)


@pytest.fixture(scope="module")
def indexed_datasets(store_dataset, store_dir_j2):
    """The indexed stores of both ingest job counts, keyed by count."""
    from repro.store import QuadStore, StoreDataset

    with QuadStore(store_dir_j2) as parallel:
        yield {1: store_dataset, 2: StoreDataset(parallel)}


@pytest.fixture(scope="module")
def index_files_removed(store_dir_j1, tmp_path_factory):
    """A copy of the serial store without its path-index files."""
    import shutil

    from repro.pathindex import FWD_FILE, INV_FILE, MANIFEST_FILE
    from repro.store import QuadStore, StoreDataset

    directory = tmp_path_factory.mktemp("no-path-index") / "store"
    shutil.copytree(store_dir_j1, directory)
    for name in (FWD_FILE, INV_FILE, MANIFEST_FILE):
        (directory / name).unlink()
    with QuadStore(directory) as store:
        assert store.path_index() is None
        yield StoreDataset(store)


# "Off" is the store without its index files: no query reads them, so the
# rows and their order must not move.  The second axis is the job count of
# the store with its index; its ids keep the names of an older on/off axis
# so that test ids stay stable.
@pytest.mark.parametrize("name", sorted(QUERIES))
@pytest.mark.parametrize("jobs", [1, 2], ids=["opt", "noopt"])
def test_rows_identical_index_on_off(indexed_datasets, index_files_removed, name, jobs):
    on = QueryEngine(indexed_datasets[jobs], cache_size=0)
    off = QueryEngine(index_files_removed, cache_size=0)
    assert _rows(on, QUERIES[name]) == _rows(off, QUERIES[name])  # same order


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_rows_match_memory(store_dataset, corpus_dataset, name):
    stored = QueryEngine(store_dataset, cache_size=0)
    memory = QueryEngine(corpus_dataset, cache_size=0)
    assert sorted(_rows(stored, QUERIES[name])) == sorted(_rows(memory, QUERIES[name]))


def test_explain_annotates_index_step(store_dataset, corpus_dataset):
    """A store's path step names the ordering its walk reads first: both
    ends unbound, ``(used/wasGeneratedBy)+`` starts with used's pairs."""
    plan = QueryEngine(store_dataset).explain(SEQUENCE).to_text()
    assert "join=path" in plan and "ordering=posg" in plan
    assert "pathindex" not in plan
    # In-memory plans are unchanged: no annotation.
    assert "join=" not in QueryEngine(corpus_dataset).explain(SEQUENCE).to_text()


def test_profile_annotates_index_step(store_dataset):
    profile = QueryEngine(store_dataset).profile(SEQUENCE)
    (scan,) = [op for op in profile.report["operators"] if op["op"] == "scan"]
    assert scan["join"] == "path" and scan["probes"] > 0
    assert "pathindex" not in profile.to_text()


def test_explain_profile_describe_the_switch_to_per_binding(store_dataset, lineage_query):
    """A run's lineage query runs its two plain steps in id space and its
    path step per binding: EXPLAIN says so step by step, and PROFILE
    carries the rows across the switch."""
    engine = QueryEngine(store_dataset, cache_size=0)
    scans = [node.detail for node in engine.explain(lineage_query).root.walk()
             if node.op == "scan"]
    assert [detail["join"] for detail in scans[:2]] == ["bisect", "merge"]
    assert all(detail["ordering"] in ("spog", "posg", "ospg", "gspo")
               for detail in scans[:2])
    # the bound ?out column walks wasGeneratedBy forward first: (s, p) → spog
    assert scans[2]["join"] == "path" and scans[2]["ordering"] == "spog"

    profile = engine.profile(lineage_query)
    rows = [op for op in profile.report["operators"] if op["op"] == "scan"]
    assert len(profile.result) > 0 and rows[-1]["rows_out"] == len(profile.result)
    assert rows[1]["rows_out"] == rows[2]["rows_in"]  # the decoded ?out column
    # every step, the path's walk included, reads the store's segments
    assert all(op["probes"] > 0 and op["calls"] == 1 for op in rows)
