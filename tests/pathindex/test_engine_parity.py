"""Engine-level parity and introspection for index-served path queries."""

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


# "Off" is a store ingested without index files — the engine sees no
# path_index() there and walks the graph.  The second axis is the job
# count of the indexed store's ingest; its ids are the recorded ones of
# the optimizer on/off axis it replaced (the test floor tracks ids).
@pytest.mark.parametrize("name", sorted(QUERIES))
@pytest.mark.parametrize("jobs", [1, 2], ids=["opt", "noopt"])
def test_rows_identical_index_on_off(indexed_datasets, bfs_store, name, jobs):
    from repro.store import StoreDataset

    on = QueryEngine(indexed_datasets[jobs], cache_size=0)
    off = QueryEngine(StoreDataset(bfs_store), cache_size=0)
    assert _rows(on, QUERIES[name]) == _rows(off, QUERIES[name])  # same order


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_rows_match_memory(store_dataset, corpus_dataset, name):
    stored = QueryEngine(store_dataset, cache_size=0)
    memory = QueryEngine(corpus_dataset, cache_size=0)
    assert sorted(_rows(stored, QUERIES[name])) == sorted(_rows(memory, QUERIES[name]))


def test_explain_annotates_index_step(store_dataset, corpus_dataset):
    plan = QueryEngine(store_dataset).explain(SEQUENCE).to_text()
    assert "join=pathindex" in plan
    assert "ordering=fwd" in plan
    # In-memory plans are unchanged: no index, no annotation.
    assert "pathindex" not in QueryEngine(corpus_dataset).explain(SEQUENCE).to_text()


def test_profile_annotates_index_step(store_dataset):
    profile = QueryEngine(store_dataset).profile(SEQUENCE)
    assert "pathindex" in profile.to_text()


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
    assert scans[2]["join"] == "pathindex" and scans[2]["ordering"] == "fwd"

    profile = engine.profile(lineage_query)
    rows = [op for op in profile.report["operators"] if op["op"] == "scan"]
    assert len(profile.result) > 0 and rows[-1]["rows_out"] == len(profile.result)
    assert rows[1]["rows_out"] == rows[2]["rows_in"]  # the decoded ?out column
    # segment probes for the plain steps, adjacency probes for the path
    assert all(op["probes"] > 0 and op["calls"] == 1 for op in rows)


def test_metrics_counter_counts_dispatch(store_dataset, corpus_dataset):
    from repro.obs import metrics

    def counts():
        out = {}
        for line in metrics.render().splitlines():
            if line.startswith("repro_pathindex_total{"):
                label, value = line.split(" ")
                out[label.split('"')[1]] = float(value)
        return out

    before = counts()
    list(QueryEngine(store_dataset, cache_size=0).query(SEQUENCE))
    after_hit = counts()
    assert after_hit["hit"] == before.get("hit", 0) + 1

    list(QueryEngine(store_dataset, cache_size=0).query(STAR))
    after_star = counts()  # p* both unbound: index cannot serve it
    assert after_star["fallback"] == after_hit.get("fallback", 0) + 1

    list(QueryEngine(corpus_dataset, cache_size=0).query(SEQUENCE))
    after_memory = counts()
    assert after_memory["no-index"] == after_star.get("no-index", 0) + 1
