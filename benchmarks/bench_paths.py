"""Path/pattern index benchmarks: deep lineage and frequent patterns.

Measures what the persisted reachability index buys on the two
path-shaped workloads the apps layer runs constantly:

* deep-lineage closure — the transitive ancestor set of every generated
  entity, id-space BFS over the pre-composed derivation DAG vs. the
  decoded graph-API BFS (same graph, index handle withheld).  Rows must
  be identical; the aggregate speedup is the tentpole's performance
  claim (≥5× on this corpus);
* frequent execution patterns — trie-served contiguous-pattern lookups
  over the per-run activity sequences vs. a naive scan of the raw
  sequences.

Numbers land in ``_artifacts/paths_bench.json``; ``bench_report.py``
appends them to the cross-PR trajectory file.
"""

import json
import time

import pytest

from repro.apps.dependencies import DependencyAnalyzer
from repro.pathindex import run_sequences
from repro.prov.constants import PROV
from repro.store import QuadStore, StoreDataset, ingest_corpus

from .conftest import write_artifact

_ARTIFACT = {}


@pytest.fixture(scope="module")
def store(tmp_path_factory, corpus):
    from repro.corpus import write_corpus

    corpus_dir = tmp_path_factory.mktemp("bench-paths-corpus")
    write_corpus(corpus, corpus_dir)
    store_path = tmp_path_factory.mktemp("bench-paths") / "store"
    with QuadStore(store_path) as quad_store:
        report = ingest_corpus(quad_store, corpus_dir)
        assert report.path_index == "built"
        yield quad_store


@pytest.fixture(scope="module")
def union(store):
    return StoreDataset(store).union_graph()


@pytest.fixture(scope="module")
def generated_entities(union):
    return sorted(
        {t.subject for t in union.triples(None, PROV.wasGeneratedBy, None)},
        key=lambda term: term.value,
    )


def test_deep_lineage_closure(union, generated_entities, artifacts_dir):
    """Per-query ancestor closure: index vs decoded traversal.

    Each lineage question (``repro-corpus lineage``, ``failure_impact``)
    builds an analyzer and asks for one entity's ancestors.  The decoded
    route must first scan the union graph's ``used``/``wasGeneratedBy``
    adjacency and then BFS with per-step asserted-derivation lookups;
    the persisted index answers straight off the pre-composed DAG.
    """
    sample = generated_entities[::2]

    def ancestors(entity, indexed):
        analyzer = DependencyAnalyzer(union)
        if not indexed:
            analyzer._index = None
        return analyzer.transitive_dependencies(entity)

    start = time.perf_counter()
    decoded_sets = [ancestors(e, indexed=False) for e in sample]
    decoded_s = time.perf_counter() - start

    start = time.perf_counter()
    indexed_sets = [ancestors(e, indexed=True) for e in sample]
    indexed_s = time.perf_counter() - start

    assert indexed_sets == decoded_sets  # identical answers, always
    depth = max(len(s) for s in decoded_sets)
    speedup = decoded_s / indexed_s if indexed_s else float("inf")
    # Acceptance gate: the persisted DAG must beat scan-then-BFS by at
    # least 5× per lineage question on this corpus.
    assert speedup >= 5, f"deep-lineage speedup {speedup:.1f}× < 5×"
    _ARTIFACT["deep_lineage"] = {
        "queries": len(sample),
        "max_ancestors": depth,
        "decoded_s": round(decoded_s, 4),
        "indexed_s": round(indexed_s, 4),
        "speedup": round(speedup, 1),
    }
    write_artifact(artifacts_dir, "paths_bench.json", json.dumps(_ARTIFACT, indent=2))


def test_frequent_patterns(store, artifacts_dir):
    """Trie-served pattern queries vs a naive scan of the sequences."""
    index = store.path_index()
    sequences = run_sequences(store)

    start = time.perf_counter()
    patterns = index.frequent_patterns(min_support=3, min_length=2, max_patterns=20)
    trie_mine_s = time.perf_counter() - start
    assert patterns

    def naive_support(pattern):
        pattern = list(pattern)
        width = len(pattern)
        return sum(
            1
            for seq in sequences.values()
            if any(list(seq[i:i + width]) == pattern
                   for i in range(len(seq) - width + 1))
        )

    start = time.perf_counter()
    checked = {tuple(p): naive_support(p) for p, _ in patterns}
    naive_s = time.perf_counter() - start
    assert checked == {tuple(p): support for p, support in patterns}

    start = time.perf_counter()
    for pattern, _ in patterns:
        index.runs_matching(list(pattern))
    trie_lookup_s = time.perf_counter() - start

    _ARTIFACT["frequent_patterns"] = {
        "patterns": len(patterns),
        "top_support": patterns[0][1],
        "runs": len(sequences),
        "trie_mine_s": round(trie_mine_s, 4),
        "trie_lookup_s": round(trie_lookup_s, 5),
        "naive_scan_s": round(naive_s, 4),
    }
    write_artifact(artifacts_dir, "paths_bench.json", json.dumps(_ARTIFACT, indent=2))
