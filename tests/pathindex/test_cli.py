"""`repro-corpus lineage` smoke tests (the store at an explicit location)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.prov.constants import PROV


@pytest.fixture(scope="module")
def traced_entity(store_union):
    from repro.apps.dependencies import DependencyAnalyzer

    analyzer = DependencyAnalyzer(store_union)
    return next(
        t.subject for t in store_union.triples(None, PROV.wasGeneratedBy, None)
        if analyzer.transitive_dependencies(t.subject)
    )


def test_lineage_with_store_uses_index(capsys, pathindex_corpus_dir,
                                       store_dir_j1, traced_entity, store_union):
    """With ``--store`` the ancestors come off the store's own orderings
    (its spog / posg index), one per line, then their count."""
    from repro.apps.dependencies import DependencyAnalyzer

    code = main([
        "lineage", str(pathindex_corpus_dir), traced_entity.value,
        "--store", str(store_dir_j1),
    ])
    lines = capsys.readouterr().out.splitlines()
    ancestors = sorted(term.value for term in
                       DependencyAnalyzer(store_union).transitive_dependencies(traced_entity))
    assert code == 0
    assert lines[:-1] == ancestors
    assert lines[-1] == f"({len(ancestors)} ancestor(s) of {traced_entity.value})"


def test_lineage_descendants_and_chain(capsys, pathindex_corpus_dir,
                                       store_dir_j1, traced_entity, store_union):
    from repro.apps.dependencies import DependencyAnalyzer

    code = main([
        "lineage", str(pathindex_corpus_dir), traced_entity.value,
        "--descendants", "--store", str(store_dir_j1), "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "descendants"

    source = sorted(
        DependencyAnalyzer(store_union).transitive_dependencies(traced_entity),
        key=lambda term: term.value,
    )[0]
    code = main([
        "lineage", str(pathindex_corpus_dir), traced_entity.value,
        "--to", source.value, "--store", str(store_dir_j1),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert traced_entity.value in out and source.value in out


def test_lineage_chain_not_found(capsys, pathindex_corpus_dir, store_dir_j1,
                                 traced_entity):
    code = main([
        "lineage", str(pathindex_corpus_dir), traced_entity.value,
        "--to", "http://example.org/unrelated", "--store", str(store_dir_j1),
    ])
    assert code == 1
    assert "no derivation chain" in capsys.readouterr().out
