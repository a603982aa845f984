"""The apps layer on a store agrees with the same corpus in memory.

One analyzer reads the store-backed union view (its path walks read the
store's own orderings), the other the in-memory union graph (term
walks); the fixtures keep their earlier names.
"""

from __future__ import annotations

import pytest

from repro.apps.dependencies import DependencyAnalyzer
from repro.prov.constants import PROV


@pytest.fixture(scope="module")
def fast(store_union):
    return DependencyAnalyzer(store_union)


@pytest.fixture(scope="module")
def slow(memory_union):
    return DependencyAnalyzer(memory_union)


@pytest.fixture(scope="module")
def entities(store_union):
    generated = sorted(
        {t.subject for t in store_union.triples(None, PROV.wasGeneratedBy, None)},
        key=lambda term: term.value,
    )
    return generated[::29][:24]


def test_transitive_dependencies_agree(fast, slow, entities):
    nonempty = 0
    for entity in entities:
        expected = slow.transitive_dependencies(entity)
        assert fast.transitive_dependencies(entity) == expected
        nonempty += bool(expected)
    assert nonempty > 0


def test_dependents_agree(fast, slow, entities):
    nonempty = 0
    for entity in entities:
        expected = slow.dependents_of(entity)
        assert fast.dependents_of(entity) == expected
        nonempty += bool(expected)
    assert nonempty > 0


def test_derivation_paths_agree(fast, slow, entities):
    checked = 0
    for entity in entities:
        sources = sorted(
            slow.transitive_dependencies(entity), key=lambda term: term.value
        )
        for source in sources[:2]:
            stored = fast.derivation_path(entity, source)
            memory = slow.derivation_path(entity, source)
            assert stored is not None and memory is not None
            # Both are valid chains of equal (shortest) length with the
            # same endpoints; intermediate hops may differ on ties.
            assert len(stored) == len(memory)
            assert stored[0] == memory[0] == entity
            assert stored[-1] == memory[-1] == source
            adjacent = {
                (d.product, d.source)
                for node in stored
                for d in slow.direct_dependencies(node)
            }
            for product, src in zip(stored, stored[1:]):
                assert (product, src) in adjacent
            checked += 1
    assert checked > 5


def test_trivial_and_absent_paths(fast, slow, entities):
    from repro.rdf.terms import IRI

    entity = next(e for e in entities if slow.transitive_dependencies(e))
    assert fast.derivation_path(entity, entity) == [entity]
    nowhere = IRI("http://example.org/not-in-the-corpus")
    assert fast.derivation_path(entity, nowhere) is None
    assert slow.derivation_path(entity, nowhere) is None
    assert fast.transitive_dependencies(nowhere) == set()
    assert fast.dependents_of(nowhere) == set()


def test_memory_graph_agrees(memory_union, store_union, entities):
    memory = DependencyAnalyzer(memory_union)
    stored = DependencyAnalyzer(store_union)
    for entity in entities[:8]:
        assert memory.transitive_dependencies(entity) == \
            stored.transitive_dependencies(entity)


def test_decay_upstream_drivers(store_union, corpus):
    from repro.apps.decay import DecayDetector

    detector = DecayDetector(corpus)
    analyzer = DependencyAnalyzer(store_union)
    entity = next(
        t.subject for t in store_union.triples(None, PROV.wasGeneratedBy, None)
        if analyzer.transitive_dependencies(t.subject)
    )
    drivers = detector.upstream_drivers(store_union, entity)
    assert drivers == sorted(
        analyzer.transitive_dependencies(entity),
        key=lambda term: getattr(term, "value", str(term)),
    )
    assert drivers


def test_failure_impact_lists_tainted_products(store_union, corpus):
    from repro.apps.debugging import RunDebugger
    from repro.rdf.namespace import WFPROV
    from repro.rdf.terms import IRI

    debugger = RunDebugger(store_union)
    impacted = None
    for t in store_union.triples(None, WFPROV.wasPartOfWorkflowRun, None):
        run = t.object
        if not isinstance(run, IRI):
            continue
        try:
            report = debugger.debug(run)
        except KeyError:
            continue
        if report.failed and report.responsible_processes:
            impacted = debugger.failure_impact(run)
            break
    assert impacted is not None, "the corpus designates failed runs"
    assert impacted == sorted(impacted, key=lambda term: term.value)
    assert all(isinstance(term, IRI) for term in impacted)
