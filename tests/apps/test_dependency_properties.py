"""DependencyAnalyzer's two traversals, checked against naive closures.

The in-memory route answers from one adjacency built per analyzer; the
properties below hold it to definitions computed here, independently,
from ``all_dependency_pairs()``.
"""

from itertools import product as cartesian

from hypothesis import given, settings, strategies as st

from repro.apps import DependencyAnalyzer, RunDebugger
from repro.prov.constants import DERIVATION_SUBPROPERTIES
from repro.rdf import Graph, Namespace, PROV
from repro.rdf.terms import Literal
from repro.taverna import TAVERNA_RUN_NS

EX = Namespace("http://example.org/")
ENTITIES = [EX.term(f"e{i}") for i in range(6)]
ACTIVITIES = [EX.term(f"a{i}") for i in range(3)]
DERIVATION_PROPS = [PROV.wasDerivedFrom] + list(DERIVATION_SUBPROPERTIES)

_entity = st.sampled_from(ENTITIES)
_activity = st.sampled_from(ACTIVITIES)


@st.composite
def derivation_graphs(draw):
    """usage∘generation edges plus asserted derivations — self-loops,
    cycles and literal objects (which are not dependencies) included."""
    graph = Graph()
    for entity, activity in draw(st.lists(st.tuples(_entity, _activity), max_size=6)):
        graph.add((entity, PROV.wasGeneratedBy, activity))
    for activity, entity in draw(st.lists(st.tuples(_activity, _entity), max_size=6)):
        graph.add((activity, PROV.used, entity))
    asserted = st.tuples(_entity, st.sampled_from(DERIVATION_PROPS),
                         st.one_of(_entity, st.just(Literal("not an entity"))))
    for triple in draw(st.lists(asserted, max_size=6)):
        graph.add(triple)
    return graph


def _naive_distances(pairs):
    """Floyd–Warshall hop counts over the pairs; dist[a][a] is 0 for
    every node that appears in a pair."""
    nodes = {node for pair in pairs for node in pair}
    inf = float("inf")
    dist = {a: {b: 0 if a == b else inf for b in nodes} for a in nodes}
    for a, b in pairs:
        if a != b:
            dist[a][b] = 1
    for k, a, b in cartesian(nodes, repeat=3):
        if dist[a][k] + dist[k][b] < dist[a][b]:
            dist[a][b] = dist[a][k] + dist[k][b]
    return dist


@settings(max_examples=120, deadline=None)
@given(derivation_graphs())
def test_dependents_is_the_inverse_of_dependencies(graph):
    analyzer = DependencyAnalyzer(graph)
    pairs = set(analyzer.all_dependency_pairs())
    dist = _naive_distances(pairs)
    for a in ENTITIES:
        deps = analyzer.transitive_dependencies(a)
        # ≥ 1 hop: a itself only when a cycle (or self-loop) returns to it.
        assert deps == {
            b for mid, b in cartesian(dist, repeat=2)
            if (a, mid) in pairs and dist[mid][b] < float("inf")
        }
        for b in ENTITIES:
            assert (b in deps) == (a in analyzer.dependents_of(b))


@settings(max_examples=120, deadline=None)
@given(derivation_graphs())
def test_derivation_path_is_a_shortest_chain_of_direct_hops(graph):
    analyzer = DependencyAnalyzer(graph)
    pairs = set(analyzer.all_dependency_pairs())
    dist = _naive_distances(pairs)
    for a, b in cartesian(ENTITIES, repeat=2):
        chain = analyzer.derivation_path(a, b)
        if a not in dist or b not in dist or dist[a][b] == float("inf"):
            assert chain is None
            continue
        assert chain[0] == a and chain[-1] == b
        assert len(chain) - 1 == dist[a][b]
        assert all(hop in pairs for hop in zip(chain, chain[1:]))


def test_two_node_cycle_reaches_its_own_start():
    graph = Graph()
    graph.add((EX.a, PROV.wasDerivedFrom, EX.b))
    graph.add((EX.b, PROV.wasRevisionOf, EX.a))
    analyzer = DependencyAnalyzer(graph)
    assert not analyzer.uses_index
    assert analyzer.transitive_dependencies(EX.a) == {EX.a, EX.b}
    assert analyzer.dependents_of(EX.a) == {EX.a, EX.b}
    assert analyzer.derivation_path(EX.a, EX.b) == [EX.a, EX.b]
    assert analyzer.derivation_path(EX.a, EX.a) == [EX.a]


def _count_adjacency_builds(monkeypatch):
    builds = []
    original = DependencyAnalyzer.all_dependency_pairs

    def counted(self):
        builds.append(self)
        return original(self)

    monkeypatch.setattr(DependencyAnalyzer, "all_dependency_pairs", counted)
    return builds


def test_adjacency_is_built_once_per_analyzer(corpus, monkeypatch):
    trace = next(t for t in corpus.by_system("taverna") if not t.failed)
    analyzer = DependencyAnalyzer(trace.graph())
    product, source = analyzer.all_dependency_pairs()[0]
    builds = _count_adjacency_builds(monkeypatch)
    for _ in range(3):
        assert product in analyzer.dependents_of(source)
        assert source in analyzer.transitive_dependencies(product)
        assert analyzer.derivation_path(product, source) == [product, source]
    assert len(builds) == 1


def test_failure_impact_builds_the_adjacency_once(corpus, monkeypatch):
    trace = next(t for t in corpus.by_system("taverna") if t.failed)
    run_iri = TAVERNA_RUN_NS.term(f"{trace.run_id}/")
    graph = trace.graph().copy()
    debugger = RunDebugger(graph)
    # A failed step generates nothing in the corpus; give this one three
    # partial outputs, one of them consumed downstream.
    culprit = debugger.debug(run_iri).responsible_processes[0]
    partial = [EX.term(f"partial{i}") for i in range(3)]
    for entity in partial:
        graph.add((entity, PROV.wasGeneratedBy, culprit))
    graph.add((EX.salvaged, PROV.wasDerivedFrom, partial[0]))
    builds = _count_adjacency_builds(monkeypatch)
    assert debugger.failure_impact(run_iri) == sorted(
        partial + [EX.salvaged], key=lambda term: term.value)
    assert len(builds) == 1
