"""DependencyAnalyzer checked against naive closures, on both backends.

The dependency relation is defined here, independently, from the raw
triples (:func:`_naive_pairs`): usage through generation where the
source is not the product, plus asserted derivations with an IRI
object.  The analyzer's pairs, transitive closures and chains are held
to it on hypothesis-drawn in-memory graphs, and on fixed graphs — a
composed self-loop, an asserted self-derivation, a cycle and a literal
object — both in memory and ingested into a store.
"""

from itertools import product as cartesian

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import DependencyAnalyzer, RunDebugger
from repro.prov.constants import DERIVATION_SUBPROPERTIES
from repro.rdf import Graph, Namespace, PROV
from repro.rdf.terms import IRI, Literal
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


def _naive_pairs(graph):
    """The (product, source) dependency pairs, by definition."""
    triples = [(t.subject, t.predicate, t.object) for t in graph.triples()]
    generated = [(s, o) for s, p, o in triples if p == PROV.wasGeneratedBy]
    used = [(s, o) for s, p, o in triples if p == PROV.used]
    pairs = {(product, source) for product, activity in generated
             for user, source in used if user == activity and source != product}
    pairs |= {(s, o) for s, p, o in triples
              if p in DERIVATION_PROPS and isinstance(o, IRI)}
    return pairs


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


def _check_dependents_are_the_inverse(analyzer, pairs):
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


def _check_chains_are_shortest(analyzer, pairs):
    dist = _naive_distances(pairs)
    for a, b in cartesian(ENTITIES, repeat=2):
        chain = analyzer.derivation_path(a, b)
        if a not in dist or b not in dist or dist[a][b] == float("inf"):
            assert chain is None
            continue
        assert chain[0] == a and chain[-1] == b
        assert len(chain) - 1 == dist[a][b]
        assert all(hop in pairs for hop in zip(chain, chain[1:]))


@settings(max_examples=120, deadline=None)
@given(derivation_graphs())
def test_dependents_is_the_inverse_of_dependencies(graph):
    analyzer = DependencyAnalyzer(graph)
    pairs = _naive_pairs(graph)
    assert set(analyzer.all_dependency_pairs()) == pairs
    _check_dependents_are_the_inverse(analyzer, pairs)


@settings(max_examples=120, deadline=None)
@given(derivation_graphs())
def test_derivation_path_is_a_shortest_chain_of_direct_hops(graph):
    _check_chains_are_shortest(DependencyAnalyzer(graph), _naive_pairs(graph))


E0, E1, E2, E3 = ENTITIES[:4]
A0, A1 = ACTIVITIES[:2]

#: name → triples, each holding a case one of the two rules decides.
FIXED_GRAPHS = {
    # a0 used and generated e0: e0 does not derive from itself
    "composed-self-loop": [(E0, PROV.wasGeneratedBy, A0), (A0, PROV.used, E0),
                           (A0, PROV.used, E1), (E1, PROV.wasGeneratedBy, A1),
                           (A1, PROV.used, E2)],
    # asserted, e0 does derive from itself
    "asserted-self-derivation": [(E0, PROV.wasDerivedFrom, E0),
                                 (E0, PROV.wasRevisionOf, E1)],
    "cycle": [(E0, PROV.wasGeneratedBy, A0), (A0, PROV.used, E1),
              (E1, PROV.hadPrimarySource, E2), (E2, PROV.wasQuotedFrom, E0),
              (E3, PROV.wasDerivedFrom, E2)],
    # a literal object is no dependency, though an IRI one beside it is
    "literal-object": [(E0, PROV.wasDerivedFrom, Literal("not an entity")),
                       (E0, PROV.hadPrimarySource, E1),
                       (E2, PROV.wasGeneratedBy, A0), (A0, PROV.used, E0)],
}

#: name → what the naive relation must say about that case.
FIXED_EXPECTATIONS = {
    "composed-self-loop": lambda pairs: (E0, E0) not in pairs and (E0, E1) in pairs,
    "asserted-self-derivation": lambda pairs: (E0, E0) in pairs,
    "cycle": lambda pairs: (E0, E1) in pairs and (E2, E0) in pairs,
    "literal-object": lambda pairs: pairs == {(E0, E1), (E2, E0)},
}


def _fixed_graph(name):
    graph = Graph()
    graph.namespaces.bind("ex", EX)
    for triple in FIXED_GRAPHS[name]:
        graph.add(triple)
    return graph


@pytest.fixture(scope="module")
def fixed_stores(tmp_path_factory):
    """name → the store-backed union view of that fixed graph."""
    from repro.rdf.turtle import serialize_turtle
    from repro.store import QuadStore, StoreDataset, ingest_corpus

    root = tmp_path_factory.mktemp("dependency-graphs")
    stores, views = [], {}
    for name in FIXED_GRAPHS:
        corpus = root / name / "corpus"
        corpus.mkdir(parents=True)
        (corpus / "trace.prov.ttl").write_text(serialize_turtle(_fixed_graph(name)))
        store = QuadStore(root / name / "store")
        ingest_corpus(store, corpus)
        stores.append(store)
        views[name] = StoreDataset(store).union_graph()
    yield views
    for store in stores:
        store.close()


@pytest.mark.parametrize("backend", ["memory", "store"])
@pytest.mark.parametrize("name", list(FIXED_GRAPHS))
def test_fixed_graphs_match_the_naive_reference(fixed_stores, name, backend):
    memory = _fixed_graph(name)
    pairs = _naive_pairs(memory)
    assert FIXED_EXPECTATIONS[name](pairs)
    analyzer = DependencyAnalyzer(memory if backend == "memory" else fixed_stores[name])
    assert analyzer.all_dependency_pairs() == sorted(
        pairs, key=lambda pair: (pair[0].value, pair[1].value))
    _check_dependents_are_the_inverse(analyzer, pairs)
    _check_chains_are_shortest(analyzer, pairs)


def test_two_node_cycle_reaches_its_own_start():
    graph = Graph()
    graph.add((EX.a, PROV.wasDerivedFrom, EX.b))
    graph.add((EX.b, PROV.wasRevisionOf, EX.a))
    analyzer = DependencyAnalyzer(graph)
    assert analyzer.transitive_dependencies(EX.a) == {EX.a, EX.b}
    assert analyzer.dependents_of(EX.a) == {EX.a, EX.b}
    assert analyzer.derivation_path(EX.a, EX.b) == [EX.a, EX.b]
    assert analyzer.derivation_path(EX.a, EX.a) == [EX.a]


def _count_step_lookups(monkeypatch):
    """Every (derivation part, endpoint) the analyzer hands the path
    evaluator, one entry per lookup."""
    from repro.apps import dependencies

    lookups = []
    original = dependencies.eval_path_batch

    def counted(graph, path, endpoints):
        lookups.extend((path, endpoint) for endpoint in endpoints)
        return original(graph, path, endpoints)

    monkeypatch.setattr(dependencies, "eval_path_batch", counted)
    return lookups


def test_adjacency_is_built_once_per_analyzer(corpus, monkeypatch):
    """The derivation adjacency is built lazily, one node's step at a
    time, and never twice: asking again looks nothing up."""
    trace = next(t for t in corpus.by_system("taverna") if not t.failed)
    analyzer = DependencyAnalyzer(trace.graph())
    product, source = analyzer.all_dependency_pairs()[0]
    lookups = _count_step_lookups(monkeypatch)
    first_round = None
    for _ in range(3):
        assert product in analyzer.dependents_of(source)
        assert source in analyzer.transitive_dependencies(product)
        assert analyzer.derivation_path(product, source) == [product, source]
        if first_round is None:
            first_round = len(lookups)
    assert 0 < first_round == len(lookups)
    assert len(set(lookups)) == len(lookups)


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
    lookups = _count_step_lookups(monkeypatch)
    assert debugger.failure_impact(run_iri) == sorted(
        partial + [EX.salvaged], key=lambda term: term.value)
    # one analyzer: no node's step is looked up twice across the outputs
    assert lookups and len(set(lookups)) == len(lookups)
