"""Tests for SPARQL property paths (parser + evaluator)."""

import pytest

from repro.rdf import Graph, Namespace, PROV, RDF
from repro.sparql import QueryEngine, parse_query
from repro.sparql.paths import (
    PathAlternative,
    PathClosure,
    PathInverse,
    PathSequence,
    eval_path,
    eval_path_batch,
)
from tests.sparql.path_reference import ref_plus, ref_reach, ref_step, ref_step_back

EX = Namespace("http://example.org/")


@pytest.fixture
def chain():
    """d1 -used-by- a1 -generates- d2 -used-by- a2 -generates- d3."""
    g = Graph()
    g.namespaces.bind("ex", EX)
    g.add((EX.a1, PROV.used, EX.d1))
    g.add((EX.d2, PROV.wasGeneratedBy, EX.a1))
    g.add((EX.a2, PROV.used, EX.d2))
    g.add((EX.d3, PROV.wasGeneratedBy, EX.a2))
    return g


class TestParsing:
    def test_plain_iri_stays_iri(self):
        q = parse_query("SELECT ?x WHERE { ?x prov:used ?y }")
        assert q.where.triples[0].predicate == PROV.used

    def test_sequence(self):
        q = parse_query("SELECT ?x WHERE { ?x prov:wasGeneratedBy/prov:used ?y }")
        path = q.where.triples[0].predicate
        assert isinstance(path, PathSequence)
        assert path.steps == (PROV.wasGeneratedBy, PROV.used)

    def test_alternative(self):
        q = parse_query("SELECT ?x WHERE { ?x prov:used|prov:wasGeneratedBy ?y }")
        assert isinstance(q.where.triples[0].predicate, PathAlternative)

    def test_inverse(self):
        q = parse_query("SELECT ?x WHERE { ?x ^prov:used ?y }")
        path = q.where.triples[0].predicate
        assert isinstance(path, PathInverse) and path.inner == PROV.used

    def test_closures(self):
        star = parse_query("SELECT ?x WHERE { ?x prov:used* ?y }")
        plus = parse_query("SELECT ?x WHERE { ?x prov:used+ ?y }")
        assert star.where.triples[0].predicate.include_zero is True
        assert plus.where.triples[0].predicate.include_zero is False

    def test_grouping(self):
        q = parse_query("SELECT ?x WHERE { ?x (prov:wasGeneratedBy/prov:used)+ ?y }")
        path = q.where.triples[0].predicate
        assert isinstance(path, PathClosure)
        assert isinstance(path.inner, PathSequence)

    def test_a_in_path(self):
        q = parse_query("SELECT ?x WHERE { ?x a/prov:used ?y }")
        assert q.where.triples[0].predicate.steps[0] == RDF.type


class TestEvaluation:
    def test_sequence_forward(self, chain):
        engine = QueryEngine(chain)
        rows = engine.select(
            "PREFIX ex: <http://example.org/> "
            "SELECT ?src WHERE { ex:d3 prov:wasGeneratedBy/prov:used ?src }"
        )
        assert rows.column("src") == ["http://example.org/d2"]

    def test_plus_transitive(self, chain):
        engine = QueryEngine(chain)
        rows = engine.select(
            "PREFIX ex: <http://example.org/> "
            "SELECT ?src WHERE { ex:d3 (prov:wasGeneratedBy/prov:used)+ ?src } ORDER BY ?src"
        )
        assert rows.column("src") == ["http://example.org/d1", "http://example.org/d2"]

    def test_star_includes_self(self, chain):
        engine = QueryEngine(chain)
        rows = engine.select(
            "PREFIX ex: <http://example.org/> "
            "SELECT ?src WHERE { ex:d3 (prov:wasGeneratedBy/prov:used)* ?src }"
        )
        assert "http://example.org/d3" in rows.column("src")

    def test_inverse_direction(self, chain):
        engine = QueryEngine(chain)
        rows = engine.select(
            "PREFIX ex: <http://example.org/> SELECT ?a WHERE { ex:d1 ^prov:used ?a }"
        )
        assert rows.column("a") == ["http://example.org/a1"]

    def test_alternative_union_of_edges(self, chain):
        engine = QueryEngine(chain)
        rows = engine.select("SELECT ?x ?y WHERE { ?x (prov:used|prov:wasGeneratedBy) ?y }")
        assert len(rows) == 4

    def test_object_bound_closure(self, chain):
        engine = QueryEngine(chain)
        rows = engine.select(
            "PREFIX ex: <http://example.org/> "
            "SELECT ?prod WHERE { ?prod (prov:wasGeneratedBy/prov:used)+ ex:d1 } ORDER BY ?prod"
        )
        assert rows.column("prod") == ["http://example.org/d2", "http://example.org/d3"]

    def test_both_endpoints_bound(self, chain):
        engine = QueryEngine(chain)
        assert engine.ask(
            "PREFIX ex: <http://example.org/> "
            "ASK { ex:d3 (prov:wasGeneratedBy/prov:used)+ ex:d1 }"
        )
        assert not engine.ask(
            "PREFIX ex: <http://example.org/> "
            "ASK { ex:d1 (prov:wasGeneratedBy/prov:used)+ ex:d3 }"
        )

    def test_cycle_terminates(self):
        g = Graph()
        g.add((EX.a, EX.next, EX.b))
        g.add((EX.b, EX.next, EX.a))
        pairs = list(eval_path(g, PathClosure(EX.next, include_zero=False), EX.a, None))
        assert (EX.a, EX.b) in pairs and (EX.a, EX.a) in pairs
        assert len(pairs) == 2

    def test_star_both_unbound_pairs_every_node(self):
        g = Graph()
        g.add((EX.a, EX.next, EX.b))
        pairs = set(eval_path(g, PathClosure(EX.next, include_zero=True)))
        assert (EX.a, EX.a) in pairs and (EX.b, EX.b) in pairs and (EX.a, EX.b) in pairs

    def test_duplicate_suppression(self, chain):
        chain.add((EX.a1, EX.alt, EX.d1))
        path = PathAlternative((PROV.used, EX.alt))
        pairs = list(eval_path(chain, path, EX.a1, None))
        assert pairs.count((EX.a1, EX.d1)) == 1


USED, GENERATED_BY = PROV.used, PROV.wasGeneratedBy
LINEAGE = PathAlternative((USED, PathInverse(GENERATED_BY)))

#: name → (edges, the path whose `+` closure runs with both ends unbound).
#: Edges are added to the in-memory graph in an order for which its SPO
#: and POS indexes list each source's targets alike, as the store's
#: id-ordered segments always do.
SHAPES = {
    "cycle": ([("c1", USED, "c2"), ("c2", USED, "c3"), ("c3", USED, "c1")], USED),
    "self-loop": ([("s1", USED, "s1"), ("s1", USED, "s2"), ("s2", USED, "s3")], USED),
    # d0 reaches d3 along two branches; d3's descendants are shared.
    "diamond": ([("d0", USED, "d1"), ("d2", GENERATED_BY, "d0"), ("d1", USED, "d3"),
                 ("d2", USED, "d3"), ("d5", GENERATED_BY, "d3"), ("d3", USED, "d4")],
                LINEAGE),
    # (a/b)+ with a cycle back to the first activity and a shortcut.
    "sequence": ([("q1", USED, "e1"), ("q1", USED, "e4"), ("q2", USED, "e2"),
                  ("q3", USED, "e3"), ("e1", GENERATED_BY, "q2"),
                  ("e2", GENERATED_BY, "q3"), ("e4", GENERATED_BY, "q3"),
                  ("e3", GENERATED_BY, "q1")],
                 PathSequence((USED, GENERATED_BY))),
}


def _shape_graph(name):
    graph = Graph()
    graph.namespaces.bind("ex", EX)
    for s, p, o in SHAPES[name][0]:
        graph.add((EX[s], p, EX[o]))
    return graph


@pytest.fixture(scope="module")
def shape_stores(tmp_path_factory):
    """shape name → {"indexed": the union view, "graph-walk": the named
    graph's view} of one store, into which the shape is ingested once as
    a TriG named graph.  The two scopes read different orderings through
    the one edge source (one named graph reads ``gspo`` and a filtered
    ``posg``); the ids keep older names so that test ids stay stable."""
    from repro.rdf.graph import Dataset
    from repro.rdf.trig import serialize_trig
    from repro.store import QuadStore, StoreDataset, ingest_corpus

    root = tmp_path_factory.mktemp("closure-shapes")
    stores, views = [], {}
    for name in SHAPES:
        corpus = root / name / "corpus"
        corpus.mkdir(parents=True)
        dataset = Dataset()
        dataset.namespaces.bind("ex", EX)
        named = dataset.graph(EX[f"graph-{name}"])
        for triple in _shape_graph(name):
            named.add(triple)
        (corpus / "shape.prov.trig").write_text(serialize_trig(dataset))
        store = QuadStore(root / name / "store")
        ingest_corpus(store, corpus)
        stores.append(store)
        stored = StoreDataset(store)
        views[name] = {"indexed": stored.union_graph(),
                       "graph-walk": stored.graph(EX[f"graph-{name}"])}
        assert len(views[name]["graph-walk"]) == len(SHAPES[name][0])
    yield views
    for store in stores:
        store.close()


class TestUnboundClosureOrder:
    """``?x path+ ?y`` walks one enumeration of the step pairs; the rows,
    and their order, are those of a fresh BFS from every start."""

    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_memory_matches_reference(self, shape):
        graph = _shape_graph(shape)
        path = SHAPES[shape][1]
        rows = list(eval_path(graph, PathClosure(path, False)))
        assert rows == ref_plus(graph, path)

    @pytest.mark.parametrize("source", ["indexed", "graph-walk"])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_store_matches_reference(self, shape_stores, shape, source):
        view = shape_stores[shape][source]
        path = SHAPES[shape][1]
        rows = list(eval_path(view, PathClosure(path, False)))
        assert rows == ref_plus(view, path)
        memory = _shape_graph(shape)
        assert set(rows) == set(eval_path(memory, PathClosure(path, False)))

    def test_shapes_reach_what_they_should(self):
        plus = {name: set(eval_path(_shape_graph(name), PathClosure(path, False)))
                for name, (_, path) in SHAPES.items()}
        assert (EX.c1, EX.c1) in plus["cycle"] and len(plus["cycle"]) == 9
        assert (EX.s1, EX.s1) in plus["self-loop"] and (EX.s2, EX.s2) not in plus["self-loop"]
        assert {o for s, o in plus["diamond"] if s == EX.d0} == {
            EX.d1, EX.d2, EX.d3, EX.d4, EX.d5}
        assert {o for s, o in plus["sequence"] if s == EX.q1} == {EX.q2, EX.q3, EX.q1}


def _column(shape):
    """Every node of *shape* in edge order, then its first node again and
    a node no dictionary has seen: one path step's column of starts."""
    nodes = dict.fromkeys(EX[n] for s, _, o in SHAPES[shape][0] for n in (s, o))
    return list(nodes) + [next(iter(nodes)), EX.ghost]


class TestBoundClosureOrder:
    """A path step hands :func:`eval_path_batch` its whole column of bound
    endpoints, whose walks share step lookups; each endpoint's rows, and
    their order, are those of a fresh BFS from that endpoint alone."""

    @staticmethod
    def _check(graph, shape, include_zero, direction):
        """*direction* "both" puts the subject- and object-bound columns
        into one call."""
        path = SHAPES[shape][1]
        starts = _column(shape)
        endpoints, expected = [], []
        if direction in ("subject", "both"):
            endpoints += [(start, None) for start in starts]
            expected += [[(start, node) for node in ref_reach(
                lambda n: ref_step(graph, path, n), start, include_zero)]
                for start in starts]
        if direction in ("object", "both"):
            endpoints += [(None, start) for start in starts]
            expected += [[(node, start) for node in ref_reach(
                lambda n: ref_step_back(graph, path, n), start, include_zero)]
                for start in starts]
        answers = eval_path_batch(graph, PathClosure(path, include_zero), endpoints)
        assert answers == expected
        return answers

    @pytest.mark.parametrize("direction", ["subject", "object", "both"])
    @pytest.mark.parametrize("include_zero", [False, True], ids=["plus", "star"])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_memory_matches_reference(self, shape, include_zero, direction):
        self._check(_shape_graph(shape), shape, include_zero, direction)

    @pytest.mark.parametrize("source", ["indexed", "graph-walk"])
    @pytest.mark.parametrize("direction", ["subject", "object", "both"])
    @pytest.mark.parametrize("include_zero", [False, True], ids=["plus", "star"])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_store_matches_reference(self, shape_stores, shape, include_zero,
                                     direction, source):
        answers = self._check(shape_stores[shape][source], shape, include_zero, direction)
        memory = self._check(_shape_graph(shape), shape, include_zero, direction)
        assert [set(rows) for rows in answers] == [set(rows) for rows in memory]

    def test_column_covers_the_shapes(self):
        graph = _shape_graph("diamond")
        plus = PathClosure(SHAPES["diamond"][1], False)
        d1, d2 = eval_path_batch(graph, plus, [(EX.d1, None), (EX.d2, None)])
        shared = {EX.d3, EX.d4, EX.d5}
        assert {o for _, o in d1} == {o for _, o in d2} == shared
        cycle = _column("cycle")
        assert cycle[-2] == cycle[0] and cycle[-1] == EX.ghost
        answers = eval_path_batch(_shape_graph("cycle"), PathClosure(USED, True),
                                  [(start, None) for start in cycle])
        assert answers[-2] == answers[0] and len(answers[0]) == 3
        assert answers[-1] == [(EX.ghost, EX.ghost)]


UNKNOWN = "<http://example.org/not-in-the-corpus>"

#: Texts the store's one edge source must answer as the in-memory term
#: walk does: named-graph scopes, endpoints and predicates the dictionary
#: has never seen, literals, and both-unbound zero-length closures.
EDGE_CASES = {
    "graph-plus": "SELECT ?g ?a ?b WHERE { GRAPH ?g { ?a prov:used+ ?b } }",
    "graph-body-star": "SELECT ?g ?act ?b WHERE { GRAPH ?g { "
                       "?act prov:wasAssociatedWith ?agent . ?act prov:used* ?b } }",
    "unknown-object": f"SELECT ?x WHERE {{ ?x prov:used* {UNKNOWN} }}",
    "unknown-subject": f"SELECT ?x WHERE {{ {UNKNOWN} prov:used* ?x }}",
    "literal-object": 'SELECT ?x WHERE { ?x prov:used* "lit" }',
    "unknown-predicate": f"SELECT ?a ?b WHERE {{ ?a (prov:used|{UNKNOWN})+ ?b }}",
    "star-unbound": "SELECT ?a ?b WHERE { ?a prov:used* ?b }",
    "inverse-star-unbound": "SELECT ?a ?b WHERE { ?a ^prov:used* ?b }",
    "sequence-star": "SELECT ?e ?x WHERE { ?e prov:wasGeneratedBy/prov:used* ?x }",
    "derived-plus": "SELECT ?a ?b WHERE { ?a prov:wasDerivedFrom+ ?b }",
    "unknown-both-bound": f"SELECT * WHERE {{ {UNKNOWN} prov:used* {UNKNOWN} }}",
}


def _row_multiset(result):
    return sorted(tuple(sorted((name, term.n3()) for name, term in row.asdict().items()))
                  for row in result)


class TestStoreEdgeCases:
    @pytest.fixture(scope="class")
    def engines(self, indexed_store, corpus_dataset):
        from repro.store import StoreDataset

        return (QueryEngine(StoreDataset(indexed_store), cache_size=0),
                QueryEngine(corpus_dataset, cache_size=0))

    @pytest.mark.parametrize("name", list(EDGE_CASES))
    def test_store_rows_equal_memory_rows(self, engines, name):
        stored, memory = engines
        rows = _row_multiset(stored.query(EDGE_CASES[name]))
        assert rows == _row_multiset(memory.query(EDGE_CASES[name]))
        if name.startswith("unknown-") and name != "unknown-predicate":
            assert len(rows) == 1  # the ghost's zero-length pair

    def test_graph_scoped_and_unbound_star_steps_walk_the_store(self, engines):
        stored, memory = engines
        for name, ordering in (("graph-plus", "posg"), ("graph-body-star", "gspo"),
                               ("star-unbound", "spog")):
            scans = [node.detail for node in stored.explain(EDGE_CASES[name]).root.walk()
                     if node.op == "scan"]
            assert (scans[-1]["join"], scans[-1]["ordering"]) == ("path", ordering)
            text = memory.explain(EDGE_CASES[name]).to_text()
            assert "join=" not in text and "ordering=" not in text


class TestOnCorpus:
    def test_lineage_query_on_trace(self, corpus):
        trace = next(t for t in corpus.by_system("taverna") if not t.failed)
        engine = QueryEngine(trace.graph())
        # every workflow output reaches some used artifact transitively
        rows = engine.select("""
            SELECT DISTINCT ?out ?src WHERE {
              ?out (prov:wasGeneratedBy/prov:used)+ ?src .
            }
        """)
        assert len(rows) > 0

    def test_path_equivalent_to_dependency_analyzer(self, corpus):
        from repro.apps import DependencyAnalyzer
        from repro.rdf.terms import IRI

        trace = next(t for t in corpus.by_system("taverna") if not t.failed)
        graph = trace.graph()
        engine = QueryEngine(graph)
        analyzer = DependencyAnalyzer(graph)
        output = analyzer.generated_entities()[0]
        expected = {iri.value for iri in analyzer.transitive_dependencies(output)}
        rows = engine.select(
            f"SELECT ?src WHERE {{ <{output.value}> "
            f"((prov:wasGeneratedBy/prov:used)|prov:hadPrimarySource)+ ?src }}"
        )
        assert set(rows.column("src")) == expected
