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
#: id-ordered segments and path index always do.
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


def _ref_step(graph, path, node):
    """One *path* step from *node*, in the order the graph lists it."""
    if isinstance(path, PathInverse):
        return [t.subject for t in graph.triples(None, path.inner, node)]
    if isinstance(path, PathAlternative):
        return [n for option in path.options for n in _ref_step(graph, option, node)]
    if isinstance(path, PathSequence):
        frontier = [node]
        for step in path.steps:
            frontier = [n for mid in frontier for n in _ref_step(graph, step, mid)]
        return frontier
    return [t.object for t in graph.triples(node, path, None)]


def _ref_pairs(graph, path):
    """Every one-step pair of *path*, in full-enumeration order."""
    if isinstance(path, PathInverse):
        return [(t.object, t.subject) for t in graph.triples(None, path.inner, None)]
    if isinstance(path, PathAlternative):
        return [pair for option in path.options for pair in _ref_pairs(graph, option)]
    if isinstance(path, PathSequence):
        rest = PathSequence(path.steps[1:]) if len(path.steps) > 2 else path.steps[1]
        return [(s, o) for s, mid in _ref_pairs(graph, path.steps[0])
                for o in _ref_step(graph, rest, mid)]
    return [(t.subject, t.object) for t in graph.triples(None, path, None)]


def _ref_plus(graph, path):
    """``path+`` with both ends unbound, by definition: a BFS from each
    node that begins a step, in the order the steps list them."""
    rows = []
    for start in dict.fromkeys(s for s, _ in _ref_pairs(graph, path)):
        visited, frontier = set(), [start]
        while frontier:
            next_frontier = []
            for node in frontier:
                for neighbor in _ref_step(graph, path, node):
                    if neighbor not in visited:
                        visited.add(neighbor)
                        next_frontier.append(neighbor)
                        rows.append((start, neighbor))
            frontier = next_frontier
    return rows


@pytest.fixture(scope="module")
def shape_stores(tmp_path_factory):
    """shape name → {"indexed": union graph, "graph-walk": union graph}
    over stores ingested with and without the path index."""
    from repro.rdf.turtle import serialize_turtle
    from repro.store import QuadStore, StoreDataset, ingest_corpus

    root = tmp_path_factory.mktemp("closure-shapes")
    stores, unions = [], {}
    for name in SHAPES:
        corpus = root / name / "corpus"
        corpus.mkdir(parents=True)
        (corpus / "shape.prov.ttl").write_text(serialize_turtle(_shape_graph(name)))
        unions[name] = {}
        for source, path_index in (("indexed", True), ("graph-walk", False)):
            store = QuadStore(root / name / source)
            ingest_corpus(store, corpus, path_index=path_index)
            assert (store.path_index() is not None) == path_index
            stores.append(store)
            unions[name][source] = StoreDataset(store).union_graph()
    yield unions
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
        assert rows == _ref_plus(graph, path)

    @pytest.mark.parametrize("source", ["indexed", "graph-walk"])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_store_matches_reference(self, shape_stores, shape, source):
        union = shape_stores[shape][source]
        path = SHAPES[shape][1]
        rows = list(eval_path(union, PathClosure(path, False)))
        assert rows == _ref_plus(union, path)
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


def _ref_step_back(graph, path, node):
    """The nodes one *path* step leads from to *node*, in the order the
    graph lists them."""
    if isinstance(path, PathInverse):
        return [t.object for t in graph.triples(node, path.inner, None)]
    if isinstance(path, PathAlternative):
        return [n for option in path.options for n in _ref_step_back(graph, option, node)]
    if isinstance(path, PathSequence):
        frontier = [node]
        for step in reversed(path.steps):
            frontier = [n for mid in frontier for n in _ref_step_back(graph, step, mid)]
        return frontier
    return [t.subject for t in graph.triples(None, path, node)]


def _ref_reach(step, start, include_zero):
    """The nodes a fresh BFS from *start* alone reaches, in discovery
    order, where ``step(node)`` lists a node's one-step neighbours."""
    reached = [start] if include_zero else []
    visited, frontier = set(reached), [start]
    while frontier:
        next_frontier = []
        for node in frontier:
            for neighbor in step(node):
                if neighbor not in visited:
                    visited.add(neighbor)
                    next_frontier.append(neighbor)
                    reached.append(neighbor)
        frontier = next_frontier
    return reached


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
            expected += [[(start, node) for node in _ref_reach(
                lambda n: _ref_step(graph, path, n), start, include_zero)]
                for start in starts]
        if direction in ("object", "both"):
            endpoints += [(None, start) for start in starts]
            expected += [[(node, start) for node in _ref_reach(
                lambda n: _ref_step_back(graph, path, n), start, include_zero)]
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
        union = shape_stores[shape][source]
        answers = self._check(union, shape, include_zero, direction)
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
