"""The plan cache: a query whose token shape was compiled before skips
parse and compile, and only the IRIs written as triple-pattern subjects
and objects are swapped into the cached tree."""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import tracectx
from repro.obs.request import RequestRecord
from repro.rdf import Dataset, Graph, Namespace
from repro.sparql import QueryEngine, SparqlSyntaxError, parse_query
from repro.sparql.tokenizer import scan

EX = Namespace("http://example.org/")


def _graph():
    """``ex:s<i>`` has *i* ``ex:p`` objects; ``ex:q`` holds one triple."""
    g = Graph()
    g.namespaces.bind("ex", EX)
    for i in range(1, 6):
        for j in range(i):
            g.add((EX[f"s{i}"], EX.p, EX[f"o{j}"]))
    g.add((EX.s1, EX.q, EX.o0))
    return g


def _plans(engine):
    return engine.cache_info()["plans"]


def _fresh(engine, text):
    """What a compile of *text* that bypasses the plan cache prints."""
    plan = engine.explain(parse_query(text, namespaces=engine.namespaces))
    return plan.to_text(), plan.digest


def _explained(engine, text):
    plan = engine.explain(text)
    return plan.to_text(), plan.digest


class TestKey:
    def test_subject_and_object_iris_share_one_plan(self):
        engine = QueryEngine(_graph(), cache_size=0)
        texts = [f"SELECT ?o {{ <{EX}s{i}> <{EX}p> ?o }}" for i in range(1, 6)]
        for i, text in enumerate(texts, 1):
            assert len(engine.query(text)) == i
            assert _explained(engine, text) == _fresh(engine, text)
        assert _plans(engine)["misses"] == 1
        assert _plans(engine)["hits"] == 4 + 5  # four queries, five EXPLAINs

    def test_predicates_with_other_cardinalities_get_their_own_plans(self):
        engine = QueryEngine(_graph(), cache_size=0)
        common = f"?s <{EX}p> ?o . ?s <{EX}q> ?o"
        by_p = f"SELECT * {{ ?s <{EX}p> ?o . ?s ?x ?o }}"
        by_q = f"SELECT * {{ ?s <{EX}q> ?o . ?s ?x ?o }}"
        for text in (by_p, by_q, f"SELECT * {{ {common} }}"):
            engine.query(text)
            assert _explained(engine, text) == _fresh(engine, text)
        assert _plans(engine)["misses"] == 3
        estimates = [[node.detail["estimate"] for node in engine.explain(text).root.walk()
                      if node.op == "scan"] for text in (by_p, by_q)]
        assert estimates[0] != estimates[1]

    def test_graph_names_are_pinned(self):
        dataset = Dataset()
        dataset.graph(EX.g1).add((EX.s1, EX.p, EX.o0))
        engine = QueryEngine(dataset, cache_size=0)
        present = f"SELECT ?s {{ GRAPH <{EX}g1> {{ ?s ?p ?o }} }}"
        absent = f"SELECT ?s {{ GRAPH <{EX}g9> {{ ?s ?p ?o }} }}"
        assert len(engine.query(present)) == 1
        assert len(engine.query(absent)) == 0
        assert _plans(engine)["misses"] == 2
        assert _explained(engine, absent) == _fresh(engine, absent)

    def test_a_redefined_prefix_is_another_key(self):
        engine = QueryEngine(_graph(), cache_size=0)
        text = "PREFIX ex: <{}> SELECT ?o {{ ex:s2 ex:p ?o }}"
        assert len(engine.query(text.format(EX))) == 2
        assert len(engine.query(text.format("http://example.com/"))) == 0
        assert _plans(engine)["misses"] == 2

    def test_base_is_pinned_and_resolves_lifted_iris(self):
        engine = QueryEngine(_graph(), cache_size=0)
        text = "BASE <{}> SELECT ?o {{ <{}> <p> ?o }}"
        assert len(engine.query(text.format(EX, "s3"))) == 3
        assert len(engine.query(text.format(EX, "s4"))) == 4  # a hit, resolved on BASE
        assert len(engine.query(text.format("http://example.com/", "s4"))) == 0
        assert _plans(engine) == {"size": 2, "hits": 1, "misses": 2, "evictions": 0}
        hit = text.format(EX, "s5")
        assert _explained(engine, hit) == _fresh(engine, hit)

    def test_raw_texts_keep_variables_apart_from_names(self):
        engine = QueryEngine(_graph(), cache_size=0)
        engine.query("SELECT ?regex { ?regex ?p ?o }")
        with pytest.raises(SparqlSyntaxError):
            engine.query("SELECT regex { ?regex ?p ?o }")
        assert _plans(engine)["misses"] == 2

    def test_iris_in_strings_and_comments_are_not_lifted(self):
        assert [raw for _, raw in scan('SELECT ?s { ?s ?p "<http://a/>" } # <http://b/>')] == [
            "SELECT", "?s", "{", "?s", "?p", '"<http://a/>"', "}"]
        engine = QueryEngine(_graph(), cache_size=0)
        engine.query('SELECT ?s { ?s ?p "<http://a/>" }')
        engine.query('SELECT ?s { ?s ?p "<http://b/>" }')
        assert _plans(engine)["misses"] == 2  # the literal is part of the key
        engine.query('# <http://c/>\nSELECT ?s { ?s ?p "<http://b/>" }')
        assert _plans(engine)["hits"] == 1  # a comment is not a token at all

    def test_a_version_change_compiles_again_and_drops_older_plans(self):
        """A write moves the version: the next query compiles again, and
        the plans of the older version go (each holds its snapshot)."""
        dataset = Dataset()
        dataset.graph(EX.g1).add((EX.s1, EX.p, EX.o0))
        engine = QueryEngine(dataset, cache_size=0)
        text = f"SELECT ?o {{ <{EX}s1> <{EX}p> ?o }}"
        engine.query(text)
        engine.query(f"SELECT ?s {{ ?s <{EX}p> ?o }}")
        dataset.graph(EX.g1).add((EX.s1, EX.p, EX.o9))
        assert len(engine.query(text)) == 2
        assert _plans(engine) == {"size": 1, "hits": 0, "misses": 3, "evictions": 2}
        assert engine.explain(text).graph is engine._default  # the new snapshot

    def test_lru_evicts_the_oldest_shape(self, monkeypatch):
        from repro.sparql import evaluator

        monkeypatch.setattr(evaluator, "_PLAN_CACHE_SIZE", 2)
        engine = QueryEngine(_graph(), cache_size=0)
        for limit in (1, 2, 3, 1):
            engine.query(f"SELECT ?o {{ ?s ?p ?o }} LIMIT {limit}")
        assert _plans(engine) == {"size": 2, "hits": 0, "misses": 4, "evictions": 2}

    def test_a_hit_keeps_its_shape_from_eviction(self, monkeypatch):
        """The shape → pinned-positions map is an LRU beside the plans:
        a shape hit before two newer ones arrive is still found."""
        from repro.sparql import evaluator

        monkeypatch.setattr(evaluator, "_PLAN_CACHE_SIZE", 2)
        engine = QueryEngine(_graph(), cache_size=0)
        for limit in (1, 2, 1, 3, 1):
            engine.query(f"SELECT ?o {{ ?s ?p ?o }} LIMIT {limit}")
        assert _plans(engine) == {"size": 2, "hits": 2, "misses": 3, "evictions": 1}


class TestHit:
    def test_malformed_iri_on_a_hit_raises_the_misses_error(self):
        engine = QueryEngine(_graph(), cache_size=0)
        engine.query(f"SELECT ?o {{\n  <{EX}s1> ?p ?o }}")
        bad = "SELECT ?o {\n  <> ?p ?o }"
        with pytest.raises(SparqlSyntaxError) as hit:
            engine.query(bad)
        with pytest.raises(SparqlSyntaxError) as miss:
            QueryEngine(_graph(), cache_size=0).query(bad)
        assert str(hit.value) == str(miss.value) == "line 2, column 3: invalid IRI: ''"
        assert _plans(engine)["hits"] == 1

    def test_construct_templates_take_the_new_iris(self):
        engine = QueryEngine(_graph(), cache_size=0)
        text = "CONSTRUCT {{ <{0}> <{1}r> ?o }} WHERE {{ <{0}> <{1}p> ?o }}"
        engine.query(text.format(EX.s1, EX))
        built = engine.query(text.format(EX.s2, EX))
        assert sorted(t.subject for t in built.triples()) == [EX.s2, EX.s2]
        assert _plans(engine)["hits"] == 1

    def test_equal_patterns_written_twice_are_two_slots(self):
        engine = QueryEngine(_graph(), cache_size=0)
        text = ("SELECT ?o {{ {{ <{0}> <{2}p> ?o }} UNION {{ <{1}> <{2}p> ?o }} }}")
        engine.query(text.format(EX.s1, EX.s1, EX))
        rows = engine.query(text.format(EX.s1, EX.s2, EX))
        assert len(rows) == 1 + 2
        assert _plans(engine)["hits"] == 1


#: Query shapes with IRIREF slots {0} {1} written as subjects / objects.
_SHAPES = [
    "SELECT ?o {{ {0} <http://example.org/p> ?o }}",
    "SELECT ?s {{ ?s <http://example.org/p> {1} }}",
    "SELECT * {{ {0} <http://example.org/p> ?o OPTIONAL {{ ?o <http://example.org/q> {1} }} }}",
    "SELECT ?o {{ {{ {0} <http://example.org/p> ?o }} UNION {{ {1} <http://example.org/p> ?o }} }}",
    "SELECT ?o {{ {0} <http://example.org/p> ?o FILTER NOT EXISTS {{ {1} <http://example.org/p> ?o }} }}",
    "SELECT ?o {{ {0} (<http://example.org/p>/<http://example.org/p>)* ?o }}",
    "SELECT ?s {{ ?s <http://example.org/p>+ {1} . {0} <http://example.org/p> ?x }}",
    "ASK {{ {0} <http://example.org/p> {1} }}",
]
_nodes = st.integers(0, 3).map(lambda i: f"<{EX}n{i}>")


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(["p", "q"]), st.integers(0, 3)),
                min_size=4, max_size=20),
       st.lists(st.tuples(st.sampled_from(_SHAPES), _nodes, _nodes), min_size=4, max_size=16))
def test_cached_plans_answer_like_fresh_compiles(triples, queries):
    """One engine answers a stream of shapes with random subject and
    object IRIs, most of them plan-cache hits: every answer is the one a
    compile that bypasses the cache gives."""
    graph = Graph()
    for s, p, o in triples:
        graph.add((EX[f"n{s}"], EX[p], EX[f"n{o}"]))
    engine = QueryEngine(graph, cache_size=0)
    for shape, first, second in queries:
        text = shape.format(first, second)
        got = engine.query(text)
        want = engine.explain(parse_query(text, namespaces=engine.namespaces)).execute()
        if isinstance(got, bool):
            assert got == want, text
        else:
            assert [row.asdict() for row in got] == [row.asdict() for row in want], text


class TestConcurrency:
    def test_threads_share_one_shape_and_profile_only_their_own_rows(self):
        """Eight threads run one shape with different subjects, half of
        them profiled through a request record: every answer is the
        serial one, and every record counts only its own rows."""
        engine = QueryEngine(_graph(), cache_size=0)
        text = "SELECT ?o {{ <{}> <{}p> ?o }} ORDER BY ?o"
        serial = {i: [row.asdict() for row in engine.query(text.format(EX[f"s{i}"], EX))]
                  for i in range(1, 6)}
        failures = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def worker(n):
            try:
                for round_ in range(60):
                    i = 1 + (n + round_) % 5
                    query = text.format(EX[f"s{i}"], EX)
                    ctx = tracectx.start_trace()
                    record = ctx.record = RequestRecord("/sparql", profile=n % 2 == 0)
                    token = tracectx.activate(ctx)
                    try:
                        rows = [row.asdict() for row in engine.query(query)]
                    finally:
                        tracectx.deactivate(token)
                    if rows != serial[i]:
                        failures.append(("rows", n, i, rows))
                    scans = [op for op in record.operators if op["op"] == "scan"]
                    if record.profile and [op["rows_out"] for op in scans] != [i]:
                        failures.append(("profile", n, i, scans))
                    if not record.profile and record.operators:
                        failures.append(("unprofiled", n, i, record.operators))
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(("raised", n, repr(exc)))

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert failures == []
        assert _plans(engine)["misses"] == 1
