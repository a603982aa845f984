"""Unit tests for SPARQL evaluation: BGPs, modifiers, aggregates, GRAPH."""

import datetime as dt
import itertools

import pytest

from repro.rdf import Dataset, Graph, Namespace, PROV, RDF, from_python
from repro.sparql import QueryEngine, plan_bgp_steps
from repro.sparql.algebra import TriplePattern, Var

EX = Namespace("http://example.org/")


@pytest.fixture
def engine(sample_graph):
    return QueryEngine(sample_graph)


class TestBasicSelect:
    def test_single_pattern(self, engine):
        rows = engine.select("SELECT ?x WHERE { ?x a prov:Activity }")
        assert len(rows) == 3

    def test_join_via_shared_variable(self, engine):
        rows = engine.select(
            "SELECT ?run ?d WHERE { ?run a prov:Activity ; prov:used ?d . ?d a prov:Entity }"
        )
        assert len(rows) == 3

    def test_no_match(self, engine):
        assert len(engine.select("SELECT ?x WHERE { ?x prov:wasDerivedFrom ?y }")) == 0

    def test_select_star_collects_all_vars(self, engine):
        rows = engine.select("SELECT * WHERE { ?x prov:used ?y }")
        assert set(rows.variables) == {"x", "y"}

    def test_repeated_variable_must_match(self, engine, sample_graph):
        sample_graph.add((EX.selfloop, EX.ptr, EX.selfloop))
        local = QueryEngine(sample_graph)
        rows = local.select(
            "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x ex:ptr ?x }"
        )
        assert len(rows) == 1

    def test_bound_constant_subject(self, engine):
        rows = engine.select(
            "PREFIX ex: <http://example.org/> SELECT ?d WHERE { ex:run0 prov:used ?d }"
        )
        assert rows.column("d") == ["http://example.org/data0"]


class TestOptionalAndFilters:
    def test_optional_keeps_unmatched(self, engine):
        rows = engine.select(
            "SELECT ?run ?end WHERE { ?run a prov:Activity OPTIONAL { ?run prov:endedAtTime ?end } }"
        )
        assert len(rows) == 3
        assert sum(1 for r in rows if r.end is None) == 1

    def test_filter_numeric(self, engine):
        rows = engine.select(
            "PREFIX ex: <http://example.org/> "
            "SELECT ?d WHERE { ?d ex:size ?s FILTER(?s >= 10) }"
        )
        assert len(rows) == 2

    def test_filter_error_drops_solution(self, engine):
        # comparing string entity IRL to number errors -> dropped, not crash
        rows = engine.select(
            "SELECT ?run WHERE { ?run a prov:Activity FILTER(?missing > 1) }"
        )
        assert len(rows) == 0

    def test_filter_not_exists(self, engine):
        rows = engine.select(
            "SELECT ?run WHERE { ?run a prov:Activity FILTER NOT EXISTS { ?run prov:endedAtTime ?e } }"
        )
        assert rows.column("run") == ["http://example.org/run2"]

    def test_filter_exists(self, engine):
        rows = engine.select(
            "SELECT ?run WHERE { ?run a prov:Activity FILTER EXISTS { ?run prov:endedAtTime ?e } }"
        )
        assert len(rows) == 2

    def test_bind(self, engine):
        rows = engine.select(
            'SELECT ?name WHERE { ?run a prov:Activity BIND(STRAFTER(STR(?run), "org/") AS ?name) } ORDER BY ?name'
        )
        assert rows.column("name") == ["run0", "run1", "run2"]

    def test_minus(self, engine):
        rows = engine.select(
            "SELECT ?run WHERE { ?run a prov:Activity MINUS { ?run prov:endedAtTime ?e } }"
        )
        assert rows.column("run") == ["http://example.org/run2"]

    def test_union_dedup_with_distinct(self, engine):
        rows = engine.select(
            "SELECT DISTINCT ?x WHERE { { ?x a prov:Activity } UNION { ?x a prov:Activity } }"
        )
        assert len(rows) == 3


class TestModifiers:
    def test_order_by_datetime_desc(self, engine):
        rows = engine.select(
            "SELECT ?run WHERE { ?run prov:startedAtTime ?t } ORDER BY DESC(?t)"
        )
        assert rows.column("run")[0] == "http://example.org/run2"

    def test_limit_offset(self, engine):
        rows = engine.select(
            "SELECT ?run WHERE { ?run a prov:Activity } ORDER BY ?run LIMIT 1 OFFSET 1"
        )
        assert rows.column("run") == ["http://example.org/run1"]

    def test_distinct(self, engine):
        rows = engine.select("SELECT DISTINCT ?t WHERE { ?x a ?t }")
        assert len(rows) == 2

    def test_multi_key_order(self, engine):
        rows = engine.select(
            "SELECT ?x ?t WHERE { ?x a ?t } ORDER BY ?t DESC(?x)"
        )
        assert len(rows) == 6
        # first group: activities (prov:Activity < prov:Entity), descending IRIs
        assert rows.column("x")[0] == "http://example.org/run2"


class TestAggregates:
    def test_count_star(self, engine):
        rows = engine.select("SELECT (COUNT(*) AS ?n) WHERE { ?x a prov:Activity }")
        assert rows[0].n.to_python() == 3

    def test_group_by_count(self, engine):
        rows = engine.select(
            "SELECT ?t (COUNT(?x) AS ?n) WHERE { ?x a ?t } GROUP BY ?t ORDER BY ?t"
        )
        assert [r.n.to_python() for r in rows] == [3, 3]

    def test_sum_avg_min_max(self, engine):
        rows = engine.select(
            "PREFIX ex: <http://example.org/> "
            "SELECT (SUM(?s) AS ?sum) (AVG(?s) AS ?avg) (MIN(?s) AS ?min) (MAX(?s) AS ?max) "
            "WHERE { ?d ex:size ?s }"
        )
        row = rows[0]
        assert row.sum.to_python() == 30
        assert row.avg.to_python() == 10
        assert row.min.to_python() == 0
        assert row.max.to_python() == 20

    def test_count_distinct(self, engine):
        rows = engine.select("SELECT (COUNT(DISTINCT ?t) AS ?n) WHERE { ?x a ?t }")
        assert rows[0].n.to_python() == 2

    def test_group_concat(self, engine):
        rows = engine.select(
            'PREFIX ex: <http://example.org/> '
            'SELECT (GROUP_CONCAT(?s; SEPARATOR="|") AS ?all) WHERE { ?d ex:size ?s }'
        )
        assert sorted(rows[0].all.lexical.split("|")) == ["0", "10", "20"]

    def test_sample(self, engine):
        rows = engine.select("SELECT (SAMPLE(?x) AS ?one) WHERE { ?x a prov:Activity }")
        assert rows[0].one is not None

    def test_having(self, engine):
        rows = engine.select(
            "SELECT ?t (COUNT(?x) AS ?n) WHERE { ?x a ?t } GROUP BY ?t HAVING(COUNT(?x) > 5)"
        )
        assert len(rows) == 0

    def test_sum_if_conditional_count(self, engine):
        rows = engine.select(
            "PREFIX ex: <http://example.org/> "
            'SELECT (SUM(IF(?s > 5, 1, 0)) AS ?big) WHERE { ?d ex:size ?s }'
        )
        assert rows[0].big.to_python() == 2

    def test_empty_group_count_zero(self, engine):
        rows = engine.select("SELECT (COUNT(?x) AS ?n) WHERE { ?x prov:wasDerivedFrom ?y }")
        assert rows[0].n.to_python() == 0

    def test_bare_var_requires_group_by(self, engine):
        """A malformed query whatever the data: the compiler refuses it
        before any scan, on a matching WHERE and on an empty one
        (SPARQL 1.1 §11.4)."""
        from repro.sparql import SparqlSyntaxError

        for where in ("?x a ?y", "?x prov:wasDerivedFrom ?y"):
            with pytest.raises(SparqlSyntaxError, match="GROUP BY"):
                engine.select(f"SELECT ?x (COUNT(?y) AS ?n) WHERE {{ {where} }}")
            with pytest.raises(SparqlSyntaxError, match="GROUP BY"):
                engine.select(
                    f"SELECT (COUNT(?y) AS ?n) ?x WHERE {{ {where} }} GROUP BY ?y")


#: Malformed under SPARQL 1.1 (§18.2.1 scope; aggregates only in SELECT,
#: HAVING and ORDER BY), each with what the compiler says.
SCOPE_ERRORS = {
    "bind-in-scope": ("SELECT ?x WHERE { ?x ?p ?o . BIND(1 AS ?x) }", "already in scope"),
    "filter-aggregate": ("SELECT ?s WHERE { ?s ?p ?o FILTER(COUNT(?o) > 0) }",
                         "aggregate inside FILTER"),
    "bind-aggregate": ("SELECT ?s WHERE { ?s ?p ?o BIND(COUNT(?o) AS ?n) }",
                       "aggregate inside BIND"),
    "nested-aggregate": ("SELECT (COUNT(COUNT(?o)) AS ?n) WHERE { ?s ?p ?o }",
                         "holds an aggregate"),
    "alias-in-scope": ("SELECT (COUNT(?o) AS ?s) WHERE { ?s ?p ?o }", "already in scope"),
}


class TestScopeErrors:
    """Each text is refused at compile time, before any scan: on a graph
    where WHERE matches and on an empty one."""

    @pytest.mark.parametrize("name", sorted(SCOPE_ERRORS))
    def test_refused_whatever_the_data(self, engine, name):
        from repro.sparql import SparqlSyntaxError

        text, message = SCOPE_ERRORS[name]
        for source in (engine, QueryEngine(Graph())):
            with pytest.raises(SparqlSyntaxError, match=message):
                source.query(text)
            with pytest.raises(SparqlSyntaxError, match=message):
                source.explain(text)

    def test_legal_neighbours_still_answer(self, engine):
        """A BIND target fresh in its group (per UNION branch, or in a
        nested group) and an aggregate in HAVING stay legal."""
        rows = engine.select(
            "SELECT ?x ?f WHERE { { ?x a prov:Activity BIND(1 AS ?f) }"
            " UNION { ?x a prov:Entity BIND(2 AS ?f) } }")
        assert {row.f.to_python() for row in rows} == {1, 2}
        assert len(engine.select("SELECT ?x WHERE { ?x a prov:Activity { BIND(?x AS ?y) } }")) == 3
        rows = engine.select("SELECT ?x (COUNT(?y) AS ?n) WHERE { ?x prov:used ?y }"
                             " GROUP BY ?x HAVING (COUNT(?y) > 0)")
        assert len(rows) > 0


class TestAsk:
    def test_true_false(self, engine):
        assert engine.ask("ASK { ?x a prov:Activity }")
        assert not engine.ask("ASK { ?x prov:wasDerivedFrom ?y }")


class TestDatasetQueries:
    def make_dataset(self):
        ds = Dataset()
        ds.namespaces.bind("ex", EX)
        ds.default.add((EX.b1, RDF.type, PROV.Bundle))
        ds.graph(EX.b1).add((EX.p1, RDF.type, PROV.Activity))
        ds.graph(EX.b2).add((EX.p2, RDF.type, PROV.Activity))
        return ds

    def test_default_bgp_sees_union(self):
        engine = QueryEngine(self.make_dataset())
        rows = engine.select("SELECT ?x WHERE { ?x a prov:Activity }")
        assert len(rows) == 2

    def test_graph_with_name(self):
        engine = QueryEngine(self.make_dataset())
        rows = engine.select(
            "PREFIX ex: <http://example.org/> "
            "SELECT ?x WHERE { GRAPH ex:b1 { ?x a prov:Activity } }"
        )
        assert rows.column("x") == ["http://example.org/p1"]

    def test_graph_with_variable_binds_name(self):
        engine = QueryEngine(self.make_dataset())
        rows = engine.select(
            "SELECT ?g ?x WHERE { GRAPH ?g { ?x a prov:Activity } } ORDER BY ?g"
        )
        assert rows.column("g") == ["http://example.org/b1", "http://example.org/b2"]

    def test_graph_over_plain_graph_is_empty(self, engine):
        rows = engine.select("SELECT ?x WHERE { GRAPH ?g { ?x a prov:Activity } }")
        assert len(rows) == 0

    def test_missing_named_graph_is_empty(self):
        engine = QueryEngine(self.make_dataset())
        rows = engine.select(
            "PREFIX ex: <http://example.org/> "
            "SELECT ?x WHERE { GRAPH ex:nope { ?x ?p ?o } }"
        )
        assert len(rows) == 0


class TestJoinPlanning:
    def test_plan_puts_selective_first(self, sample_graph):
        patterns = [
            TriplePattern(Var("x"), Var("p"), Var("o")),
            TriplePattern(EX.run0, PROV.used, Var("d")),
        ]
        ordered = plan_bgp_steps(patterns, graph=sample_graph)
        assert ordered[0].pattern.bound_count() == 2

    def test_plan_propagates_bindings(self):
        patterns = [
            TriplePattern(Var("a"), PROV.used, Var("b")),
            TriplePattern(Var("b"), RDF.type, PROV.Entity),
        ]
        ordered = plan_bgp_steps(patterns)
        # second chosen pattern should benefit from ?b being bound
        assert len(ordered) == 2

    def test_written_order_does_not_change_results(self, sample_graph):
        """Metamorphic: every permutation of the written pattern order
        yields the same row multiset (the planner may pick a different
        order for each; the answer may not move)."""
        patterns = ["?run prov:used ?d", "?d a prov:Entity", "?run a prov:Activity"]
        engine = QueryEngine(sample_graph)
        answers = [
            sorted(tuple(sorted(r.python().items())) for r in engine.select(
                "SELECT ?run ?d WHERE { " + " . ".join(order) + " }"))
            for order in itertools.permutations(patterns)
        ]
        assert answers[0]
        assert all(answer == answers[0] for answer in answers)


class TestResults:
    def test_to_csv(self, engine):
        csv_text = engine.select(
            "SELECT ?run WHERE { ?run a prov:Activity } ORDER BY ?run LIMIT 1"
        ).to_csv()
        assert csv_text.splitlines()[0] == "run"
        assert "run0" in csv_text

    def test_to_json_shape(self, engine):
        import json

        payload = json.loads(
            engine.select("SELECT ?run WHERE { ?run a prov:Activity }").to_json()
        )
        assert payload["head"]["vars"] == ["run"]
        assert len(payload["results"]["bindings"]) == 3
        assert payload["results"]["bindings"][0]["run"]["type"] == "uri"

    def test_pretty_renders_header(self, engine):
        text = engine.select("SELECT ?run WHERE { ?run a prov:Activity }").pretty()
        assert text.splitlines()[0].startswith("?run")

    def test_row_access_patterns(self, engine):
        rows = engine.select("SELECT ?run ?t WHERE { ?run prov:startedAtTime ?t } ORDER BY ?t")
        row = rows[0]
        assert row["run"] == row[0]
        assert row.run is row["run"]
        assert isinstance(row.python()["t"], dt.datetime)
