"""Unit tests for the SPARQL parser: query text → algebra."""

import pytest

from repro.rdf.namespace import PROV, RDF
from repro.rdf.terms import IRI, Literal, XSD
from repro.sparql.algebra import (
    Aggregate,
    AskQuery,
    BGP,
    Bind,
    Filter,
    FunctionCall,
    GraphPattern,
    Join,
    LeftJoin,
    Minus,
    SelectQuery,
    Union,
    Var,
)
from repro.sparql.parser import parse_query
from repro.sparql.tokenizer import SparqlSyntaxError


class TestSelectClause:
    def test_simple_select(self):
        q = parse_query("SELECT ?x WHERE { ?x a prov:Entity }")
        assert isinstance(q, SelectQuery)
        assert [p.var.name for p in q.projections] == ["x"]
        assert not q.distinct

    def test_select_star(self):
        q = parse_query("SELECT * WHERE { ?x ?p ?o }")
        assert q.select_all

    def test_select_distinct(self):
        q = parse_query("SELECT DISTINCT ?x WHERE { ?x ?p ?o }")
        assert q.distinct

    def test_select_expression_as(self):
        q = parse_query("SELECT (COUNT(?x) AS ?n) WHERE { ?x ?p ?o }")
        assert q.projections[0].var.name == "n"
        assert isinstance(q.projections[0].expression, Aggregate)

    def test_empty_select_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT WHERE { ?x ?p ?o }")

    def test_where_keyword_optional(self):
        q = parse_query("SELECT ?x { ?x ?p ?o }")
        assert isinstance(q.where, BGP)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT ?x WHERE { ?x ?p ?o } extra")


class TestPrologue:
    def test_prefix_declaration(self):
        q = parse_query(
            "PREFIX ex: <http://example.org/>\nSELECT ?x WHERE { ?x a ex:Thing }"
        )
        tp = q.where.triples[0]
        assert tp.object == IRI("http://example.org/Thing")

    def test_unknown_prefix_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT ?x WHERE { ?x a zz:Thing }")

    def test_core_prefixes_available(self):
        q = parse_query("SELECT ?x WHERE { ?x a prov:Activity }")
        assert q.where.triples[0].object == PROV.Activity

    def test_base_resolution(self):
        q = parse_query("BASE <http://example.org/>\nSELECT ?x WHERE { ?x a <Thing> }")
        assert q.where.triples[0].object == IRI("http://example.org/Thing")


class TestTriplesBlock:
    def test_a_is_rdf_type(self):
        q = parse_query("SELECT ?x WHERE { ?x a prov:Entity }")
        assert q.where.triples[0].predicate == RDF.type

    def test_semicolon_and_comma(self):
        q = parse_query("SELECT ?x WHERE { ?x a prov:Entity ; prov:used ?a, ?b . }")
        assert len(q.where.triples) == 3

    def test_literal_objects(self):
        q = parse_query('SELECT ?x WHERE { ?x prov:value "v", 5, 2.5, true }')
        objects = [tp.object for tp in q.where.triples]
        assert objects[0] == Literal("v")
        assert objects[1] == Literal("5", datatype=XSD.INTEGER)
        assert objects[2] == Literal("2.5", datatype=XSD.DECIMAL)
        assert objects[3] == Literal("true", datatype=XSD.BOOLEAN)

    def test_typed_and_tagged_literals(self):
        q = parse_query(
            'SELECT ?x WHERE { ?x prov:value "2013-01-01T00:00:00"^^xsd:dateTime, "hi"@en }'
        )
        objs = [tp.object for tp in q.where.triples]
        assert objs[0].datatype.value == XSD.DATETIME
        assert objs[1].language == "en"

    def test_multiple_statements(self):
        q = parse_query("SELECT ?x WHERE { ?x a prov:Entity . ?y a prov:Agent . }")
        assert len(q.where.triples) == 2


class TestGraphPatterns:
    def test_optional(self):
        q = parse_query("SELECT ?x WHERE { ?x a prov:Entity OPTIONAL { ?x prov:value ?v } }")
        assert isinstance(q.where, LeftJoin)

    def test_filter_wraps_group(self):
        q = parse_query("SELECT ?x WHERE { ?x prov:value ?v . FILTER(?v > 3) }")
        assert isinstance(q.where, Filter)

    def test_union(self):
        q = parse_query("SELECT ?x WHERE { { ?x a prov:Entity } UNION { ?x a prov:Agent } }")
        assert isinstance(q.where, Union)

    def test_minus(self):
        q = parse_query("SELECT ?x WHERE { ?x a prov:Entity MINUS { ?x prov:value ?v } }")
        assert isinstance(q.where, Minus)

    def test_bind(self):
        q = parse_query('SELECT ?x WHERE { ?x prov:value ?v BIND(STR(?v) AS ?s) }')
        assert isinstance(q.where, Bind)
        assert q.where.var == Var("s")

    def test_graph_with_iri(self):
        q = parse_query("SELECT ?x WHERE { GRAPH <http://g/> { ?x a prov:Entity } }")
        assert isinstance(q.where, GraphPattern)
        assert q.where.name == IRI("http://g/")

    def test_graph_with_variable(self):
        q = parse_query("SELECT ?x WHERE { GRAPH ?g { ?x a prov:Entity } }")
        assert q.where.name == Var("g")

    def test_nested_group_merges_or_joins(self):
        # A nested pure-BGP group may legally be merged into the outer BGP
        # (identical semantics) or kept as an explicit Join.
        q = parse_query("SELECT ?x WHERE { ?x a prov:Entity . { ?x prov:value ?v } }")
        if isinstance(q.where, BGP):
            assert len(q.where.triples) == 2
        else:
            assert isinstance(q.where, Join)

    def test_nested_group_with_filter_stays_scoped(self):
        q = parse_query(
            "SELECT ?x WHERE { ?x a prov:Entity . { ?x prov:value ?v FILTER(?v > 1) } }"
        )
        assert isinstance(q.where, Join)
        assert isinstance(q.where.right, Filter)

    def test_unterminated_group(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT ?x WHERE { ?x a prov:Entity")


class TestExpressions:
    def test_precedence_or_over_and(self):
        q = parse_query("SELECT ?x WHERE { ?x prov:value ?v FILTER(?v > 1 && ?v < 5 || ?v = 9) }")
        from repro.sparql.algebra import Or

        assert isinstance(q.where.condition, Or)

    def test_arithmetic_precedence(self):
        q = parse_query("SELECT ?x WHERE { ?x prov:value ?v FILTER(?v = 1 + 2 * 3) }")
        from repro.sparql.algebra import Arithmetic, Compare

        cond = q.where.condition
        assert isinstance(cond, Compare)
        assert isinstance(cond.right, Arithmetic) and cond.right.op == "+"
        assert isinstance(cond.right.right, Arithmetic) and cond.right.right.op == "*"

    def test_not_exists(self):
        q = parse_query(
            "SELECT ?x WHERE { ?x a prov:Entity FILTER NOT EXISTS { ?x prov:value ?v } }"
        )
        from repro.sparql.algebra import ExistsExpr

        assert isinstance(q.where.condition, ExistsExpr)
        assert q.where.condition.negated

    def test_in_expression(self):
        q = parse_query('SELECT ?x WHERE { ?x prov:value ?v FILTER(?v IN ("a", "b")) }')
        from repro.sparql.algebra import InExpr

        assert isinstance(q.where.condition, InExpr)
        assert len(q.where.condition.choices) == 2

    def test_function_call(self):
        q = parse_query('SELECT ?x WHERE { ?x prov:value ?v FILTER(REGEX(?v, "^a")) }')
        assert isinstance(q.where.condition, FunctionCall)
        assert q.where.condition.name == "REGEX"

    def test_unknown_function_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT ?x WHERE { ?x prov:value ?v FILTER(FROBNICATE(?v)) }")

    def test_unary_not_and_negation(self):
        q = parse_query("SELECT ?x WHERE { ?x prov:value ?v FILTER(!BOUND(?v) || ?v > -1) }")
        from repro.sparql.algebra import Or

        assert isinstance(q.where.condition, Or)

    @pytest.mark.parametrize("text,expression", [
        ("SELECT * { VALUES ?x {1} BIND(?x+1 AS ?y) }",
         lambda q: q.where.expression),
        ("SELECT * { ?s prov:value ?o FILTER(?o-1 > 0) }",
         lambda q: q.where.condition.left),
        ("SELECT (?o-1.5*2 AS ?y) { ?s prov:value ?o }",
         lambda q: q.projections[0].expression),
    ], ids=["bind", "filter", "projection"])
    def test_signed_numeral_after_operand_is_arithmetic(self, text, expression):
        """Grammar rule [116]: ``?x+1`` is an addition, not ``?x`` then
        the numeral ``+1``; a following ``*`` / ``/`` binds tighter."""
        from repro.sparql.algebra import Arithmetic, TermExpr, VarExpr

        arithmetic = expression(parse_query(text))
        assert isinstance(arithmetic, Arithmetic)
        assert isinstance(arithmetic.left, VarExpr)
        right = arithmetic.right
        if arithmetic.op == "+":
            assert right == TermExpr(Literal("1", datatype=XSD.INTEGER))
        elif isinstance(right, TermExpr):
            assert arithmetic.op == "-" and right.term == Literal("1", datatype=XSD.INTEGER)
        else:
            assert arithmetic.op == "-" and right.op == "*"
            assert right.left == TermExpr(Literal("1.5", datatype=XSD.DECIMAL))


class TestSolutionModifiers:
    def test_order_limit_offset(self):
        q = parse_query("SELECT ?x WHERE { ?x ?p ?o } ORDER BY DESC(?x) LIMIT 5 OFFSET 2")
        assert q.order_by[0].descending
        assert q.limit == 5 and q.offset == 2

    def test_order_by_plain_variable(self):
        q = parse_query("SELECT ?x WHERE { ?x ?p ?o } ORDER BY ?x")
        assert not q.order_by[0].descending

    def test_group_by_having(self):
        q = parse_query(
            "SELECT ?p (COUNT(?x) AS ?n) WHERE { ?x ?p ?o } "
            "GROUP BY ?p HAVING(COUNT(?x) > 2)"
        )
        assert len(q.group_by) == 1
        assert q.having is not None
        assert q.has_aggregates()

    def test_negative_limit_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT ?x WHERE { ?x ?p ?o } LIMIT -1")

    def test_count_star(self):
        q = parse_query("SELECT (COUNT(*) AS ?n) WHERE { ?x ?p ?o }")
        agg = q.projections[0].expression
        assert agg.expression is None

    def test_group_concat_separator(self):
        q = parse_query(
            'SELECT (GROUP_CONCAT(?x; SEPARATOR=", ") AS ?all) WHERE { ?x ?p ?o }'
        )
        assert q.projections[0].expression.separator == ", "


class TestAsk:
    def test_ask(self):
        q = parse_query("ASK { ?x a prov:Entity }")
        assert isinstance(q, AskQuery)

    def test_ask_with_where(self):
        q = parse_query("ASK WHERE { ?x a prov:Entity }")
        assert isinstance(q, AskQuery)

    def test_unknown_query_form(self):
        # SPARQL Update is out of scope: the corpus is read-only.
        with pytest.raises(SparqlSyntaxError):
            parse_query("INSERT DATA { <http://a/> <http://b/> <http://c/> }")


class TestErrors:
    @pytest.mark.parametrize("text, message", [
        ('SELECT * { ?s ?p "a\\q" }', "line 1, column 18: malformed string escape: unknown escape: \\q"),
        ('SELECT * {\n  ?s ?p "\\u00ZZ" }', "line 2, column 9: malformed string escape: "),
        ('SELECT (GROUP_CONCAT(?o ; SEPARATOR="\\x") AS ?c) { ?s ?p ?o }',
         "line 1, column 37: malformed string escape: unknown escape: \\x"),
    ])
    def test_malformed_string_escape_is_a_syntax_error(self, text, message):
        with pytest.raises(SparqlSyntaxError) as raised:
            parse_query(text)
        assert str(raised.value).startswith(message)

    def test_errors_carry_line_and_column_of_the_failing_token(self):
        with pytest.raises(SparqlSyntaxError) as raised:
            parse_query("SELECT ?x\nWHERE {\n  ?x ?p ?o . FILTER(?x ** 2) }")
        error = raised.value
        assert (error.lineno, error.column) == (3, 25)
        assert str(error) == "line 3, column 25: unexpected token in expression: '*'"
