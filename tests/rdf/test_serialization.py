"""Unit tests for N-Triples, Turtle and TriG serializations."""

import datetime as dt

import pytest

from repro.rdf import (
    Dataset,
    Graph,
    Namespace,
    PROV,
    RDF,
    from_python,
    parse_nquads,
    parse_ntriples,
    parse_trig,
    parse_turtle,
    serialize_nquads,
    serialize_ntriples,
    serialize_trig,
    serialize_turtle,
)
from repro.rdf.ntriples import NTriplesError
from repro.rdf.terms import BlankNode, IRI, Literal, XSD
from repro.rdf.turtle import TurtleError

EX = Namespace("http://example.org/")


def rich_graph():
    g = Graph()
    g.namespaces.bind("ex", EX)
    g.add((EX.run, RDF.type, PROV.Activity))
    g.add((EX.run, PROV.startedAtTime, from_python(dt.datetime(2013, 1, 1, 12))))
    g.add((EX.run, PROV.used, EX.data))
    g.add((EX.data, RDF.type, PROV.Entity))
    g.add((EX.data, EX.title, Literal('a "quoted" title', language="en")))
    g.add((EX.data, EX.size, 42))
    g.add((EX.data, EX.ratio, Literal("0.5", datatype=XSD.DECIMAL)))
    g.add((EX.data, EX.ok, True))
    g.add((BlankNode("n1"), PROV.used, EX.data))
    return g


class TestNTriples:
    def test_roundtrip(self):
        g = rich_graph()
        assert parse_ntriples(serialize_ntriples(g)) == g

    def test_sorted_output_is_stable(self):
        assert serialize_ntriples(rich_graph()) == serialize_ntriples(rich_graph())

    def test_comments_and_blanks_ignored(self):
        text = "# comment\n\n<http://a/> <http://p/> \"x\" .\n"
        g = parse_ntriples(text)
        assert len(g) == 1

    def test_literal_forms(self):
        text = (
            '<http://a/> <http://p/> "plain" .\n'
            '<http://a/> <http://p/> "tagged"@en .\n'
            '<http://a/> <http://p/> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
        )
        g = parse_ntriples(text)
        assert len(g) == 3

    def test_missing_dot_rejected(self):
        with pytest.raises(NTriplesError):
            parse_ntriples('<http://a/> <http://p/> "x"')

    def test_literal_subject_rejected(self):
        with pytest.raises(NTriplesError):
            parse_ntriples('"x" <http://p/> <http://a/> .')

    def test_bnode_predicate_rejected(self):
        with pytest.raises(NTriplesError):
            parse_ntriples("<http://a/> _:b <http://c/> .")

    def test_error_carries_line_number(self):
        with pytest.raises(NTriplesError) as exc:
            parse_ntriples('<http://a/> <http://p/> "ok" .\ngarbage\n')
        assert exc.value.lineno == 2


class TestNQuads:
    def test_roundtrip_with_named_graphs(self):
        ds = Dataset()
        ds.default.add((EX.a, PROV.used, EX.b))
        ds.graph(EX.g1).add((EX.c, PROV.used, EX.d))
        text = serialize_nquads(ds)
        ds2 = parse_nquads(text)
        assert len(ds2) == 2
        assert (EX.c, PROV.used, EX.d) in ds2.graph(EX.g1)

    def test_triple_lines_go_to_default(self):
        ds = parse_nquads("<http://a/> <http://p/> <http://b/> .\n")
        assert len(ds.default) == 1


class TestTurtle:
    def test_roundtrip(self):
        g = rich_graph()
        assert parse_turtle(serialize_turtle(g)) == g

    def test_deterministic_output(self):
        assert serialize_turtle(rich_graph()) == serialize_turtle(rich_graph())

    def test_uses_curies_and_a(self):
        text = serialize_turtle(rich_graph())
        assert "ex:run a prov:Activity" in text
        assert "@prefix prov:" in text

    def test_integer_shorthand(self):
        text = serialize_turtle(rich_graph())
        assert "ex:size 42" in text

    def test_boolean_shorthand(self):
        assert "ex:ok true" in serialize_turtle(rich_graph())

    def test_parse_semicolon_comma_groups(self):
        text = """
        @prefix ex: <http://example.org/> .
        ex:s ex:p ex:o1, ex:o2 ;
             ex:q "v" .
        """
        g = parse_turtle(text)
        assert len(g) == 3

    def test_parse_prefix_sparql_style(self):
        g = parse_turtle("PREFIX ex: <http://example.org/>\nex:a ex:p ex:b .")
        assert len(g) == 1

    def test_parse_base(self):
        g = parse_turtle("@base <http://example.org/> .\n<a> <p> <b> .")
        assert next(iter(g)).subject == IRI("http://example.org/a")

    def test_parse_blank_node_property_list(self):
        g = parse_turtle(
            "@prefix ex: <http://example.org/> .\n"
            "ex:s ex:p [ ex:q ex:o ] ."
        )
        assert len(g) == 2

    def test_parse_collection(self):
        g = parse_turtle(
            "@prefix ex: <http://example.org/> .\n"
            "ex:s ex:p (ex:a ex:b) ."
        )
        # head + 2x(first, rest)
        assert len(g) == 5
        assert len(list(g.triples(None, RDF.first, None))) == 2

    def test_parse_empty_collection_is_nil(self):
        g = parse_turtle(
            "@prefix ex: <http://example.org/> .\nex:s ex:p () ."
        )
        assert (EX.s, EX.p, RDF.nil) in g

    def test_unknown_prefix_rejected(self):
        with pytest.raises(TurtleError):
            parse_turtle("nope:a nope:b nope:c .")

    def test_missing_dot_rejected(self):
        with pytest.raises(TurtleError):
            parse_turtle("@prefix ex: <http://example.org/> .\nex:a ex:b ex:c")

    def test_numeric_literals(self):
        g = parse_turtle(
            "@prefix ex: <http://e/> .\nex:s ex:a 5 ; ex:b 2.5 ; ex:c 1.0e3 ; ex:d true ."
        )
        datatypes = {t.object.datatype.value for t in g if isinstance(t.object, Literal)}
        assert datatypes == {XSD.INTEGER, XSD.DECIMAL, XSD.DOUBLE, XSD.BOOLEAN}

    def test_long_string(self):
        g = parse_turtle('@prefix ex: <http://e/> .\nex:s ex:p """multi\nline""" .')
        lit = next(iter(g)).object
        assert "\n" in lit.lexical


class TestTriG:
    def test_roundtrip(self):
        ds = Dataset()
        ds.namespaces.bind("ex", EX)
        ds.default.add((EX.bundle, RDF.type, PROV.Bundle))
        ds.graph(EX.bundle).add((EX.run, RDF.type, PROV.Activity))
        ds.graph(EX.bundle).add((EX.run, PROV.used, EX.data))
        text = serialize_trig(ds)
        ds2 = parse_trig(text)
        assert len(ds2) == len(ds)
        assert (EX.run, PROV.used, EX.data) in ds2.graph(EX.bundle)

    def test_graph_keyword_optional(self):
        text = (
            "@prefix ex: <http://example.org/> .\n"
            "ex:g1 { ex:a ex:p ex:b . }\n"
        )
        ds = parse_trig(text)
        assert (EX.a, EX.p, EX.b) in ds.graph(EX.g1)

    def test_default_graph_statements(self):
        text = (
            "@prefix ex: <http://example.org/> .\n"
            "ex:x ex:p ex:y .\n"
            "GRAPH ex:g1 { ex:a ex:p ex:b }\n"
        )
        ds = parse_trig(text)
        assert (EX.x, EX.p, EX.y) in ds.default
        assert (EX.a, EX.p, EX.b) in ds.graph(EX.g1)


class TestParseErrorContext:
    """Turtle/TriG parse failures carry file, line and column context."""

    def test_lineno_and_column_attributes(self):
        with pytest.raises(TurtleError) as exc:
            parse_turtle("@prefix ex: <http://e/> .\nex:a ex:b $ .")
        assert exc.value.lineno == 2
        assert exc.value.column == 11
        assert "line 2, column 11" in str(exc.value)

    def test_source_prefixes_message(self):
        with pytest.raises(TurtleError) as exc:
            parse_turtle("nope:a nope:b nope:c .", source="Taverna/d/t/run.prov.ttl")
        assert exc.value.source == "Taverna/d/t/run.prov.ttl"
        assert str(exc.value).startswith("Taverna/d/t/run.prov.ttl: line 1")

    def test_no_source_keeps_plain_message(self):
        with pytest.raises(TurtleError) as exc:
            parse_turtle("nope:a nope:b nope:c .")
        assert exc.value.source is None
        assert str(exc.value).startswith("line 1")

    def test_trig_error_carries_source(self):
        from repro.rdf.trig import parse_trig

        bad = "@prefix ex: <http://e/> .\nGRAPH ex:g { ex:a ex:b }"
        with pytest.raises(TurtleError) as exc:
            parse_trig(bad, source="Wings/d/t/run.prov.trig")
        assert exc.value.source == "Wings/d/t/run.prov.trig"

    def test_bad_string_escape_is_turtle_error(self):
        # unescape_string raises bare ValueError; the parser must wrap it
        text = '@prefix ex: <http://e/> .\nex:s ex:p "bad \\q escape" .'
        with pytest.raises(TurtleError) as exc:
            parse_turtle(text)
        assert exc.value.lineno == 2

    @pytest.mark.parametrize(
        "body, message, location",
        [
            # end of input: just past the last character ...
            ("ex:a ex:b ex:c", "missing '.' at end of statement", (2, 15)),
            # ... which is the start of line 3 once a newline ends line 2
            ("ex:a ex:b ex:c\n", "missing '.' at end of statement", (3, 1)),
            # an unclosed bracket is reported where it was opened
            ("ex:a ex:b ( ex:c\n  ex:d", "unterminated collection", (2, 11)),
            ("GRAPH ex:g {\n ex:a ex:b ex:c .\n", "unterminated graph block", (2, 12)),
            ("GRAPH ex:g {\n ex:a ex:b ex:c", "expected '.', got '<eof>'", (3, 16)),
        ],
    )
    def test_end_of_input_errors_are_located(self, body, message, location):
        from repro.rdf.trig import parse_trig

        with pytest.raises(TurtleError) as exc:
            parse_trig("@prefix ex: <http://e/> .\n" + body, source="Wings/run.prov.trig")
        assert exc.value.raw_message == message
        assert (exc.value.lineno, exc.value.column) == location
        assert exc.value.source == "Wings/run.prov.trig"
        assert str(exc.value).startswith("Wings/run.prov.trig: line %d, column %d" % location)

    def test_statement_cut_off_before_its_object_is_a_typed_error(self):
        with pytest.raises(TurtleError) as exc:
            parse_turtle("@prefix ex: <http://e/> .\nex:a ex:b")
        assert exc.value.raw_message == "unexpected end of input"
        assert exc.value.lineno == 2

    def test_trig_without_dataset_is_typed_error(self):
        from repro.rdf.turtle import TurtleParser

        with pytest.raises(TurtleError):
            TurtleParser("ex:a ex:b ex:c .", allow_graphs=True)

    def test_with_source_copies(self):
        err = TurtleError("boom", 3, 7)
        attributed = err.with_source("x.ttl")
        assert (attributed.lineno, attributed.column) == (3, 7)
        assert attributed.source == "x.ttl"
        assert err.source is None
