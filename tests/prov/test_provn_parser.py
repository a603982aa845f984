"""Tests for PROV-N parsing (the inverse of the serializer)."""

import datetime as dt

import pytest

from repro.prov.model import Association, Derivation, ProvDocument, Usage
from repro.prov.provn import serialize_provn
from repro.rdf.terms import IRI
from tests.prov.provn_parser import ProvNSyntaxError, parse_provn


def full_document():
    doc = ProvDocument()
    doc.namespaces.bind("ex", "http://example.org/")
    run = doc.activity("ex:run", start_time=dt.datetime(2013, 1, 1, 10),
                       end_time=dt.datetime(2013, 1, 1, 11))
    doc.plan("ex:plan")
    doc.agent("ex:alice", agent_type="person")
    doc.entity("ex:in", {"prov:value": 'quoted "text"'})
    doc.entity("ex:out", {"prov:value": 42})
    doc.used(run, "ex:in", time=dt.datetime(2013, 1, 1, 10, 5))
    doc.was_generated_by("ex:out", run)
    doc.was_associated_with(run, "ex:alice", plan="ex:plan")
    doc.was_attributed_to("ex:out", "ex:alice")
    doc.acted_on_behalf_of("ex:alice", "ex:alice")
    doc.had_primary_source("ex:out", "ex:in")
    doc.was_influenced_by("ex:out", "ex:run")
    doc.had_member("ex:coll", "ex:out")
    bundle = doc.bundle("ex:b1")
    bundle.entity("ex:inner")
    bundle.used("ex:ba", "ex:inner")
    return doc


class TestRoundTrip:
    def test_statistics_preserved(self):
        doc = full_document()
        assert parse_provn(serialize_provn(doc)).statistics() == doc.statistics()

    def test_fixed_point(self):
        text = serialize_provn(full_document())
        assert serialize_provn(parse_provn(text)) == text

    def test_activity_times(self):
        doc2 = parse_provn(serialize_provn(full_document()))
        run = doc2.get_element("http://example.org/run")
        assert run.start_time == dt.datetime(2013, 1, 1, 10)
        assert run.end_time == dt.datetime(2013, 1, 1, 11)

    def test_usage_time(self):
        doc2 = parse_provn(serialize_provn(full_document()))
        usage = next(iter(doc2.relations_of(Usage)))
        assert usage.time == dt.datetime(2013, 1, 1, 10, 5)

    def test_plan_preserved(self):
        doc2 = parse_provn(serialize_provn(full_document()))
        assoc = next(iter(doc2.relations_of(Association)))
        assert assoc.plan == IRI("http://example.org/plan")

    def test_derivation_subtype(self):
        doc2 = parse_provn(serialize_provn(full_document()))
        derivation = next(iter(doc2.relations_of(Derivation)))
        assert derivation.subtype == "primary_source"

    def test_quoted_attribute_values(self):
        doc2 = parse_provn(serialize_provn(full_document()))
        entity = doc2.get_element("http://example.org/in")
        assert entity.first_attribute("prov:value").lexical == 'quoted "text"'

    def test_typed_attribute_values(self):
        doc2 = parse_provn(serialize_provn(full_document()))
        entity = doc2.get_element("http://example.org/out")
        assert entity.first_attribute("prov:value").to_python() == 42

    def test_bundles_restored(self):
        doc2 = parse_provn(serialize_provn(full_document()))
        assert len(doc2.bundles) == 1
        bundle = next(iter(doc2.bundles.values()))
        assert bundle.get_element("http://example.org/inner") is not None

    def test_corpus_trace_roundtrip(self, corpus):
        trace = next(t for t in corpus.by_system("taverna") if not t.failed)
        text = serialize_provn(trace.document)
        doc2 = parse_provn(text)
        assert doc2.statistics() == trace.document.statistics()


class TestDirectParsing:
    def test_minimal_document(self):
        doc = parse_provn("document\nendDocument\n")
        assert len(doc) == 0

    def test_language_tagged_attribute(self):
        text = (
            "document\n"
            "  prefix ex <http://example.org/>\n"
            '  entity(ex:e, [ex:label="bonjour"@fr])\n'
            "endDocument\n"
        )
        doc = parse_provn(text)
        value = doc.get_element("http://example.org/e").first_attribute(
            "http://example.org/label"
        )
        assert value.language == "fr"

    def test_full_iri_identifiers(self):
        text = "document\n  entity(<http://x.example/e>)\nendDocument\n"
        doc = parse_provn(text)
        assert doc.get_element("http://x.example/e") is not None

    def test_activity_marker_times(self):
        text = (
            "document\n  prefix ex <http://example.org/>\n"
            "  activity(ex:a, 2013-01-01T10:00:00, -)\nendDocument\n"
        )
        doc = parse_provn(text)
        activity = doc.get_element("http://example.org/a")
        assert activity.start_time is not None and activity.end_time is None

    def test_comments_ignored(self):
        text = "document // header\n  // nothing here\nendDocument\n"
        assert len(parse_provn(text)) == 0


class TestErrors:
    def test_missing_end_document(self):
        with pytest.raises(ProvNSyntaxError):
            parse_provn("document\n")

    def test_unknown_statement(self):
        with pytest.raises(ProvNSyntaxError):
            parse_provn("document\n  teleported(ex:a, ex:b)\nendDocument\n")

    def test_unresolvable_prefix(self):
        with pytest.raises(ProvNSyntaxError):
            parse_provn("document\n  entity(zz:e)\nendDocument\n")

    def test_content_after_end(self):
        with pytest.raises(ProvNSyntaxError):
            parse_provn("document\nendDocument\nentity(ex:e)\n")

    def test_bad_character(self):
        with pytest.raises(ProvNSyntaxError):
            parse_provn("document\n  entity(§)\nendDocument\n")
